"""CDC / incremental-ingest engine: binlog tail → partitioned Parquet lake
table via key-partitioned copy-on-write upsert (the north-rule core; all new
design — the reference has no CDC machinery, see SURVEY.md §7).

Pipeline shape (the public API takes and returns Ray Datasets; the
exchange inside an apply runs as plain Ray tasks, at most ``TASK_WINDOW``
in flight, so an apply starts no Ray Data execution):

    spill task per group of pending segments          # the exchange, map side:
      read (lsn > watermark pushed into the parquet   #   per-block LWW combine
        read, additive schema unify)                  #   + ONE indexed Arrow-
      [ → DirectiveChain ]   (in-flight wrangling)    #   IPC spill file per
      → lsn renamed _lsn → SpillWriter                #   block (record batch
      → index table (tiny)                            #   per partition), like a
                                                      #   sort-based shuffle
                                                      #   map output
    merge task per (partition, salted sub)            # ranged reads of its
      → MergePartition → lineage row (tiny)           # batches from the spills
    manifest commit: lineage (final names, row counts) → create the next
                     log entry; only that entry makes the outputs visible

    from_items(parts).map_batches(read_partition)     # reads: a lazy Dataset,
                                                      # one task per partition,
                                                      # LWW inside it — no
                                                      # shuffle

``init_from_snapshot`` feeds the blocks of its Dataset to the same spill
task; ``compact()`` runs the same merge task with no spills.

The transactional-manifest design (a numbered manifest log, copy-on-write
file sets, merge-on-read deltas, compaction, vacuum, time travel) follows the
public Delta Lake architecture (Armbrust et al., "Delta Lake: High-Performance
ACID Table Storage over Cloud Object Stores", VLDB 2020 — see PAPERS.md),
re-expressed over Ray with a filesystem spill exchange.

Exactly-once: each apply is a transaction named by its parent manifest
version, its watermark and a digest of its pending input (each segment's
path, row count and footer max lsn), so only a rerun over the same input
resumes a crashed attempt. Each partition merge writes its output ONCE,
under its final txn-named path in ``data/`` (a tmp file in
``staging/<txn>/``, then one move, so a file torn by a crash never sits at
the final name); a partition
whose output already exists is skipped (resume). No manifest names the file
until the commit creates manifest ``parent + 1`` in the table's log, and
only if it is absent (``fsio.log_commit``), so of two racing writers one
commits and the other gets ``ConcurrentCommitError``. The manifest records
each live file's row count (``file_rows``), so a commit reads no footer.
Replaying any suffix of the binlog is idempotent because the merge is
last-writer-wins on ``_lsn``. A task whose worker dies is retried by Ray
(its default retries): a retried spill task writes a fresh attempt-unique
file, and a retried merge finds its output at the final name or rewrites it.

Deployment shape: ONE storage path. The table's durable state (manifests,
data files) AND its spill exchange go through the table's ``pyarrow.fs``
(``filesystem=`` injectable; local disk by default), so the whole engine
runs against plain S3-style storage. Map tasks stream their Arrow-IPC
spills to ``staging/<txn>/spills/``; merge tasks issue ranged reads (IPC
footer + exactly their record batch). The spills double as the resume
checkpoint and are deleted with the txn's staging dir at commit.

Scale notes (100 TB design point):
- ``num_partitions`` should be ≥ 2× cluster cores; one partition = one merge
  task = one output file → bounded memory per task regardless of total size.
- The combiner bounds shuffle volume to ≤ one row per (key, batch) — an
  update storm on a hot conversation collapses before it moves.
- Only changed partitions are rewritten (copy-on-write); untouched partition
  files carry forward in the manifest.
- The driver gathers only the spill index (≤ blocks × partitions rows)
  and the lineage (one row per merge task).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import posixpath
from typing import Optional, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from wrangler_ray.core.schema import concat_reconciled, unified_schema, unify_to_schema
from wrangler_ray.ops import fsio
from wrangler_ray.ops.fsio import ConcurrentCommitError  # noqa: F401  (public here)

logger = logging.getLogger(__name__)

KEY_COLS = ["conv_id", "turn_idx"]
LSN_COL = "_lsn"
PART_COL = "_part"
# rows per exchange map block (one spill file each)
BLOCK_ROWS = 262144
# pending rows above which a partition merges as salted parallel sub-tasks
SPLIT_ROWS = 524288


def _hash_partition(conv_ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Deterministic hash partitioning of conv_id (stable across processes —
    pandas' siphash with its fixed default key)."""
    h = pd.util.hash_array(conv_ids.astype(object), categorize=True)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _turn_salt(turn_idx: np.ndarray, n_subs: int) -> np.ndarray:
    """Deterministic sub-partition salt for HOT partitions. Salting on
    ``turn_idx`` (not conv_id) means even a single enormous conversation
    spreads over the subs, while every LWW group — keyed (conv_id, turn_idx)
    — still lands wholly in one sub."""
    return (turn_idx.astype(np.int64) % n_subs).astype(np.int32)


def _txn_version(name: str) -> int:
    """The log version a txn-named file or dir commits as: ``txn-<v>-…``,
    with ``txn-init-…`` as v1; 0 for any other name (never in flight)."""
    v = name.removeprefix("txn-").split("-")[0] if name.startswith("txn-") else ""
    return int(v) if v.isdigit() else 1 if v == "init" else 0


def _file_digest(path: str, fs) -> str:
    h = hashlib.sha256()
    with fs.open_input_stream(path) as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def apply_lww_semantics(table: pa.Table) -> pa.Table:
    """Full merge semantics over any mix of base + change/delta rows:
    last-writer-wins on _lsn per (conv_id, turn_idx), then deletes drop out
    ('op' is null for base rows) and the op column is removed."""
    merged = _lww_reduce(table)
    if "op" in merged.column_names:
        op = merged.column("op")
        keep = pc.or_kleene(pc.is_null(op), pc.not_equal(op, "D"))
        merged = merged.filter(pc.fill_null(keep, True))
        merged = merged.drop_columns(["op"])
    return merged


def _lww_reduce(table: pa.Table) -> pa.Table:
    """Keep the max-_lsn row per (conv_id, turn_idx). Vectorized:
    sort by (key, _lsn) then take the last row of each key run."""
    if table.num_rows <= 1:
        return table
    idx = pc.sort_indices(
        table,
        sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending"), (LSN_COL, "ascending")],
    )
    t = table.take(idx)
    conv = t.column("conv_id").to_numpy(zero_copy_only=False)
    turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
    # last-of-run mask: row i kept iff key[i] != key[i+1]
    same_as_next = (conv[:-1] == conv[1:]) & (turn[:-1] == turn[1:])
    keep = np.ones(len(conv), dtype=bool)
    keep[:-1] = ~same_as_next
    return t.filter(pa.array(keep))


def read_partition(
    fs, table_dir: str, files: list, schema: pa.Schema, lww: bool, filters=None
) -> pa.Table:
    """Read one partition's data files (paths relative to ``table_dir``) as
    one table on ``schema``, with ``apply_lww_semantics`` applied when
    ``lww`` is set. Every reader of the table goes through this kernel.

    One ``pq.read_table`` over the file list reads only ``schema``'s columns
    from storage, null-backfills the columns a file lacks (additive schema
    evolution), casts each column to its unified type, and skips the row
    groups whose statistics rule out ``filters``; one call over the list
    opens one dataset instead of one per file. A partition's files (its
    base file or salted subs, then its merge-on-read deltas) hold every row
    of its keys, so a reader never needs an exchange: LWW within the
    partition is the whole merge."""
    paths = [posixpath.join(table_dir, f) for f in files]
    t = pq.read_table(paths, filesystem=fs, schema=schema, filters=filters)
    return apply_lww_semantics(t) if lww else t


class SpillWriter:
    """Map side of the exchange — the sort-shuffle map-output writer.

    For each input block: assign partition ids, ONE sort by
    ``(_part, conv_id, turn_idx, _lsn)`` (subsumes the combiner's LWW sort),
    keep the max-_lsn row per key (hot-key update storms collapse here, before
    anything crosses the wire), then write the whole block as a single
    Arrow-IPC file with **one record batch per partition** and return the tiny
    ``(part, file, batch_index, rows, max_lsn)`` index; the driver sums it into
    each partition's change counts. The merge side reads the IPC footer
    and exactly its batch through the table's pyarrow.fs — no footer-stat
    parsing, no small-file explosion (previously a hive-partitioned parquet
    write produced blocks × partitions ≈ 15k tiny files and was the scaling
    bottleneck: ~10.5 s flat at 8 and 32 cpus; the IPC spill is CPU-bound
    and scales).
    LZ4-framed compression keeps exchange bytes small at 100 TB while
    decompression stays ~GB/s per core.
    """

    def __init__(self, num_partitions: int, spill_dir: str, fs=None):
        import pyarrow.fs as pafs

        self.num_partitions = num_partitions
        self.spill_dir = spill_dir
        # the table's pyarrow fs (local disk when None). Spills are streamed
        # straight to their final name: on object stores a single PUT is
        # object-atomic, and only files named by returned index rows are
        # ever read, so a torn write is unreachable on any store
        self.fs = fs if fs is not None else pafs.LocalFileSystem()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import uuid

        if batch.num_rows == 0:
            return self._index([], [], "", [], [])
        conv = batch.column("conv_id").to_numpy(zero_copy_only=False)
        # ONE hash pass serves both the partition assignment and the sort
        # surrogate: sorting by the 64-bit conv hash instead of the string
        # halves the block sort (measured 0.64→0.31 s / 1.5M rows) and the
        # hash is already paid for. The sort only needs equal convs grouped;
        # a 2^-64 hash collision can interleave two convs, which merely makes
        # the adjacency collapse below ship one extra row — the merge side
        # re-applies full LWW, so ordering by surrogate is semantics-free.
        h = pd.util.hash_array(conv.astype(object), categorize=True)
        parts = (h % np.uint64(self.num_partitions)).astype(np.int32)
        batch = batch.append_column(PART_COL, pa.array(parts, pa.int32()))
        batch = batch.append_column("_ch", pa.array(h.astype(np.int64)))
        idx = pc.sort_indices(
            batch,
            sort_keys=[
                (PART_COL, "ascending"),
                ("_ch", "ascending"),
                ("turn_idx", "ascending"),
                (LSN_COL, "ascending"),
            ],
        )
        t = batch.take(idx).drop_columns(["_ch"])
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        turn = t.column("turn_idx").to_numpy(zero_copy_only=False)
        same_as_next = (conv[:-1] == conv[1:]) & (turn[:-1] == turn[1:])
        keep = np.ones(len(conv), dtype=bool)
        keep[:-1] = ~same_as_next
        t = t.filter(pa.array(keep))
        pvals = t.column(PART_COL).to_numpy(zero_copy_only=False)
        t = t.drop_columns([PART_COL]).combine_chunks()
        bounds = np.flatnonzero(np.diff(pvals)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(pvals)]))
        lsn = t.column(LSN_COL).to_numpy(zero_copy_only=False)
        max_lsn = np.maximum.reduceat(lsn, starts)
        # task-attempt-unique name: a retried task writes a fresh file; only
        # files named by returned index rows are ever read (orphans are wiped
        # with the txn's staging dir at commit)
        fname = f"spill-{uuid.uuid4().hex}.arrow"
        opts = pa.ipc.IpcWriteOptions(compression="lz4")
        path = posixpath.join(self.spill_dir, fname)
        with self.fs.open_output_stream(path) as sink:
            with pa.ipc.new_file(sink, t.schema, options=opts) as w:
                for s, e in zip(starts, ends):
                    w.write_batch(t.slice(s, e - s).to_batches()[0])
        return self._index(
            [int(pvals[s]) for s in starts],
            list(range(len(starts))),
            fname,
            [int(e - s) for s, e in zip(starts, ends)],
            max_lsn,
        )

    @staticmethod
    def _index(
        parts: list, batch_idx: list, fname: str, rows: list, max_lsn
    ) -> pa.Table:
        return pa.table(
            {
                "part": pa.array(parts, pa.int32()),
                "file": pa.array([fname] * len(parts), pa.string()),
                "batch_index": pa.array(batch_idx, pa.int32()),
                "rows": pa.array(rows, pa.int64()),
                "max_lsn": pa.array(max_lsn, pa.int64()),
            }
        )


class MergePartition:
    """Per-partition copy-on-write merge over the FILESYSTEM EXCHANGE.

    The change batch reaches partitions via indexed Arrow-IPC spill files
    (one per map block, written by ``SpillWriter``) rather than a Ray Data
    hash shuffle: the spill write + ranged batch reads are far cheaper
    than the object-store sort/hash shuffle (13-34 s on 5M rows), and the
    spill directory doubles as the resume checkpoint — the exchange lives on
    the table's own storage, Spark-external-shuffle style.

    Called on a table of items (part: int32, sub: int32, n_subs: int32,
    spills: json [[file, batch_index], ...], mor: bool); returns one
    lineage row per item. The engine runs one Ray task per item. COW, MOR
    and compaction run the same steps: gather the tables (its record
    batches of each spill, read through ``fs``, plus the partition's
    current files unless MOR; schemas reconciled — additive
    evolution null-backfills), keep this sub's rows, LWW on _lsn
    (``_lww_reduce`` for MOR, which keeps delete rows;
    ``apply_lww_semantics`` otherwise, which drops them), one (conv_id,
    turn_idx) sort for the stable-turn-ordering invariant, one write to
    the output's final name ``data/p<part>/<txn>-sNN[-delta].parquet`` (via
    a tmp file under ``staging/<txn>/`` and one move; only the manifest
    commit makes it visible). **Compaction** is a copy-on-write merge with
    no spills: it folds the partition's base and delta files into one file.
    An output that already exists is reused before any spill is opened
    (resume).

    **Hot-partition salting**: when the exchange index shows a partition's
    pending rows exceed the split threshold (one huge conversation, or an
    update storm over many), the partition is merged by ``n_subs`` PARALLEL
    tasks instead of one straggler; each task keeps only rows whose
    deterministic ``turn_idx % n_subs`` salt matches its ``sub``, so every
    (conv_id, turn_idx) LWW group stays whole and the subs tile the
    partition exactly."""

    def __init__(
        self,
        table_dir: str,
        txn_id: str,
        current_files: dict[int, list],
        fs=None,
        spill_dir: Optional[str] = None,
    ):
        import pyarrow.fs as pafs

        self.table_dir = table_dir
        self.txn_id = txn_id
        self.current_files = current_files
        self.fs = fs if fs is not None else pafs.LocalFileSystem()
        self.staging_dir = posixpath.join(table_dir, "staging", txn_id)
        self.spill_dir = spill_dir or posixpath.join(self.staging_dir, "spills")
        self._readers: dict[str, pa.ipc.RecordBatchFileReader] = {}

    def _read_spill_batches(self, spills: list) -> list[pa.Table]:
        """This task's record batches (ranged reads: IPC footer + exactly the
        batch, never the whole spill file); empty for compaction."""
        tabs = []
        for fname, bidx in spills:
            r = self._readers.get(fname)
            if r is None:
                r = pa.ipc.open_file(
                    self.fs.open_input_file(posixpath.join(self.spill_dir, fname))
                )
                self._readers[fname] = r
            tabs.append(pa.Table.from_batches([r.get_batch(int(bidx))]))
        return tabs

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            part = int(row["part"])
            sub = int(row["sub"])
            n_subs = int(row["n_subs"])
            mor = bool(row.get("mor", False))
            name = f"{self.txn_id}-s{sub:02d}{'-delta' if mor else ''}.parquet"
            final = posixpath.join(self.table_dir, "data", f"p{part:05d}", name)
            if fsio.exists(self.fs, final):
                # resume: already merged in a previous (crashed) attempt of
                # the same transaction — idempotent skip, no spill is opened
                rows = pq.read_metadata(final, filesystem=self.fs).num_rows
                out.append(self._lineage(part, sub, final, rows, mor))
                continue
            # merge-on-read writes ONLY the LWW'd changes as a delta file
            # (deletes stay as op='D' rows so readers can suppress base
            # rows); copy-on-write folds in the partition's current files
            tables = self._read_spill_batches(json.loads(row["spills"]))
            if not mor:
                tables += [
                    pq.read_table(posixpath.join(self.table_dir, f), filesystem=self.fs)
                    for f in self.current_files.get(part, [])
                ]
            merged = concat_reconciled(tables)
            if n_subs > 1:
                turn = merged.column("turn_idx").to_numpy(zero_copy_only=False)
                merged = merged.filter(pa.array(_turn_salt(turn, n_subs) == sub))
            merged = _lww_reduce(merged) if mor else apply_lww_semantics(merged)
            idx = pc.sort_indices(
                merged, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
            merged = merged.take(idx)
            # the resume check trusts that the final name exists, so the
            # file only gets there whole; <txn>-sNN repeats across
            # partitions, so the tmp name carries the partition
            self.fs.create_dir(self.staging_dir, recursive=True)
            tmp = posixpath.join(self.staging_dir, f"p{part:05d}-{name}.tmp")
            with self.fs.open_output_stream(tmp) as sink:
                pq.write_table(merged, sink)
            self.fs.create_dir(posixpath.dirname(final), recursive=True)
            self.fs.move(tmp, final)
            out.append(self._lineage(part, sub, final, merged.num_rows, mor))
        return pa.concat_tables(out)

    def _lineage(self, part: int, sub: int, path: str, rows: int, mor: bool) -> pa.Table:
        """What only this task knows; the driver adds the partition's change
        counts from the spill index."""
        return pa.table(
            {
                "part": pa.array([part], pa.int32()),
                "sub": pa.array([sub], pa.int32()),
                "rows": pa.array([rows], pa.int64()),
                "file": pa.array([path], pa.string()),
                "sha256": pa.array([_file_digest(path, self.fs)], pa.string()),
                "delta": pa.array([mor], pa.bool_()),
            }
        )


# spill or merge tasks in flight at once: bounds the driver's pending refs
# and, for a snapshot, the Dataset blocks that queued tasks pin
TASK_WINDOW = 32


def _read_segments(schema: pa.Schema, watermark: int, chain, paths: list) -> pa.Table:
    """Map-task input of an apply: one group of binlog segments (paths or
    URIs) on the unified ``schema`` (a column a segment lacks is
    null-backfilled), with only the rows past ``watermark`` leaving the
    parquet read, then the in-flight ``chain`` and the lsn → _lsn rename."""
    filters = pc.field("lsn") > watermark if watermark > 0 else None
    t = pa.concat_tables([
        pq.read_table(path, filesystem=fs, schema=schema, filters=filters)
        for fs, path in map(fsio.resolve_fs, paths)
    ])
    if chain is not None and t.num_rows:
        t = chain(t)
    return t.rename_columns([LSN_COL if n == "lsn" else n for n in t.column_names])


def _snapshot_block(snapshot_lsn: int, block) -> pa.Table:
    """Map-task input of ``init_from_snapshot``: one block of the snapshot
    Dataset, every row at ``snapshot_lsn``."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    return t.append_column(LSN_COL, pa.array(np.full(t.num_rows, snapshot_lsn), pa.int64()))


def _run_merges(merge: MergePartition, items: list[dict]) -> list[dict]:
    """One merge task per (part, sub) item; their lineage rows."""
    out = _run_tasks(merge, (pa.Table.from_pylist([i]) for i in items))
    return pa.concat_tables(out).to_pylist()


@functools.cache
def _remote_call():
    import ray

    return ray.remote(lambda fn, arg: fn(arg))


def _run_tasks(fn, args) -> list[pa.Table]:
    """``fn(arg)`` as one Ray task per item of ``args`` (consumed lazily),
    at most ``TASK_WINDOW`` in flight; ``fn`` is put in the object store
    once. Returns the results in ``args`` order. The tasks keep Ray's
    default retries on worker death."""
    import ray

    task, fn = _remote_call(), ray.put(fn)
    refs = []
    for arg in args:
        if len(refs) >= TASK_WINDOW:
            ray.wait(refs, num_returns=len(refs) - TASK_WINDOW + 1)
        refs.append(task.remote(fn, arg))
    return ray.get(refs)


class CdcTable:
    """A partitioned Parquet lake table with manifest-based transactional
    commits (exactly-once sink, SURVEY.md §7.1 step 4).

    Layout:
        <dir>/manifests/manifest-NNNNNNNN.json   the commit log: one entry per
                                                 version, latest = highest
                                                 listed (``fsio.log_*``)
        <dir>/data/p<part>/<txn>-sNN[-delta].parquet
                                                 written once, at this name;
                                                 visible once a manifest
                                                 names it
        <dir>/staging/<txn>/spill-index.json     written once every spill is;
                                                 its existence = resume point
        <dir>/staging/<txn>/spills/spill-<uuid>.arrow   (the exchange)
        <dir>/staging/<txn>/p<part>-<txn>-sNN[-delta].parquet.tmp
                                                 an output being written

    Everything, the spill exchange included, goes through ONE pyarrow.fs
    (``filesystem=``, a URI's filesystem, or local disk): merge tasks read
    their record batches with ranged reads, and the txn's staging dir is
    deleted at its commit.
    """

    def __init__(self, table_dir: str, num_partitions: int = 64,
                 filesystem=None):
        self.fs, self.table_dir = fsio.resolve_fs(table_dir, filesystem)
        self.num_partitions = num_partitions
        for sub in ("manifests", "data", "staging"):
            self.fs.create_dir(posixpath.join(self.table_dir, sub), recursive=True)

    # -- manifest log ------------------------------------------------------

    @property
    def _log_dir(self) -> str:
        return posixpath.join(self.table_dir, "manifests")

    def _normalize_manifest(self, m: Optional[dict]) -> Optional[dict]:
        if m is not None:
            # legacy manifests stored a bare path string for a one-file
            # partition; every caller sees a list
            m["partitions"] = {
                k: [v] if isinstance(v, str) else v for k, v in m["partitions"].items()
            }
            if "file_rows" not in m:
                # written before manifests carried per-file row counts
                m["file_rows"] = {
                    f: pq.read_metadata(
                        posixpath.join(self.table_dir, f), filesystem=self.fs
                    ).num_rows
                    for files in self._live_files(m).values()
                    for f in files
                }
        return m

    def latest_manifest(self) -> Optional[dict]:
        """The highest manifest version listed in the log (None before the
        first commit)."""
        return self._normalize_manifest(fsio.log_latest(self.fs, self._log_dir, "manifest-"))

    def manifest_at(self, version: int) -> dict:
        """Time travel: load a specific committed manifest version (old data
        files are never rewritten, so any committed version stays readable
        until a retention job removes it)."""
        m = self._normalize_manifest(fsio.read_json(
            self.fs, posixpath.join(self._log_dir, f"manifest-{version:08d}.json")
        ))
        if m is None:
            raise FileNotFoundError(f"no manifest version {version} in {self.table_dir}")
        return m

    def _commit_manifest(self, manifest: dict) -> None:
        """Create manifest ``version`` (= parent + 1) in the log only if it
        is absent, after checking that no version at or past it is listed —
        so a writer that started from a stale version (even one whose
        parent + 1 a ``vacuum()`` has since deleted) fails. Raises
        ``ConcurrentCommitError``: re-apply from the new watermark. Of two
        writers racing for one version on local disk exactly one commits;
        on object stores the create is list-then-PUT (see ops/fsio.py)."""
        fsio.log_commit(self.fs, self._log_dir, "manifest-", manifest["version"], manifest)

    @property
    def watermark(self) -> int:
        m = self.latest_manifest()
        return m["watermark_lsn"] if m else 0

    # -- init / apply ------------------------------------------------------

    def init_from_snapshot(self, ds, snapshot_lsn: int = 0) -> dict:
        """Bootstrap the table from a base snapshot Dataset (lsn 0). Its
        blocks stream, as Ray Data produces them, into the spill tasks."""
        txn_id = f"txn-init-{snapshot_lsn}"
        blocks = (ref for b in ds.iter_internal_ref_bundles() for ref, _ in b.blocks)
        lineage, changes, metrics = self._exchange_and_merge(
            functools.partial(_snapshot_block, snapshot_lsn), blocks, txn_id, None
        )
        return self._finalize(lineage, txn_id, snapshot_lsn, None, changes, metrics)

    def apply_changes(
        self,
        segment_paths: list[str],
        recipe: Optional[Union[str, list[str]]] = None,
        mode: str = "cow",
    ) -> dict:
        """Tail the binlog: apply all events with lsn > watermark from the
        given segment files. Returns the committed manifest (or the current
        one when there is nothing new).

        ``mode``: "cow" rewrites every touched partition (the default,
        simplest-to-reason-about shape); "mor" (merge-on-read) writes a small
        DELTA file per touched partition instead — readers apply LWW across
        base+deltas, and ``compact()`` folds them back. "auto" picks MOR for
        partitions whose pending changes are <20% of the base rows. MOR is
        what makes frequent small tail windows affordable at 10^10-event
        scale: COW would rewrite nearly the whole table every window."""
        assert mode in ("cow", "mor", "auto")
        manifest = self.latest_manifest()
        watermark = manifest["watermark_lsn"] if manifest else 0

        # additive schema unification across segment footers (metadata-only
        # reads — parallel threads: pq footer parsing is C++ and releases the
        # GIL, and at 10^4+ segments a serial loop would be driver-bound)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=16) as ex:
            metas = list(ex.map(pq.read_metadata, segment_paths))
        schemas = [m.schema.to_arrow_schema() for m in metas]
        # every binlog segment must carry an lsn — a stray non-segment file
        # (e.g. a snapshot parquet in the same directory) would otherwise
        # enter the merge with null lsns and silently corrupt LWW ordering
        missing = [p for p, s in zip(segment_paths, schemas) if "lsn" not in s.names]
        if missing:
            raise ValueError(
                "apply_changes: segment(s) without an 'lsn' column: "
                + ", ".join(missing[:5])
                + (" …" if len(missing) > 5 else "")
                + " — snapshots load via init_from_snapshot, not the binlog"
            )
        schema = unified_schema(schemas)

        # prune fully-applied segments via parquet footer statistics
        pending = []  # (path, rows, footer max lsn)
        for p, md in zip(segment_paths, metas):
            # the parquet leaf index of the top-level lsn column (a nested
            # column before it shifts leaf indices off the arrow ones)
            i = [md.schema.column(j).path for j in range(md.num_columns)].index("lsn")
            stats = [md.row_group(g).column(i).statistics for g in range(md.num_row_groups)]
            # a row group without statistics could hold any lsn: no pruning;
            # one without min/max holds only null lsns, which never apply
            seg_max = None if any(st is None for st in stats) else max(
                (st.max for st in stats if st.has_min_max), default=None
            )
            if seg_max is not None and seg_max <= watermark:
                continue  # fully applied already
            pending.append((p, md.num_rows, seg_max))
        if not pending:
            return manifest
        max_lsn = max([watermark] + [m for _, _, m in pending if m is not None])

        # the txn is named by its input: a rerun over a different pending
        # set is a different txn and never resumes this one's spills
        digest = hashlib.sha256(json.dumps(pending).encode()).hexdigest()[:12]
        txn_id = f"txn-{(manifest['version'] if manifest else 0) + 1:08d}-{watermark}-{digest}"

        # Coalesce small binlog segments into ~256k-row map blocks: one spill
        # file per block, so exchange file count tracks data volume, not
        # segment count. Data-derived (never CPU-derived) so runs at any
        # parallelism level do identical work.
        rows = sum(r for _, r, _ in pending)
        n_blocks = max(1, min(len(pending), -(-rows // BLOCK_ROWS)))
        groups = [g.tolist() for g in np.array_split([p for p, _, _ in pending], n_blocks)]

        chain, directive_lineage = None, []
        if recipe is not None:
            from wrangler_ray.pipeline import DirectiveChain, compile_recipe

            chain = DirectiveChain(compile_recipe(recipe), on_error="skip")
            # field-level lineage: record which columns each in-flight
            # directive reads/writes in the committed manifest (reference
            # lineage/LineageOperations.java:38-80)
            directive_lineage = chain.lineage()
        prep = functools.partial(_read_segments, schema, watermark, chain)
        lineage, changes, metrics = self._exchange_and_merge(
            prep, groups, txn_id, manifest, mode=mode
        )
        if not lineage:
            # every pending row was filtered by the watermark (footer stats
            # were unavailable to prune the segment up front) — nothing
            # changed, so do NOT burn a manifest version on an empty txn
            return manifest
        if max_lsn == watermark:
            # no footer stats available: fall back to the exchange's max lsn
            max_lsn = max(wm for _, wm in changes.values())
        return self._finalize(
            lineage, txn_id, max_lsn, manifest, changes, metrics, directive_lineage
        )

    def _exchange_and_merge(
        self,
        prep,
        srcs,
        txn_id: str,
        parent: Optional[dict],
        mode: str = "cow",
    ) -> tuple[list[dict], dict[int, tuple], dict]:
        """The exchange: one spill task per item of ``srcs``, each an
        indexed IPC spill write of ``prep(src)`` (no object-store shuffle)
        → one merge task per touched partition, onto the files of the
        ``parent`` manifest (None for a fresh table).
        Returns the merge tasks' lineage rows, per touched partition
        ``(changes, max_lsn)`` summed from the spill index, and the stage
        metrics.

        The driver holds only the spill index (≤ blocks × partitions tiny
        rows) and writes it atomically once every spill is written, making
        the (non-atomic) spill phase all-or-nothing: the index's existence
        is the checkpoint, and a crash after it resumes straight into
        merging from the saved index."""
        import time as _time

        _t0 = _time.perf_counter()
        txn_dir = posixpath.join(self.table_dir, "staging", txn_id)
        spill_dir = posixpath.join(txn_dir, "spills")
        index_path = posixpath.join(txn_dir, "spill-index.json")
        by_part = fsio.read_json(self.fs, index_path)
        if by_part is not None:
            by_part = {int(k): v for k, v in by_part.items()}
            # a spill named by the index can vanish after the index was
            # written (a store lifecycle rule, a manual staging cleanup);
            # blindly trusting the index would make every merge retry fail
            # on the missing file with no recovery path. Verify the files
            # still exist; if any is gone, delete the index and rewrite.
            missing = [
                f for f in {s[0] for spills in by_part.values() for s in spills}
                if not fsio.exists(self.fs, posixpath.join(spill_dir, f))
            ]
            if missing:
                logger.warning(
                    "txn %s: %d spill file(s) of the spill index missing from "
                    "%s — deleting the index and rewriting the spills",
                    txn_id, len(missing), spill_dir,
                )
                self.fs.delete_file(index_path)
                by_part = None
        if by_part is None:
            fsio.delete_dir(self.fs, spill_dir)  # partial write, crashed run
            self.fs.create_dir(spill_dir, recursive=True)
            writer = SpillWriter(self.num_partitions, spill_dir, fs=self.fs)
            index = _run_tasks(lambda src: writer(prep(src)), srcs)
            by_part: dict[int, list] = {}
            for r in pa.concat_tables(index).to_pylist() if index else []:
                by_part.setdefault(r["part"], []).append(
                    [r["file"], r["batch_index"], r["rows"], r["max_lsn"]]
                )
            fsio.write_json_atomic(self.fs, index_path, by_part)
        metrics = {"exchange_write_s": round(_time.perf_counter() - _t0, 3)}
        _t0 = _time.perf_counter()
        parent = parent or {"partitions": {}, "file_rows": {}}

        def _use_mor(p: int, pending: int) -> bool:
            bases = parent["partitions"].get(str(p))
            if not bases or mode == "cow":
                return False  # nothing to defer against → plain write
            if mode == "mor":
                return True
            return pending < 0.2 * sum(parent["file_rows"][f] for f in bases)

        changes = {
            p: (sum(s[2] for s in spills), max(s[3] for s in spills))
            for p, spills in by_part.items()
        }
        items = []
        for p, spills in sorted(by_part.items()):
            # hot-partition detection from the index (no data read): a
            # partition whose pending rows exceed the split threshold is
            # merged by several salted sub-tasks instead of one straggler
            n_subs = min(16, max(1, -(-changes[p][0] // SPLIT_ROWS)))
            item = {"part": p, "n_subs": n_subs, "mor": _use_mor(p, changes[p][0]),
                    "spills": json.dumps([[s[0], s[1]] for s in spills])}
            items += [dict(item, sub=sub) for sub in range(n_subs)]
        if not items:
            return [], {}, metrics
        # a COW rewrite must absorb the partition's pending deltas too
        current_files = {int(k): v for k, v in self._live_files(parent).items()}
        merge = MergePartition(
            self.table_dir, txn_id, current_files=current_files,
            fs=self.fs, spill_dir=spill_dir,
        )
        lineage = _run_merges(merge, items)
        metrics["merge_s"] = round(_time.perf_counter() - _t0, 3)
        metrics["merge_tasks"] = len(items)
        metrics["spill_files"] = len({s[0] for spills in by_part.values() for s in spills})
        return lineage, changes, metrics

    def _finalize(
        self, lineage: list[dict], txn_id: str, watermark: int,
        parent: Optional[dict], changes: Optional[dict] = None,
        metrics: Optional[dict] = None, directive_lineage: Optional[list] = None,
    ) -> dict:
        """Commit the manifest that makes this txn's outputs (already at
        their final names) visible, built on the ``parent`` manifest the txn
        started from (None for a fresh table; a newer entry in the log makes
        the commit raise ``ConcurrentCommitError``). ``changes`` holds each
        touched partition's ``(changes, max_lsn)`` from the spill index and
        ``metrics`` the exchange's stage metrics (none for a compaction);
        ``directive_lineage`` is the in-flight recipe's field lineage."""
        changes = changes or {}
        partitions = dict(parent["partitions"]) if parent else {}
        deltas = {k: list(v) for k, v in (parent or {}).get("deltas", {}).items()}
        file_rows = dict(parent["file_rows"]) if parent else {}
        lineage_rec: dict = {}
        touched: set = set()
        for r in lineage:
            part = int(r["part"])
            is_delta = bool(r.get("delta", False))
            rel = posixpath.relpath(r["file"], self.table_dir)
            file_rows[rel] = int(r["rows"])
            key = str(part)
            if is_delta:
                deltas.setdefault(key, []).append(rel)
            else:
                if key not in touched:
                    # this txn's output REPLACES the partition's previous file
                    # set AND absorbs its pending deltas
                    partitions[key] = []
                    deltas[key] = []
                    touched.add(key)
                partitions[key].append(rel)
            n, wm = changes.get(part, (0, None))
            entry = lineage_rec.setdefault(
                key,
                {"rows": 0, "changes_applied": n, "watermark_lsn": wm,
                 "sha256": [], "n_subs": 0, "delta": is_delta},
            )
            entry["rows"] += int(r["rows"])
            entry["sha256"].append(r["sha256"])
            entry["n_subs"] += 1
        metrics = dict(metrics or {})
        metrics["changes_applied"] = sum(
            lr["changes_applied"] for lr in lineage_rec.values()
        )
        metrics["partitions_rewritten"] = len(lineage_rec)
        deltas = {k: v for k, v in deltas.items() if v}
        # each live file's row count: carried forward from the parent,
        # updated from this txn's lineage
        file_rows = {
            f: file_rows[f]
            for files in list(partitions.values()) + list(deltas.values())
            for f in files
        }
        new_manifest = {
            "version": (parent["version"] if parent else 0) + 1,
            "parent": parent["version"] if parent else None,
            "txn_id": txn_id,
            # per-directive field lineage of the in-flight recipe (empty when
            # the txn had no recipe)
            "directive_lineage": directive_lineage or [],
            "watermark_lsn": int(watermark),
            "num_partitions": self.num_partitions,
            "partitions": partitions,
            "deltas": deltas,
            "file_rows": file_rows,
            "metrics": metrics,
            "lineage": lineage_rec,
            # PHYSICAL row count of every live base and delta file. Under
            # MOR this includes shadowed rows and op='D' tombstones — they
            # are physical rows until compaction folds them in; under pure
            # COW it equals the logical count.
            "total_rows": sum(file_rows.values()),
        }
        self._commit_manifest(new_manifest)
        # post-commit: the txn's staging (index, spills, tmp files) is garbage
        fsio.delete_dir(self.fs, posixpath.join(self.table_dir, "staging", txn_id))
        return new_manifest

    # -- tail / compact ----------------------------------------------------

    def tail(
        self,
        segment_dir: str,
        pattern: str = "*.parquet",
        window_events: Optional[int] = None,
        recipe: Optional[Union[str, list[str]]] = None,
        mode: str = "cow",
    ) -> list[dict]:
        """Tail a binlog/WAL directory: discover segment files and apply all
        pending events, in bounded LSN windows of ~``window_events`` rows per
        transaction (None = one transaction). Bounded windows are the
        resumable unit at 10^10-event scale: each window commits its own
        manifest, so a crash re-tails from the last watermark. Returns the
        manifests committed (empty list if nothing new). ``segment_dir``
        may be a local path or a filesystem URI (``s3://...``) — segments
        are listed through its pyarrow.fs, and URI segments keep their
        scheme for the readers, which resolve URIs natively."""
        import fnmatch

        import pyarrow.fs as pafs

        sfs, sdir = fsio.resolve_fs(segment_dir)
        scheme = segment_dir.split("://", 1)[0] + "://" if "://" in segment_dir else ""
        segs = sorted(
            scheme + i.path
            for i in sfs.get_file_info(pafs.FileSelector(sdir, allow_not_found=True))
            if i.type == pafs.FileType.File
            and fnmatch.fnmatch(posixpath.basename(i.path), pattern)
        )
        if not segs:
            return []
        windows = [segs]
        if window_events:
            windows, acc = [[]], 0
            for p in segs:
                rows = pq.read_metadata(p).num_rows
                if windows[-1] and acc + rows > window_events:
                    windows.append([])
                    acc = 0
                windows[-1].append(p)
                acc += rows
        out = []
        before = self.latest_manifest()
        version = before["version"] if before else None
        for w in windows:
            m = self.apply_changes(w, recipe=recipe, mode=mode)
            # compare versions, not identity: a no-op apply returns an
            # equal-but-distinct manifest dict
            if m and m["version"] != version:
                out.append(m)
                version = m["version"]
        return out

    def compact(self) -> dict:
        """Merge each multi-file (salted) partition — and fold any
        merge-on-read delta files back into the base — into one file per
        partition. Transactional like any apply: txn-named outputs → atomic
        manifest commit; the watermark is unchanged. Run it when read
        amplification from deltas/subs outweighs the write win.

        Each partition is a ``MergePartition`` task with NO spills: a
        copy-on-write merge of zero changes is exactly a compaction (same LWW
        fold, key sort, output name and resume-skip as an apply)."""
        m = self.latest_manifest()
        if not m:
            raise FileNotFoundError(f"no committed manifest in {self.table_dir}")
        multi = {int(p): f for p, f in self._live_files(m).items() if len(f) > 1}
        if not multi:
            return m
        txn_id = f"txn-{m['version'] + 1:08d}-compact"
        merge = MergePartition(self.table_dir, txn_id, current_files=multi, fs=self.fs)
        items = [
            {"part": p, "sub": 0, "n_subs": 1, "spills": "[]", "mor": False}
            for p in sorted(multi)
        ]
        lineage = _run_merges(merge, items)
        return self._finalize(lineage, txn_id, m["watermark_lsn"], m)

    def vacuum(self, keep_versions: int = 2) -> dict:
        """Garbage-collect data files not referenced by the newest
        ``keep_versions`` manifests (copy-on-write keeps every txn's files on
        disk for time travel; vacuum bounds that), the manifests older than
        those, and the staging dirs. Returns counts. Never touches the
        outputs or staging dir of an in-flight transaction: one whose txn
        version is past the latest version (``_txn_version``)."""
        m = self.latest_manifest()
        if not m:
            return {"removed_files": 0, "removed_manifests": 0}
        latest = m["version"]
        keep = set(range(max(1, latest - keep_versions + 1), latest + 1))
        referenced: set = set()
        for v in keep:
            try:
                mv = self.manifest_at(v)
            except FileNotFoundError:
                continue
            for files in self._live_files(mv).values():
                referenced.update(posixpath.normpath(f) for f in files)
        removed = 0
        data_dir = posixpath.join(self.table_dir, "data")
        for full in fsio.list_parquet(self.fs, data_dir, recursive=True):
            rel = posixpath.normpath(posixpath.relpath(full, self.table_dir))
            if rel not in referenced and _txn_version(posixpath.basename(full)) <= latest:
                self.fs.delete_file(full)
                removed += 1
        removed_manifests = fsio.log_prune(self.fs, self._log_dir, "manifest-", min(keep))
        staging = posixpath.join(self.table_dir, "staging")
        for d in fsio.list_subdirs(self.fs, staging):
            # a crash between a commit and its cleanup leaves the committed
            # txn's staging dir behind
            if _txn_version(d) <= latest:
                fsio.delete_dir(self.fs, posixpath.join(staging, d))
        return {"removed_files": removed, "removed_manifests": removed_manifests}

    # -- read --------------------------------------------------------------

    @staticmethod
    def _live_files(m: dict) -> dict[str, list]:
        """Each partition's live data files, relative to the table dir: its
        base file (one per salted sub) then its merge-on-read deltas."""
        deltas = m.get("deltas", {})
        return {
            p: m["partitions"].get(p, []) + deltas.get(p, [])
            for p in sorted(set(m["partitions"]) | set(deltas), key=int)
        }

    def _manifest(self, version: Optional[int]) -> dict:
        m = self.manifest_at(version) if version is not None else self.latest_manifest()
        if not m:
            raise FileNotFoundError(f"no committed manifest in {self.table_dir}")
        return m

    def _footer_schema(self, files: list) -> pa.Schema:
        return unified_schema([
            pq.read_schema(posixpath.join(self.table_dir, f), filesystem=self.fs)
            for f in files
        ])

    def files(self, version: Optional[int] = None) -> list[str]:
        """All data files of the (versioned) manifest — base files plus any
        merge-on-read delta files."""
        m = self.manifest_at(version) if version is not None else self.latest_manifest()
        live = self._live_files(m) if m else {}
        return [posixpath.join(self.table_dir, f) for files in live.values() for f in files]

    def _has_deltas(self, version: Optional[int] = None) -> bool:
        m = self.manifest_at(version) if version is not None else self.latest_manifest()
        return bool(m and any(m.get("deltas", {}).values()))

    def read(
        self,
        drop_internal: bool = True,
        version: Optional[int] = None,
        columns: Optional[list] = None,
    ):
        """The table (or the committed ``version``) as a lazy Ray Dataset
        with one read task per partition, each a ``read_partition`` over the
        partition's files. Partitions hold disjoint keys, so a partition
        with merge-on-read deltas applies last-writer-wins on its own and no
        shuffle is needed; a partition without deltas is read as stored
        (each file sorted by (conv_id, turn_idx); no order across files).

        The schema is the union of the files' footers. ``columns`` prunes at
        the parquet read (only the named columns leave storage); when deltas
        exist the key and LWW columns are read too and dropped afterwards.
        ``drop_internal`` drops ``_lsn`` and ``op``."""
        import ray.data as rd

        m = self._manifest(version)
        deltas = m.get("deltas", {})
        items = [
            {"files": files, "lww": bool(deltas.get(p))}
            for p, files in self._live_files(m).items()
        ]
        schema = self._footer_schema([f for i in items for f in i["files"]])
        drop = {LSN_COL, "op"} if drop_internal else set()
        if columns is not None:
            merged = any(i["lww"] for i in items)
            keep = list(columns) + (KEY_COLS + [LSN_COL, "op"] if merged else [])
            schema = pa.schema(
                [schema.field(c) for c in dict.fromkeys(keep) if c in schema.names]
            )
            drop |= set(KEY_COLS) - set(columns)
        out_schema = pa.schema([f for f in schema if f.name not in drop])
        if not items:  # a table committed from an empty snapshot
            return rd.from_arrow(out_schema.empty_table())
        fs, table_dir = self.fs, self.table_dir

        def read_one(batch: pa.Table) -> pa.Table:
            (item,) = batch.to_pylist()
            t = read_partition(fs, table_dir, item["files"], schema, item["lww"])
            # LWW drops ``op``: project every partition onto one schema
            return unify_to_schema(t, out_schema)

        return rd.from_items(items, override_num_blocks=len(items)).map_batches(
            read_one, batch_format="pyarrow", batch_size=1
        )

    def lookup_conversation(self, conv_id: str, version: Optional[int] = None) -> pa.Table:
        """Point lookup: hash the key to its partition and ``read_partition``
        ONLY that partition's files (plus its deltas), skipping the row
        groups whose conv_id statistics exclude the key — O(partition), not
        O(table). Returns the conversation's turns in turn order, without
        ``_lsn``."""
        m = self._manifest(version)
        part = str(int(_hash_partition(np.array([conv_id], dtype=object), m["num_partitions"])[0]))
        deltas = m.get("deltas", {}).get(part, [])
        files = m["partitions"].get(part, []) + deltas
        if not files:
            return pa.table({})
        out = read_partition(
            self.fs, self.table_dir, files, self._footer_schema(files), bool(deltas),
            filters=pc.field("conv_id") == conv_id,
        )
        out = out.take(pc.sort_indices(out, sort_keys=[("turn_idx", "ascending")]))
        return out.drop_columns([c for c in (LSN_COL, "op") if c in out.column_names])

    def read_arrow(self, drop_internal: bool = True, version: Optional[int] = None) -> pa.Table:
        """Driver-side read for tests/small tables: ``read_partition`` over
        every live file, sorted by (conv_id, turn_idx)."""
        files = [f for fl in self._live_files(self._manifest(version)).values() for f in fl]
        if not files:  # a table committed from an empty snapshot
            return pa.table({})
        out = read_partition(self.fs, self.table_dir, files, self._footer_schema(files), True)
        out = out.take(pc.sort_indices(
            out, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        ))
        if drop_internal:
            out = out.drop_columns([LSN_COL])
        return out
