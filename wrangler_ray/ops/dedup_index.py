"""Persisted incremental near-dup index (beyond the reference, the 100 TB
ingest shape): dedup each arriving increment against everything kept so far
WITHOUT re-signing — or even re-reading — the historical corpus.

A batch `minhash_lsh_dedup` over `corpus ∪ increment` re-shingles and
re-minhashes the whole corpus on every arrival — O(corpus) signing per
increment. `MinHashDedupIndex` persists three things per committed
increment under ``index_dir``:

- the survivors' TEXTS (borderline exact verification only, id-filtered),
- their SIGNATURES (num_perm × 8 bytes per doc, candidate-endpoint
  verification only, id-filtered),
- their BAND ROWS (band, key, id, dig — the LSH candidate space itself),
  hash-partitioned by ``pb = key % sig_parts``.

An arriving increment signs + bands ITS OWN docs, then reads back only the
``pb`` partitions its own band keys hash to (with the exact key set pushed
into the parquet read as a filter when small enough to broadcast) — so
historical I/O per increment is O(increment ∩ index), not O(index).
Candidate pairs whose both endpoints are historical are dropped (they were
resolved when those docs were indexed). Signatures/texts of historical
CANDIDATE ENDPOINTS are fetched by id-filtered reads (row-group pruning —
increments are id-monotone, so per-file id stats are tight).

Semantics — "old doc wins": incoming ids must exceed the index watermark
(monotone, LSN-like — the natural shape of an ingest pipeline), so every
cluster minimum lands on the indexed side and an incoming near-dup of any
kept document is dropped. Kept documents are never retroactively removed.
With monotone ids the incremental survivor set provably equals the batch
run over the concatenated corpus (pinned by the in-repo A/B test and the
``dedup_index_incremental_invariant`` driver oracle).

Storage layout (v2; one subdirectory per committed increment):

    index_dir/meta-NNNNNNNN.json                the commit log: entry N =
                                                {params, watermark, count,
                                                incr: N, live_incrs}
    index_dir/texts/incr-00000K/*.parquet       (id, text)
    index_dir/signatures/incr-00000K/*.parquet  (id, sig, dig)
    index_dir/bands/incr-00000K/pb=J/*.parquet  (band, key, id, dig)

Every commit (an increment, a compaction) bumps ``incr`` by one and creates
log entry ``incr`` LAST (``fsio.log_commit``: create-if-absent), so a
crashed increment leaves only unreferenced files: re-running the increment
is safe and the orphan directories are deleted and rewritten, and a second
handle committing the same ``incr`` gets ``ConcurrentCommitError``. Reads
visit only the ``live_incrs`` of the latest entry; ``compact()`` prunes the
entries it supersedes. All storage goes through ``pyarrow.fs``
(``filesystem=`` injectable — object-store capable).

Legacy layouts keep working: an index with one mutable ``meta.json`` and no
log opens from it (no ``live_incrs`` means increments ``0..incr-1``) and
its next commit starts the log. v1 indexes (built before the band layout
existed, meta without ``layout``) have no ``bands/`` tree: ``banded_for``
bands their stored signatures in flight with the same kernel as the
increment (one partition, so every read is a full signature read), and
they never gain band partitions — rebuild to get pruned increments.

The sorted writes (``compact()`` and the increment's band rows) stay on Ray
Data's ``Dataset.sort`` + ``write_parquet``: the tight per-file id and key
row-group stats that prune reads come from a global range sort, and the
task exchange (``wrangler_ray.tasks``) hash-partitions instead.
"""
from __future__ import annotations

import posixpath

import numpy as np
import pyarrow as pa

from wrangler_ray.ops import fsio
from wrangler_ray.ops.dedup import (
    _band_rows,
    _coarse_bucket,
    minhash_lsh_dedup,
)


_KINDS = ("texts", "signatures", "bands")
# every index write bundles blocks into files of at least this many rows
# (one file per write, or per pb partition, below it): the file count
# follows the data, not the blocks a sort or an exchange emits
ROWS_PER_FILE = 1 << 16


class MinHashDedupIndex:
    def __init__(
        self,
        index_dir: str,
        num_perm: int = 64,
        bands: int = 16,
        shingle_k: int = 5,
        jaccard_threshold: float = 0.8,
        sig_parts: int = 64,
        filesystem=None,
    ):
        self.fs, self.index_dir = fsio.resolve_fs(index_dir, filesystem)
        params = {
            "num_perm": num_perm,
            "bands": bands,
            "shingle_k": shingle_k,
            "jaccard_threshold": jaccard_threshold,
        }
        meta = fsio.index_meta(self.fs, self.index_dir)
        if meta is not None:
            for k, v in params.items():
                if meta[k] != v:
                    raise ValueError(
                        f"index at {index_dir} was built with {k}={meta[k]}, "
                        f"got {v} — signatures are not comparable across "
                        "parameter sets"
                    )
            if meta.get("layout", 1) >= 2 and meta["sig_parts"] != sig_parts:
                raise ValueError(
                    f"index at {index_dir} was built with "
                    f"sig_parts={meta['sig_parts']}, got {sig_parts}"
                )
            self.meta = meta
        else:
            self.fs.create_dir(self.index_dir, recursive=True)
            self.meta = {
                **params,
                "sig_parts": sig_parts,
                "layout": 2,
                "id_col": None,
                "text_col": None,
                "watermark": None,
                "count": 0,
                "incr": 0,
                "live_incrs": [],
            }

    @property
    def watermark(self):
        return self.meta["watermark"]

    @property
    def count(self) -> int:
        return self.meta["count"]

    @property
    def sig_parts(self) -> int:
        return self.meta.get("sig_parts", 1)

    @property
    def _roots(self) -> list[str]:
        return [posixpath.join(self.index_dir, kind) for kind in _KINDS]

    def _incr_dir(self, kind: str, j: int) -> str:
        return posixpath.join(self.index_dir, kind, f"incr-{int(j):06d}")

    def _incr_files(self, kind: str, sub: str | None = None) -> list:
        """Parquet files of every live increment under ``kind`` (orphan dirs
        of a crashed increment or a compaction are never visited); ``sub``
        narrows to one partition subdir per increment."""
        files: list = []
        for j in self.meta["live_incrs"]:
            p = self._incr_dir(kind, j)
            if sub is not None:
                p = posixpath.join(p, sub)
            # band files nest one level deeper (pb=J/) — recurse so a
            # sub-less listing (compaction) still sees them
            files.extend(fsio.list_parquet(self.fs, p, recursive=sub is None))
        return files

    def compact(self) -> int:
        """Fold every committed increment's texts / signatures / band rows
        into ONE consolidated increment — per-increment file counts grow
        with ingest age, and ``banded_for`` lists one directory per
        (increment × pb partition). Rows are re-sorted (texts/signatures by
        id, band rows by key) so the id- and key-filter pushdowns keep tight
        row-group stats. Crash-safe like an increment: the consolidated
        directories only become visible at the log commit (live_incrs
        switch); old directories and superseded log entries are deleted
        after (a crash in between leaves dead dirs that the next compact's
        ``fsio.vacuum_orphan_incrs`` sweeps before the ≤1-dir early
        return). Returns docs consolidated."""
        import ray.data as rd

        if self.meta.get("layout", 1) < 2:
            raise ValueError("compact() requires the v2 (banded) layout")
        if self.meta["incr"] == 0:
            return 0
        fsio.vacuum_orphan_incrs(self.fs, self._roots, self.meta)
        old = {k: self._incr_files(k) for k in _KINDS}
        n_dirs = len({posixpath.dirname(f) for f in old["texts"]})
        if n_dirs <= 1:
            return 0
        id_col = self.meta["id_col"]
        k = fsio.index_next_incr(self.fs, self.index_dir, self._roots, self.meta)
        texts = rd.read_parquet(old["texts"], filesystem=self.fs).sort(id_col)
        texts = texts.materialize()
        n = texts.count()
        texts.write_parquet(
            self._incr_dir("texts", k),
            filesystem=self.fs,
            min_rows_per_file=ROWS_PER_FILE,
        )
        rd.read_parquet(old["signatures"], filesystem=self.fs).sort(
            id_col
        ).write_parquet(
            self._incr_dir("signatures", k),
            filesystem=self.fs,
            min_rows_per_file=ROWS_PER_FILE,
        )
        parts = self.meta["sig_parts"]

        def re_pb(t: pa.Table) -> pa.Table:
            # band files carry (band, key, id, dig); pyarrow re-infers the pb
            # partition from file paths as a string — rebuild it as int32
            key = t.column("key").to_numpy(zero_copy_only=False)
            cols = {c: t.column(c) for c in ("band", "key", id_col, "dig")}
            cols["pb"] = pa.array((key % parts).astype(np.int32))
            return pa.table(cols)

        rd.read_parquet(old["bands"], filesystem=self.fs).map_batches(
            re_pb, batch_format="pyarrow", zero_copy_batch=True
        ).sort("key").write_parquet(
            self._incr_dir("bands", k),
            partition_cols=["pb"],
            filesystem=self.fs,
            min_rows_per_file=ROWS_PER_FILE,
        )
        live = self.meta["live_incrs"]
        self.meta = fsio.index_commit(self.fs, self.index_dir, self.meta, live_incrs=[k])
        for j in live:
            for kind in _KINDS:
                fsio.delete_dir(self.fs, self._incr_dir(kind, j))
        fsio.log_prune(self.fs, self.index_dir, fsio.INDEX_LOG, k + 1)
        return n

    # -- the banded-index protocol consumed by minhash_lsh_dedup ----------

    def texts_for(self, ids):
        """(id, text) rows for the given candidate ids, with the id filter
        pushed into the parquet read: increments are id-monotone, so each
        file's row-group id stats are tight and non-matching files/row-groups
        prune instead of scanning the whole historical text corpus."""
        import pyarrow.dataset as pads
        import ray.data as rd

        flt = pads.field(self.meta["id_col"]).isin(pa.array(np.asarray(ids)))
        return rd.read_parquet(
            self._incr_files("texts"), filter=flt, filesystem=self.fs
        )

    def sigs_for(self, ids):
        """(id, sig, dig) rows for the given candidate ids, with the id
        filter pushed into the parquet read as in ``texts_for``."""
        import pyarrow.dataset as pads
        import ray.data as rd

        flt = pads.field(self.meta["id_col"]).isin(pa.array(np.asarray(ids)))
        return rd.read_parquet(
            self._incr_files("signatures"), filter=flt, filesystem=self.fs
        )

    def banded_for(self, pbs, keys=None):
        """Historical band rows from ONLY the ``pb`` partitions in ``pbs``,
        further filtered to the exact ``keys`` when provided — the pruned
        read that makes per-increment I/O O(increment), not O(index). A v1
        index (one partition, no ``bands/`` tree) bands every stored
        signature in flight instead."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads
        import ray.data as rd

        id_col = self.meta["id_col"]
        v1 = self.meta.get("layout", 1) < 2
        if v1:
            files = self._incr_files("signatures")
        else:
            files = [f for j in np.asarray(pbs).tolist()
                     for f in self._incr_files("bands", sub=f"pb={int(j)}")]

        def empty() -> pa.Table:
            return pa.table(
                {"_bkt": pa.array([], pa.int32()),
                 "band": pa.array([], pa.int32()),
                 "key": pa.array([], pa.int64()),
                 id_col: pa.array([], pa.int64()),
                 "dig": pa.array([], pa.int64())}
            )

        if not files:
            return rd.from_arrow(empty())
        key_set = None if keys is None else pa.array(np.asarray(keys, np.int64))
        if v1:
            num_perm, bands = self.meta["num_perm"], self.meta["bands"]

            def band_sigs(t: pa.Table) -> pa.Table:
                t = _band_rows(t, num_perm, bands, id_col)
                if key_set is None:
                    return t
                return t.filter(pc.is_in(t.column("key"), value_set=key_set))

            return rd.read_parquet(files, filesystem=self.fs).map_batches(
                band_sigs, batch_format="pyarrow", zero_copy_batch=True
            )
        flt = None if key_set is None else pads.field("key").isin(key_set)

        def add_bkt(t: pa.Table) -> pa.Table:
            # recompute the coarse shuffle bucket from (key, band) — the same
            # derivation the in-flight banding uses, so persisted rows land
            # in the same groupby buckets as the increment's
            if t.num_rows == 0:
                return empty()
            key = t.column("key").to_numpy(zero_copy_only=False)
            band = t.column("band").to_numpy(zero_copy_only=False)
            return pa.table(
                {"_bkt": pa.array(_coarse_bucket(key, band)),
                 "band": t.column("band"),
                 "key": t.column("key"),
                 id_col: t.column(id_col),
                 "dig": t.column("dig")}
            )

        return rd.read_parquet(files, filter=flt, filesystem=self.fs).map_batches(
            add_bkt, batch_format="pyarrow", zero_copy_batch=True
        )

    # -- ingest -------------------------------------------------------------

    def dedup_increment(self, ds, text_col: str = "text", id_col: str = "doc_id"):
        """Dedup one arriving increment against the index AND within itself;
        append the survivors (texts + signatures + band rows) to the index;
        return the surviving rows of ``ds`` as a materialized Dataset.
        Survivor signatures/band rows are the ones the dedup itself computed
        — filtered, never re-derived."""
        import ray

        lo = ds.min(id_col)
        if lo is None:  # empty increment — nothing to do, commit nothing
            return ds.materialize()
        if self.meta["watermark"] is not None and lo <= self.meta["watermark"]:
            raise ValueError(
                f"incoming min {id_col}={lo} is not past the index watermark "
                f"{self.meta['watermark']} — ids must be monotone so kept "
                "documents always win their clusters"
            )
        legacy = self.meta.get("layout", 1) < 2
        stored = (self.meta.get("id_col"), self.meta.get("text_col"))
        if stored[0] is not None and stored != (id_col, text_col):
            raise ValueError(
                f"index at {self.index_dir} stores {stored} columns, "
                f"got ({id_col}, {text_col})"
            )
        out, signed, banded = minhash_lsh_dedup(
            ds,
            text_col=text_col,
            id_col=id_col,
            num_perm=self.meta["num_perm"],
            bands=self.meta["bands"],
            jaccard_threshold=self.meta["jaccard_threshold"],
            shingle_k=self.meta["shingle_k"],
            indexed=self if self.meta["incr"] > 0 else None,
            return_artifacts=True,
        )

        k = fsio.index_next_incr(self.fs, self.index_dir, self._roots, self.meta)

        surv = np.sort(np.concatenate(
            [t.column(id_col).to_numpy(zero_copy_only=False)
             for t in out.select_columns([id_col]).iter_batches(
                 batch_size=None, batch_format="pyarrow")]
            or [np.empty(0, np.int64)]
        ))
        surv_ref = ray.put(surv)

        def keep_surv(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            return t.filter(pa.array(np.isin(ids, ray.get(surv_ref))))

        out.select_columns([id_col, text_col]).write_parquet(
            self._incr_dir("texts", k),
            filesystem=self.fs,
            min_rows_per_file=ROWS_PER_FILE,
        )
        signed.map_batches(
            keep_surv, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(
            self._incr_dir("signatures", k),
            filesystem=self.fs,
            min_rows_per_file=ROWS_PER_FILE,
        )
        if not legacy:
            parts = self.meta["sig_parts"]

            def band_out(t: pa.Table) -> pa.Table:
                t = keep_surv(t)
                key = t.column("key").to_numpy(zero_copy_only=False)
                pb = (key % parts).astype(np.int32)
                return t.drop_columns(["_bkt"]).append_column("pb", pa.array(pb))

            # sorted by key before the partitioned write: each written file's
            # key row-group stats become tight ranges, so banded_for's
            # key-isin filter prunes row groups instead of scanning them
            banded.map_batches(
                band_out, batch_format="pyarrow", zero_copy_batch=True
            ).sort("key").write_parquet(
                self._incr_dir("bands", k),
                partition_cols=["pb"],
                filesystem=self.fs,
                min_rows_per_file=ROWS_PER_FILE,
            )

        n_kept = out.count()
        self.meta = fsio.index_commit(
            self.fs,
            self.index_dir,
            self.meta,
            id_col=id_col,
            text_col=text_col,
            watermark=int(out.max(id_col)) if n_kept else self.meta["watermark"],
            count=self.meta["count"] + int(n_kept),
            live_incrs=self.meta["live_incrs"] + [k],
        )
        return out
