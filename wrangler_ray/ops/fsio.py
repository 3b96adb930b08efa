"""Filesystem plumbing shared by the persisted structures (`CdcTable`,
`MinHashDedupIndex`, `IvfIndex`): every metadata/list/delete operation goes
through `pyarrow.fs.FileSystem`, so a table or index can live on any
Arrow-supported store (local disk, S3-style object stores, or a
test-injected `SubTreeFileSystem`) instead of being glued to `os.path`/`glob`.

One commit log for all three (after Delta Lake, VLDB 2020 — PAPERS.md): a
structure's state is a directory of numbered JSON entries
``<prefix>NNNNNNNN.json``. The latest state is the highest listed entry;
there is no mutable pointer and no file is ever rewritten in place. A commit
of version N first lists the log (an entry at or past N means the writer is
stale: ``ConcurrentCommitError``), then CREATES entry N only if it is
absent.

Concurrency contract — what the create-if-absent is on each store:
- local disk (``LocalFileSystem``, or a ``SubTreeFileSystem`` over one): the
  entry is written under a private tmp name and ``os.link``-ed into place.
  The link is atomic and fails when the entry exists, so of two writers
  racing for version N exactly one commits and the other gets
  ``ConcurrentCommitError``; no commit is lost.
- object stores: pyarrow exposes no conditional PUT, so the commit is
  list-then-PUT. A writer that is stale by the time it lists is rejected,
  but two writers racing between the list and the PUT can both succeed and
  the later PUT replaces the earlier entry. Run one writer per table or
  index there (or put an external lock around commits).
The log guards the COMMIT only. The data a writer writes before committing
(an index increment directory, a table's ``txn-<version>-…`` output files)
is named by the version it targets. A writer that is already stale fails ``log_check``
before it touches that data, but two index writers running at the same
time both write into the one increment directory, so the winner's
committed increment can also hold the loser's files. One writer per
structure stays the contract; the log makes a stale or racing writer fail
instead of silently losing a commit.
"""
from __future__ import annotations

import json
import os
import posixpath
import uuid

import pyarrow.fs as pafs


class ConcurrentCommitError(RuntimeError):
    """Another writer committed this version first, or the log moved past
    the version this writer started from (optimistic concurrency)."""


def resolve_fs(path: str, filesystem: pafs.FileSystem | None = None):
    """Return ``(fs, normalized_path)``. An explicit ``filesystem`` wins
    (path used verbatim); a URI like ``s3://bucket/x`` resolves via
    ``FileSystem.from_uri``; a bare path means local disk."""
    if filesystem is not None:
        return filesystem, path
    if "://" in path:
        fs, p = pafs.FileSystem.from_uri(path)
        return fs, p
    return pafs.LocalFileSystem(), path


def exists(fs: pafs.FileSystem, path: str) -> bool:
    return fs.get_file_info(path).type != pafs.FileType.NotFound


def read_json(fs: pafs.FileSystem, path: str):
    """Parse a JSON file, or None when it does not exist."""
    try:
        with fs.open_input_stream(path) as f:
            return json.loads(f.read().decode())
    except FileNotFoundError:
        return None


def write_json_atomic(fs: pafs.FileSystem, path: str, obj) -> None:
    """Write a JSON file via a private tmp name + move: an atomic rename on
    local disk, a single-object PUT (copy) on object stores, so a reader
    never sees a torn file."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    with fs.open_output_stream(tmp) as f:
        f.write(json.dumps(obj).encode())
    fs.move(tmp, path)


def _log_entry(log_dir: str, prefix: str, version: int) -> str:
    return posixpath.join(log_dir, f"{prefix}{version:08d}.json")


def log_versions(fs: pafs.FileSystem, log_dir: str, prefix: str) -> list[int]:
    """Sorted versions of the ``<prefix>NNNNNNNN.json`` entries in
    ``log_dir`` ([] if absent)."""
    sel = pafs.FileSelector(log_dir, allow_not_found=True)
    names = (posixpath.basename(i.path) for i in fs.get_file_info(sel))
    return sorted(
        int(n[len(prefix):-5])
        for n in names
        if n.startswith(prefix) and n.endswith(".json") and n[len(prefix):-5].isdigit()
    )


def log_latest(fs: pafs.FileSystem, log_dir: str, prefix: str, legacy: str | None = None):
    """The highest listed entry, parsed; when the log is empty, the
    ``legacy`` file (a pre-log single mutable JSON) or None. An entry that
    vanishes between the listing and the read was pruned after a newer one
    committed, so the log is listed again."""
    while True:
        versions = log_versions(fs, log_dir, prefix)
        if not versions:
            return read_json(fs, legacy) if legacy else None
        obj = read_json(fs, _log_entry(log_dir, prefix, versions[-1]))
        if obj is not None:
            return obj


def _local_path(fs: pafs.FileSystem, path: str) -> str | None:
    """``path`` on local disk when ``fs`` is local (directly or as the base
    of a ``SubTreeFileSystem``), else None."""
    while isinstance(fs, pafs.SubTreeFileSystem):
        path = posixpath.join(fs.base_path, path.lstrip("/"))
        fs = fs.base_fs
    return path if isinstance(fs, pafs.LocalFileSystem) else None


def log_check(fs: pafs.FileSystem, log_dir: str, prefix: str, version: int) -> None:
    """Raise ``ConcurrentCommitError`` unless ``version`` is still ahead of
    every listed entry — a writer checks this before it overwrites the
    leftovers of a crashed attempt at ``version``, and ``log_commit``
    checks it again."""
    latest = max(log_versions(fs, log_dir, prefix), default=0)
    if latest >= version:
        raise ConcurrentCommitError(
            f"{log_dir} is at version {latest}; a commit of version {version} "
            "started from a stale state — reopen and retry"
        )


def log_commit(fs: pafs.FileSystem, log_dir: str, prefix: str, version: int, obj) -> None:
    """Commit ``obj`` as entry ``version``: ``log_check``, then create the
    entry if it is absent (atomic on local disk, list-then-PUT on object
    stores — see the module docstring)."""
    log_check(fs, log_dir, prefix, version)
    path = _log_entry(log_dir, prefix, version)
    data = json.dumps(obj).encode()
    local = _local_path(fs, path)
    if local is None:
        with fs.open_output_stream(path) as f:
            f.write(data)
        return
    tmp = f"{local}.{uuid.uuid4().hex}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    try:
        os.link(tmp, local)
    except FileExistsError:
        raise ConcurrentCommitError(
            f"version {version} of {log_dir} was committed by another writer"
        ) from None
    finally:
        os.unlink(tmp)


def log_prune(fs: pafs.FileSystem, log_dir: str, prefix: str, below: int) -> int:
    """Delete the entries older than version ``below``; returns how many."""
    old = [v for v in log_versions(fs, log_dir, prefix) if v < below]
    for v in old:
        fs.delete_file(_log_entry(log_dir, prefix, v))
    return len(old)


INDEX_LOG = "meta-"  # an index's log entries: <index_dir>/meta-NNNNNNNN.json


def index_meta(fs: pafs.FileSystem, index_dir: str):
    """An index's latest meta: its newest log entry, else a legacy mutable
    ``meta.json`` (whose missing ``live_incrs`` means increments
    ``0..incr-1``), else None. Every entry carries ``live_incrs``; log
    version N holds ``incr == N``."""
    meta = log_latest(fs, index_dir, INDEX_LOG, legacy=posixpath.join(index_dir, "meta.json"))
    if meta is not None:
        meta.setdefault("live_incrs", list(range(meta["incr"])))
    return meta


def index_next_incr(fs: pafs.FileSystem, index_dir: str, roots: list[str], meta: dict) -> int:
    """The number ``k`` of the increment about to be written, with what a
    crashed attempt left in ``<root>/incr-k`` deleted (write_parquet picks
    fresh file names, so a re-run would otherwise add a second copy) — after
    ``log_check``: a stale handle must fail before it deletes another
    writer's committed increment."""
    k = meta["incr"]
    log_check(fs, index_dir, INDEX_LOG, k + 1)
    for root in roots:
        delete_dir(fs, posixpath.join(root, f"incr-{k:06d}"))
    return k


def index_commit(fs: pafs.FileSystem, index_dir: str, meta: dict, **changes) -> dict:
    """Commit ``meta`` with ``changes`` applied as log entry ``incr + 1``
    and return it (the caller's meta moves only once the entry exists)."""
    new = {**meta, **changes, "incr": meta["incr"] + 1}
    log_commit(fs, index_dir, INDEX_LOG, new["incr"], new)
    return new


def list_subdirs(fs: pafs.FileSystem, path: str) -> list[str]:
    """Immediate child directory NAMES of ``path`` (sorted; [] if absent)."""
    sel = pafs.FileSelector(path, recursive=False, allow_not_found=True)
    return sorted(
        posixpath.basename(i.path.rstrip("/"))
        for i in fs.get_file_info(sel)
        if i.type == pafs.FileType.Directory
    )


def list_parquet(fs: pafs.FileSystem, path: str, recursive: bool = False) -> list[str]:
    """Full paths of ``*.parquet`` files under ``path`` (sorted; [] if
    absent)."""
    sel = pafs.FileSelector(path, recursive=recursive, allow_not_found=True)
    return sorted(
        i.path
        for i in fs.get_file_info(sel)
        if i.type == pafs.FileType.File and i.path.endswith(".parquet")
    )


def delete_dir(fs: pafs.FileSystem, path: str) -> None:
    if exists(fs, path):
        fs.delete_dir(path)


def vacuum_orphan_incrs(fs: pafs.FileSystem, roots: list[str], meta: dict) -> int:
    """Delete the dead ``incr-j`` dirs under each of ``roots`` that a crash
    between an index compaction's log commit and its old-dir deletion left
    behind: any ``incr-j`` with ``j < meta['incr']`` that is not in the
    committed ``meta['live_incrs']`` set is unreachable (reads only visit
    live increments) and would otherwise leak forever — the next compaction
    sees ≤1 live dir and returns early without sweeping. In-flight dirs
    (``j >= meta['incr']``) are left alone. Returns dirs removed.

    Single-writer contract (see module docstring): an append that allocated
    ``incr-j`` before a CONCURRENT compaction committed would have its
    in-flight dir swept here; that append's own commit then fails on the
    log, but its files are gone. One writer owns an index at a time."""
    live_names = {f"incr-{int(j):06d}" for j in meta["live_incrs"]}
    removed = 0
    for root in roots:
        for d in list_subdirs(fs, root):
            if (
                d.startswith("incr-")
                and d not in live_names
                and int(d.split("-")[1]) < meta["incr"]
            ):
                delete_dir(fs, posixpath.join(root, d))
                removed += 1
    return removed
