"""Filesystem plumbing shared by the persisted index structures
(`MinHashDedupIndex`, `IvfIndex`): every metadata/list/delete operation goes
through `pyarrow.fs.FileSystem`, so an index can live on any Arrow-supported
store (local disk, S3-style object stores, or a test-injected
`SubTreeFileSystem`) instead of being glued to `os.path`/`glob`.

Atomicity note: `write_json_atomic` uses write-to-tmp + `fs.move` — a true
atomic rename on `LocalFileSystem`. On object stores `move` is copy+delete,
but there a single PUT is already atomic at the object level, so the commit
point is still a single visible switch of the meta object; readers never see
a torn file either way.

Concurrency contract: readers are always safe, and SINGLE-writer commits are
exactly-once on every store. The contract is one writer per table or index.
The CdcTable manifest pointer's parent check (read the pointer, then rename
over it) only catches a writer that started from a version already
replaced; it is not a compare-and-swap on ANY store, local disk included:
two committers racing between the read and the rename can both pass, and
one committed transaction is silently lost. Concurrent writers need an
external lock (or a store with conditional-put, wired in here); one
tail/apply driver per table needs neither.
"""
from __future__ import annotations

import json
import posixpath

import pyarrow.fs as pafs


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
    if not exists(fs, path):
        return None
    with fs.open_input_stream(path) as f:
        return json.loads(f.read().decode())


def write_json_atomic(fs: pafs.FileSystem, path: str, obj) -> None:
    """Commit a JSON file via tmp + move (atomic rename on local FS; a
    single-object switch on object stores — see module docstring)."""
    tmp = path + ".tmp"
    with fs.open_output_stream(tmp) as f:
        f.write(json.dumps(obj).encode())
    fs.move(tmp, path)


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
    between an index compaction's meta commit and its old-dir deletion left
    behind: any ``incr-j`` with ``j < meta['incr']`` that is not in the
    committed ``meta['live_incrs']`` set is unreachable (reads only visit
    live increments) and would otherwise leak forever — the next compaction
    sees ≤1 live dir and returns early without sweeping. In-flight dirs
    (``j >= meta['incr']``) are left alone. Returns dirs removed.

    Single-writer contract (see module docstring): an append that allocated
    ``incr-j`` before a CONCURRENT compaction committed would have its
    in-flight dir swept here. Safe because one writer owns an index at a
    time; concurrent writers need the external lock the module docstring
    describes."""
    live = meta.get("live_incrs")
    if live is None:  # pre-compaction layout: all j < incr are live
        return 0
    live_names = {f"incr-{int(j):06d}" for j in live}
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
