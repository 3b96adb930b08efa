"""The one commit log (``ops/fsio.py``) shared by ``CdcTable``,
``MinHashDedupIndex`` and ``IvfIndex``: create-if-absent commits, racing
writers, crashes on either side of the commit, and pre-log layouts."""

import json
import os
import posixpath
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.fs as pafs
import pytest

from wrangler_ray.ops import fsio
from wrangler_ray.ops.fsio import ConcurrentCommitError


@pytest.mark.parametrize("store", ["local", "subtree", "object_store"])
def test_log_commit_is_create_if_absent(tmp_path, store):
    """The same commit contract through the os.link path (local disk, and a
    SubTreeFileSystem over it) and the list-then-PUT path (pyarrow's
    in-memory mock filesystem stands in for an object store)."""
    if store == "local":
        fs, d = pafs.LocalFileSystem(), str(tmp_path / "log")
    elif store == "subtree":
        fs, d = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem()), "log"
    else:
        fs, d = pafs._MockFileSystem(), "log"
    fs.create_dir(d)
    assert fsio.log_latest(fs, d, "m-") is None
    fsio.log_commit(fs, d, "m-", 1, {"v": 1})
    with pytest.raises(ConcurrentCommitError):
        fsio.log_commit(fs, d, "m-", 1, {"v": "again"})
    fsio.log_commit(fs, d, "m-", 2, {"v": 2})
    with pytest.raises(ConcurrentCommitError):  # stale: 2 is already past 1
        fsio.log_commit(fs, d, "m-", 1, {"v": "stale"})
    assert fsio.log_versions(fs, d, "m-") == [1, 2]
    assert fsio.log_latest(fs, d, "m-") == {"v": 2}
    # no private tmp file is left behind by either outcome
    listed = fs.get_file_info(pafs.FileSelector(d))
    assert sorted(posixpath.basename(i.path) for i in listed) == [
        "m-00000001.json", "m-00000002.json"
    ]
    assert fsio.log_prune(fs, d, "m-", 2) == 1
    assert fsio.log_versions(fs, d, "m-") == [2]


def test_log_latest_relists_when_entry_vanishes(tmp_path, monkeypatch):
    fs, d = pafs.LocalFileSystem(), str(tmp_path)
    fsio.log_commit(fs, d, "m-", 1, {"v": 1})
    read_json = fsio.read_json
    raced = []

    def racing(fs_, path):
        # between this reader's listing and its read, a writer commits 2
        # and prunes what it supersedes
        if not raced:
            raced.append(path)
            fsio.log_commit(fs, d, "m-", 2, {"v": 2})
            fsio.log_prune(fs, d, "m-", 2)
        return read_json(fs_, path)

    monkeypatch.setattr(fsio, "read_json", racing)
    assert fsio.log_latest(fs, d, "m-") == {"v": 2}
    assert raced == [posixpath.join(d, "m-00000001.json")]


def test_log_latest_falls_back_to_legacy_file(tmp_path):
    fs, d = pafs.LocalFileSystem(), str(tmp_path)
    (tmp_path / "meta.json").write_text(json.dumps({"incr": 2}))
    assert fsio.index_meta(fs, d) == {"incr": 2, "live_incrs": [0, 1]}
    fsio.log_commit(fs, d, fsio.INDEX_LOG, 3, {"incr": 3, "live_incrs": [2]})
    assert fsio.index_meta(fs, d) == {"incr": 3, "live_incrs": [2]}


def test_cdc_commit_race_exactly_one_wins(tmp_path):
    """Two threads commit version 1 of one table at once, 200 times: every
    trial ends with exactly one committed version 1 — the winner's — and
    one ``ConcurrentCommitError``, never two commits and never a crash."""
    from wrangler_ray.cdc.engine import CdcTable

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as possible
    try:
        for trial in range(200):
            table = CdcTable(str(tmp_path / f"t{trial}"), num_partitions=2)
            barrier = threading.Barrier(2, timeout=30)
            outcome: dict = {}

            def commit(name):
                manifest = {"version": 1, "parent": None, "txn_id": name, "partitions": {}}
                barrier.wait()
                try:
                    table._commit_manifest(manifest)
                    outcome[name] = "committed"
                except ConcurrentCommitError:
                    outcome[name] = "rejected"
                except Exception as e:  # a crash fails the trial below
                    outcome[name] = repr(e)

            threads = [threading.Thread(target=commit, args=(n,)) for n in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert sorted(outcome.values()) == ["committed", "rejected"], (trial, outcome)
            (winner,) = [n for n, o in outcome.items() if o == "committed"]
            assert table.latest_manifest()["txn_id"] == winner
            assert fsio.log_versions(table.fs, table._log_dir, "manifest-") == [1]
    finally:
        sys.setswitchinterval(switch)


# -- fixtures for the index tests ---------------------------------------------


def _vec_ds(vecs, lo, hi):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "vec_id": pa.array(range(lo, hi), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs[lo:hi]],
                              pa.list_(pa.float32())),
    }))


def _docs():
    """40 random-word docs; every 4th is a one-word edit of the one before,
    so increments hold near-dups of earlier increments and of themselves."""
    rng = np.random.RandomState(3)
    words = [f"w{i}" for i in range(400)]
    texts = []
    for i in range(40):
        if i % 4 == 3:
            t = texts[-1].split()
            t[rng.randint(len(t))] = "edited"
            texts.append(" ".join(t))
        else:
            texts.append(" ".join(rng.choice(words, 30)))
    return texts


def _doc_ds(texts, lo, hi):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(lo, hi), pa.int64()),
        "text": pa.array(texts[lo:hi], pa.string()),
    }))


def _boom(*a, **k):
    raise RuntimeError("simulated crash")


def _crash_after_commit(monkeypatch):
    """Make every ``fsio.delete_dir`` after the next log commit raise: a
    crash between a commit and its cleanup."""
    log_commit, delete_dir = fsio.log_commit, fsio.delete_dir
    committed = []

    def commit(*a, **k):
        log_commit(*a, **k)
        committed.append(True)

    def delete(*a, **k):
        if committed:
            raise RuntimeError("simulated crash after commit")
        delete_dir(*a, **k)

    monkeypatch.setattr(fsio, "log_commit", commit)
    monkeypatch.setattr(fsio, "delete_dir", delete)


def _ivf_hits(idx, vecs):
    res = idx.query(vecs[:6], k=5, nprobe=4).to_pandas()
    return sorted(zip(res["query_idx"], res["vec_id"]))


# -- racing index handles -------------------------------------------------------


def test_ivf_second_handle_same_incr_rejected(ray_session, tmp_path):
    """Two handles of one index append at the same ``incr``: the second gets
    ``ConcurrentCommitError`` and the first one's increment stays intact."""
    from wrangler_ray.ops.ann_index import IvfIndex

    vecs = np.random.RandomState(5).randn(80, 8).astype(np.float32)
    d = str(tmp_path / "ivf")
    IvfIndex(d).build(_vec_ds(vecs, 0, 40), num_clusters=4, seed=3)
    a, b = IvfIndex(d), IvfIndex(d)
    assert a.append(_vec_ds(vecs, 40, 60)) == 20
    with pytest.raises(ConcurrentCommitError):
        b.append(_vec_ds(vecs, 60, 80))
    # the losing commit itself (both handles past their checks) fails too
    with pytest.raises(ConcurrentCommitError):
        fsio.index_commit(b.fs, b.index_dir, b.meta, count=0)
    fresh = IvfIndex(d)
    assert fresh.meta["count"] == 60 and fresh.meta["incr"] == 2
    res = fresh.query(vecs[45], k=3, nprobe=4).to_pandas()
    assert res["vec_id"].iloc[0] == 45
    assert fresh.query(vecs[70], k=3, nprobe=4).to_pandas()["vec_id"].max() < 60


def test_dedup_index_second_handle_same_incr_rejected(ray_session, tmp_path):
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    texts = _docs()
    d = str(tmp_path / "idx")
    kept = MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=4).dedup_increment(
        _doc_ds(texts, 0, 20)).to_pandas()["doc_id"].tolist()
    a = MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=4)
    b = MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=4)
    kept += a.dedup_increment(_doc_ds(texts, 20, 30)).to_pandas()["doc_id"].tolist()
    with pytest.raises(ConcurrentCommitError):
        b.dedup_increment(_doc_ds(texts, 30, 40))
    fresh = MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=4)
    assert fresh.count == len(kept) and fresh.meta["incr"] == 2
    kept += fresh.dedup_increment(_doc_ds(texts, 30, 40)).to_pandas()["doc_id"].tolist()
    batch = minhash_lsh_dedup(_doc_ds(texts, 0, 40), jaccard_threshold=0.7)
    assert sorted(kept) == sorted(batch.to_pandas()["doc_id"])


# -- crash before the commit / after it, before cleanup ------------------------


def test_cdc_crash_around_commit_converges(ray_session, tmp_path, monkeypatch):
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(str(tmp_path / "stream"), n_convs=20,
                                  n_events=400, n_segments=4, seed=5)
    segs = info["segments"]
    lake = str(tmp_path / "lake")
    table = CdcTable(lake, num_partitions=4)
    table.init_from_snapshot(rd.read_parquet(info["base"]))

    # crash before the log commit: the reader keeps the previous version
    log_commit = fsio.log_commit
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        table.apply_changes(segs[:2])
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    reopened = CdcTable(lake, num_partitions=4)
    assert reopened.latest_manifest()["version"] == 1
    assert_tables_equal(reopened.read_arrow(), replay_oracle(info["base"], []))
    assert reopened.apply_changes(segs[:2])["version"] == 2  # the rerun
    assert_tables_equal(reopened.read_arrow(), replay_oracle(info["base"], segs[:2]))

    # crash after the commit, before the staging cleanup: the reader sees
    # the new version, a rerun is a no-op, and vacuum removes the leftover
    _crash_after_commit(monkeypatch)
    with pytest.raises(RuntimeError, match="after commit"):
        reopened.apply_changes(segs, mode="mor")
    monkeypatch.undo()
    again = CdcTable(lake, num_partitions=4)
    assert again.latest_manifest()["version"] == 3
    assert os.listdir(os.path.join(lake, "staging"))
    oracle = replay_oracle(info["base"], segs)
    assert_tables_equal(again.read_arrow(), oracle)
    assert again.apply_changes(segs)["version"] == 3
    again.vacuum()
    assert os.listdir(os.path.join(lake, "staging")) == []
    assert_tables_equal(again.read_arrow(), oracle)


def _write_counting_fs(log: str) -> pafs.PyFileSystem:
    """Local disk through a ``PyFileSystem`` that appends the path of every
    parquet file opened for writing to ``log`` — in the driver and in every
    Ray worker the filesystem is shipped to."""
    from fsspec.implementations.local import LocalFileSystem

    class Counting(pafs.FSSpecHandler):
        def open_output_stream(self, path, metadata):
            if ".parquet" in path:
                with open(log, "a") as f:
                    f.write(path + "\n")
            return super().open_output_stream(path, metadata)

    return pafs.PyFileSystem(Counting(LocalFileSystem()))


def test_cdc_rerun_after_commit_crash_rewrites_no_output(ray_session, tmp_path, monkeypatch):
    """Each merge output is written once, at its final name, before the
    commit: the rerun of a transaction that crashed in its log commit
    resumes on those files and writes no merge output again."""
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(str(tmp_path / "stream"), n_convs=20,
                                  n_events=400, n_segments=4, seed=5)
    log = tmp_path / "writes.log"
    table = CdcTable(str(tmp_path / "lake"), num_partitions=4,
                     filesystem=_write_counting_fs(str(log)))
    table.init_from_snapshot(rd.read_parquet(info["base"]))
    done = len(log.read_text().splitlines())

    log_commit = fsio.log_commit
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        table.apply_changes(info["segments"])
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    crashed = log.read_text().splitlines()[done:]
    assert len(crashed) == 4  # one output per partition

    m = table.apply_changes(info["segments"])
    assert m["version"] == 2 and len(m["lineage"]) == 4
    assert log.read_text().splitlines()[done + len(crashed):] == []
    assert_tables_equal(table.read_arrow(), replay_oracle(info["base"], info["segments"]))


def test_cdc_rerun_over_more_segments_after_commit_crash(ray_session, tmp_path, monkeypatch):
    """A transaction is named by its input: the rerun of a crashed apply
    over MORE segments is a new transaction, not a resume of the crashed
    one's spills, so it applies every event it commits a watermark for;
    ``vacuum()`` then removes the crashed attempt's outputs."""
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(str(tmp_path / "stream"), n_convs=20,
                                  n_events=400, n_segments=4, seed=5)
    segs = info["segments"]
    lake = tmp_path / "lake"
    table = CdcTable(str(lake), num_partitions=4)
    table.init_from_snapshot(rd.read_parquet(info["base"]))

    log_commit = fsio.log_commit
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        table.apply_changes(segs[:2])
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    crashed = set(lake.glob("data/p*/txn-00000002-*.parquet"))
    assert crashed

    m = table.apply_changes(segs)
    assert m["version"] == 2
    oracle = replay_oracle(info["base"], segs)
    assert_tables_equal(table.read_arrow(), oracle)
    table.vacuum()
    assert not any(p.exists() for p in crashed)
    assert list((lake / "staging").iterdir()) == []
    assert table.apply_changes(segs)["version"] == 2
    assert_tables_equal(table.read_arrow(), oracle)


def _kill_once_fs(marker: str, match) -> pafs.PyFileSystem:
    """Local disk through a ``PyFileSystem`` whose process exits, without
    cleanup, the first time it opens for writing a path that ``match``
    accepts: a worker killed mid-write. ``marker`` records the kill, so the
    retried task writes through."""
    from fsspec.implementations.local import LocalFileSystem

    class KillOnce(pafs.FSSpecHandler):
        def open_output_stream(self, path, metadata):
            if match(path) and not os.path.exists(marker):
                open(marker, "w").close()
                os._exit(1)
            return super().open_output_stream(path, metadata)

    return pafs.PyFileSystem(KillOnce(LocalFileSystem()))


@pytest.mark.parametrize("target", ["merge_output", "spill"])
def test_cdc_apply_survives_worker_killed_mid_write(ray_session, tmp_path, target):
    """A worker that dies while writing a merge output's tmp file or a
    spill file is replaced and its task retried: the apply commits, and the
    table equals the replay."""
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(str(tmp_path / "stream"), n_convs=20,
                                  n_events=400, n_segments=4, seed=5)
    lake = str(tmp_path / "lake")
    CdcTable(lake, num_partitions=4).init_from_snapshot(rd.read_parquet(info["base"]))
    marker = tmp_path / "killed"
    if target == "merge_output":
        def match(path):
            return path.endswith(".parquet.tmp")
    else:
        def match(path):
            name = posixpath.basename(path)
            return name.startswith("spill-") and name.endswith(".arrow")
    table = CdcTable(lake, num_partitions=4, filesystem=_kill_once_fs(str(marker), match))
    m = table.apply_changes(info["segments"])
    assert marker.exists()
    assert m["version"] == 2
    assert_tables_equal(CdcTable(lake, num_partitions=4).read_arrow(),
                        replay_oracle(info["base"], info["segments"]))


@pytest.mark.parametrize("window, n", [(32, 4), (2, 6)])
def test_run_tasks_failure_stops_sibling_tasks(ray_session, tmp_path, monkeypatch,
                                               window, n):
    """When one task of an apply fails, the others stop: none that was
    still sleeping writes its marker after the error reaches the caller,
    and past a full window no new task starts."""
    import time

    from wrangler_ray import tasks

    monkeypatch.setattr(tasks, "TASK_WINDOW", window)
    marks = str(tmp_path / "marks")
    os.mkdir(marks)

    def work(i):
        if i == 0:
            raise ValueError("task 0 failed")
        time.sleep(1.0)
        open(os.path.join(marks, str(i)), "w").close()
        return pa.table({"i": [i]})

    with pytest.raises(ValueError, match="task 0 failed"):
        tasks._run_tasks(work, range(n))
    time.sleep(2.0)
    assert os.listdir(marks) == []


def test_cdc_vacuum_keeps_in_flight_outputs(ray_session, tmp_path, monkeypatch):
    """``vacuum()`` run between a crashed transaction and its rerun keeps
    the outputs of that in-flight transaction (its version is past the
    latest), so the rerun reuses them; the outputs of a transaction that
    never committed at a version another commit has taken are deleted."""
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(str(tmp_path / "stream"), n_convs=20,
                                  n_events=400, n_segments=4, seed=5)
    segs = info["segments"]
    lake = tmp_path / "lake"
    table = CdcTable(str(lake), num_partitions=4)
    table.init_from_snapshot(rd.read_parquet(info["base"]))
    table.apply_changes(segs[:1], mode="mor")  # v2: deltas to compact

    log_commit = fsio.log_commit
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        table.compact()  # would have been v3
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    stale = list(lake.glob("data/p*/txn-00000003-compact-*.parquet"))
    assert stale
    assert table.apply_changes(segs[1:2])["version"] == 3  # takes v3

    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        table.apply_changes(segs[2:])  # v4, in flight
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    in_flight = {str(p.relative_to(lake)): p.stat().st_mtime_ns
                 for p in lake.glob("data/p*/txn-00000004-*.parquet")}
    assert in_flight

    table.vacuum()
    assert not any(p.exists() for p in stale)
    m = table.apply_changes(segs[2:])
    assert m["version"] == 4
    committed = [f for fs in m["partitions"].values() for f in fs
                 if f.split("/")[-1].startswith("txn-00000004-")]
    assert sorted(committed) == sorted(in_flight)
    assert all((lake / f).stat().st_mtime_ns == t for f, t in in_flight.items())
    assert_tables_equal(table.read_arrow(), replay_oracle(info["base"], segs))


def test_dedup_index_crash_around_commit_converges(ray_session, tmp_path, monkeypatch):
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    texts = _docs()
    d = str(tmp_path / "idx")

    def index():
        return MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=4)

    def ids(ds):
        return ds.to_pandas()["doc_id"].tolist()

    kept = ids(index().dedup_increment(_doc_ds(texts, 0, 10)))
    log_commit = fsio.log_commit

    # crash before the commit of an increment: reopen sees the previous
    # version; the rerun replaces the orphan increment
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        index().dedup_increment(_doc_ds(texts, 10, 20))
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    idx = index()
    assert idx.meta["incr"] == 1 and idx.count == len(kept)
    kept += ids(idx.dedup_increment(_doc_ds(texts, 10, 20)))
    kept += ids(idx.dedup_increment(_doc_ds(texts, 20, 30)))

    # crash before the commit of a compaction: still the previous version
    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        index().compact()
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    assert index().meta["live_incrs"] == [0, 1, 2]

    # crash after the compaction's commit, before its cleanup: the new
    # version is live; a rerun sweeps the dead dirs
    _crash_after_commit(monkeypatch)
    with pytest.raises(RuntimeError, match="after commit"):
        index().compact()
    monkeypatch.undo()
    idx = index()
    assert idx.meta["live_incrs"] == [3] and idx.count == len(kept)
    assert idx.compact() == 0
    assert sorted(os.listdir(os.path.join(d, "texts"))) == ["incr-000003"]
    assert idx.compact() == 0
    kept += ids(idx.dedup_increment(_doc_ds(texts, 30, 40)))
    batch = minhash_lsh_dedup(_doc_ds(texts, 0, 40), jaccard_threshold=0.7)
    assert sorted(kept) == sorted(ids(batch))


def test_ivf_crash_around_commit_converges(ray_session, tmp_path, monkeypatch):
    from wrangler_ray.ops.ann_index import IvfIndex

    vecs = np.random.RandomState(7).randn(80, 8).astype(np.float32)
    d = str(tmp_path / "ivf")
    IvfIndex(d).build(_vec_ds(vecs, 0, 40), num_clusters=4, seed=3)
    log_commit = fsio.log_commit

    monkeypatch.setattr(fsio, "log_commit", _boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        IvfIndex(d).append(_vec_ds(vecs, 40, 60))
    monkeypatch.setattr(fsio, "log_commit", log_commit)
    idx = IvfIndex(d)
    assert idx.meta["count"] == 40
    assert all(v < 40 for _, v in _ivf_hits(idx, vecs))
    assert idx.append(_vec_ds(vecs, 40, 60)) == 20
    assert idx.append(_vec_ds(vecs, 60, 80)) == 20
    expected = _ivf_hits(idx, vecs)

    _crash_after_commit(monkeypatch)
    with pytest.raises(RuntimeError, match="after commit"):
        IvfIndex(d).compact()
    monkeypatch.undo()
    idx = IvfIndex(d)
    assert idx.meta["live_incrs"] == [3] and idx.meta["count"] == 80
    assert _ivf_hits(idx, vecs) == expected
    assert idx.compact() == 0  # sweeps the dead dirs, prunes nothing live
    assert os.listdir(os.path.join(d, "cells")) == ["incr-000003"]
    # the entries the compaction superseded are pruned on the next one
    assert idx.append(_vec_ds(vecs, 0, 0)) == 0
    assert idx.compact() == 80
    assert fsio.log_versions(idx.fs, d, fsio.INDEX_LOG) == [6]
    assert _ivf_hits(IvfIndex(d), vecs) == expected


# -- pre-log layouts -----------------------------------------------------------


def _to_legacy(d):
    """Rewrite an index as the pre-log layout: the newest log entry becomes
    the one mutable ``meta.json`` without ``live_incrs``; the older ones go."""
    entries = sorted(f for f in os.listdir(d) if f.startswith("meta-"))
    for f in entries[:-1]:
        os.remove(os.path.join(d, f))
    with open(os.path.join(d, entries[-1])) as f:
        meta = json.load(f)
    del meta["live_incrs"]
    with open(os.path.join(d, "meta.json"), "w") as f:
        json.dump(meta, f)
    os.remove(os.path.join(d, entries[-1]))


def test_legacy_meta_json_index_opens_and_appends(ray_session, tmp_path):
    from wrangler_ray.ops.ann_index import IvfIndex
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    vecs = np.random.RandomState(9).randn(60, 8).astype(np.float32)
    d = str(tmp_path / "ivf")
    idx = IvfIndex(d)
    idx.build(_vec_ds(vecs, 0, 30), num_clusters=4, seed=3)
    idx.append(_vec_ds(vecs, 30, 45))
    _to_legacy(d)
    legacy = IvfIndex(d)
    assert legacy.meta["live_incrs"] == [0, 1]
    assert legacy.append(_vec_ds(vecs, 45, 60)) == 15
    reopened = IvfIndex(d)
    assert reopened.meta["count"] == 60 and reopened.meta["live_incrs"] == [0, 1, 2]
    assert reopened.query(vecs[50], k=1, nprobe=4).to_pandas()["vec_id"].tolist() == [50]
    assert reopened.query(vecs[5], k=1, nprobe=4).to_pandas()["vec_id"].tolist() == [5]

    texts = _docs()
    d = str(tmp_path / "idx")
    kept = MinHashDedupIndex(d, jaccard_threshold=0.7).dedup_increment(
        _doc_ds(texts, 0, 20)).to_pandas()["doc_id"].tolist()
    _to_legacy(d)
    legacy = MinHashDedupIndex(d, jaccard_threshold=0.7)
    assert legacy.meta["live_incrs"] == [0]
    kept += legacy.dedup_increment(_doc_ds(texts, 20, 40)).to_pandas()["doc_id"].tolist()
    batch = minhash_lsh_dedup(_doc_ds(texts, 0, 40), jaccard_threshold=0.7)
    assert sorted(kept) == sorted(batch.to_pandas()["doc_id"])
    assert MinHashDedupIndex(d, jaccard_threshold=0.7).meta["incr"] == 2


def _crash_at_fs(counter: str, k: int) -> pafs.PyFileSystem:
    """Local disk through a ``PyFileSystem`` that appends every mutating
    call (``open_output_stream``, ``move``, ``delete_file``, ``delete_dir``,
    ``create_dir``) as a ``<method> <path>`` line to the file ``counter``,
    shared under a lock by the driver and every Ray worker the filesystem
    is shipped to, and raises at the ``k``-th call and every later one, as
    if the writer had died there (``k=0``: count only)."""
    import fcntl

    from fsspec.implementations.local import LocalFileSystem

    def step(method, path):
        with open(counter, "a+") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            f.seek(0)
            n = len(f.readlines()) + 1
            f.write(f"{method} {path}\n")
        if k and n >= k:
            raise OSError(f"injected crash at mutating call {n}")

    class CrashAt(pafs.FSSpecHandler):
        def open_output_stream(self, path, metadata):
            step("open_output_stream", path)
            return super().open_output_stream(path, metadata)

        def move(self, src, dest):
            step("move", src)
            return super().move(src, dest)

        def delete_file(self, path):
            step("delete_file", path)
            return super().delete_file(path)

        def delete_dir(self, path):
            step("delete_dir", path)
            return super().delete_dir(path)

        def create_dir(self, path, recursive):
            step("create_dir", path)
            return super().create_dir(path, recursive)

    return pafs.PyFileSystem(CrashAt(LocalFileSystem()))


@pytest.fixture(scope="module")
def sweep_lakes(tmp_path_factory, ray_session):
    """A small evolving stream and the tables the crash sweeps start from:
    ``base`` (the snapshot), ``deltas`` (plus a merge-on-read apply: every
    partition has a delta) and ``history`` (base, a COW apply, a MOR apply
    and a compaction: four versions and their superseded files)."""
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream

    d = tmp_path_factory.mktemp("sweep")
    info = generate_change_stream(str(d / "stream"), n_convs=12, n_events=120,
                                  n_segments=2, seed=3, evolve_schema_at_segment=1)
    segs = info["segments"]
    lakes = {name: str(d / name) for name in ("base", "deltas", "history")}
    for lake in lakes.values():
        CdcTable(lake, num_partitions=2).init_from_snapshot(rd.read_parquet(info["base"]))
    CdcTable(lakes["deltas"], num_partitions=2).apply_changes(segs, mode="mor")
    history = CdcTable(lakes["history"], num_partitions=2)
    history.apply_changes(segs[:1])
    history.apply_changes(segs[1:], mode="mor")
    history.compact()
    return info, lakes


def _lake_files(lake: str) -> set:
    return {
        os.path.relpath(os.path.join(d, f), lake)
        for d, _, files in os.walk(lake) for f in files
    }


@pytest.mark.parametrize("op, start, calls", [
    # per sweep, the mutating calls of one uncrashed run by method: the
    # table's three dirs, the exchange (spill dir reset, one spill file,
    # the spill index: tmp + move), per partition merge (staging dir, tmp
    # output, data dir, move), the log commit, the staging cleanup
    ("cow", "base", {"create_dir": 8, "open_output_stream": 5, "move": 3, "delete_dir": 1}),
    ("mor", "base", {"create_dir": 8, "open_output_stream": 5, "move": 3, "delete_dir": 1}),
    ("compact", "deltas", {"create_dir": 7, "open_output_stream": 3, "move": 2, "delete_dir": 1}),
    # six superseded data files (the snapshot's, the COW apply's, the
    # deltas), the three manifests below the kept window
    ("vacuum", "history", {"create_dir": 3, "delete_file": 9}),
])
def test_cdc_crash_sweep(sweep_lakes, tmp_path, op, start, calls):
    """Crash a COW apply, a MOR apply, ``compact()`` and ``vacuum()`` at
    every mutating filesystem call in turn, in the driver or a Ray worker:
    after each crash the table, reopened on plain local disk, converges on
    a rerun to the replay of the stream, on the schema of an uncrashed
    run. The call counts are pinned, so a new write site joins the sweep."""
    import collections
    import shutil

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info, lakes = sweep_lakes
    run = {
        "cow": lambda t: t.apply_changes(info["segments"]),
        "mor": lambda t: t.apply_changes(info["segments"], mode="mor"),
        "compact": lambda t: t.compact(),
        "vacuum": lambda t: t.vacuum(keep_versions=1),
    }[op]
    oracle = replay_oracle(info["base"], info["segments"])

    def crash_at(k: int) -> tuple[str, str]:
        lake, counter = str(tmp_path / f"lake-{k}"), str(tmp_path / f"calls-{k}")
        shutil.copytree(lakes[start], lake)
        run(CdcTable(lake, num_partitions=2, filesystem=_crash_at_fs(counter, k)))
        return lake, counter

    lake, counter = crash_at(0)
    with open(counter) as f:
        seen = collections.Counter(line.split()[0] for line in f)
    assert dict(seen) == calls
    ref = CdcTable(lake, num_partitions=2)
    assert_tables_equal(ref.read_arrow(), oracle)
    schema, files = ref.read_arrow().schema, _lake_files(lake)

    for k in range(1, sum(calls.values()) + 1):
        with pytest.raises(Exception, match="injected crash"):
            crash_at(k)
        lake = str(tmp_path / f"lake-{k}")
        table = CdcTable(lake, num_partitions=2)
        run(table)
        got = table.read_arrow()
        assert_tables_equal(got, oracle)
        assert got.schema == schema, f"crash at call {k}"
        if op == "vacuum":
            assert _lake_files(lake) == files, f"crash at call {k}"


@pytest.fixture(scope="module")
def sweep_indexes(tmp_path_factory, ray_session):
    """The indexes the index crash sweeps start from, on plain disk: a v2
    dedup index with ``sig_parts=2`` after one increment (``dedup_one``,
    docs 0–20) and after two (``dedup_two``, docs 0–10 and 10–20); an IVF
    index built over vectors 0–30 (``ivf_one``) and then appended 30–45
    (``ivf_two``)."""
    from wrangler_ray.ops.ann_index import IvfIndex
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    d = tmp_path_factory.mktemp("index_sweep")
    texts = _docs()
    vecs = np.random.RandomState(9).randn(60, 8).astype(np.float32)
    dirs = {name: str(d / name) for name in ("dedup_one", "dedup_two", "ivf_one", "ivf_two")}
    MinHashDedupIndex(dirs["dedup_one"], jaccard_threshold=0.7, sig_parts=2).dedup_increment(
        _doc_ds(texts, 0, 20))
    two = MinHashDedupIndex(dirs["dedup_two"], jaccard_threshold=0.7, sig_parts=2)
    two.dedup_increment(_doc_ds(texts, 0, 10))
    two.dedup_increment(_doc_ds(texts, 10, 20))
    for name in ("ivf_one", "ivf_two"):
        IvfIndex(dirs[name]).build(_vec_ds(vecs, 0, 30), num_clusters=4, seed=3)
    IvfIndex(dirs["ivf_two"]).append(_vec_ds(vecs, 30, 45))
    return texts, vecs, dirs


def test_dedup_index_compact_file_counts(sweep_indexes, tmp_path):
    """Compacting the two-increment dedup index writes one text file, one
    signature file and at most one band file per ``pb`` partition: the file
    count follows the data, not the blocks the re-sort emits."""
    import shutil

    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    _, _, dirs = sweep_indexes
    d = str(tmp_path / "index")
    shutil.copytree(dirs["dedup_two"], d)
    idx = MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=2)
    assert idx.compact() > 0
    counts = {kind: len(idx._incr_files(kind)) for kind in ("texts", "signatures", "bands")}
    assert counts["texts"] == 1 and counts["signatures"] == 1
    assert 1 <= counts["bands"] <= idx.sig_parts


def _dedup_index_state(idx) -> tuple:
    """The survivor ids an index holds, as its texts, its signatures and its
    band rows (one per band per survivor) each list them."""
    texts = idx.texts_for(np.arange(1000)).to_pandas()[idx.meta["id_col"]]
    sigs = idx.sigs_for(np.arange(1000)).to_pandas()[idx.meta["id_col"]]
    bands = idx.banded_for(np.arange(idx.sig_parts)).to_pandas()[idx.meta["id_col"]]
    return sorted(texts), sorted(sigs), sorted(bands)


@pytest.mark.parametrize("op, start, calls", [
    # per sweep, the mutating calls of one uncrashed run by method. An
    # increment: per kind (texts, signatures, bands) the increment dir and
    # one file (bands: one per pb=J partition, in its own dir), then the
    # log entry. A compaction: the same, then the superseded increment
    # dirs and log entries
    ("dedup_increment", "dedup_one", {"create_dir": 7, "open_output_stream": 5}),
    ("dedup_compact", "dedup_two",
     {"create_dir": 7, "open_output_stream": 5, "delete_dir": 6, "delete_file": 2}),
    ("ivf_append", "ivf_one", {"create_dir": 5, "open_output_stream": 5}),
    ("ivf_compact", "ivf_two",
     {"create_dir": 9, "open_output_stream": 9, "delete_dir": 2, "delete_file": 2}),
])
def test_index_crash_sweep(sweep_indexes, tmp_path, op, start, calls):
    """Crash an increment and a compaction of each index at every mutating
    filesystem call in turn, in the driver or a Ray worker: after each
    crash the index, reopened on plain local disk, converges on a rerun.
    The dedup index then holds exactly the survivors of a batch
    ``minhash_lsh_dedup`` over the whole input, in its texts, signatures
    and band rows; the IVF index answers as an uncrashed run does. The
    call counts are pinned, so a new write site joins the sweep."""
    import collections
    import shutil

    from wrangler_ray.ops.ann_index import IvfIndex
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    texts, vecs, dirs = sweep_indexes
    if op.startswith("dedup"):
        def open_index(d, fs=None):
            return MinHashDedupIndex(d, jaccard_threshold=0.7, sig_parts=2, filesystem=fs)
    else:
        def open_index(d, fs=None):
            return IvfIndex(d, filesystem=fs)
    run = {
        "dedup_increment": lambda i: i.dedup_increment(_doc_ds(texts, 20, 30)),
        "dedup_compact": lambda i: i.compact(),
        "ivf_append": lambda i: i.append(_vec_ds(vecs, 30, 45)),
        "ivf_compact": lambda i: i.compact(),
    }[op]

    def crash_at(k: int) -> tuple[str, str]:
        d, counter = str(tmp_path / f"index-{k}"), str(tmp_path / f"calls-{k}")
        shutil.copytree(dirs[start], d)
        run(open_index(d, _crash_at_fs(counter, k)))
        return d, counter

    def state(d: str):
        idx = open_index(d)
        if op.startswith("dedup"):
            return idx.count, _dedup_index_state(idx)
        return idx.meta["count"], _ivf_hits(idx, vecs)

    d, counter = crash_at(0)
    with open(counter) as f:
        seen = collections.Counter(line.split()[0] for line in f)
    assert dict(seen) == calls
    expected = state(d)
    if op.startswith("dedup"):
        hi = 30 if op == "dedup_increment" else 20
        batch = sorted(minhash_lsh_dedup(_doc_ds(texts, 0, hi), jaccard_threshold=0.7)
                       .to_pandas()["doc_id"])
        n_bands = open_index(d).meta["bands"]
        assert expected == (len(batch), (batch, batch, sorted(batch * n_bands)))

    for k in range(1, sum(calls.values()) + 1):
        with pytest.raises(Exception, match="injected crash"):
            crash_at(k)
        d = str(tmp_path / f"index-{k}")
        run(open_index(d))
        assert state(d) == expected, f"crash at call {k}"
