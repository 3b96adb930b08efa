"""Band-partitioned persisted dedup index (layout v2): per-increment
historical I/O must be O(increment) — an increment reads only the band
partitions its own keys hash to — signatures are reused from the dedup run
(never re-derived), storage is pyarrow.fs-injectable, and v1 indexes still
work through the legacy full-read path.
"""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest


def _corpus():
    base = [
        "the quick brown fox jumps over the lazy dog and runs far away",
        "a completely different document about streaming dataflow engines",
        "arrow record batches move through the object store with backpressure",
        "yet another unrelated piece of text mentioning lakehouse manifests",
        "five boxing wizards jump quickly over the glass of liquid helium",
    ]
    texts, ids = [], []
    i = 0
    for t in base:
        for suffix in ("", "", "!", " indeed"):
            texts.append(t + suffix)
            ids.append(i)
            i += 1
    return ids, texts


def _mk(ids, texts, lo, hi):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(ids[lo:hi], pa.int64()),
        "text": pa.array(texts[lo:hi], pa.string()),
    })).repartition(2)


def test_v2_layout_band_partitions_and_pruned_reads(ray_session, tmp_path):
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=8)
    idx.dedup_increment(_mk(ids, texts, 0, 10))

    # v2 on-disk shape: bands/incr-000000/pb=J/*.parquet
    band_root = os.path.join(work, "bands", "incr-000000")
    pbs = sorted(os.listdir(band_root))
    assert pbs and all(p.startswith("pb=") for p in pbs)
    assert idx.meta["layout"] == 2 and idx.meta["sig_parts"] == 8

    # banded_for reads ONLY the requested partitions
    some = [int(p.split("=")[1]) for p in pbs[:1]]
    rest = [int(p.split("=")[1]) for p in pbs[1:]]
    got_some = idx.banded_for(np.array(some)).to_pandas()
    got_all = idx.banded_for(np.arange(8)).to_pandas()
    assert 0 < len(got_some) < len(got_all)
    assert set(got_some["key"] % 8) == set(some)
    if rest:
        assert set(idx.banded_for(np.array(rest)).to_pandas()["key"] % 8) == set(rest)
    # the key filter prunes further: asking for one real key returns only it
    k0 = int(got_all["key"].iloc[0])
    only = idx.banded_for(np.array([k0 % 8]), keys=np.array([k0])).to_pandas()
    assert set(only["key"]) == {k0}

    # sigs_for is id-filtered
    surv = got_all["doc_id"].unique()
    two = np.sort(surv)[:2]
    sg = idx.sigs_for(two).to_pandas()
    assert sorted(sg["doc_id"]) == sorted(two.tolist())

    # and the signature table carries the dedup run's own signatures: the
    # sig column is a num_perm-wide fixed-size list (reused, not re-derived
    # through some other path — shape is the contract)
    assert len(sg["sig"].iloc[0]) == idx.meta["num_perm"]


def test_v2_increment_reads_only_matching_partitions(
    ray_session, tmp_path, monkeypatch
):
    """The second increment's historical read goes through banded_for with a
    bounded pb set + exact keys — never a full-index scan."""
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=8)
    idx.dedup_increment(_mk(ids, texts, 0, 10))

    calls = {}
    orig = MinHashDedupIndex.banded_for

    def spy(self, pbs, keys=None):
        calls["pbs"] = np.asarray(pbs)
        calls["keys"] = keys
        return orig(self, pbs, keys)

    monkeypatch.setattr(MinHashDedupIndex, "banded_for", spy)
    idx.dedup_increment(_mk(ids, texts, 10, 20))
    assert "pbs" in calls, "increment did not route through banded_for"
    assert len(calls["pbs"]) <= 8
    assert calls["keys"] is not None  # small increment → exact-key pushdown
    # 10 docs × 16 bands = at most 160 distinct keys
    assert 0 < len(calls["keys"]) <= 160


def test_v2_partition_only_pruning_when_keys_overflow(ray_session, tmp_path,
                                                     monkeypatch):
    """When the increment's distinct-key set exceeds MAX_BROADCAST_KEYS the
    pruned read falls back to partition-level pruning only (keys=None) —
    survivors must be identical either way."""
    from wrangler_ray.ops import dedup as dd
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    pushed = []
    orig = MinHashDedupIndex.banded_for

    def spy(self, pbs, keys=None):
        pushed.append(keys is not None)
        return orig(self, pbs, keys)

    monkeypatch.setattr(MinHashDedupIndex, "banded_for", spy)

    def run(max_keys):
        monkeypatch.setattr(dd, "MAX_BROADCAST_KEYS", max_keys)
        idx = MinHashDedupIndex(str(tmp_path / f"idx_{max_keys}"),
                                jaccard_threshold=0.7, sig_parts=8)
        kept = []
        for lo, hi in ((0, 10), (10, 20)):
            out = idx.dedup_increment(_mk(ids, texts, lo, hi))
            kept.extend(out.to_pandas()["doc_id"].tolist())
        return sorted(kept)

    broadcast = run(4_000_000)   # exact-key pushdown path
    partition_only = run(1)      # keys overflow → keys=None fallback
    assert broadcast == partition_only
    assert pushed == [True, False]


def test_v2_index_on_injected_filesystem(ray_session, tmp_path):
    import pyarrow.fs as pafs

    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    idx = MinHashDedupIndex("sub/idx", jaccard_threshold=0.7, filesystem=fs)
    k1 = sorted(idx.dedup_increment(_mk(ids, texts, 0, 10)).to_pandas()["doc_id"])
    k2 = sorted(idx.dedup_increment(_mk(ids, texts, 10, 20)).to_pandas()["doc_id"])
    batch = sorted(
        minhash_lsh_dedup(_mk(ids, texts, 0, 20), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )
    assert sorted(k1 + k2) == batch
    # reopen through the same injected fs
    idx2 = MinHashDedupIndex("sub/idx", jaccard_threshold=0.7, filesystem=fs)
    assert idx2.count == len(batch)


def test_v1_legacy_index_still_works(ray_session, tmp_path):
    """An index written before the band layout (meta without 'layout', no
    bands/ tree) keeps deduplicating through the legacy full-read path."""
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work, jaccard_threshold=0.7)
    idx.dedup_increment(_mk(ids, texts, 0, 10))

    # strip the v2 artifacts: drop bands/, rewrite meta as v1
    shutil.rmtree(os.path.join(work, "bands"))
    newest = sorted(glob.glob(os.path.join(work, "meta-*.json")))[-1]
    with open(newest) as f:
        meta = json.load(f)
    for key in ("layout", "sig_parts"):
        meta.pop(key)
    with open(newest, "w") as f:
        json.dump(meta, f)

    legacy = MinHashDedupIndex(work, jaccard_threshold=0.7)
    assert legacy.meta.get("layout", 1) == 1
    k2 = sorted(legacy.dedup_increment(_mk(ids, texts, 10, 20)).to_pandas()["doc_id"])
    batch = sorted(
        minhash_lsh_dedup(_mk(ids, texts, 0, 20), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )
    k1 = sorted(
        minhash_lsh_dedup(_mk(ids, texts, 0, 10), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )
    assert sorted(k1 + k2) == batch
    # a legacy increment appends signatures but no band partitions
    assert not os.path.isdir(os.path.join(work, "bands", "incr-000001"))


def test_banded_index_distributed_tail(ray_session, tmp_path):
    """The no-driver-state distributed finish also works against the banded
    index (historical signatures unioned for the sig-attach stages): it
    keeps what the driver-side clustering kept when it existed, and agrees
    with the batch run."""
    from wrangler_ray.ops.dedup import exact_dedup, minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    idx = MinHashDedupIndex(str(tmp_path / "idx"), jaccard_threshold=0.7)
    k1 = sorted(idx.dedup_increment(_mk(ids, texts, 0, 10)).to_pandas()["doc_id"])

    inc2 = exact_dedup(_mk(ids, texts, 10, 20)).materialize()
    k2_dist = sorted(
        minhash_lsh_dedup(inc2, jaccard_threshold=0.7, pre_exact=False,
                          indexed=idx).to_pandas()["doc_id"]
    )
    batch = sorted(
        minhash_lsh_dedup(_mk(ids, texts, 0, 20), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )
    assert k2_dist == [12, 16]
    assert sorted(k1 + k2_dist) == batch


def test_index_reads_only_historical_endpoints(ray_session, tmp_path, monkeypatch):
    """An increment reads the index's signatures only for historical
    candidate endpoints and its texts only for historical endpoints of
    unsure edges, never the whole table. The index holds the originals of
    ``_borderline_corpus`` (ids 0..5) and one more document (id 6); the
    increment holds their copies (ids 7..12) and a byte-identical copy of
    id 6 (id 13), whose chain edge is accepted without a text. Survivors
    follow the true Jaccard: the copies below 0.8 (7, 8, 9)."""
    from test_dedup_exchange import _borderline_corpus

    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    texts = _borderline_corpus().column("text").to_pylist()
    extra = "a separate document about columnar files and their row group statistics"
    texts = texts[:6] + [extra] + texts[6:] + [extra]
    ids = list(range(len(texts)))
    idx = MinHashDedupIndex(str(tmp_path / "idx"), jaccard_threshold=0.8)
    assert sorted(idx.dedup_increment(_mk(ids, texts, 0, 7)).to_pandas()["doc_id"]) == ids[:7]

    reads = {"sigs_for": [], "texts_for": []}
    for name in reads:
        real = getattr(MinHashDedupIndex, name)

        def record(self, which, _real=real, _name=name):
            reads[_name].append(which)
            return _real(self, which)

        monkeypatch.setattr(MinHashDedupIndex, name, record)
    kept = idx.dedup_increment(_mk(ids, texts, 7, 14)).to_pandas()["doc_id"]
    assert sorted(kept) == [7, 8, 9]
    assert reads["sigs_for"] and reads["texts_for"]
    assert all(which is not None for calls in reads.values() for which in calls)
    sig_ids = set(np.concatenate(reads["sigs_for"]).tolist())
    text_ids = set(np.concatenate(reads["texts_for"]).tolist())
    assert sig_ids <= set(range(7)) and 6 in sig_ids
    assert text_ids <= set(range(6))


def test_index_compact_preserves_dedup(ray_session, tmp_path):
    """compact() folds the per-increment texts/signatures/band dirs into one
    consolidated increment; subsequent increments dedup exactly as before
    and the invariant against the batch run still holds."""
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=8)
    kept = []
    for lo, hi in ((0, 5), (5, 10), (10, 14)):
        kept += idx.dedup_increment(_mk(ids, texts, lo, hi)).to_pandas()["doc_id"].tolist()
    n = idx.compact()
    assert n == len(kept)
    # one consolidated increment remains on disk
    assert len({d for d in os.listdir(os.path.join(work, "texts"))}) >= 1
    assert idx.meta["live_incrs"] == [3]
    # a reopened handle keeps deduping against the compacted history
    idx2 = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=8)
    kept += idx2.dedup_increment(_mk(ids, texts, 14, 20)).to_pandas()["doc_id"].tolist()
    batch = sorted(
        minhash_lsh_dedup(_mk(ids, texts, 0, 20), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )
    assert sorted(kept) == batch
    # compacting a single-increment index is a no-op
    idx3 = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=8)
    idx3.compact()
    assert idx3.compact() == 0


def test_column_name_mismatch_raises(ray_session, tmp_path):
    import ray.data as rd

    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ids, texts = _corpus()
    idx = MinHashDedupIndex(str(tmp_path / "idx"))
    idx.dedup_increment(_mk(ids, texts, 0, 5))
    other = rd.from_arrow(pa.table({
        "id": pa.array([99], pa.int64()), "body": pa.array(["x"], pa.string())
    }))
    with pytest.raises(ValueError, match="columns"):
        idx.dedup_increment(other, text_col="body", id_col="id")
