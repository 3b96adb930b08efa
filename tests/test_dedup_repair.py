"""Oversized-group fallback + repair round in dedup candidate generation.

Advisor finding (round 2): groups larger than the all-pairs cap fall back to
star+chain edges, and a star/chain edge that fails downstream verification
silently disconnects true duplicate pairs. The fix re-pairs members whose
fallback star edge failed verification (one repair round) and surfaces every
fallback activation through ``FALLBACK_METRICS``/worker logs. These tests
exercise that machinery directly and end to end.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# --- unit level -----------------------------------------------------------

def test_group_all_pairs_fb_flags_and_metrics():
    from wrangler_ray.ops.dedup import FALLBACK_METRICS, _group_all_pairs

    df = pd.DataFrame(
        {
            "band": [0] * 6 + [1] * 2,
            "key": [7] * 6 + [9] * 2,
            "doc_id": [10, 11, 12, 13, 14, 15, 20, 21],
        }
    )
    before = FALLBACK_METRICS["oversized_groups"]
    a, b, fb = _group_all_pairs(df, ["band", "key"], "doc_id", cap=4)
    # small group (size 2): one all-pairs edge, fb=0
    small = [(x, y) for x, y, f in zip(a, b, fb) if x >= 20]
    assert small == [(20, 21)]
    assert all(f == 0 for x, y, f in zip(a, b, fb) if x >= 20)
    # oversized group (size 6 > cap 4): star edges from hub 10 carry fb=1,
    # chain edges carry fb=0
    star = sorted((x, y) for x, y, f in zip(a, b, fb) if f == 1)
    assert star == [(10, 11), (10, 12), (10, 13), (10, 14), (10, 15)]
    chain = sorted((x, y) for x, y, f in zip(a, b, fb) if f == 0 and x >= 10 and x < 20)
    assert chain == [(11, 12), (12, 13), (13, 14), (14, 15)]
    assert FALLBACK_METRICS["oversized_groups"] == before + 1
    assert FALLBACK_METRICS["max_group_size"] >= 6


def test_group_all_pairs_under_cap_is_exhaustive():
    from wrangler_ray.ops.dedup import _group_all_pairs

    df = pd.DataFrame({"k": [1] * 5, "doc_id": [3, 1, 4, 2, 0]})
    a, b, fb = _group_all_pairs(df, ["k"], "doc_id", cap=64)
    pairs = sorted(zip(a.tolist(), b.tolist()))
    expect = sorted((i, j) for i in range(5) for j in range(i + 1, 5))
    assert pairs == expect
    assert not fb.any()


def test_repair_pairs_all_pairs_per_hub():
    from wrangler_ray.ops.dedup import _repair_pairs

    hubs = np.array([100, 100, 100, 200, 200], np.int64)
    members = np.array([1, 2, 3, 7, 8], np.int64)
    a, b = _repair_pairs(hubs, members, cap=64)
    pairs = sorted(zip(a.tolist(), b.tolist()))
    assert pairs == [(1, 2), (1, 3), (2, 3), (7, 8)]


def test_repair_pairs_chunking_keeps_connectivity():
    from wrangler_ray.ops.dedup import _repair_pairs

    members = np.arange(10, dtype=np.int64)
    hubs = np.zeros(10, np.int64)
    a, b = _repair_pairs(hubs, members, cap=4)
    # chunks of 4: [0..3],[4..7],[8,9] all-pairs inside + all-pairs of leads
    pairs = set(zip(a.tolist(), b.tolist()))
    for chunk in (range(0, 4), range(4, 8), range(8, 10)):
        for i in chunk:
            for j in chunk:
                if i < j:
                    assert (i, j) in pairs
    # chunk leads 0, 4, 8 mutually connected so components merge
    assert {(0, 4), (0, 8), (4, 8)} <= pairs


# --- end to end: repair actually reconnects a split bucket ----------------

# Search-generated fixture (deterministic, see round-3 notes): P and Q are
# near-dups (simhash hamming 4, all differing bits in bands 1-3, band 0
# identical) and X, Y are junk whose band-0 key equals P's but which are far
# (hamming > 12) from everything, with no other band collisions anywhere.
# The band-0 bucket is therefore [X, P, Y, Q] by id; with pair_cap=3 the
# fallback engages: star edges X-P, X-Y, X-Q and chain edges P-Y, Y-Q ALL
# fail the hamming check, so without the repair round the true pair P-Q is
# never emitted (and no other band bucket contains both P and Q).
_X = "zz8086 qq24259 ww40432 rr56605 tt88950 uu105123 vv137468"
_Y = "zz114685 qq344056 ww573427 rr802798 tt1261539 uu1490910 vv1949651"
_P = ("the quick brown fox jumps over the lazy dog while seventeen green "
      "turtles watch from a mossy log near the river bend")
_Q = _P + " epsilon12"


def _fixture_invariants():
    """Re-verify the searched fixture so silent simhash changes fail loudly."""
    from wrangler_ray.ops.dedup import simhash64_batch

    sX, sP, sY, sQ = (int(v) for v in simhash64_batch([_X, _P, _Y, _Q]))
    ham = lambda a, b: bin(a ^ b).count("1")
    band = lambda s, i: (s >> (16 * i)) & 0xFFFF
    assert ham(sP, sQ) == 4 and band(sP, 0) == band(sQ, 0)
    assert band(sX, 0) == band(sP, 0) == band(sY, 0)
    for s in (sX, sY):
        assert ham(s, sP) > 6 and ham(s, sQ) > 6
    for bi in (1, 2, 3):
        vals = [band(s, bi) for s in (sX, sP, sY, sQ)]
        assert len(set(vals)) == 4  # no collisions outside band 0
    assert all(band(sX, bi) != band(sY, bi) for bi in (1, 2, 3))


def test_simhash_repair_round_reconnects_split_bucket(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.dedup import simhash_dedup

    _fixture_invariants()
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                  "text": [_X, _P, _Y, _Q]})
    )
    # pair_cap=3 forces the star+chain fallback in the size-4 band-0 bucket;
    # the repair round must still discover P-Q (ids 1 and 3)
    out = simhash_dedup(ds, max_hamming=6, pair_cap=3).to_pandas()
    assert sorted(out["doc_id"]) == [0, 1, 2]
    # control: all-pairs path (no fallback) agrees
    out_full = simhash_dedup(ds, max_hamming=6, pair_cap=64).to_pandas()
    assert sorted(out_full["doc_id"]) == [0, 1, 2]


# --- end to end: tiny cap == exhaustive cap on a dup-heavy corpus ---------

def _dup_corpus():
    """3 near-dup families (sizes 9/7/5, distinct shingle digests) + noise."""
    base = [
        "large language models are trained on vast corpora of text data "
        "scraped from the public internet and curated datasets",
        "distributed data processing engines schedule batch transforms "
        "over immutable blocks stored in a shared object store",
        "the annual migration of arctic terns covers more than seventy "
        "thousand kilometers between breeding and wintering grounds",
    ]
    texts, ids = [], []
    nid = 0
    for fi, b in enumerate(base):
        for v in range(9 - 2 * fi):
            texts.append(b + f" variant token{v}" * (v % 3))
            ids.append(nid)
            nid += 1
    for i in range(20):
        texts.append(f"unique noise document number {i} with filler {i*i} "
                     f"and token {i*7} plus suffix {i*13}")
        ids.append(nid)
        nid += 1
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})


@pytest.mark.parametrize("several_parts", [False, True])
def test_minhash_tiny_pair_cap_matches_exhaustive(ray_session, monkeypatch, several_parts):
    import ray.data as rd

    from wrangler_ray import tasks
    from wrangler_ray.ops.dedup import minhash_lsh_dedup

    tab = _dup_corpus()
    kw = dict(jaccard_threshold=0.8)
    if several_parts:  # the verify, repair and clustering rounds cross partitions
        monkeypatch.setattr(tasks, "ROWS_PER_PART", 8)
    survivors_tiny = sorted(
        minhash_lsh_dedup(rd.from_arrow(tab), pair_cap=2, **kw)
        .to_pandas()["doc_id"]
    )
    survivors_full = sorted(
        minhash_lsh_dedup(rd.from_arrow(tab), pair_cap=10_000, **kw)
        .to_pandas()["doc_id"]
    )
    # the survivors the driver-side verify and clustering kept when they existed
    assert survivors_tiny == survivors_full == [0, 9, 16] + list(range(21, 41))


def test_simhash_tiny_pair_cap_matches_exhaustive(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.dedup import simhash_dedup

    tab = _dup_corpus()
    survivors_tiny = sorted(
        simhash_dedup(rd.from_arrow(tab), max_hamming=3, pair_cap=2)
        .to_pandas()["doc_id"]
    )
    survivors_full = sorted(
        simhash_dedup(rd.from_arrow(tab), max_hamming=3, pair_cap=10_000)
        .to_pandas()["doc_id"]
    )
    assert survivors_tiny == survivors_full
