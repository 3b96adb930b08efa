"""Clustering of the near-dup tail: ``cc.components`` and
``cc.drop_non_representatives`` must drop exactly the ids a sequential
union-find ("smaller id wins") drops, in one partition and in several."""

import time

import numpy as np
import pyarrow as pa
import pytest


class _UnionFind:
    """Reference: the dict-based union-find the near-dup tails used before
    the vectorized kernel."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            self.parent[hi] = lo


def _reference_drop(a, b) -> np.ndarray:
    uf = _UnionFind()
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    return np.array(sorted(x for x in uf.parent if uf.find(x) != x), np.int64)


def _random_graph(rng):
    n = int(rng.integers(1, 300))
    ids = rng.choice(10**12, n, replace=False).astype(np.int64)
    m = int(rng.integers(0, 2 * n))
    a = ids[rng.integers(0, n, m)]
    b = ids[rng.integers(0, n, m)]
    dup = rng.integers(0, max(m, 1), m // 4)  # repeated edges
    loops = ids[rng.integers(0, n, int(rng.integers(0, 5)))]  # self-loops
    pairs = rng.choice(10**12, (int(rng.integers(0, 5)), 2), replace=False)  # isolated
    a = np.concatenate([a, a[dup], loops, pairs[:, 0]]).astype(np.int64)
    b = np.concatenate([b, b[dup], loops, pairs[:, 1]]).astype(np.int64)
    perm = rng.permutation(len(a))
    return a[perm], b[perm]


def _dropped(a: np.ndarray, b: np.ndarray, rows: np.ndarray, parts: int) -> np.ndarray:
    """The ids of ``rows`` that the near-dup tail drops under the edges
    ``(a, b)``: ``components`` of their ``adjacency`` over ``parts``
    partitions, then ``drop_non_representatives`` over the rows split on
    the same ids."""
    import ray

    from wrangler_ray.ops.cc import (
        adjacency,
        components,
        drop_non_representatives,
        split_rows,
    )

    counts, *adj = adjacency(parts, pa.table({"a": a, "b": b}))
    blocks = [(ray.put(pa.table({"doc_id": rows})), len(rows))]
    kept = drop_non_representatives(split_rows(blocks, "doc_id", parts),
                                    components([(counts, [ray.put(t) for t in adj])], parts),
                                    "doc_id")
    kept = np.concatenate([ray.get(ref).column("doc_id").to_numpy() for ref, _ in kept])
    return np.setdiff1d(rows, kept)


@pytest.mark.parametrize("parts", [1, 3, 16])
def test_components_match_union_find(ray_session, parts):
    """300 random graphs (repeated edges, self-loops, isolated pairs), each
    in its own id range, clustered as one edge set; the rows are every node
    and ids in no edge."""
    rng = np.random.default_rng(20240611)
    a, b, rows, want = [], [], [], []
    for g in range(300):
        ga, gb = _random_graph(rng)
        off = np.int64(g) * 10**12
        a.append(ga + off)
        b.append(gb + off)
        rows.append(np.concatenate([ga, gb, rng.choice(10**12, 3)]) + off)
        want.append(_reference_drop(ga, gb) + off)
    rows = np.unique(np.concatenate(rows))
    got = _dropped(np.concatenate(a), np.concatenate(b), rows, parts)
    np.testing.assert_array_equal(got, np.intersect1d(rows, np.concatenate(want)))


@pytest.mark.parametrize("n, parts", [(200_000, 1), (40, 3)])
def test_components_reversed_chain(ray_session, n, parts):
    # ids descend along the chain: a union-find fed edge by edge builds one
    # n-deep path, and plain label propagation would need n rounds. One
    # partition converges in its first round; over 3 partitions every edge
    # crosses partitions, so labels move one hop per round
    ids = np.arange(n, dtype=np.int64)[::-1]
    t0 = time.perf_counter()
    got = _dropped(ids[:-1], ids[1:], np.arange(n, dtype=np.int64), parts)
    elapsed = time.perf_counter() - t0
    np.testing.assert_array_equal(got, np.arange(1, n))
    assert elapsed < 30, f"reversed chain took {elapsed:.1f}s"
