"""Driver clustering kernel of the near-dup tail: ``_non_min_ids`` must drop
exactly the ids a sequential union-find ("smaller id wins") drops."""

import time

import numpy as np

from wrangler_ray.ops.dedup import _non_min_ids


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


def test_non_min_ids_matches_union_find():
    rng = np.random.default_rng(20240611)
    for _ in range(300):
        a, b = _random_graph(rng)
        np.testing.assert_array_equal(_non_min_ids(a, b), _reference_drop(a, b))


def test_non_min_ids_reversed_chain():
    # ids descend along the chain: a union-find fed edge by edge builds one
    # 200k-deep path, and plain label propagation would need 200k rounds
    n = 200_000
    ids = np.arange(n, dtype=np.int64)[::-1]
    t0 = time.perf_counter()
    got = _non_min_ids(ids[:-1], ids[1:])
    elapsed = time.perf_counter() - t0
    np.testing.assert_array_equal(got, np.arange(1, n))
    assert elapsed < 30, f"reversed chain took {elapsed:.1f}s"
