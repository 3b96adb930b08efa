"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: the exact baseline — the query matrix is broadcast
  once via ``ray.put``; every batch does one numpy matmul and emits only its
  local top-k (k rows per query per batch), reduced to the global top-k by
  one hash exchange on query_idx as plain Ray tasks (``_merge_topk``) so
  the driver only ever sees nq×k rows (never O(blocks × k × queries)).
- ``lsh_topk``: random-hyperplane bucket signatures with multi-probe
  (hamming radius 1); batches prune candidates to matching buckets before
  the matmul.
- ``ivf_topk``: k-means inverted file; centroids trained on a seeded
  ``random_sample`` (not the first blocks — storage order is not random).
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from wrangler_ray.tasks import keyed


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def vecs_np(col, dtype=np.float32) -> np.ndarray:
    """Arrow list<float> / fixed_size_list<float> column → (n, d) ndarray
    WITHOUT boxing each element into Python objects (to_pylist on a million
    embeddings allocates ~d million PyFloats; the flatten path is a single
    buffer reshape)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_fixed_size_list(arr.type):
        flat = arr.values.to_numpy(zero_copy_only=False)
        return flat.reshape(len(arr), arr.type.list_size).astype(dtype, copy=False)
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
        offs = arr.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if len(widths) and (widths == widths[0]).all():
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(arr), int(widths[0])).astype(dtype, copy=False)
    return np.array(arr.to_pylist(), dtype=dtype)  # ragged fallback


# per-worker-process cache of fetched/normalized query matrices keyed by the
# broadcast ref: task-based stages get actor-style fetch-once behavior without
# pinning the stage to a fixed-size pool. Bounded LRU — a long-lived worker
# serving many top-k calls must not accumulate one matrix per call forever.
_QUERY_CACHE: OrderedDict = OrderedDict()
_QUERY_CACHE_MAX = 4


def _cached_queries(queries_ref) -> np.ndarray:
    import ray

    key = queries_ref.hex() if hasattr(queries_ref, "hex") else id(queries_ref)
    q = _QUERY_CACHE.get(key)
    if q is None:
        q = _QUERY_CACHE[key] = _normalize(
            np.asarray(ray.get(queries_ref), np.float32)
        )
        while len(_QUERY_CACHE) > _QUERY_CACHE_MAX:
            _QUERY_CACHE.popitem(last=False)
    else:
        _QUERY_CACHE.move_to_end(key)
    return q


def _empty_topk(id_col: str) -> pa.Table:
    return pa.table(
        {
            "query_idx": pa.array([], pa.int32()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float32()),
        }
    )


class _BatchTopK:
    """Per-batch exact cosine top-k against a broadcast query matrix.
    Queries fetched from the object store once per worker process."""

    def __init__(self, queries_ref, k: int, vec_col: str, id_col: str):
        self.q = _cached_queries(queries_ref)  # (nq, d)
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty_topk(self.id_col)
        vecs = vecs_np(batch.column(self.vec_col))
        unit = _normalize(vecs)
        sims = self.q @ unit.T  # (nq, nb)
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        nq, nb = sims.shape
        k = min(self.k, nb)
        top = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]  # (nq, k)
        scores = np.take_along_axis(sims, top, axis=1)
        return pa.table(
            {
                "query_idx": pa.array(
                    np.repeat(np.arange(nq, dtype=np.int32), k)
                ),
                self.id_col: pa.array(ids[top.ravel()]),
                "score": pa.array(scores.ravel().astype(np.float32)),
            }
        )


def _merge_topk(partials, k: int, id_col: str) -> pa.Table:
    """Distributed top-k reduce: the partial (query_idx, id, score) rows of
    the Dataset ``partials`` meet per query_idx in one hash exchange of
    plain Ray tasks (``wrangler_ray.tasks.keyed``), and each partition is
    cut to k rows per query by one sort INSIDE the cluster, so the driver
    sees only nq×k rows. Ties prefer the smaller id, matching the SQL
    oracle's ORDER BY score DESC, id ASC."""
    import ray

    order = [("query_idx", "ascending"), ("score", "descending"), (id_col, "ascending")]
    tops = keyed([(partials, ["query_idx"])], functools.partial(_topk_partition, k, order))
    refs = [ref for ref, rows in tops if rows]
    return pa.concat_tables(ray.get(refs)).sort_by(order) if refs else _empty_topk(id_col)


def _topk_partition(k: int, order: list, t: pa.Table) -> tuple:
    # an empty corpus skips the partial batches, so no rows carry their columns
    if t.num_rows:
        t = t.sort_by(order)
        q, pos = t.column("query_idx").to_numpy(), np.arange(t.num_rows)
        first = np.ones(len(q), bool)
        first[1:] = q[1:] != q[:-1]
        t = t.filter(pa.array(pos - np.maximum.accumulate(np.where(first, pos, 0)) < k))
    return t.num_rows, t


def brute_force_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Exact cosine top-k of each query against the whole dataset.
    Returns a pyarrow Table (query_idx, id, score) of k rows per query,
    sorted by (query_idx, -score, id)."""
    import ray

    queries = np.asarray(queries, np.float32)
    qref = ray.put(queries)

    # tasks scale with the cluster; the query matrix is fetched once per
    # worker process via the broadcast-ref cache
    def topk_batch(t: pa.Table) -> pa.Table:
        return _BatchTopK(qref, k, vec_col, id_col)(t)

    partials = ds.map_batches(topk_batch, batch_format="pyarrow", zero_copy_batch=True)
    return _merge_topk(partials, k, id_col)


def lsh_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_planes: int = 12,
    seed: int = 5,
):
    """Approximate top-k: random-hyperplane signatures; batches only score
    vectors whose bucket is within hamming distance 1 of a query bucket.
    Same output shape as brute_force_topk."""
    import ray

    queries = np.asarray(queries, np.float32)
    dim = queries.shape[1]
    rng = np.random.RandomState(seed)
    planes = rng.randn(dim, num_planes).astype(np.float32)

    def sig(m: np.ndarray) -> np.ndarray:
        bits = (_normalize(m) @ planes) > 0
        keys = np.zeros(len(m), np.int64)
        for j in range(num_planes):
            keys |= bits[:, j].astype(np.int64) << j
        return keys

    q_sigs = sig(queries)
    # multi-probe: each query accepts its bucket plus all radius-1 neighbors
    accept: set[int] = set()
    for s in q_sigs:
        accept.add(int(s))
        for j in range(num_planes):
            accept.add(int(s) ^ (1 << j))
    qref = ray.put(queries)

    acc_sorted = np.sort(np.fromiter(accept, np.int64, len(accept)))

    def pruned_batch(t: pa.Table) -> pa.Table:
        inner = _BatchTopK(qref, k, vec_col, id_col)
        if t.num_rows == 0:
            return inner(t)
        vecs = vecs_np(t.column(vec_col))
        bits = (_normalize(vecs) @ planes) > 0
        keys = np.zeros(len(vecs), np.int64)
        for j in range(num_planes):
            keys |= bits[:, j].astype(np.int64) << j
        mask = np.isin(keys, acc_sorted)  # vectorized bucket membership
        return inner(t.filter(pa.array(mask)))

    partials = ds.map_batches(pruned_batch, batch_format="pyarrow", zero_copy_batch=True)
    return _merge_topk(partials, k, id_col)


def _train_centroids(
    ds, vec_col: str, num_clusters: int, train_size: int, kmeans_iters: int, seed: int
) -> np.ndarray:
    """Unit-norm k-means centroids (cosine), trained driver-side on a seeded
    RANDOM sample of at most ``train_size`` rows. ``ds.limit()`` alone would
    take the FIRST blocks in storage order — on a partitioned/clustered
    corpus that biases centroids to one shard. Same inputs and seed, same
    centroids: ``ivf_topk`` and ``IvfIndex.build`` both train here."""
    n = ds.count()
    frac = min(1.0, (train_size * 1.25) / max(n, 1))
    sample = (
        ds.random_sample(frac, seed=seed).limit(train_size).take_all()
        if frac < 1.0
        else ds.take_all()
    )
    if not sample:
        sample = ds.limit(train_size).take_all()
    x = _normalize(np.stack([np.asarray(r[vec_col], np.float32) for r in sample]))
    rng = np.random.RandomState(seed)
    nc = min(num_clusters, len(x))
    cent = x[rng.choice(len(x), size=nc, replace=False)]
    for _ in range(kmeans_iters):
        assign = (x @ cent.T).argmax(axis=1)  # cosine == dot on unit vectors
        for c in range(nc):
            m = assign == c
            if m.any():
                v = x[m].mean(axis=0)
                n2 = np.linalg.norm(v)
                cent[c] = v / n2 if n2 else cent[c]
    return cent


def ivf_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    num_clusters: int = 16,
    nprobe: int = 4,
    train_size: int = 2048,
    kmeans_iters: int = 8,
    seed: int = 7,
):
    """IVF (inverted-file) approximate top-k — the scale path for large
    corpora: k-means centroids trained on a bounded driver-side sample, then
    every batch scores ONLY vectors whose nearest centroid is among each
    query's ``nprobe`` closest centroids. Centroids are broadcast once via
    ``ray.put``; per-batch work is two small matmuls. Same output shape as
    brute_force_topk."""
    import ray

    queries = np.asarray(queries, np.float32)

    cent = _train_centroids(ds, vec_col, num_clusters, train_size, kmeans_iters, seed)
    qref = ray.put(queries)

    q_unit = _normalize(queries)
    probes = np.argsort(-(q_unit @ cent.T), axis=1)[:, :nprobe]
    probe_arr = np.unique(probes.ravel()).astype(np.int64)

    # task-based stage: centroids (small) + probe set close over the function;
    # the query matrix rides the broadcast-ref cache. Tasks scale with the
    # cluster instead of a fixed-size actor pool.
    def ivf_batch(t: pa.Table) -> pa.Table:
        inner = _BatchTopK(qref, k, vec_col, id_col)
        if t.num_rows == 0:
            return inner(t)
        vecs = vecs_np(t.column(vec_col))
        assign = (_normalize(vecs) @ cent.T).argmax(axis=1)
        mask = np.isin(assign, probe_arr)
        return inner(t.filter(pa.array(mask)))

    partials = ds.map_batches(ivf_batch, batch_format="pyarrow", zero_copy_batch=True)
    return _merge_topk(partials, k, id_col)
