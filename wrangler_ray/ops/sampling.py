"""Sampling — the reference's workspace-ingest samplers
(wrangler-core/.../sampling/{Bernoulli,Poisson,Reservoir}.java:35-140,
service/SamplingMethod.java) as Dataset operations.

first/bernoulli map directly onto Dataset primitives; poisson keeps the
reference's per-row expected-count semantics; reservoir is a per-block
partial reservoir, a top-k per partition through one task exchange
(``wrangler_ray.tasks``), and a driver merge (deterministic with a seed).
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pyarrow as pa

from wrangler_ray.core.schema import concat_reconciled
from wrangler_ray.tasks import _exchange, block_refs, num_parts, split, to_arrow


def first(ds, n: int):
    """Bounded head — service/explorer/BoundedLineInputStream analog."""
    return ds.limit(n)


def bernoulli(ds, p: float, seed: int = 42):
    """Keep each row independently with probability p."""
    return ds.random_sample(p, seed=seed)


def poisson(ds, mean: float, seed: int = 42):
    """Poisson sampling: each row emitted k~Poisson(mean) times (the
    reference uses it with mean<1 as a thinning sampler)."""

    def sample(batch: pa.Table) -> pa.Table:
        # per-batch deterministic stream: seed xor'd with a content-derived
        # offset so every batch draws a distinct substream
        h = zlib.crc32(str(batch.num_rows).encode() + bytes(str(batch.slice(0, 1).to_pydict()), "utf-8"))
        rng = np.random.RandomState((seed ^ h) % (2**32))
        counts = rng.poisson(mean, size=batch.num_rows)
        idx = np.repeat(np.arange(batch.num_rows), counts)
        return batch.take(pa.array(idx))

    return ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)


def reservoir(ds, k: int, seed: int = 42) -> pa.Table:
    """Reservoir sample of k rows, as an Arrow table: a task per block keeps
    its k rows with the largest uniform random keys (the 'A-Res' trick) and
    splits them by key range into ``num_parts`` of their rows; a task per
    partition keeps its k largest, so the driver merges at most
    partitions × k rows — at 10^6 blocks a one-level merge would pull
    10^6·k rows driver-side. Deterministic given seed."""
    import ray

    blocks = block_refs(ds)
    parts = num_parts(sum(min(n, k) for _, n in blocks))
    tops = _exchange(blocks, functools.partial(_reservoir_split, k, seed, parts),
                     functools.partial(_top_keys, k), parts)
    if not tops:
        return pa.table({})
    return _top_keys(k, *ray.get([ref for ref, _ in tops]))[1].drop_columns(["_resk"])


def _reservoir_split(k: int, seed: int, parts: int, block) -> tuple:
    """Map task: the block's k rows with the largest random keys (seeded
    per block by its first row), split by key range."""
    t = to_arrow(block)
    h = zlib.crc32(str(t.slice(0, 1).to_pydict()).encode())
    keys = np.random.RandomState((seed ^ h) % (2**32)).rand(t.num_rows)
    if t.num_rows > k:
        top = np.argpartition(-keys, k - 1)[:k]
        t, keys = t.take(pa.array(top)), keys[top]
    t = t.append_column("_resk", pa.array(keys, pa.float64()))
    return split(t, (keys * parts).astype(np.int64), parts)


def _top_keys(k: int, *tables) -> tuple:
    """The k rows of ``tables`` with the largest ``_resk``."""
    t = concat_reconciled(list(tables))
    if t.num_rows > k:
        t = t.take(pa.array(np.argpartition(-t.column("_resk").to_numpy(), k - 1)[:k]))
    return t.num_rows, t
