"""Join strategies (the reference has only point lookups —
directives/lookup/*.java; a distributed engine needs real joins).

Strategy selection mirrors a distributed SQL planner:
- **broadcast_join**: small side shipped once via ``ray.put`` (read per actor
  / task, NOT per batch), probe vectorized with a pyarrow hash join per
  batch. No shuffle. Use when one side fits in worker memory.
- **hash_join**: both sides large → Ray Data's native hash-partitioned join
  (``Dataset.join``), an explicit all-to-all exchange; num_partitions sized
  by the caller to ≥ 2× cluster cores.
- **asof_join**: sort-merge within co-partitioned key buckets
  (``pd.merge_asof`` per group) — for event-time enrichment.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa


def join_partitions(requested: Optional[int] = None) -> int:
    """Safe partition count for ``Dataset.join``: Ray 2.49's hash join
    schedules one aggregator actor per partition, and a partition count far
    above the session's CPUs deadlocks the pool (measured: 64 partitions on a
    4-cpu session hangs). Cap at the cluster CPU count; on a real multi-node
    cluster this returns the full cluster width."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    cap = max(2, cpus)
    return min(requested, cap) if requested else cap


# per-worker-process cache of the fetched broadcast table keyed by its object
# ref: task-based probe stages get actor-style fetch-once behavior WITHOUT
# pinning the stage to a fixed-size pool (a fixed pool caps the probe at that
# many workers no matter how wide the cluster is). Bounded — workers serving
# many joins must not hold every small side forever.
_BCAST_CACHE: dict = {}
_BCAST_CACHE_MAX = 4


def _cached_table(ref) -> pa.Table:
    import ray

    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    t = _BCAST_CACHE.get(key)
    if t is None:
        t = _BCAST_CACHE[key] = ray.get(ref)
        while len(_BCAST_CACHE) > _BCAST_CACHE_MAX:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
    return t


def broadcast_join(
    ds,
    small: pa.Table,
    on: str,
    right_on: Optional[str] = None,
    how: str = "left",
    suffix: str = "_r",
):
    """Broadcast-hash join: ``small`` is put in the object store once;
    every worker process fetches it once (per-process ref-keyed cache) and
    probes per batch with a pyarrow join. Task-based — scales to the full
    cluster width instead of a fixed actor pool. ``small`` may be a
    pyarrow Table or a (small!) Ray Dataset — a Dataset is collected to
    one Arrow table first, which is the whole premise of a broadcast
    join."""
    import ray

    right_on = right_on or on
    if not isinstance(small, pa.Table):
        tabs = list(small.iter_batches(batch_size=None, batch_format="pyarrow"))
        small = (
            pa.concat_tables(tabs) if tabs
            else pa.Table.from_pylist([], schema=small.schema().base_schema)
        )
    small_ref = ray.put(small)
    join_type = how + " outer" if how in ("left", "right", "full") else how

    def probe(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        right = _cached_table(small_ref)
        overlap = (set(batch.column_names) & set(right.column_names)) - {right_on}
        if overlap:
            right = right.rename_columns(
                [c + suffix if c in overlap else c for c in right.column_names]
            )
        return batch.join(right, keys=[on], right_keys=[right_on], join_type=join_type)

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def hash_join(
    left,
    right,
    on,
    right_on=None,
    how: str = "inner",
    num_partitions: int | None = None,
):
    """Large-large join → Ray Data's hash-partitioned join operator
    (explicit shuffle; both sides exchanged once).

    Known Ray 2.49 limitation: a fully EMPTY input side crashes the native
    hash-join aggregator (ArrowInvalid in finalize). When a side may
    legitimately be empty, use
    broadcast_join (handles it) or guard with a cheap count on a
    materialized input."""
    num_partitions = join_partitions(num_partitions)
    on = (on,) if isinstance(on, str) else tuple(on)
    right_on = (right_on,) if isinstance(right_on, str) else (
        tuple(right_on) if right_on else None
    )
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions,
        on=on,
        right_on=right_on,
        left_suffix="",
        right_suffix="_r",
    )


def asof_join(
    left,
    right,
    key: str,
    ts_col: str,
    num_buckets: int = 64,
    direction: str = "backward",
):
    """As-of join: co-partition both sides by key-hash bucket, sort within
    bucket, ``pd.merge_asof`` per bucket (SURVEY §2.7 — reference has no
    such operator; partitioning assumption: all rows of one key land in one
    bucket)."""

    def add_bucket(t: pa.Table) -> pa.Table:
        k = t.column(key).to_numpy(zero_copy_only=False)
        b = (pd.util.hash_array(k.astype(object)) % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("_jb", pa.array(b))

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column("_side", pa.array([side] * t.num_rows))

        return fn

    l_cols = list(left.columns())
    r_cols = list(right.columns())
    lt = left.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        tag("l"), batch_format="pyarrow", zero_copy_batch=True
    )
    rt = right.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True).map_batches(
        tag("r"), batch_format="pyarrow", zero_copy_batch=True
    )
    # stream the union straight into the groupby exchange — materializing
    # here would double peak object-store footprint for no correctness gain
    # (the groupby already barriers)
    both = lt.union(rt)

    def merge_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        # restrict each side to ITS columns (the union null-backfills the
        # other side's fields; leaving them would shadow the join output).
        # reindex, not column selection: a bucket whose rows all came from
        # ONE side arrives without the other side's columns at all (small
        # corpora make single-side buckets common), and selecting missing
        # columns raises
        ldf = df[df["_side"] == "l"]
        if len(ldf) == 0:
            return pa.table({})
        l = ldf.reindex(columns=l_cols).sort_values(ts_col)
        rdf = df[df["_side"] == "r"]
        if len(rdf) == 0:
            # no right rows in this bucket: every left row misses — emit the
            # left side with null right-only columns (same shape merge_asof
            # would produce against an empty right frame)
            out = l.copy()
            for c in r_cols:
                if c in (key, ts_col):
                    continue
                name = c if c not in out.columns else c + "_r"
                out[name] = None
            return pa.Table.from_pandas(
                out, preserve_index=False
            ).replace_schema_metadata(None)
        r = rdf.reindex(columns=r_cols)
        # deterministic tie-break: when the right side has several rows at the
        # SAME (key, ts), keep the lexicographically-greatest row (block order
        # must never decide the match)
        r = r.sort_values(list(r.columns)).drop_duplicates(
            subset=[key, ts_col], keep="last"
        ).sort_values(ts_col, kind="mergesort")
        merged = pd.merge_asof(
            l, r, on=ts_col, by=key, direction=direction, suffixes=("", "_r")
        )
        return pa.Table.from_pandas(merged, preserve_index=False).replace_schema_metadata(None)

    return both.groupby("_jb").map_groups(merge_bucket, batch_format="pyarrow")
