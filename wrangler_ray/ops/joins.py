"""Join strategies (the reference has only point lookups —
directives/lookup/*.java; a distributed engine needs real joins).

Strategy selection mirrors a distributed SQL planner:
- **broadcast_join**: small side shipped once via ``ray.put`` (read per actor
  / task, NOT per batch), probe vectorized with a pyarrow hash join per
  batch. No shuffle. Use when one side fits in worker memory.
- **hash_join**: both sides large → one hash exchange on the keys as plain
  Ray tasks (``wrangler_ray.tasks.keyed``), then pyarrow's main-memory hash
  join per partition. Each side brings its own Arrow schema, so an empty
  side still joins; the partition count is ``num_parts`` of both sides'
  rows.
- **asof_join**: the same exchange on the key, then one ``pd.merge_asof``
  per partition over row positions, so every output column keeps its input
  Arrow type — for event-time enrichment.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from wrangler_ray.tasks import _from_blocks, block_meta, keyed


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


def hash_join(left, right, on, right_on=None, how: str = "inner"):
    """Large-large join: both sides hash-split on their keys and met per
    partition by ``pyarrow.Table.join`` (``how``: ``inner``,
    ``left_outer``, ``right_outer``, ``full_outer``, ``left_semi``, …), a
    right non-key column that collides with a left one gets ``_r``. Eager:
    returns a materialized Dataset."""
    on = [on] if isinstance(on, str) else list(on)
    right_on = [right_on] if isinstance(right_on, str) else list(right_on or on)
    return _from_blocks(keyed([(left, on), (right, right_on)], functools.partial(
        _join_partition, on, right_on, how.replace("_", " "))))


def _join_partition(on: list, right_on: list, how: str, left: pa.Table,
                    right: pa.Table) -> tuple:
    out = left.join(right, keys=on, right_keys=right_on, join_type=how,
                    left_suffix="", right_suffix="_r")
    return block_meta(out), out


def asof_join(left, right, key: str, ts_col: str, direction: str = "backward"):
    """As-of join: each left row gets the right row of the same ``key``
    nearest in ``ts_col`` (``direction`` as in ``pd.merge_asof``); a right
    column other than ``key`` and ``ts_col`` that collides with a left one
    gets ``_r``, and an unmatched left row gets nulls. When the right side
    has several rows at the same (key, ts), the greatest row (by its
    columns in order) matches, so block order never decides. Both sides
    are hash-split on ``key`` (all rows of one key meet in one task).
    Eager: returns a materialized Dataset (SURVEY §2.7 — the reference has
    no such operator)."""
    return _from_blocks(keyed([(left, [key]), (right, [key])], functools.partial(
        _asof_partition, key, ts_col, direction)))


def _asof_partition(key: str, ts_col: str, direction: str, left: pa.Table,
                    right: pa.Table) -> tuple:
    """One partition's as-of join. Only the key, the ts and row positions go
    through pandas; every output column is taken from its input table, so
    it keeps its Arrow type."""
    rest = [c for c in right.column_names if c not in (key, ts_col)]
    right = right.take(pc.sort_indices(right, [(c, "ascending") for c in [key, ts_col, *rest]]))

    def positions(t: pa.Table, name: str) -> pd.DataFrame:
        return pd.DataFrame({key: t.column(key).to_pandas(), ts_col: t.column(ts_col).to_pandas(),
                             name: np.arange(t.num_rows)}).sort_values(ts_col, kind="mergesort")

    r = positions(right, "_r").drop_duplicates([key, ts_col], keep="last")
    m = pd.merge_asof(positions(left, "_l"), r, on=ts_col, by=key, direction=direction)
    hit = m["_r"].to_numpy(dtype=np.float64)
    taken = right.select(rest).take(pa.array(np.nan_to_num(hit).astype(np.int64),
                                             mask=np.isnan(hit)))
    out = left.take(pa.array(m["_l"].to_numpy(np.int64)))
    for name, col in zip(rest, taken.columns):
        out = out.append_column(name + "_r" if name in out.column_names else name, col)
    return block_meta(out), out
