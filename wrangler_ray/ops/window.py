"""Windowed aggregates and sessionization over event streams.

The reference has no windowing (its execution model is single-pass batch,
SURVEY.md §1.1); these are the custom operators a transcript/event pipeline
needs:

- tumbling / hopping window = window start computed inside ``map_batches``
  (vectorized) + one Ray Data ``groupby().aggregate()`` — the window key is
  just another group key, so there is exactly ONE shuffle and partial
  aggregation happens per block. They stay on Ray Data (as does
  ``session_stats``) because their public ``aggs`` are Ray ``AggregateFn``
  instances.
- sessionize = one hash exchange on the key as plain Ray tasks
  (``wrangler_ray.tasks.keyed``) and one sort-plus-gap-scan kernel per
  partition (``_sessions``), shared with ``sessionize_sharded``. The
  partitioning assumption (documented per SURVEY §2 custom-op rule) is
  that one key's events fit in one task, which holds for conversation/user
  streams (bounded per-user history); ``sessionize_sharded`` lifts it.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from wrangler_ray.core.schema import set_column
from wrangler_ray.tasks import (
    _from_blocks,
    _run_tasks,
    blocks_schema,
    hash_split,
    keyed,
    meet,
    num_parts,
    to_arrow,
)


_US = {"second": 1_000_000, "minute": 60_000_000,
       "hour": 3_600_000_000, "day": 86_400_000_000}


def _span_us(span: str) -> int:
    """``"30 minute"``, ``"1 day"``, … in microseconds."""
    n, unit = span.split()
    return int(n) * _US[unit.rstrip("s")]


def tumbling_window(
    ds,
    ts_col: str,
    aggs: list,
    key_cols: list[str] | None = None,
    every: str = "1 hour",
):
    """Tumbling-window aggregate: floor ``ts_col`` to the window start and
    group by (keys..., window_start). ``aggs`` are ray.data.aggregate.*
    instances. ``every`` accepts pyarrow multiple+unit ("15 minute", "1 hour",
    "1 day"). Stays on Ray Data's ``groupby().aggregate()``: ``aggs`` are
    Ray ``AggregateFn`` instances, which run only inside it."""
    n, unit = every.split()
    mult = int(n)

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t.column(ts_col), multiple=mult, unit=unit)
        return t.append_column("window_start", w)

    keys = list(key_cols or []) + ["window_start"]
    return (
        ds.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys)
        .aggregate(*aggs)
    )


def hopping_window(
    ds,
    ts_col: str,
    aggs: list,
    key_cols: list[str] | None = None,
    every: str = "15 minute",
    period: str = "1 hour",
):
    """Hopping (sliding) window aggregate: windows of length ``period``
    starting every ``every``; an event belongs to period/every overlapping
    windows. Expressed Ray-Data-first: each block REPLICATES its rows once
    per covering window inside one vectorized ``map_batches`` (replication
    factor = period/every, a small constant), then ONE hash groupby on
    (keys..., window_start) — same single-shuffle shape as tumbling.

    Scale note: shuffle volume is replication-factor × input for the touched
    columns only; pre-aggregation inside the exchange (Ray's partial
    aggregates) keeps the reduce side at one row per (key, window). Stays
    on Ray Data, as ``tumbling_window`` does: ``aggs`` are Ray
    ``AggregateFn`` instances."""
    every_us, period_us = _span_us(every), _span_us(period)
    if period_us % every_us:
        raise ValueError("hopping_window: period must be a multiple of every")
    k = period_us // every_us  # replication factor

    def explode_windows(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # last hop-aligned start covering ts, then k-1 earlier starts
        last_start = (ts // every_us) * every_us
        n = len(ts)
        idx = np.repeat(np.arange(n), k)
        offs = np.tile(np.arange(k, dtype=np.int64) * every_us, n)
        starts = last_start[idx] - offs
        out = t.take(pa.array(idx, pa.int64()))
        return out.append_column(
            "window_start", pa.array(starts, pa.int64()).cast(pa.timestamp("us"))
        )

    keys = list(key_cols or []) + ["window_start"]
    return (
        ds.map_batches(explode_windows, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(keys)
        .aggregate(*aggs)
    )


def _changed(col) -> np.ndarray:
    """True where a sorted column's value differs from the previous row's,
    and at the first row; nulls equal each other."""
    cur, prev = col.slice(1), col.slice(0, max(len(col) - 1, 0))
    ne = pc.or_(pc.fill_null(pc.not_equal(cur, prev), False),
                pc.xor(pc.is_null(cur), pc.is_null(prev)))
    return np.concatenate((np.ones(min(len(col), 1), bool), ne.to_numpy(zero_copy_only=False)))


def _sessions(keys: list[str], ts_col: str, gap_us: int, t: pa.Table) -> tuple:
    """The gap-scan kernel of a whole partition: ``t`` sorted by (``keys``,
    ``ts_col``) with ``session_id`` appended (0-based per ``keys`` value, a
    new session where the time since the previous event of the same keys
    exceeds ``gap_us``), and the row positions where each keys value
    starts."""
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in [*keys, ts_col]]))
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    new_key = np.zeros(len(ts), bool)
    for k in keys:
        new_key |= _changed(t.column(k))
    new_sess = new_key.copy()
    new_sess[1:] |= np.diff(ts) > gap_us
    count = np.cumsum(new_sess)
    first = np.maximum.accumulate(np.where(new_key, count, 0))
    return t.append_column("session_id", pa.array(count - first, pa.int64())), \
        np.flatnonzero(new_key)


def _sessionize_partition(key_col: str, ts_col: str, gap_us: int, t: pa.Table) -> tuple:
    t, _ = _sessions([key_col], ts_col, gap_us, t)
    return t.num_rows, t


def sessionize(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    gap: str = "30 minute",
):
    """Assign session ids per key: a new session starts when the time since
    the previous event of the same key exceeds ``gap``. Returns the input
    rows plus ``session_id`` (0-based per key, in ts order), as a
    materialized Dataset. One hash exchange on the key (``wrangler_ray.
    tasks.keyed``) and one gap scan per partition, so all of one key's
    events sit in one task: use ``sessionize_sharded`` for keys whose
    history exceeds one task's heap."""
    return _from_blocks(keyed([(ds, [key_col])], functools.partial(
        _sessionize_partition, key_col, ts_col, _span_us(gap))))


def session_stats(ds, key_col: str = "user_id", ts_col: str = "ts", gap: str = "30 minute"):
    """Per-key session count (compact, oracle-comparable summary of
    sessionize): (key, n_sessions, n_events). Its reduce stays on Ray
    Data's ``groupby().aggregate()`` with Ray ``AggregateFn`` instances
    (``Max``, ``Count``), the window operators' aggregation path."""
    from ray.data.aggregate import Count, Max

    sess = sessionize(ds, key_col=key_col, ts_col=ts_col, gap=gap)
    out = sess.groupby(key_col).aggregate(
        Max("session_id", alias_name="_max_sess"), Count(alias_name="n_events")
    )

    def finish(t: pa.Table) -> pa.Table:
        n_sessions = pc.add(t.column("_max_sess"), 1)
        return t.drop_columns(["_max_sess"]).append_column(
            "n_sessions", n_sessions.cast(pa.int64())
        )

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def sessionize_sharded(
    ds,
    key_col: str = "user_id",
    ts_col: str = "ts",
    gap: str = "30 minute",
    shard: str = "7 day",
):
    """Memory-bounded sessionize for keys whose FULL history exceeds one
    task's heap (plain ``sessionize`` holds a key's every event in one task
    — fine for conversations, unbounded for a years-long hot stream).

    Shape: shard each key by fixed time buckets (``shard`` wide) and run
    the exchange on (key, bucket), so each reduce task sessionizes its
    (key, bucket) groups independently and returns, as its metadata, one
    summary row per group (first/last ts, local session count, rows). The
    driver STITCHES the summaries at bucket boundaries, scanned in bucket
    order — a boundary whose inter-bucket gap ≤ ``gap`` merges the adjacent
    sessions — into a per-group session-id offset, and one task per
    partition adds its groups' offsets to the local ids. Identical output
    to ``sessionize`` (pinned by test). Driver state = one row per (key,
    bucket) — bounded by distinct key×bucket, never by events."""
    gap_us, span_us = _span_us(gap), _span_us(shard)
    if span_us <= gap_us:
        raise ValueError("shard span must exceed the session gap")

    blocks, schema = blocks_schema(ds)
    parts = num_parts(sum(n for _, n in blocks))
    maps = _run_tasks(functools.partial(_bucket_split, key_col, ts_col, span_us, parts),
                      [ref for ref, n in blocks if n], num_returns=parts + 1)
    local = meet([(maps, _with_bucket(ts_col, span_us, schema.empty_table()).schema)],
                 functools.partial(_local_sessions, key_col, ts_col, gap_us))
    summaries = pa.concat_tables([s for _, s in local])
    order = pc.sort_indices(summaries, [(key_col, "ascending"), ("_bucket", "ascending")])
    order = order.to_numpy()
    # sequential stitch per key (vectorized across the sorted summaries):
    # offset_i = offset_{i-1} + n_sess_{i-1} - merge_i, where merge_i = 1
    # when the boundary gap to the previous bucket of the SAME key <= gap
    grp_start = _changed(summaries.column(key_col).take(pa.array(order)))
    same_key = ~grp_start[1:]
    first_ts = summaries.column("_first_ts").to_numpy()[order]
    last_ts = summaries.column("_last_ts").to_numpy()[order]
    n_sess = summaries.column("_n_sess").to_numpy()[order]
    merge = np.zeros(len(order), dtype=np.int64)
    merge[1:] = same_key & ((first_ts[1:] - last_ts[:-1]) <= gap_us)
    # offset_i = Σ_{j<i, same key} n_sess_j − Σ_{j≤i, same key} merge_j
    #          = (excl_i − excl_at_key_start) − merge_i
    # with excl = exclusive prefix of delta = n_sess − merge (nondecreasing,
    # since every nonempty bucket has n_sess ≥ 1 ≥ merge — which makes the
    # maximum.accumulate forward-fill of per-key bases valid)
    excl = np.concatenate(([0], np.cumsum(n_sess - merge)[:-1]))
    base = np.maximum.accumulate(np.where(grp_start, excl, 0))
    offsets = np.empty(len(order), np.int64)
    offsets[order] = excl - base - merge
    ends = np.cumsum([s.num_rows for _, s in local])
    out = _run_tasks(_add_offsets, [
        (ref, offsets[end - s.num_rows:end], s.column("_rows").to_numpy())
        for (ref, s), end in zip(local, ends)], num_returns=2)
    return _from_blocks([(refs[0], n) for n, refs in out])


def _with_bucket(ts_col: str, span_us: int, t: pa.Table) -> pa.Table:
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
    return t.append_column("_bucket", pc.divide(ts, span_us).cast(pa.int64()))


def _bucket_split(key_col: str, ts_col: str, span_us: int, parts: int, block) -> tuple:
    """Map task of ``sessionize_sharded``: the block's rows with their time
    bucket, split on (key, bucket)."""
    return hash_split([key_col, "_bucket"], parts, _with_bucket(ts_col, span_us, to_arrow(block)))


def _local_sessions(key_col: str, ts_col: str, gap_us: int, t: pa.Table) -> tuple:
    """Reduce task of ``sessionize_sharded``: one summary row per (key,
    bucket) of the partition, in row order, and the partition sessionized
    per (key, bucket)."""
    t, starts = _sessions([key_col, "_bucket"], ts_col, gap_us, t)
    ends = np.append(starts[1:], t.num_rows)[:len(starts)] - 1
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    summary = t.select([key_col, "_bucket"]).take(pa.array(starts))
    for name, col in (("_first_ts", ts[starts]), ("_last_ts", ts[ends]),
                      ("_n_sess", t.column("session_id").to_numpy()[ends] + 1),
                      ("_rows", ends - starts + 1)):
        summary = summary.append_column(name, pa.array(col, pa.int64()))
    return summary, t.drop_columns(["_bucket"])


def _add_offsets(t: pa.Table, offsets: np.ndarray, rows: np.ndarray) -> tuple:
    """Apply task of ``sessionize_sharded``: each (key, bucket) group's
    offset added to the local session ids of its ``rows`` rows."""
    ids = t.column("session_id").to_numpy() + np.repeat(offsets, rows)
    return t.num_rows, set_column(t, "session_id", pa.array(ids, pa.int64()))
