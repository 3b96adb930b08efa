"""Windowed aggregates and sessionization over event streams.

The reference has no windowing (its execution model is single-pass batch,
SURVEY.md §1.1); these are the custom operators a transcript/event pipeline
needs:

- tumbling / hopping window = window start computed inside ``map_batches``
  (vectorized) + one Ray Data ``groupby().aggregate()`` — the window key is
  just another group key, so there is exactly ONE shuffle and partial
  aggregation happens per block. They stay on Ray Data because their
  public ``aggs`` are Ray ``AggregateFn`` instances.
- sessionize = four rounds of plain Ray tasks on the exchange of
  ``wrangler_ray.tasks``, salted by time bucket (``BUCKET_US`` wide) so a
  hot key's rows spread over its buckets' partitions and no task holds
  more than one bucket of a key. The partitions come in key partitions of
  up to ``STITCH_FAN_IN``: the key's hash picks the key partition, the
  (key, bucket) hash one partition in it.

  1. a map task per block splits its rows on (key, bucket);
  2. a reduce task per partition sessionizes its (key, bucket) groups with
     one sort-plus-gap-scan kernel (``_sessions``) and returns one summary
     row per group (first and last ts, local sessions, rows);
  3. a stitch task per key partition scans each key's summaries in bucket
     order, merging a bucket's first session into the previous bucket's
     last where at most ``gap`` lies between them, into a session-id
     offset per group, split on the partition that holds its rows, and
     sums them per key into ``session_stats``' rows;
  4. a task per partition adds those offsets to its local ids.

  Every event of a key is in exactly one bucket and consecutive buckets
  meet at the stitch, so the stitch holds for any bucket width, ``gap``
  wider than a bucket included. ``session_stats`` ends at round 3. The
  driver fetches only per-task row counts and block metadata.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from wrangler_ray.core.schema import concat_reconciled, set_column
from wrangler_ray.tasks import (
    _from_blocks,
    _from_table,
    _run_tasks,
    block_meta,
    blocks_schema,
    hash_rows,
    num_parts,
    part_refs,
    split,
    to_arrow,
)


# time-bucket width of sessionize's exchange, in microseconds
BUCKET_US = 86_400_000_000
# partitions per key partition, so reduce tasks per stitch task: each
# reduce task's summaries go to one stitch task, which splits its offsets
# over its reduce tasks
STITCH_FAN_IN = 16

_US = {"second": 1_000_000, "minute": 60_000_000,
       "hour": 3_600_000_000, "day": 86_400_000_000}


def _span(span: str) -> tuple[int, str]:
    """``"30 minute"``, ``"15 minutes"``, ``"1 day"``, … as (multiple,
    singular unit)."""
    n, unit = span.split()
    return int(n), unit.removesuffix("s")


def _span_us(span: str) -> int:
    """A ``_span`` in microseconds."""
    n, unit = _span(span)
    return n * _US[unit]


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
    "1 day", plural units too). Stays on Ray Data's ``groupby().aggregate()``:
    ``aggs`` are Ray ``AggregateFn`` instances, which run only inside it."""
    mult, unit = _span(every)

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


def sessionize(ds, key_col: str = "user_id", ts_col: str = "ts", gap: str = "30 minute"):
    """Assign session ids per key: a new session starts when the time since
    the previous event of the same key exceeds ``gap``, and an event with a
    null ``ts`` joins its key's last session. Returns the input rows plus
    ``session_id`` (0-based per key, in ts order) as a materialized
    Dataset, out of the four task rounds of the module docstring."""
    rows, _, schema = _rounds(ds, key_col, ts_col, _span_us(gap))
    if not rows:
        return _from_table(schema.empty_table().append_column(
            "session_id", pa.array([], pa.int64())))
    out = _run_tasks(_add_offsets, rows, num_returns=2)
    return _from_blocks([(refs[0], meta) for meta, refs in out])


def session_stats(ds, key_col: str = "user_id", ts_col: str = "ts", gap: str = "30 minute"):
    """Per key ``(key, n_events, n_sessions)`` of ``sessionize``, as a
    materialized Dataset: its first three rounds, whose stitch tasks sum
    the per-(key, bucket) summaries."""
    _, stats, schema = _rounds(ds, key_col, ts_col, _span_us(gap))
    if not stats:
        none = pa.array([], pa.int64())
        return _from_table(pa.table({key_col: schema.empty_table().column(key_col),
                                     "n_events": none, "n_sessions": none}))
    return _from_blocks(stats)


def _rounds(ds, key_col: str, ts_col: str, gap_us: int) -> tuple:
    """Rounds 1 to 3: per partition that holds rows, ``(its rows sessionized
    per (key, bucket), their groups' offsets)``; per key partition, ``(its
    stats, their rows)``; and the input's Arrow schema."""
    blocks, schema = blocks_schema(ds)
    parts = num_parts(sum(n for _, n in blocks))
    # as many key partitions as STITCH_FAN_IN asks, of equal size
    fan = -(-parts // -(-parts // STITCH_FAN_IN))
    parts = -(-parts // fan) * fan
    maps = _run_tasks(functools.partial(_bucket_split, key_col, ts_col, BUCKET_US, fan, parts),
                      [ref for ref, n in blocks if n], num_returns=parts + 1)
    ps = [p for p in range(parts) if part_refs(maps, p)]
    local = _run_tasks(functools.partial(_local_sessions, key_col, ts_col, gap_us),
                       [(p % fan, *part_refs(maps, p)) for p in ps], num_returns=3)
    sums = {}
    for p, (_, refs) in zip(ps, local):
        sums[p // fan] = (*sums.get(p // fan, ()), refs[1])
    stitched = dict(zip(sums, _run_tasks(functools.partial(_stitch, key_col, gap_us, fan),
                                         list(sums.values()), num_returns=fan + 2)))
    return ([(refs[0], stitched[p // fan][1][1 + p % fan]) for p, (_, refs) in zip(ps, local)],
            [(refs[0], meta) for meta, refs in stitched.values()], schema)


def _bucket_split(key_col: str, ts_col: str, span_us: int, fan: int, parts: int,
                  block) -> tuple:
    """Round 1: the block's rows with their time bucket (null for a null
    ts), split into ``parts`` partitions, ``fan`` per key partition: the
    high bits of the key's hash pick the key partition, the (key, bucket)
    hash one of its partitions."""
    t = to_arrow(block)
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
    t = t.append_column("_bucket", pc.divide(ts, span_us))
    key_part = (hash_rows(t, [key_col]) >> np.uint64(32)) % np.uint64(parts // fan)
    salt = hash_rows(t, [key_col, "_bucket"]) % np.uint64(fan)
    return split(t, (key_part * np.uint64(fan) + salt).astype(np.int64), parts)


def _local_sessions(key_col: str, ts_col: str, gap_us: int, q: int, *tables) -> tuple:
    """Round 2, the ``q``-th partition of its key partition: its rows
    sessionized per (key, bucket), and one summary row per (key, bucket):
    first and last ts, local session count, rows, and where the group sits
    (``_part`` = ``q``, ``_group`` = its rank in the rows)."""
    t, starts = _sessions([key_col, "_bucket"], ts_col, gap_us, concat_reconciled(list(tables)))
    ends = np.append(starts[1:], t.num_rows) - 1
    ts = t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
    s = pa.table({key_col: t.column(key_col).take(starts), "_first_ts": ts.take(starts),
                  "_last_ts": ts.take(ends), "_rows": ends - starts + 1,
                  "_n_sess": t.column("session_id").to_numpy()[ends] + 1,
                  "_part": np.full(len(starts), q), "_group": np.arange(len(starts))})
    return t.num_rows, t.drop_columns(["_bucket"]), s


def _stitch(key_col: str, gap_us: int, fan: int, *tables) -> tuple:
    """Round 3 over one key partition's summaries, scanned in (key, bucket)
    order: a bucket's first session continues the previous bucket's last
    where both hold the same key and at most ``gap_us`` lies between their
    events, or where the bucket's ts are null (they sort last and join the
    key's last session). Returns ``(stats' block_meta, stats, offsets of
    partition 0, …)``: per key ``(key, n_events, n_sessions)``, and per
    (key, bucket) the offset of its local session ids, split on the
    partition of its rows."""
    s = pa.concat_tables(tables, promote_options="permissive")
    s = s.take(pc.sort_indices(s, [(key_col, "ascending"), ("_first_ts", "ascending")]))
    new_key = _changed(s.column(key_col))
    near = pc.less_equal(pc.subtract(s.column("_first_ts").slice(1),
                                     s.column("_last_ts").slice(0, s.num_rows - 1)), gap_us)
    merge = np.zeros(s.num_rows, np.int64)
    merge[1:] = ~new_key[1:] & pc.fill_null(near, True).to_numpy(zero_copy_only=False)
    sess = s.column("_n_sess").to_numpy() - merge
    # offset_i = Σ_{j<i, same key} n_sess_j − Σ_{j≤i, same key} merge_j
    #          = (excl_i − excl_at_key_start) − merge_i
    # with excl = exclusive prefix of n_sess − merge (nondecreasing: every
    # bucket has n_sess ≥ 1 ≥ merge, so maximum.accumulate forward-fills
    # each key's base)
    excl = np.concatenate(([0], np.cumsum(sess)[:-1]))
    base = np.maximum.accumulate(np.where(new_key, excl, 0))
    starts = np.flatnonzero(new_key)
    stats = pa.table({key_col: s.column(key_col).take(starts),
                      "n_events": np.add.reduceat(s.column("_rows").to_numpy(), starts),
                      "n_sessions": np.add.reduceat(sess, starts)})
    offsets = pa.table({"_group": s.column("_group"), "_offset": excl - base - merge,
                        "_rows": s.column("_rows")})
    return block_meta(stats), stats, *split(offsets, s.column("_part").to_numpy(), fan)[1:]


def _add_offsets(t: pa.Table, o: pa.Table) -> tuple:
    """Round 4: each (key, bucket) group's offset added to the local session
    ids of its rows (``t`` holds the groups in ``_group`` order)."""
    o = o.take(pc.sort_indices(o, [("_group", "ascending")]))
    ids = t.column("session_id").to_numpy() + np.repeat(
        o.column("_offset").to_numpy(), o.column("_rows").to_numpy())
    t = set_column(t, "session_id", pa.array(ids, pa.int64()))
    return block_meta(t), t
