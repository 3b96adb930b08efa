"""Plain Ray tasks through one bounded window, and the object-store
exchange every keyed operator builds on it.

``_run_tasks`` runs one task per argument, at most ``TASK_WINDOW`` in
flight. The CDC apply (spill and merge tasks) and the exchanges all go
through it. An exchange task returns a tiny metadata value first (for a
map task, its rows per output partition); the window fetches only that,
and the data returns stay in the object store as refs that later tasks
take as arguments:

    map task per input block    → (rows per partition, part 0, …, part P-1)
    reduce task per partition   → fn(its non-empty parts), one call
                                  (``reduce_parts``, ``_exchange``)

A map task splits on an integer column (``split_on``) or on the hash of
one or more key columns hashed together (``hash_split``). ``meet`` is the
reduce side over one or more inputs split into the same partitions: each
input brings its own Arrow schema, so an input with no rows in a partition
(or none at all) still meets the others as an empty table. ``keyed`` runs
the map and reduce sides over Datasets. A reduce task that returns split parts itself
feeds the next round (``part_refs`` picks one partition's parts): the
near-dup tail chains its band edges, verify tiers, connected-components
rounds and survivor filter this way, so no edge set reaches the driver.

Users: the CDC apply (``_run_tasks``); ``apply_recipe`` and
``collect_global_variables`` (``pipeline.py``, one task per input part:
``input_parts``); every dedup shuffle, the near-dup verify tiers, connected
components and the survivor filter, at every input size (``ops/dedup.py``,
``ops/cc.py``); ``hash_join`` and
``asof_join`` (``ops/joins.py``); ``sessionize`` and ``session_stats``
(``ops/window.py``); the similarity top-k merge
(``ops/similarity.py``, ``ops/ann_index.py``); ``reservoir``
(``ops/sampling.py``).

The partition count follows the data, never the CPU count:
``num_parts(rows)`` is ``ceil(rows / ROWS_PER_PART)``, capped at
``MAX_PARTS``, so a run on any cluster size does the same work. Each task
costs milliseconds of scheduling, so a partition must hold enough rows to
pay for it: at 8,000 documents on 4 CPUs, MinHash dedup took 0.81 s per op
with 4 partitions and 1.14 s with 16 (BASELINE.md round 16).
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa

from wrangler_ray.core.schema import concat_reconciled

# tasks in flight at once: bounds the driver's pending refs and, for a
# snapshot, the Dataset blocks that queued tasks pin
TASK_WINDOW = 32
# a failed call cancels the tasks still running after CANCEL_GRACE_S, then
# waits up to CANCEL_WAIT_S for them to stop
CANCEL_GRACE_S = 0.2
CANCEL_WAIT_S = 30
# exchange partition sizing (see the module docstring)
ROWS_PER_PART = 2048
MAX_PARTS = 64


def num_parts(rows: int) -> int:
    """Exchange partitions for an input of ``rows`` rows."""
    return max(1, min(MAX_PARTS, -(-rows // ROWS_PER_PART)))


@functools.cache
def _remote_call():
    import ray

    return ray.remote(lambda fn, *args: fn(*args))


def _run_tasks(fn, args, num_returns: int = 1) -> list:
    """``fn(arg)`` as one Ray task per item of ``args`` (consumed lazily;
    a tuple item is unpacked into ``fn(*arg)``, and object refs among the
    arguments resolve to their values before the task runs), at most
    ``TASK_WINDOW`` in flight; ``fn`` is put in the object store once.
    Returns the results in ``args`` order. The tasks keep Ray's default
    retries on worker death.

    With ``num_returns`` > 1, ``fn`` returns that many values and each
    result is ``(meta, refs)``: the first value, fetched, and object refs
    to the others, which stay in the object store.

    Once a task has failed no further task is submitted; the others get
    ``CANCEL_GRACE_S`` to finish, those still running are cancelled
    (without force: a running task stops at its next Python bytecode) and
    waited for up to ``CANCEL_WAIT_S``, and the first error is raised — so
    no sibling goes on writing after the caller has the error."""
    import ray

    task, fn = _remote_call().options(num_returns=num_returns), ray.put(fn)
    refs, heads = [], []  # per task: all its returns, its first return
    pending = []
    try:
        for arg in args:
            if len(pending) >= TASK_WINDOW:
                done, pending = ray.wait(
                    pending, num_returns=len(pending) - TASK_WINDOW + 1
                )
                ray.get(done)  # a failed task raises here
            out = task.remote(fn, *(arg if isinstance(arg, tuple) else (arg,)))
            refs.append(out)
            heads.append(out if num_returns == 1 else out[0])
            pending.append(heads[-1])
        metas = ray.get(heads)
    except Exception:
        if heads:
            # Ray 2.49 aborts the driver process ("Tried to complete task
            # that was not pending") when a cancel meets a task it is
            # completing at that moment, so the tasks get a grace period to
            # finish, and each one left is checked right before its cancel
            ray.wait(heads, num_returns=len(heads), timeout=CANCEL_GRACE_S)
            for ref in heads:
                if not ray.wait([ref], timeout=0.001)[0]:
                    ray.cancel(ref)
            ray.wait(heads, num_returns=len(heads), timeout=CANCEL_WAIT_S)
        raise
    if num_returns == 1:
        return metas
    return [(m, out[1:]) for m, out in zip(metas, refs)]


def live_refs(blocks: list) -> list:
    """The refs of the ``(ref, rows)`` blocks that hold rows, or of the
    first block when none does, so that an empty input still gives its
    tasks one block of its schema."""
    return [ref for ref, n in blocks if n] or [ref for ref, _ in blocks[:1]]


def blocks_schema(ds) -> tuple[list, pa.Schema]:
    """``(ref, rows)`` of every block of ``ds`` (executing it if lazy), and
    the blocks' Arrow schema: the refs come from the executed plan, the row
    counts and the schema from its metadata."""
    bundles = list(ds.iter_internal_ref_bundles())
    schema = next((b.schema for b in bundles if b.schema is not None), None)
    blocks = [(ref, meta.num_rows) for b in bundles for ref, meta in b.blocks]
    return blocks, schema if schema is not None else ds.schema().base_schema


def block_refs(ds) -> list[tuple]:
    """``(ref, rows)`` of every block of ``ds`` (see ``blocks_schema``)."""
    return blocks_schema(ds)[0]


def read_tasks(ds) -> list:
    """The read tasks of ``ds`` when its plan is a bare read that splits
    into at least two (``get_read_tasks`` at the parallelism the caller
    set on the read, else ``MAX_PARTS``), else []. A task that calls one
    yields the blocks that part of Ray Data's read would. Ray-internal:
    the Dataset's logical plan and its ``Read`` operator."""
    from ray.data._internal.logical.operators.read_operator import Read

    op = ds._logical_plan.dag
    if not isinstance(op, Read) or not op._datasource.supports_distributed_reads:
        return []
    tasks = op._datasource_or_legacy_reader.get_read_tasks(
        op._parallelism if op._parallelism > 0 else MAX_PARTS)
    return tasks if len(tasks) >= 2 else []


def input_parts(ds):
    """One task argument per part of the input ``ds``: its read tasks
    (``read_tasks``), else the refs of its blocks, streamed from its
    execution as they come. ``part_blocks`` opens one in the task."""
    return read_tasks(ds) or (
        ref for b in ds.iter_internal_ref_bundles() for ref, _ in b.blocks)


def part_blocks(part):
    """The blocks of one ``input_parts`` item, in a task: what the read
    task yields, or the one block."""
    from ray.data.datasource import ReadTask

    return part() if isinstance(part, ReadTask) else [part]


def block_meta(table: pa.Table):
    """The Ray Data metadata of one output block (rows, bytes, schema): a
    task returns it with the block, so ``_from_blocks`` needs no task of
    its own to learn them."""
    from ray.data.block import BlockMetadataWithSchema

    return BlockMetadataWithSchema.from_block(table)


def _from_blocks(blocks: list):
    """A materialized Dataset over ``(ref, block_meta)`` blocks of Arrow
    tables, built from that metadata: the plan ``ray.data.from_arrow_refs``
    builds, without its metadata task per block (Ray-internal classes)."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    refs, metas = [ref for ref, _ in blocks], [meta for _, meta in blocks]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None),
                         DataContext.get_current().copy())
    return MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metas), plan._context))


def _from_table(t: pa.Table):
    """A materialized Dataset of the one block ``t``."""
    import ray

    return _from_blocks([(ray.put(t), block_meta(t))])


def to_arrow(block) -> pa.Table:
    """A Dataset block (Arrow or pandas) as an Arrow table."""
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def split(t: pa.Table, part: np.ndarray, parts: int) -> tuple:
    """A map task's returns: ``(rows per partition, part 0, …, part
    parts-1)``, the rows of ``t`` by their partition number ``part``, in
    their order within ``t``."""
    order = np.argsort(part, kind="stable")
    bounds = np.searchsorted(part[order], np.arange(parts + 1))
    counts = np.diff(bounds)
    return (counts, *(t.take(pa.array(order[bounds[p]:bounds[p + 1]]))
                      for p in range(parts)))


def split_on(col: str, parts: int, block) -> tuple:
    """A map task that splits the rows of ``block`` on their integer
    column ``col`` modulo ``parts`` (see ``split``)."""
    t = to_arrow(block)
    key = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
    return split(t, key % parts, parts)


def hash_rows(t: pa.Table, keys: list[str]) -> np.ndarray:
    """A uint64 hash per row of ``t`` over its columns ``keys`` hashed
    together. Equal values hash equal in any block of either join side: an
    integer or boolean column hashes as int64 whatever its width, and
    whether or not the block holds nulls (a null hashes as 0). The hash
    only places rows; the reduce kernels compare the values."""
    h = np.zeros(t.num_rows, np.uint64)
    for name in keys:
        col = t.column(name)
        if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
            col = col.cast(pa.int64()).fill_null(0)
        v = col.to_numpy(zero_copy_only=False)
        v = v if v.dtype.kind in "biufmM" else v.astype(object)
        h = h * np.uint64(0x100000001B3) + pd.util.hash_array(v, categorize=False)
    return h


def hash_split(keys: list[str], parts: int, block) -> tuple:
    """A map task that splits the rows of ``block`` on the hash of their
    columns ``keys`` (``hash_rows``) modulo ``parts`` (see ``split``)."""
    t = to_arrow(block)
    return split(t, (hash_rows(t, keys) % np.uint64(parts)).astype(np.int64), parts)


def part_refs(maps: list, p: int) -> tuple:
    """The refs of partition ``p``'s non-empty outputs of the map tasks
    ``maps`` (``(counts, part refs)`` pairs from ``_run_tasks``)."""
    return tuple(refs[p] for counts, refs in maps if counts[p])


def reduce_parts(maps: list, fn, num_returns: int = 2) -> list:
    """One ``fn(*tables)`` task per partition that holds rows, over the
    partition's non-empty outputs of the map tasks ``maps``; ``fn``
    returns ``(meta, table)``, or ``num_returns`` values. Returns ``(meta,
    [refs of the rest])`` per task, in partition order."""
    parts = len(maps[0][0]) if maps else 0
    args = [part_refs(maps, p) for p in range(parts)]
    return _run_tasks(fn, [a for a in args if a], num_returns=num_returns)


def _exchange(blocks: list, map_fn, reduce_fn, parts: int) -> list:
    """``(ref, meta)`` blocks out of one task exchange over the ``(ref,
    rows)`` ``blocks``: a ``map_fn(block)`` task per non-empty block
    returns its rows split into ``parts`` partitions (``split``), a
    ``reduce_fn(*tables) -> (meta, table)`` task per partition that holds
    rows. ``meta`` is the table's row count, or its ``block_meta`` where
    the blocks end in ``_from_blocks``."""
    maps = _run_tasks(map_fn, [ref for ref, n in blocks if n], num_returns=parts + 1)
    return [(refs[0], meta) for meta, refs in reduce_parts(maps, reduce_fn)]


def meet(sides: list, fn) -> list:
    """``(table ref, meta)`` per task of the reduce side over one or more
    inputs. ``sides`` holds per input its map outputs (``(counts, part
    refs)`` pairs from ``_run_tasks``, every input split into the same
    partitions) and its Arrow schema. One ``fn(*tables) -> (meta, table)``
    task per partition where any input holds rows, over one table per
    input: its parts concatenated, or its schema's empty table when it has
    none there. With no rows at all, one task over empty tables still gives
    the output its schema."""
    parts = max((len(maps[0][0]) for maps, _ in sides if maps), default=1)
    args = []
    for p in range(parts):
        refs = [part_refs(maps, p) for maps, _ in sides]
        if any(refs):
            args.append((tuple(map(len, refs)), *(r for rs in refs for r in rs)))
    out = _run_tasks(functools.partial(_meet, fn, [schema for _, schema in sides]),
                     args or [((0,) * len(sides),)], num_returns=2)
    return [(refs[0], m) for m, refs in out]


def _meet(fn, schemas: list, counts: tuple, *tables) -> tuple:
    sides, i = [], 0
    for n, schema in zip(counts, schemas):
        sides.append(concat_reconciled(list(tables[i:i + n])) if n else schema.empty_table())
        i += n
    return fn(*sides)


def keyed(inputs: list, fn) -> list:
    """One hash exchange over ``inputs``, ``(Dataset, key columns)`` pairs:
    a ``hash_split`` task per non-empty block of each input, into the
    ``num_parts`` of all their rows, then ``meet`` with ``fn``. Equal keys
    of every input meet in one ``fn`` call (each input's keys may have
    their own names)."""
    inputs = [(*blocks_schema(ds), keys) for ds, keys in inputs]
    parts = num_parts(sum(n for blocks, _, _ in inputs for _, n in blocks))
    return meet([(_run_tasks(functools.partial(hash_split, keys, parts),
                             [ref for ref, n in blocks if n], num_returns=parts + 1),
                  schema) for blocks, schema, keys in inputs], fn)
