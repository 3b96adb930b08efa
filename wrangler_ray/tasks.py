"""Plain Ray tasks through one bounded window, and the object-store
exchange the dedup operators build on it.

``_run_tasks`` runs one task per argument, at most ``TASK_WINDOW`` in
flight. The CDC apply (spill and merge tasks) and the dedup exchanges both
go through it. An exchange task returns a tiny metadata value first (for
a map task, its rows per output partition); the window fetches only that,
and the data returns stay in the object store as refs that later tasks
take as arguments:

    map task per input block    → (rows per partition, part 0, …, part P-1)
    reduce task per partition   → fn(its non-empty parts), one call
                                  (``reduce_parts``)

A map task that splits on an integer column is ``split_on``. A reduce
task that returns split parts itself feeds the next round (``part_refs``
picks one partition's parts): the near-dup tail's verify and
connected-components rounds chain this way.

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
import pyarrow as pa

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


def block_refs(ds) -> list[tuple]:
    """``(ref, rows)`` of every block of ``ds`` (executing it if lazy): the
    refs come from the executed plan, the row counts from block metadata."""
    return [(ref, meta.num_rows) for b in ds.iter_internal_ref_bundles()
            for ref, meta in b.blocks]


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


def part_refs(maps: list, p: int) -> tuple:
    """The refs of partition ``p``'s non-empty outputs of the map tasks
    ``maps`` (``(counts, part refs)`` pairs from ``_run_tasks``)."""
    return tuple(refs[p] for counts, refs in maps if counts[p])


def reduce_parts(maps: list, fn) -> list:
    """One ``fn(*tables) -> (meta, table)`` task per partition that holds
    rows, over the partition's non-empty outputs of the map tasks ``maps``.
    Returns ``(meta, [table ref])`` per task, in partition order."""
    parts = len(maps[0][0]) if maps else 0
    args = [part_refs(maps, p) for p in range(parts)]
    return _run_tasks(fn, [a for a in args if a], num_returns=2)
