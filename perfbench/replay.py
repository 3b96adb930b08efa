"""Untimed reference pass: one op's kernels replayed in this process, with
no Ray, over the same blocks the op processed. Each kernel is a public class
or function of the engine; the replay times it and nothing else, so the
traced run can split an op's wall time into kernel time, driver time and
what is left for the Ray Data substrate.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# the engine coalesces binlog segments into map blocks of this many rows
CDC_BLOCK_ROWS = 262144


class Clock:
    """Accumulates wall time per kernel name."""

    def __init__(self):
        self.s: dict[str, float] = {}

    def add(self, name: str, t0: float) -> None:
        self.s[name] = self.s.get(name, 0.0) + time.perf_counter() - t0


def read_blocks(paths: list[str], n_blocks: int, clock: Clock) -> list[pa.Table]:
    t0 = time.perf_counter()
    from wrangler_ray.core.schema import concat_reconciled

    t = concat_reconciled([pq.read_table(p) for p in paths])
    n = t.num_rows
    blocks = [t.slice(i * n // n_blocks, (i + 1) * n // n_blocks - i * n // n_blocks)
              for i in range(n_blocks)]
    clock.add("kernel.read_s", t0)
    return blocks


def chain_blocks(blocks: list[pa.Table], recipe: list[str], clock: Clock) -> list[pa.Table]:
    """``compile_recipe`` once, then every directive of the chain over every
    block, timed per directive position (the chain's ``transform`` loop,
    unrolled so each directive's self time shows)."""
    from wrangler_ray.core.registry import DirectiveContext
    from wrangler_ray.pipeline import DirectiveChain, compile_recipe

    t0 = time.perf_counter()
    chain = DirectiveChain(compile_recipe(recipe), on_error="skip")
    clock.add("parser.compile_s", t0)
    out = []
    for b in blocks:
        ctx = DirectiveContext(chain.environment)
        ok = b
        for pos, d in enumerate(chain.directives, start=1):
            t0 = time.perf_counter()
            ok, _err = d.apply(ok, ctx)
            clock.add(directive_metric(pos, d.name), t0)
        out.append(ok)
    clock.s["chain.kernel_s"] = sum(
        v for k, v in clock.s.items() if k.startswith("chain.") and k != "chain.kernel_s"
    )
    return out


def directive_metric(pos: int, name: str) -> str:
    return f"chain.{pos:02d}-{name}_s"


def replay_apply(
    table_dir: str,
    segs: list[str],
    parent: dict | None,
    manifest: dict,
    recipe: list[str] | None,
    scratch: str,
) -> tuple[dict[str, float], int]:
    """Replay one committed ``apply_changes``: read → directive chain →
    ``SpillWriter`` per block → ``MergePartition`` per touched partition
    (sub-partitions and merge-on-read choices taken from the manifest's
    lineage) plus ``apply_lww_semantics`` over each partition's pending
    changes and current files. Staged files land under a throwaway
    transaction id and are deleted. Returns the kernel times and the number
    of map blocks."""
    from wrangler_ray.cdc.engine import MergePartition, SpillWriter, apply_lww_semantics
    from wrangler_ray.core.schema import concat_reconciled

    clock = Clock()
    rows = sum(pq.read_metadata(p).num_rows for p in segs)
    n_blocks = max(1, min(len(segs), -(-rows // CDC_BLOCK_ROWS)))
    blocks = read_blocks(segs, n_blocks, clock)
    watermark = parent["watermark_lsn"] if parent else 0
    if watermark:
        blocks = [b.filter(pc.greater(b.column("lsn"), watermark)) for b in blocks]
    if recipe:
        blocks = chain_blocks(blocks, recipe, clock)
    blocks = [b.rename_columns(["_lsn" if c == "lsn" else c for c in b.column_names])
              for b in blocks]

    spill_dir = os.path.join(scratch, f"replay-spill-{uuid.uuid4().hex[:8]}")
    os.makedirs(spill_dir)
    writer = SpillWriter(manifest["num_partitions"], spill_dir)
    t0 = time.perf_counter()
    index = [writer(b) for b in blocks]
    clock.add("kernel.spill_write_s", t0)
    by_part: dict[int, list] = {}
    for t in index:
        for r in t.to_pylist():
            by_part.setdefault(r["part"], []).append([r["file"], r["batch_index"]])

    def files_of(m: dict | None, part: int) -> list[str]:
        if not m:
            return []
        v = m["partitions"].get(str(part), [])
        return (v if isinstance(v, list) else [v]) + list(m.get("deltas", {}).get(str(part), []))

    current = {p: files_of(parent, p) for p in by_part}
    txn = f"replay-{uuid.uuid4().hex[:8]}"
    merge = MergePartition(table_dir, txn, current_files=current, spill_dir=spill_dir)
    lineage = manifest["lineage"]
    for p, spills in sorted(by_part.items()):
        rec = lineage.get(str(p), {})
        mor = bool(rec.get("delta", False))
        n_subs = max(1, int(rec.get("n_subs", 1)))
        items = pa.Table.from_pylist([
            {"part": p, "sub": s, "n_subs": n_subs, "spills": json.dumps(spills), "mor": mor}
            for s in range(n_subs)
        ])
        t0 = time.perf_counter()
        merge(items)
        clock.add("kernel.merge_partition_s", t0)
        readers = {f: pa.ipc.open_file(pa.memory_map(os.path.join(spill_dir, f)))
                   for f, _ in spills}
        tabs = [pa.Table.from_batches([readers[f].get_batch(i)]) for f, i in spills]
        if not mor:
            tabs += [pq.read_table(os.path.join(table_dir, f)) for f in current[p]]
        both = concat_reconciled(tabs)
        t0 = time.perf_counter()
        apply_lww_semantics(both)
        clock.add("kernel.lww_s", t0)
    shutil.rmtree(os.path.join(table_dir, "staging", txn), ignore_errors=True)
    shutil.rmtree(spill_dir, ignore_errors=True)
    return clock.s, n_blocks


def replay_chain(segs: list[str], recipe: list[str]) -> dict[str, float]:
    clock = Clock()
    blocks = read_blocks(segs, len(segs), clock)
    chain_blocks(blocks, recipe, clock)
    return clock.s


def replay_sign(path: str) -> dict[str, float]:
    """Read the corpus, then ``MinHasher`` (the signing kernel, default 64
    permutations over 5-shingles) over all of it in one batch."""
    from wrangler_ray.ops.dedup import MinHasher

    clock = Clock()
    (docs,) = read_blocks([path], 1, clock)
    hasher = MinHasher()
    t0 = time.perf_counter()
    hasher(docs)
    clock.add("dedup.sign_s", t0)
    return clock.s
