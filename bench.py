"""Benchmark harness. Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N, ...}

Headline pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1):
  - cdc_apply:      events-derived change stream (amplified ×10 deterministic
                    copies) → CdcTable.apply_changes → committed manifest.
                    Also reported as events/sec (the BASELINE.json metric).
  - directive_chain: 12-directive wrangle over documents (reference "light
                    recipe" analog) — records/sec comparable to
                    wrangler-docs/performance.md.
  - dedup_minhash:  MinHash+LSH near-dup over documents.
  - text_analysis:  langid+quality+tokens+fingerprint over documents.
  - pricing_summary: lineitem groupby aggregate (shuffle path).

--scaling: run the same job in fresh processes at num_cpus=N and 4N
(default 2 and 8; WR_SCALING_LO/HI to override) and report throughput at
both plus efficiency and a pure-CPU hardware calibration at the same pair
(BASELINE.md criterion).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CDC_AMPLIFY = int(os.environ.get("WR_CDC_AMPLIFY", "10"))


def _amplified_changes(sf_dir: str, workdir: str, copies: int):
    """Deterministic change stream derived from the events table, amplified
    `copies`× with shifted lsns/conv ids (distinct keys per copy → realistic
    volume without synthetic-only data)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import numpy as np

    ev = pq.read_table(os.path.join(sf_dir, "events.parquet"))
    n = ev.num_rows
    eid = ev.column("event_id").to_numpy(zero_copy_only=False).astype(np.int64)
    user = ev.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
    segs = []
    seg_dir = os.path.join(workdir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    total = 0
    op = pc.if_else(pc.less(ev.column("value"), 5.0), pa.scalar("D"), pa.scalar("U"))
    turn = pa.array((eid % 50).astype(np.int32), pa.int32())
    user_mod = user % 5000
    for c in range(copies):
        conv = pa.array([f"conv{c}-{u}" for u in user_mod], pa.string())
        t = pa.table(
            {
                "lsn": pa.array(eid + c * n, pa.int64()),
                "op": op,
                "conv_id": conv,
                "turn_idx": turn,
                "role": ev.column("event_type"),
                "text": ev.column("props"),
                "tool": ev.column("event_type"),
                "ts": ev.column("ts"),
            }
        )
        p = os.path.join(seg_dir, f"segment-{c:04d}.parquet")
        pq.write_table(t, p)
        segs.append(p)
        total += n
    return segs, total


def run_benchmarks() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    # Ray's Aggregate emits EMPTY output partitions for the hash slots no
    # group lands in (6 pricing groups into N partitions), and the executor
    # warns "RefBundle with a different schema ... new schema: ." for each.
    # Drop ONLY that empty-new-schema variant — a REAL schema drift (non-empty
    # differing schema) still warns.
    import logging
    import re as _re

    class _EmptySchemaNoise(logging.Filter):
        _pat = _re.compile(r"RefBundle with a different schema.*new schema: \.")

        def filter(self, record: logging.LogRecord) -> bool:
            return not self._pat.search(record.getMessage().replace("\n", " "))

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaNoise())

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.text import analyze
    from wrangler_ray.pipeline import apply_recipe

    only = os.environ.get("WR_BENCH_ONLY", "")
    queries: dict[str, float] = {}
    extras: dict = {}
    workdir = tempfile.mkdtemp(prefix="wr_bench_")

    # min-of-N per pipeline, applied uniformly to EVERY pipeline — the
    # standard estimator on a noisy shared machine (this VM swings up to 10×
    # on ambient host contention, BASELINE.md). Three samples reject a noisy
    # window far more often than two, at ~10 s extra total.
    bench_runs = max(1, int(os.environ.get("WR_BENCH_RUNS", "3")))

    def _best_of(fn):
        best, out = None, None
        for _ in range(bench_runs):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, out

    # spin up the worker pool untimed so measurements capture pipeline
    # throughput, not one-time process startup — including the per-worker
    # import of the engine package (which first-wave tasks would otherwise pay)
    def _warm(b):
        import wrangler_ray.cdc.engine  # noqa: F401
        import wrangler_ray.pipeline  # noqa: F401

        return b

    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        _warm, batch_format="pyarrow"
    ).count()

    # warm the page cache (measure compute+shuffle, not first disk read)
    for name in ("events", "documents", "lineitem"):
        with open(os.path.join(SF_DIR, f"{name}.parquet"), "rb") as f:
            while f.read(1 << 22):
                pass

    # -- cdc_apply ---------------------------------------------------------
    # segments are deterministic → cache them across runs (and across the two
    # --scaling processes) so timing measures the apply, not segment
    # generation writeback
    seg_cache = os.path.join(
        tempfile.gettempdir(), f"wr_bench_segs_{os.path.basename(SF_DIR)}_{CDC_AMPLIFY}"
    )
    marker = os.path.join(seg_cache, "DONE")
    if not os.path.exists(marker):
        shutil.rmtree(seg_cache, ignore_errors=True)
        os.makedirs(seg_cache, exist_ok=True)
        segs, n_events = _amplified_changes(SF_DIR, seg_cache, CDC_AMPLIFY)
        with open(marker, "w") as f:
            f.write("done")
        os.sync()
    else:
        import glob as _glob

        segs = sorted(_glob.glob(os.path.join(seg_cache, "segments", "*.parquet")))
        n_events = sum(
            __import__("pyarrow.parquet", fromlist=["x"]).read_metadata(p).num_rows
            for p in segs
        )
    for p in segs:  # warm page cache
        with open(p, "rb") as f:
            while f.read(1 << 22):
                pass
    # partition count FIXED (not CPU-derived) so runs at different parallelism
    # levels do identical work — required for a fair scaling comparison
    # in-flight directive chain: the north-star CDC pipeline wrangles the
    # change stream before the merge (BASELINE.json north_star: "parse,
    # set-type, rename, drop, mask ... applied in-flight before the merge").
    cdc_recipe = [
        "set-type :turn_idx int",
        "rename :tool :tool_name",
        "fill-null-or-empty :role 'unknown'",
        "lowercase :role",
        "set-column :text_len exp:{string:length(text)}",
    ]
    _lake_seq = [0]

    def _apply_fresh():
        # a repeat apply on the SAME table is a watermark no-op, so each
        # attempt gets a fresh lake dir (identical work every time)
        _lake_seq[0] += 1
        lake = CdcTable(
            os.path.join(workdir, f"lake{_lake_seq[0]}"), num_partitions=128
        )
        return lake.apply_changes(segs, recipe=cdc_recipe)

    dt, manifest = _best_of(_apply_fresh)
    queries["cdc_apply"] = round(dt, 3)
    extras["cdc_events"] = n_events
    extras["cdc_events_per_sec"] = round(n_events / dt, 1)

    # replay-to-parity check (the BASELINE metric is throughput AND parity):
    # the lake's row count must equal the change stream's surviving LWW keys
    import duckdb as _duckdb

    seg_glob = os.path.join(seg_cache, "segments", "*.parquet")
    expected = _duckdb.sql(
        f"""
        WITH ranked AS (
            SELECT op, row_number() OVER (PARTITION BY conv_id, turn_idx
                                          ORDER BY lsn DESC) AS rn
            FROM read_parquet('{seg_glob}')
        )
        SELECT count(*) FROM ranked WHERE rn = 1 AND op <> 'D'
        """
    ).fetchone()[0]
    extras["cdc_parity"] = (
        "ok" if manifest["total_rows"] == expected
        else f"MISMATCH lake={manifest['total_rows']} oracle={expected}"
    )

    if only == "cdc":
        shutil.rmtree(workdir, ignore_errors=True)
        return {
            "metric": "cdc_apply_wall_sec",
            "value": queries["cdc_apply"],
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
            "num_cpus": NUM_CPUS,
            **extras,
        }

    # -- directive_chain ---------------------------------------------------
    # reference "light recipe" analog (wrangler-docs/performance.md:44-58:
    # 13 directives — parse, drops, fill-null, uppercase, mask, filter) over
    # the 1M-row change stream, so records/s is comparable to the reference's
    # 64,998 rec/s headline rather than dominated by fixed job cost
    recipe = [
        "parse-as-json :text 1",
        "copy :conv_id :conv_raw",
        "lowercase :role",
        "trim :conv_raw",
        "set-column :len exp:{string:length(conv_id)}",
        "set-column :bucket exp:{turn_idx > 25 ? 'late' : 'early'}",
        "mask-number :conv_raw 'xxxx######'",
        "fill-null-or-empty :tool 'unknown'",
        "uppercase :op",
        "filter-row exp:{len < 3} true",
        "drop :text_k",
    ]
    dt, n_docs = _best_of(
        lambda: apply_recipe(
            rd.read_parquet(segs, override_num_blocks=max(NUM_CPUS, len(segs))),
            recipe,
        ).count()
    )
    queries["directive_chain"] = round(dt, 3)
    extras["directive_records"] = n_docs
    extras["directive_records_per_sec"] = round(n_docs / dt, 1)

    # -- dedup_minhash / text_analysis ------------------------------------
    # amplified corpus (8 identical copies, shifted ids): per-doc work must
    # dominate fixed job cost, and a dup-heavy corpus exercises the candidate
    # verify path the way crawl data does
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs_amplify = int(os.environ.get("WR_DOCS_AMPLIFY", "8"))
    docs_cache = os.path.join(
        tempfile.gettempdir(),
        f"wr_bench_docs_{os.path.basename(SF_DIR)}_{docs_amplify}.parquet",
    )
    if not os.path.exists(docs_cache):
        base = pq.read_table(
            os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"]
        )
        n = base.num_rows
        copies = []
        for c in range(docs_amplify):
            ids = pa.array(
                [i + c * n for i in base.column("doc_id").to_pylist()], pa.int64()
            )
            copies.append(pa.table({"doc_id": ids, "text": base.column("text")}))
        pq.write_table(pa.concat_tables(copies), docs_cache)
    docs_rows = pq.read_metadata(docs_cache).num_rows

    dt, n_kept = _best_of(
        lambda: minhash_lsh_dedup(
            rd.read_parquet(docs_cache, override_num_blocks=NUM_CPUS)
        ).count()
    )
    queries["dedup_minhash"] = round(dt, 3)
    extras["dedup_docs"] = docs_rows
    extras["dedup_docs_per_sec"] = round(docs_rows / dt, 1)
    extras["dedup_kept"] = n_kept

    # blocks sized so each task runs >=250ms: Ray Data's streaming executor
    # adds ~15-45ms of scheduling per task, which dominates with tiny blocks.
    # DATA-derived (≈6k docs per block, clamped): a fixed small count caps
    # parallelism once the corpus outgrows it
    text_blocks = max(8, min(docs_rows // 6000, NUM_CPUS * 2))
    dt, _ = _best_of(
        lambda: analyze(
            rd.read_parquet(docs_cache, override_num_blocks=text_blocks)
        ).count()
    )
    queries["text_analysis"] = round(dt, 3)
    extras["text_docs_per_sec"] = round(docs_rows / dt, 1)

    # -- pricing_summary ---------------------------------------------------
    import __ray_entry__ as entrymod

    dt, _ = _best_of(lambda: entrymod.queries()["pricing_summary"](SF_DIR))
    queries["pricing_summary"] = round(dt, 3)

    shutil.rmtree(workdir, ignore_errors=True)
    total = round(sum(queries.values()), 3)
    result = {
        "metric": "headline_pipelines_wall_sec",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        **extras,
    }
    return result


def _cpu_calibration(nworkers: int) -> float:
    """Pure-CPU throughput (tasks/s) of this MACHINE at a given parallelism —
    no Ray, no IO, no shared data. Establishes the hardware's own scaling
    ceiling: this sandbox is a VM whose per-core speed drops as more vCPUs go
    busy (host throttling/turbo), so even embarrassingly-parallel work cannot
    reach efficiency 1.0 between 8 and 32 workers. On a real N → 4N NODE
    cluster each node brings its own silicon, so the engine's multi-node
    efficiency is better approximated by efficiency normalized to this
    ceiling."""
    import multiprocessing as mp

    def _pool():
        return mp.get_context("spawn").Pool(nworkers)

    ntask = nworkers * 3
    with _pool() as p:
        p.map(_burn, range(nworkers))  # warm the pool
        t0 = time.perf_counter()
        p.map(_burn, range(ntask))
        dt = time.perf_counter() - t0
    return ntask / dt


def _burn(_):
    s = 0
    for i in range(8_000_000):
        s += i * i
    return s


def run_scaling() -> dict:
    import subprocess

    def run_once(ncpu: int) -> dict:
        # larger change stream for scaling runs: per-core work must dominate
        # fixed overhead before efficiency is meaningful; subprocesses run
        # ONLY the CDC headline (WR_BENCH_ONLY=cdc)
        # WR_BENCH_RUNS=1: scaling already de-noises with process-level
        # best-of-N on both legs; inner repeats would only stretch wall time
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), WR_BENCH_ONLY="cdc",
                   WR_BENCH_RUNS="1",
                   WR_CDC_AMPLIFY=os.environ.get("WR_SCALING_AMPLIFY", "480"))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int, extra: int = 0) -> dict:
        # best-of-N (default 2): this sandbox shows large run-to-run variance
        # (shared page cache / noisy VM neighbors); min wall time is the
        # standard de-noising for throughput benchmarks
        n = int(os.environ.get("WR_SCALING_RUNS", "2")) + extra
        runs = [run_once(ncpu) for _ in range(n)]
        return min(runs, key=lambda r: r["queries"]["cdc_apply"])

    # default pair 2 → 8 (the "N and 4N" evidence): at low core counts this
    # VM's per-core speed is stable, so the ratio measures the ENGINE; at
    # 8 → 32 the host throttles per-core speed ~25-35% (see the calibration
    # fields + BASELINE.md) and every workload's raw ratio drops with it.
    lo = int(os.environ.get("WR_SCALING_LO", "2"))
    hi = int(os.environ.get("WR_SCALING_HI", "8"))
    # symmetric best-of-N on BOTH legs so min-sampling noise cancels in the
    # ratio instead of biasing it (extra attempts on only one leg would skew
    # eff toward that leg)
    extra = int(os.environ.get("WR_SCALING_EXTRA", "1"))
    r_lo = run(lo, extra=extra)
    r_hi = run(hi, extra=extra)
    # efficiency on the CDC headline (events/sec throughput ratio vs CPU ratio)
    thr_lo = r_lo["cdc_events_per_sec"]
    thr_hi = r_hi["cdc_events_per_sec"]
    eff_cdc = (thr_hi / thr_lo) / (hi / lo)
    # hardware ceiling at the same pair (pure-CPU, embarrassingly parallel);
    # best-of-3 — the calibration itself is subject to the same VM noise
    cal_lo = max(_cpu_calibration(lo) for _ in range(3))
    cal_hi = max(_cpu_calibration(hi) for _ in range(3))
    eff_hw = (cal_hi / cal_lo) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff_cdc, 3),
        "unit": "ratio",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "cdc_events_per_sec_lo": thr_lo,
        "cdc_events_per_sec_hi": thr_hi,
        "cdc_sec_lo": r_lo["queries"]["cdc_apply"],
        "cdc_sec_hi": r_hi["queries"]["cdc_apply"],
        "cdc_events": r_hi["cdc_events"],
        "hardware_ceiling_efficiency": round(eff_hw, 3),
        "hardware_tasks_per_sec_lo": round(cal_lo, 2),
        "hardware_tasks_per_sec_hi": round(cal_hi, 2),
        "efficiency_normalized_to_hardware": round(min(eff_cdc / eff_hw, 1.0), 3),
    }


def run_scaleup() -> dict:
    """Scale-up evidence leg (VERDICT r1 item 9): the same headline pipelines
    at 10× the data volume, in a fresh subprocess, so dedup/text numbers are
    not dominated by fixed job cost. One JSON line like the default run."""
    import subprocess

    env = dict(
        os.environ,
        WR_DOCS_AMPLIFY=os.environ.get("WR_SCALEUP_DOCS_AMPLIFY", "80"),
        WR_CDC_AMPLIFY=os.environ.get("WR_SCALEUP_CDC_AMPLIFY", "100"),
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    res = json.loads(out.strip().splitlines()[-1])
    res["metric"] = "scaleup_pipelines_wall_sec"
    res["docs_amplify"] = int(env["WR_DOCS_AMPLIFY"])
    res["cdc_amplify"] = int(env["WR_CDC_AMPLIFY"])
    return res


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--scaleup" in sys.argv:
        print(json.dumps(run_scaleup()))
    else:
        res = run_benchmarks()
        import ray

        ray.shutdown()
        print(json.dumps(res))
