"""The repo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bulk_apply --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. It starts its own Ray session sized to
this process's CPU affinity, generates the workload's inputs from the seed
under ``.perfbench_work/`` in the checkout, runs the closed loop for
``--seconds``, checks every op against the workload's oracle, then stops Ray,
kills and waits for every process Ray started, and deletes its scratch area.

Standard output ends with two lines: the detail record (host state, setup
breakdown, tail percentiles, trace summary) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` spends half of
``--seconds`` untraced and half traced, replays one op's kernels without
Ray, and reports every per-layer metric. Every workload reports the same
metrics; names and units come from ``BENCHMARK.json``.

Exit codes: 0 when every check passed, 1 when an oracle check failed (the
check is named on stderr), 2 when the program under test or the
benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def _env() -> None:
    """Settings that must precede numpy and Ray: no usage reporting, one
    BLAS thread per process (Ray already runs one worker per CPU)."""
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def missing_files() -> list[str]:
    need = [os.path.join(ROOT, "BENCHMARK.json"),
            os.path.join(ROOT, "wrangler_ray", "cdc", "engine.py"),
            os.path.join(ROOT, "wrangler_ray", "pipeline.py"),
            os.path.join(ROOT, "wrangler_ray", "ops", "dedup.py")]
    return [p for p in need if not os.path.isfile(p)]


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (tests use a tiny scale)")
    args = ap.parse_args(argv)

    missing = missing_files()
    if missing:
        print("perfbench: missing " + ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    _env()
    sys.path.insert(0, ROOT)
    from perfbench import session
    from perfbench.oracles import CheckFailed
    from perfbench.trace import NULL_TRACER, Tracer
    from perfbench.workloads import WORKLOADS, median

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = metric_units(spec, bool(args.trace))

    host = {"loadavg_before": session.loadavg(),
            "cpu_calibration_before": session.cpu_calibration(),
            "nproc": session.cpu_count(), "versions": session.versions()}
    sess = session.Session(ROOT)
    wl = WORKLOADS[args.workload](sess, args.seed, args.scale, args.seconds)
    tracer = Tracer()
    check = None
    try:
        t0 = time.perf_counter()
        sess.start_ray(host["nproc"])
        sess.warm_workers(host["nproc"])
        ray_s = time.perf_counter() - t0
        gen_s = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.generate(rep)
            gen_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        wl.prepare()
        prep_s = time.perf_counter() - t0
        setup = {"ray_start_s": ray_s, "generate_s": gen_s, "prepare_s": prep_s}
        setup_s = ray_s + median(gen_s) + prep_s

        cpu0 = session.cpu_times()
        if args.trace:
            wl.run(args.seconds / 2, NULL_TRACER, False)
            wl.run(args.seconds / 2, tracer, True)
        else:
            wl.run(args.seconds, NULL_TRACER, False)
        host["steal_share"] = session.steal_share(cpu0, session.cpu_times())
        rss_mb = session.peak_rss_mb()
        try:
            wl.verify()
        except CheckFailed as exc:
            check = str(exc)
        check = check or wl.first_bad_check()
        if args.trace:
            values = wl.per_layer()
        else:
            values = dict(wl.end_to_end(), setup_s=setup_s, driver_peak_rss_mb=rss_mb)
    finally:
        sess.close()

    if set(values) != set(units):
        print(f"perfbench: {args.workload} measured {sorted(values)}, BENCHMARK.json "
              f"lists {sorted(units)}", file=sys.stderr)
        return 2
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}
    host.update(loadavg_after=session.loadavg(), cpu_calibration_after=session.cpu_calibration())
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "host": host, "setup": setup,
              "errors": wl.errors[:20], "check": check, "kernels_replayed": wl.replayed,
              "ops": {k: {"n": len(w), "first_s": w[0], "median_s": median(w), "max_s": max(w)}
                      for k in sorted({o["kind"] for o in wl.ops})
                      for w in [[o["wall"] for o in wl.ops if o["kind"] == k]]},
              "spans": tracer.summary(), **wl.detail}
    print(json.dumps({"detail": detail}, sort_keys=True, default=float))
    result = {"correct": check is None, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    if check is not None:
        print(f"perfbench: FAILED {check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
