#!/usr/bin/env python
"""CDC tail job — the `ray job submit` entrypoint for the incremental-ingest
engine (north-star deployment shape: binlog/WAL tail → lake upsert on a
fixed-size multi-node Ray cluster).

Usage (cluster):

    ray job submit --working-dir . -- \
        python scripts/cdc_tail_job.py \
            --table-dir /lake/conversations \
            --segment-dir /wal/segments \
            --window-events 50000000 \
            --mode auto \
            --recipe-file recipes/inflight.wr

Usage (local smoke, this sandbox):

    python scripts/cdc_tail_job.py --table-dir /tmp/lake \
        --segment-dir /tmp/segments --window-events 100000

The script owns the Ray session (guarded init — under `ray job submit` the
cluster address comes from the environment). It tails every pending segment
in bounded LSN windows (each window = one transaction = one manifest commit,
so a crashed job resumes from the last committed watermark on the next
submit), and emits one JSON metrics line per committed window plus a final
summary line: events applied, partitions rewritten, watermark, wall seconds,
events/sec.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

# run from anywhere: the package lives in this script's parent directory
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--table-dir", required=True, help="lake table root")
    ap.add_argument("--segment-dir", required=True, help="binlog/WAL segment dir")
    ap.add_argument("--pattern", default="*.parquet")
    ap.add_argument("--window-events", type=int, default=None,
                    help="events per transaction window (None = one txn)")
    ap.add_argument("--mode", default="auto", choices=["cow", "mor", "auto"])
    ap.add_argument("--num-partitions", type=int, default=64)
    ap.add_argument("--recipe-file", default=None,
                    help="optional in-flight directive recipe (one per line)")
    ap.add_argument("--compact-after", action="store_true",
                    help="fold merge-on-read deltas after the tail")
    args = ap.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(include_dashboard=False, logging_level="ERROR")

    from wrangler_ray.cdc.engine import CdcTable

    recipe = None
    if args.recipe_file:
        with open(args.recipe_file) as f:
            recipe = [ln.strip() for ln in f if ln.strip() and not ln.startswith("//")]

    table = CdcTable(args.table_dir, num_partitions=args.num_partitions)
    wm0 = table.watermark
    t0 = time.time()
    manifests = table.tail(
        args.segment_dir,
        pattern=args.pattern,
        window_events=args.window_events,
        recipe=recipe,
        mode=args.mode,
    )
    wall = time.time() - t0
    total_events = 0
    for m in manifests:
        met = m.get("metrics", {})
        total_events += int(met.get("changes_applied", 0))
        print(json.dumps({
            "window": m["version"],
            "txn_id": m["txn_id"],
            "watermark_lsn": m["watermark_lsn"],
            "changes_applied": met.get("changes_applied"),
            "partitions_rewritten": met.get("partitions_rewritten"),
        }), flush=True)
    if args.compact_after and manifests:
        c = table.compact()
        print(json.dumps({"compacted": True, "version": c["version"]}), flush=True)
    # LSNs are dense, so the watermark delta is the raw change-event count
    # consumed; changes_applied is the post-LWW survivor count merged into
    # partitions (smaller when one key is updated many times in a window)
    events = table.watermark - wm0
    summary = {
        "windows_committed": len(manifests),
        "events_consumed": events,
        "changes_applied": total_events,
        "watermark_before": wm0,
        "watermark_after": table.watermark,
        "wall_sec": round(wall, 3),
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
    }
    print(json.dumps(summary), flush=True)
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
