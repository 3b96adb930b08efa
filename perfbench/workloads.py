"""The four workloads. Each drives the engine from this (driver) process
through its public API in a closed loop: the next op starts when the
previous one has returned.

A workload is used in four steps: ``generate`` writes its inputs from the
seed (repeated, timed into ``setup_s``), ``prepare`` warms the Ray workers
and seeds any table (timed into ``setup_s``), ``run`` is the measured loop,
``verify`` checks every op against its oracle. ``end_to_end`` and
``per_layer`` then give the metrics the run reports.

Every workload reports the same metrics, so that each can be compared
across workloads: end to end, the work it gets through per second of loop
time and the median latency of its main op; per layer, where the main op's
time goes (CPU of the driver, of Ray's workers and of Ray's own processes;
replayed kernel time; what is left for the Ray Data substrate). The
workload's own numbers (commit and lookup tails, scan rate, manifest stage
times, self time per directive, ...) go into the detail record under
``headline`` and ``layers``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import gen, oracles, replay
from perfbench.oracles import expect
from perfbench.session import cpu_count

# bench.py's in-flight recipe for the CDC apply
CDC_RECIPE = [
    "set-type :turn_idx int",
    "rename :tool :tool_name",
    "fill-null-or-empty :role 'unknown'",
    "lowercase :role",
    "set-column :text_len exp:{string:length(text)}",
]

# bench.py's 11-directive "light recipe"
LIGHT_RECIPE = [
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


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest value, at percentile 100·(n-10)/n. Returns
    ``(value, percentile, n)``; with ten or fewer samples, the maximum."""
    s = sorted(xs)
    n = len(s)
    if n <= 10:
        return float(s[-1]), 100.0, n
    return float(s[n - 11]), 100.0 * (n - 10) / n, n


CPU_LAYERS = ("driver.cpu_s", "workers.cpu_s", "ray_system.cpu_s")


class Workload:
    name = ""
    # the op kind whose latency is reported and whose time the traced run
    # splits into layers
    MAIN = ""
    # the replayed kernels, other than the read, that the main op runs
    COMPUTE: tuple[str, ...] = ()

    def __init__(self, sess, seed: int, scale: float, seconds: float):
        self.sess = sess
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.ops: list[dict] = []
        # the loop's repeating unit: one op, or for tail_mor one cycle
        self.round = 0
        self.errors: list[str] = []
        self.replayed: dict[str, float] = {}
        self.detail: dict = {}

    # -- the loop --------------------------------------------------------

    def timed(self, kind: str, fn, tracer, traced: bool, **attrs):
        """Run one op. A raised exception marks it failed and the loop goes
        on. Returns (result, op record); result is None on failure."""
        rec = {"kind": kind, "ok": True, "traced": traced, "round": self.round, **attrs}
        cpu = traced and kind == self.MAIN
        with tracer.span(kind, **attrs):
            c0 = self.sess.cpu_by_role() if cpu else None
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # the loop must survive a failed op
                out = None
                rec["ok"] = False
                self.errors.append(f"{kind}: {exc!r}")
            rec["wall"] = time.perf_counter() - t0
            if cpu:
                c1 = self.sess.cpu_by_role()
                rec.update({f"{k}.cpu_s": c1[k] - c0[k] for k in c1})
        self.ops.append(rec)
        return out, rec

    def fail(self, rec: dict, check: str, detail: str) -> None:
        """An op returned but its output is wrong."""
        rec["ok"] = False
        rec["check"] = f"{check}: {detail}"

    def select(self, kind: str, traced: bool | None = None) -> list[dict]:
        return [o for o in self.ops if o["kind"] == kind and o["ok"]
                and (traced is None or o["traced"] == traced)]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if not o["ok"])

    def first_bad_check(self) -> str | None:
        for o in self.ops:
            if "check" in o:
                return o["check"]
        return None

    # -- the metrics -------------------------------------------------------

    def end_to_end(self) -> dict:
        """Per untraced round, the items (change events, records,
        documents) of its ops that succeeded over the wall of all its ops,
        readers and failed ops included: the median of those rates. And the
        median wall of the main op."""
        rounds: dict[int, list] = {}
        for o in self.ops:
            if not o["traced"]:
                r = rounds.setdefault(o["round"], [0, 0.0])
                r[0] += o.get("items", 0) if o["ok"] else 0
                r[1] += o["wall"]
        self.detail["headline"] = self.headline()
        return {
            "items_per_s": median(items / wall for items, wall in rounds.values()),
            "op_latency_p50_s": median(o["wall"] for o in self.select(self.MAIN, False)),
        }

    def per_layer(self) -> dict:
        layers = self.layer_detail()
        self.detail["layers"] = layers
        out = self.layer_medians(self.MAIN, CPU_LAYERS)
        out["kernel.read_s"] = layers["kernel.read_s"]
        out["kernel.compute_s"] = sum(layers[k] for k in self.COMPUTE)
        out["ray_data.overhead_s"] = layers["ray_data.overhead_s"]
        out["trace.overhead_s"] = layers["trace.overhead_s"]
        return out

    def trace_overhead(self) -> float:
        k = self.MAIN
        return median(o["wall"] for o in self.select(k, True)) - median(
            o["wall"] for o in self.select(k, False))

    def overhead(self, wall: float, driver: float, stages: list[tuple[float, int]]) -> float:
        """Op wall time not accounted for by driver-side or kernel time: what
        the Ray Data substrate (scheduling, object transfer, task start)
        costs. ``stages`` holds, per stage of the op, its replayed
        single-process kernel seconds and how many of its tasks can run at
        once (at most one per CPU): a stage's kernels take at best
        ``seconds / parallelism`` of the op's wall. The split goes into the
        detail record."""
        kernels = sum(s / max(1, p) for s, p in stages)
        rest = wall - driver - kernels
        self.detail["accounting"] = {"op_wall_s": wall, "driver_s": driver,
                                     "kernel_wall_s": kernels, "ray_data_overhead_s": rest}
        return rest

    def layer_medians(self, kind: str, names) -> dict[str, float]:
        ops = [o for o in self.select(kind, True) if names[0] in o]
        return {n: median(o[n] for o in ops) for n in names if ops}


# -- CDC helpers ----------------------------------------------------------


def file_list(v) -> list[str]:
    return v if isinstance(v, list) else [v]


def cdc_layers(table_dir: str, m: dict, wall: float, events_in: int, in_bytes: int) -> dict:
    """Per-layer numbers of one committed apply, from its manifest."""
    met = m["metrics"]
    parts = [f for v in m["partitions"].values() for f in file_list(v)]
    deltas = [f for v in m.get("deltas", {}).values() for f in v]
    pending = [lr["changes_applied"] for lr in m["lineage"].values() if lr["changes_applied"]]
    written = sum(
        os.path.getsize(os.path.join(table_dir, f))
        for f in parts + deltas if m["txn_id"] in os.path.basename(f)
    )
    return {
        "cdc.exchange_write_s": met["exchange_write_s"],
        "cdc.merge_s": met["merge_s"],
        "cdc.driver_s": wall - met["exchange_write_s"] - met["merge_s"],
        "cdc.merge_tasks": met["merge_tasks"],
        "cdc.files_live": len(parts),
        "cdc.deltas_live": len(deltas),
        "cdc.partition_skew": max(pending) / median(pending) if pending else 1.0,
        "cdc.lww_survival": met["changes_applied"] / events_in,
        "cdc.bytes_written": written,
        "cdc.write_amp": written / in_bytes,
    }


CDC_OP_LAYERS = (
    "cdc.exchange_write_s", "cdc.merge_s", "cdc.driver_s", "cdc.merge_tasks",
    "cdc.files_live", "cdc.deltas_live", "cdc.partition_skew", "cdc.lww_survival",
    "cdc.bytes_written", "cdc.write_amp",
)


# -- bulk_apply -------------------------------------------------------------


class BulkApply(Workload):
    """One copy-on-write ``apply_changes`` per op, into a fresh 128-partition
    table, with the 5-directive in-flight recipe."""

    name = "bulk_apply"
    MAIN = "apply"
    COMPUTE = ("chain.kernel_s", "kernel.spill_write_s", "kernel.merge_partition_s")
    PARTITIONS = 128
    SEGMENTS = 8

    def __init__(self, *a):
        super().__init__(*a)
        self.n_events = max(2000, int(1_000_000 * self.scale))
        self.n_convs = max(50, self.n_events // 20)

    def generate(self, rep: int) -> None:
        t = gen.change_stream(gen.rng_for(self.seed, 0), self.n_events, self.n_convs, 32)
        d = self.sess.path(f"inputs-{rep}", "segments", "")
        self.segs = gen.write_segments(t, d, self.SEGMENTS)
        self.in_bytes = sum(os.path.getsize(p) for p in self.segs)

    def prepare(self) -> None:
        from wrangler_ray.cdc.engine import CdcTable

        t = gen.change_stream(gen.rng_for(self.seed, 99), 2000, 100, 8)
        segs = gen.write_segments(t, self.sess.path("warm", "segments", ""), 2)
        warm = CdcTable(self.sess.path("warm", "lake"), num_partitions=4)
        warm.apply_changes(segs, recipe=CDC_RECIPE)
        shutil.rmtree(self.sess.path("warm"), ignore_errors=True)
        self.last = None

    def run(self, seconds: float, tracer, traced: bool) -> None:
        from wrangler_ray.cdc.engine import CdcTable

        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.round += 1
            lake = self.sess.path(f"lake-{len(self.ops)}")
            table = CdcTable(lake, num_partitions=self.PARTITIONS)
            m, rec = self.timed(
                "apply", lambda: table.apply_changes(self.segs, recipe=CDC_RECIPE),
                tracer, traced, items=self.n_events)
            if m is None:
                continue
            rec["total_rows"] = m["total_rows"]
            if traced:
                rec.update(cdc_layers(lake, m, rec["wall"], self.n_events, self.in_bytes))
            if self.last is not None:
                shutil.rmtree(self.last[0], ignore_errors=True)
            self.last = (lake, m)

    def verify(self) -> None:
        import duckdb

        from wrangler_ray.cdc.engine import CdcTable

        expect(self.last is not None, "bulk_apply.ran", "no apply committed")
        con = duckdb.connect()
        segs = ", ".join(f"'{p}'" for p in self.segs)
        con.sql(f"CREATE TEMP VIEW ev AS SELECT * FROM read_parquet([{segs}])")
        got = CdcTable(self.last[0], num_partitions=self.PARTITIONS).read_arrow()
        want = oracles.check_table(con, got, "ev", ["conv_id", "turn_idx", "text"],
                                   "bulk_apply.final_table_equals_lww_replay")
        for o in self.select("apply"):
            if o["total_rows"] != want:
                self.fail(o, "bulk_apply.total_rows_equals_lww_replay",
                          f"{o['total_rows']} != {want}")
        self.detail["live_rows"] = want

    def headline(self) -> dict:
        wall = median(o["wall"] for o in self.select("apply", False))
        return {"apply.events_per_s": self.n_events / wall}

    def layer_detail(self) -> dict:
        out = self.layer_medians("apply", CDC_OP_LAYERS)
        lake, m = self.last
        k, blocks = replay.replay_apply(lake, self.segs, None, m, CDC_RECIPE, self.sess.work)
        self.replayed = k
        out.update(k)
        wall = median(o["wall"] for o in self.select("apply", True))
        ncpu = cpu_count()
        out["ray_data.overhead_s"] = self.overhead(wall, out["cdc.driver_s"], [
            (k["kernel.read_s"] + k["chain.kernel_s"] + k["kernel.spill_write_s"],
             min(ncpu, blocks)),
            (k["kernel.merge_partition_s"], min(ncpu, int(out["cdc.merge_tasks"]))),
        ])
        out["trace.overhead_s"] = self.trace_overhead()
        return out


# -- tail_mor ---------------------------------------------------------------


class TailMor(Workload):
    """A snapshot-seeded table fed ~10k-event windows with ``mode="auto"``
    (merge-on-read deltas while they are small). Each commit is followed by
    point lookups of hot conversations; every ``CYCLE`` commits one full
    ``read()`` scan runs, then ``compact()``.

    Windows update a Zipf-skewed set of keys; the first window of a cycle
    deletes a fixed churn set of conversations and the middle one re-inserts
    it, so table size and delta count cycle instead of drifting. From the
    third window on, windows carry an added ``model`` column (schema
    evolution)."""

    name = "tail_mor"
    MAIN = "commit"
    COMPUTE = ("kernel.spill_write_s", "kernel.merge_partition_s")
    PARTITIONS = 16
    TURNS = 32
    CYCLE = 6
    HOT_LOOKUPS = 3
    EVOLVE_AT = 2

    def __init__(self, *a):
        super().__init__(*a)
        self.n_convs = max(40, int(2000 * self.scale))
        self.churn = max(4, self.n_convs // 32)
        self.window = max(500, int(10_000 * self.scale))
        # enough windows for cycles of at least ~2 s each
        self.n_windows = self.CYCLE * (math.ceil(self.seconds / 2.0) + 1)

    def generate(self, rep: int) -> None:
        rng = gen.rng_for(self.seed, 1)
        nc, T, C = self.n_convs, self.TURNS, self.CYCLE
        snap = gen.change_rows(
            rng, np.repeat(np.arange(nc), T), np.tile(np.arange(T), nc),
            np.full(nc * T, "I"), 0,
        ).drop_columns(["lsn", "op"])
        d = self.sess.path(f"inputs-{rep}", "")
        self.snapshot = os.path.join(d, "snapshot.parquet")
        pq.write_table(snap, self.snapshot)

        churn_rank = np.repeat(np.arange(nc - self.churn, nc), T)
        churn_turn = np.tile(np.arange(T), self.churn)
        ranks, turns, ops, sizes = [], [], [], []
        for w in range(self.n_windows):
            k = w % C
            n_upd = self.window - (len(churn_rank) if k in (0, C // 2) else 0)
            ranks.append(gen.zipf_ranks(rng, n_upd, nc - self.churn, 1.1))
            turns.append(rng.integers(0, T, n_upd))
            ops.append(np.full(n_upd, "U"))
            if k in (0, C // 2):
                ranks.append(churn_rank)
                turns.append(churn_turn)
                ops.append(np.full(len(churn_rank), "D" if k == 0 else "I"))
            sizes.append(self.window)
        t = gen.change_rows(rng, np.concatenate(ranks), np.concatenate(turns),
                            np.concatenate(ops), 1)
        models = pa.array(["m-small", "m-large", None], pa.string())
        t = t.append_column("model", models.take(pa.array(rng.integers(0, 3, t.num_rows))))
        self.windows, self.window_max_lsn = [], []
        lo = 0
        for w, n in enumerate(sizes):
            p = os.path.join(d, f"window-{w:05d}.parquet")
            part = t.slice(lo, n)
            if w < self.EVOLVE_AT:
                part = part.drop_columns(["model"])
            pq.write_table(part, p)
            self.windows.append(p)
            lo += n
            self.window_max_lsn.append(lo)

    def prepare(self) -> None:
        import ray.data as rd

        from wrangler_ray.cdc.engine import CdcTable

        # warm-up on a throwaway table: every public call the loop makes
        warm = CdcTable(self.sess.path("warm", "lake"), num_partitions=2)
        warm.init_from_snapshot(rd.read_parquet(self.snapshot).limit(200))
        warm.apply_changes([self.windows[0]], mode="auto")
        warm.lookup_conversation("conv-0")
        sum(b.num_rows for b in warm.read().iter_batches(batch_format="pyarrow", batch_size=None))
        warm.compact()
        shutil.rmtree(self.sess.path("warm"), ignore_errors=True)

        self.lake = self.sess.path("lake")
        self.table = CdcTable(self.lake, num_partitions=self.PARTITIONS)
        self.table.init_from_snapshot(rd.read_parquet(self.snapshot))
        self.next_window = 0
        self.version = self.table.latest_manifest()["version"]
        self.lookup_rng = gen.rng_for(self.seed, 2)
        self.samples: list[dict] = []
        self.scans: list[dict] = []
        self.replay_args = None

    def _scan(self) -> int:
        return sum(b.num_rows for b in
                   self.table.read().iter_batches(batch_format="pyarrow", batch_size=None))

    def run(self, seconds: float, tracer, traced: bool) -> None:
        start = time.perf_counter()
        nc = self.n_convs
        while (time.perf_counter() - start < seconds
               and self.next_window + self.CYCLE <= len(self.windows)):
            self.round += 1
            for k in range(self.CYCLE):
                w = self.next_window
                self.next_window += 1
                parent = self.table.latest_manifest() if traced else None
                m, rec = self.timed(
                    "commit", lambda: self.table.apply_changes([self.windows[w]], mode="auto"),
                    tracer, traced, items=self.window)
                if m is None:
                    continue
                if m["watermark_lsn"] != self.window_max_lsn[w] or m["version"] != self.version + 1:
                    self.fail(rec, "tail_mor.commit_advances_watermark",
                              f"v{m['version']} wm {m['watermark_lsn']} after window {w}")
                self.version = m["version"]
                if traced:
                    rec.update(cdc_layers(self.lake, m, rec["wall"], self.window,
                                          os.path.getsize(self.windows[w])))
                    if k == 1 and self.replay_args is None:
                        self.replay_args = ([self.windows[w]], parent, m)
                hot = gen.zipf_ranks(self.lookup_rng, self.HOT_LOOKUPS, nc - self.churn, 1.1)
                convs = [f"conv-{r}" for r in hot] + [f"conv-{nc - 1 - (w % self.churn)}"]
                for j, conv in enumerate(convs):
                    got, _ = self.timed("lookup", lambda: self.table.lookup_conversation(conv),
                                        tracer, traced)
                    if got is not None and j in (0, len(convs) - 1):
                        self.samples.append({
                            "sid": len(self.samples), "conv_id": conv,
                            "wm": m["watermark_lsn"],
                            "rows": got.select(["turn_idx", "text"]).to_pylist()
                            if got.num_rows else [],
                        })
            rows, _ = self.timed("scan", self._scan, tracer, traced)
            if rows is not None:
                self.scans.append({"wm": self.table.watermark, "rows": rows})
            m, _ = self.timed("compact", self.table.compact, tracer, traced)
            if m is not None:
                self.version = m["version"]

    def verify(self) -> None:
        import duckdb

        expect(self.next_window > 0, "tail_mor.ran", "no window committed")
        con = duckdb.connect()
        wins = ", ".join(f"'{p}'" for p in self.windows[: self.next_window])
        con.sql(f"""CREATE TEMP TABLE ev AS
            SELECT 0::BIGINT AS lsn, NULL::VARCHAR AS op, * FROM read_parquet('{self.snapshot}')
            UNION ALL BY NAME
            SELECT * FROM read_parquet([{wins}], union_by_name = true)""")
        got = self.table.read_arrow()
        want = oracles.check_table(con, got, "ev", ["conv_id", "turn_idx", "text", "model"],
                                   "tail_mor.final_table_equals_lww_replay")
        self.detail["live_rows"] = want
        self.detail["windows_committed"] = self.next_window

        sample_rows = [{"sid": s["sid"], **r} for s in self.samples for r in s["rows"]]
        con.register("got_lookups", pa.Table.from_pylist(
            sample_rows, schema=pa.schema([("sid", pa.int64()), ("turn_idx", pa.int32()),
                                           ("text", pa.string())])))
        con.register("samples", pa.Table.from_pylist(
            [{k: s[k] for k in ("sid", "conv_id", "wm")} for s in self.samples]))
        con.sql(f"""CREATE TEMP TABLE want_lookups AS
            SELECT sid, turn_idx, text FROM (
                SELECT s.sid, e.*, row_number() OVER (PARTITION BY s.sid, e.turn_idx
                                                      ORDER BY e.lsn DESC) AS rn
                FROM samples s JOIN ev e ON e.conv_id = s.conv_id AND e.lsn <= s.wm
            ) WHERE rn = 1 AND coalesce(op, 'U') <> 'D'""")
        bad = oracles.diff_count(con, "got_lookups", "want_lookups", ["sid", "turn_idx", "text"])
        expect(bad == 0, "tail_mor.lookups_equal_lww_replay_at_version",
               f"{bad} rows differ over {len(self.samples)} sampled lookups")
        for s in self.scans:
            live = oracles.lww_sql("ev", str(s["wm"]))
            n = con.sql(f"SELECT count(*) FROM ({live})").fetchone()[0]
            expect(s["rows"] == n, "tail_mor.scan_rows_equal_lww_replay",
                   f"scan at lsn {s['wm']} read {s['rows']} rows, oracle {n}")

    def headline(self) -> dict:
        commits = [o["wall"] for o in self.select("commit", False)]
        lookups = [o["wall"] for o in self.select("lookup", False)]
        scans = self.select("scan", False)
        loop = [o for o in self.ops if not o["traced"]]
        c_tail, c_pct, c_n = tail(commits)
        l_tail, l_pct, l_n = tail(lookups)
        self.detail["commit_tail"] = {"percentile": c_pct, "n": c_n}
        self.detail["lookup_tail"] = {"percentile": l_pct, "n": l_n}
        rows = [s["rows"] for s, o in zip(self.scans, self.select("scan")) if not o["traced"]]
        return {
            "commit.latency_p50_s": median(commits),
            "commit.latency_tail_s": c_tail,
            "lookup.latency_p50_s": median(lookups),
            "lookup.latency_tail_s": l_tail,
            "scan.rows_per_s": sum(rows) / sum(o["wall"] for o in scans),
            "tail.events_per_s": sum(o.get("items", 0) for o in loop if o["ok"])
            / sum(o["wall"] for o in loop),
        }

    def layer_detail(self) -> dict:
        out = self.layer_medians("commit", CDC_OP_LAYERS)
        out["cdc.scan_s"] = median(o["wall"] for o in self.select("scan", True))
        out["cdc.compact_s"] = median(o["wall"] for o in self.select("compact", True))
        segs, parent, m = self.replay_args
        k, blocks = replay.replay_apply(self.lake, segs, parent, m, None, self.sess.work)
        self.replayed = k
        out.update(k)
        wall = median(o["wall"] for o in self.select("commit", True))
        ncpu = cpu_count()
        out["ray_data.overhead_s"] = self.overhead(wall, out["cdc.driver_s"], [
            (k["kernel.read_s"] + k["kernel.spill_write_s"], min(ncpu, blocks)),
            (k["kernel.merge_partition_s"], min(ncpu, int(out["cdc.merge_tasks"]))),
        ])
        out["trace.overhead_s"] = self.trace_overhead()
        return out


# -- wrangle_chain ------------------------------------------------------------


class WrangleChain(Workload):
    """bench.py's 11-directive light recipe via ``apply_recipe(...).count()``
    over change-stream rows: parser, directive and expression kernels only,
    no CDC."""

    name = "wrangle_chain"
    MAIN = "chain"
    COMPUTE = ("chain.kernel_s",)
    SEGMENTS = 4

    def __init__(self, *a):
        super().__init__(*a)
        self.n = max(2000, int(250_000 * self.scale))

    def generate(self, rep: int) -> None:
        t = gen.change_stream(gen.rng_for(self.seed, 3), self.n, max(50, self.n // 20), 32)
        self.segs = gen.write_segments(t, self.sess.path(f"inputs-{rep}", "segments", ""),
                                       self.SEGMENTS)

    def _dataset(self, segs):
        import ray.data as rd

        from wrangler_ray.pipeline import apply_recipe

        return apply_recipe(rd.read_parquet(segs), LIGHT_RECIPE)

    def prepare(self) -> None:
        self._dataset(self.segs[:1]).limit(1000).count()

    def run(self, seconds: float, tracer, traced: bool) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.round += 1
            n, rec = self.timed("chain", lambda: self._dataset(self.segs).count(),
                                tracer, traced, items=self.n)
            if n is not None:
                rec["out_rows"] = n

    def verify(self) -> None:
        import ray

        from wrangler_ray.pipeline import apply_recipe_table

        rows = pa.concat_tables([pq.read_table(p) for p in self.segs])
        want, _errors = apply_recipe_table(rows, LIGHT_RECIPE)
        got = pa.concat_tables(ray.get(self._dataset(self.segs).to_arrow_refs()),
                               promote_options="default")
        expect(oracles.table_digest(got) == oracles.table_digest(want),
               "wrangle_chain.output_digest_equals_apply_recipe_table",
               f"{got.num_rows} rows from Ray, {want.num_rows} from apply_recipe_table")
        for o in self.select("chain"):
            if o["out_rows"] != want.num_rows:
                self.fail(o, "wrangle_chain.count_equals_apply_recipe_table",
                          f"{o['out_rows']} != {want.num_rows}")
        self.detail["out_rows"] = want.num_rows
        self.detail["type_drift"] = oracles.type_drift(got.schema, want.schema)

    def headline(self) -> dict:
        wall = median(o["wall"] for o in self.select("chain", False))
        return {"chain.records_per_s": self.n / wall}

    def layer_detail(self) -> dict:
        k = replay.replay_chain(self.segs, LIGHT_RECIPE)
        self.replayed = k
        out = dict(k)
        wall = median(o["wall"] for o in self.select("chain", True))
        out["ray_data.overhead_s"] = self.overhead(wall, k["parser.compile_s"], [
            (k["kernel.read_s"] + k["chain.kernel_s"], min(cpu_count(), self.SEGMENTS)),
        ])
        out["trace.overhead_s"] = self.trace_overhead()
        return out


# -- near_dup -----------------------------------------------------------------


class NearDup(Workload):
    """``minhash_lsh_dedup`` over a seeded corpus of random-word documents
    and edited copies of each: light edits (near-duplicates, dropped) and
    heavy edits (kept). No copy is byte-identical, so the exact pre-pass
    removes nothing and every document is signed."""

    name = "near_dup"
    MAIN = "dedup"
    COMPUTE = ("dedup.sign_s",)
    COPIES = 3

    def __init__(self, *a):
        super().__init__(*a)
        self.n_base = max(50, int(2000 * self.scale))

    def generate(self, rep: int) -> None:
        self.docs, _ = gen.documents(gen.rng_for(self.seed, 4), self.n_base, self.COPIES)
        self.path = self.sess.path(f"inputs-{rep}", "docs.parquet")
        pq.write_table(self.docs, self.path)

    def _kept(self, path: str) -> frozenset:
        import ray.data as rd

        from wrangler_ray.ops.dedup import minhash_lsh_dedup

        ds = minhash_lsh_dedup(rd.read_parquet(path), jaccard_threshold=0.8)
        return frozenset(
            i for b in ds.select_columns(["doc_id"]).iter_batches(batch_format="pyarrow")
            for i in b.column("doc_id").to_pylist()
        )

    def prepare(self) -> None:
        tiny = self.sess.path("warm", "docs.parquet")
        pq.write_table(self.docs.slice(0, 100), tiny)
        self._kept(tiny)
        shutil.rmtree(self.sess.path("warm"), ignore_errors=True)

    def run(self, seconds: float, tracer, traced: bool) -> None:
        import ray.data as rd

        from wrangler_ray.ops.dedup import exact_dedup

        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.round += 1
            kept, rec = self.timed("dedup", lambda: self._kept(self.path), tracer, traced,
                                   items=self.docs.num_rows)
            if kept is None:
                continue
            rec["kept"] = kept
            if traced:
                rec["dedup.kept_ratio"] = len(kept) / self.docs.num_rows
                _, ex = self.timed(
                    "exact_pass", lambda: exact_dedup(rd.read_parquet(self.path)).materialize(),
                    tracer, traced)
                rec["dedup.exact_pass_s"] = ex["wall"]

    def verify(self) -> None:
        want = oracles.near_dup_survivors(
            self.docs.column("doc_id").to_pylist(), self.docs.column("text").to_pylist(), 0.8)
        for o in self.select("dedup"):
            if o["kept"] != want:
                self.fail(o, "near_dup.kept_ids_equal_exact_jaccard",
                          f"{len(o['kept'] - want)} extra, {len(want - o['kept'])} missing "
                          f"of {len(want)}")
        self.detail["kept"] = len(want)
        self.detail["docs"] = self.docs.num_rows

    def headline(self) -> dict:
        wall = median(o["wall"] for o in self.select("dedup", False))
        return {"dedup.docs_per_s": self.docs.num_rows / wall}

    def layer_detail(self) -> dict:
        out = self.layer_medians("dedup", ("dedup.kept_ratio", "dedup.exact_pass_s"))
        k = replay.replay_sign(self.path)
        self.replayed = k
        out.update(k)
        wall = median(o["wall"] for o in self.select("dedup", True))
        out["ray_data.overhead_s"] = self.overhead(
            wall, 0.0, [(k["kernel.read_s"] + k["dedup.sign_s"], cpu_count())])
        out["trace.overhead_s"] = self.trace_overhead()
        return out


WORKLOADS = {w.name: w for w in (BulkApply, TailMor, WrangleChain, NearDup)}
