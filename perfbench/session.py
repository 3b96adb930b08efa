"""One run's lifecycle: its scratch area, its own Ray session, and the
reaping of every process that session started.

A run must leave nothing behind for the next of many back-to-back runs on the
same cores: no raylet, no worker, no lake. ``Session`` owns all of it and
``close()`` (also called on SIGTERM and at interpreter exit) stops Ray, kills
whatever Ray left running, waits until each process has ended, and deletes
the scratch area.
"""

from __future__ import annotations

import atexit
import os
import shutil
import signal
import sys
import time

# Ray appends "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" to
# its temp dir; an AF_UNIX path may hold at most 107 bytes.
_RAY_SUFFIX_LEN = 72
_AF_UNIX_MAX = 107


def cpu_count() -> int:
    """CPUs this process may run on (the affinity mask, not the host size)."""
    return len(os.sched_getaffinity(0))


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces and parens: fields follow the last ')'
        fields = stat[stat.rindex(")") + 2:].split()
        out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> set[int]:
    parents = _ppid_map()
    found, frontier = set(), {root}
    while frontier:
        frontier = {p for p, pp in parents.items() if pp in frontier} - found
        found |= frontier
    return found


def _cmdline_mentions(pid: int, needle: str) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return needle.encode() in f.read()
    except OSError:
        return False


def _alive(pid: int) -> bool:
    """True while the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class Session:
    """Scratch area + Ray session of one benchmark run, rooted in the
    checkout at ``root``."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self._fd: int | None = None
        self._ray_started = False
        self._ray_dir = ""
        self._closed = False
        self._workers: set[int] = set()
        atexit.register(self.close)
        signal.signal(signal.SIGTERM, self._on_signal)

    def path(self, *parts: str) -> str:
        p = os.path.join(self.work, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def _on_signal(self, signum, _frame):
        self.close()
        sys.exit(128 + signum)

    def _ray_temp_dir(self) -> str:
        """Ray's session dir, inside the scratch area. When the checkout
        path is too long for Ray's unix sockets, Ray is handed
        ``/proc/<pid>/fd/<n>``: a short name for the same directory, through
        a descriptor this process holds open until Ray has stopped."""
        real = os.path.join(self.work, "ray")
        os.makedirs(real, exist_ok=True)
        if len(real) + _RAY_SUFFIX_LEN <= _AF_UNIX_MAX:
            return real
        self._fd = os.open(real, os.O_RDONLY | os.O_DIRECTORY)
        return f"/proc/{os.getpid()}/fd/{self._fd}"

    def start_ray(self, num_cpus: int, object_store_mb: int = 600) -> None:
        """Start a local Ray sized to ``num_cpus``; workers import the
        program from the checkout."""
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        import ray

        self._ray_dir = self._ray_temp_dir()
        self._ray_started = True
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=object_store_mb * 1024 * 1024,
            _temp_dir=self._ray_dir,
            # Ray kills a worker idle for 1 s and starts a fresh one, which
            # re-imports the engine, at the next burst of tasks: scans then
            # alternate between ~1.0 s and ~2.3 s. Workers live for the run.
            _system_config={"idle_worker_killing_time_threshold_ms": 3_600_000},
        )
        import logging

        from ray.data import DataContext

        logging.getLogger("ray.data").setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        ctx.print_on_execution_start = False

    def warm_workers(self, num_cpus: int) -> None:
        """Import the engine in Ray's worker processes, so no measured op
        pays for a worker's first import."""
        import ray.data as rd

        rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
            _import_engine, batch_format="pyarrow").materialize()

    def cpu_by_role(self) -> dict[str, float]:
        """CPU seconds used so far by this (driver) process, by the Ray
        worker processes it started, and by its other descendants (raylet,
        GCS and Ray's helper processes). The difference of two calls is what
        each spent in between."""
        me = os.getpid()
        out = {"driver": time.process_time(), "workers": 0.0, "ray_system": 0.0}
        for p in descendants(me):
            # a worker runs Ray's worker script and then retitles itself
            # "ray::<task or actor>"; until it has exec'd, it is not yet one
            if p not in self._workers and (_cmdline_mentions(p, "default_worker.py")
                                           or _cmdline_mentions(p, "ray::")):
                self._workers.add(p)
            out["workers" if p in self._workers else "ray_system"] += _cpu_s(p)
        return out

    def _stop_ray(self) -> None:
        if not self._ray_started:
            return
        self._ray_started = False
        me = os.getpid()
        started = descendants(me)
        import ray

        try:
            ray.shutdown()
        except Exception as exc:  # keep going: the processes still get killed
            print(f"perfbench: ray.shutdown failed: {exc!r}", file=sys.stderr)
        started |= descendants(me)
        needle = os.path.realpath(os.path.join(self.work, "ray"))
        started |= {
            p for p in _ppid_map()
            if p != me and (_cmdline_mentions(p, needle) or _cmdline_mentions(p, self._ray_dir))
        }
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            live = [p for p in started if _alive(p)]
            for p in live:
                try:
                    os.kill(p, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + grace
            while live and time.monotonic() < deadline:
                _reap_children()
                live = [p for p in live if _alive(p)]
                if live:
                    time.sleep(0.05)
        _reap_children()
        left = [p for p in started if _alive(p)]
        if left:
            print(f"perfbench: processes still alive after kill: {left}", file=sys.stderr)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._stop_ray()
        finally:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            shutil.rmtree(self.work, ignore_errors=True)
            parent = os.path.dirname(self.work)
            try:
                os.rmdir(parent)  # only when no other run is using it
            except OSError:
                pass


def _import_engine(batch):
    import wrangler_ray.cdc.engine  # noqa: F401
    import wrangler_ray.ops.dedup  # noqa: F401
    import wrangler_ray.pipeline  # noqa: F401

    return batch


# -- host state ------------------------------------------------------------


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def cpu_times() -> list[int]:
    """The machine's CPU time so far, in clock ticks, from /proc/stat: user,
    nice, system, idle, iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time between two ``cpu_times()`` that the hypervisor
    gave to other guests (steal): a contended host window shows here."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(1, sum(d))


def cpu_calibration(seconds: float = 0.3) -> float:
    """Single-process pure-Python loop iterations per second over about
    ``seconds``: the same window's CPU speed, so a contended run shows."""
    n, t0 = 0, time.perf_counter()
    while True:
        s = 0
        for i in range(100_000):
            s += i * i
        n += 100_000
        dt = time.perf_counter() - t0
        if dt >= seconds:
            return n / dt


def versions() -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    return {
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "numpy": numpy.__version__,
    }


def _cpu_s(pid: int) -> float:
    """CPU seconds a process has used, over all its threads (ended ones
    too), read from Linux's per-process CPU clock ``((~pid) << 3) | 2`` to
    the nanosecond (``/proc/<pid>/stat`` counts 10 ms ticks)."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:  # it has ended
        return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this (driver) process, from /proc (kB)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")
