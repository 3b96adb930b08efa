"""The benchmark's own tests: BENCHMARK.json against the benchmark contract,
the result-line schema, the oracles against brute force, and a tiny-scale
run of every workload (traced and untraced) passing its oracle.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, ROOT)

from perfbench import gen, oracles  # noqa: E402
from perfbench.workloads import WORKLOADS, tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(set(x["name"] for x in spec["end_to_end"] + spec["per_layer"])) == len(
        spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert len(json.dumps(spec)) <= 64 * 1024


def test_workloads_match_the_spec(spec):
    # that every workload reports every metric, the tiny runs below check;
    # tail_mor runs on request but is not gated (see NOTES.md)
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "tail_mor"]
    for cls in WORKLOADS.values():
        assert cls.MAIN and cls.COMPUTE, cls.name


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 41))
    value, pct, n = tail(xs)
    assert (value, pct, n) == (30, 75.0, 40)
    assert sum(1 for x in xs if x > value) == 10
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_lww_replay_sql():
    import duckdb
    import pyarrow as pa

    ev = pa.table({
        "lsn": [1, 2, 3, 4, 5],
        "op": ["I", "U", "D", "I", "U"],
        "conv_id": ["a", "a", "b", "b", "c"],
        "turn_idx": [0, 0, 0, 0, 1],
        "text": ["x", "y", "z", "w", "v"],
    })
    con = duckdb.connect()
    con.register("ev", ev)
    live = con.sql(f"SELECT conv_id, text FROM ({oracles.lww_sql('ev')}) ORDER BY 1").fetchall()
    assert live == [("a", "y"), ("b", "w"), ("c", "v")]
    upto = con.sql(f"SELECT conv_id FROM ({oracles.lww_sql('ev', '3')}) ORDER BY 1").fetchall()
    assert upto == [("a",)]


@pytest.mark.parametrize("seed", [1, 2])
def test_near_dup_oracle_matches_brute_force(seed):
    # a tiny vocabulary puts many pairs near the threshold
    docs, _ = gen.documents(gen.rng_for(seed, 4), 40, 3, vocab_size=60, words=(5, 30))
    ids, texts = docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
    doc, tok = oracles.shingles(texts)
    sets = [set(tok[doc == i].tolist()) for i in range(len(ids))]
    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in itertools.combinations(range(len(ids)), 2):
        if len(sets[a] & sets[b]) >= 0.8 * len(sets[a] | sets[b]):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    comps: dict[int, int] = {}
    for i, d in enumerate(ids):
        comps[find(i)] = min(comps.get(find(i), d), d)
    assert oracles.near_dup_survivors(ids, texts, 0.8) == set(comps.values())


def test_generation_is_seeded():
    a = gen.change_stream(gen.rng_for(7, 0), 1000, 50, 8)
    b = gen.change_stream(gen.rng_for(7, 0), 1000, 50, 8)
    c = gen.change_stream(gen.rng_for(8, 0), 1000, 50, 8)
    assert a.equals(b) and not a.equals(c)
    d1, _ = gen.documents(gen.rng_for(7, 4), 20, 2)
    d2, _ = gen.documents(gen.rng_for(7, 4), 20, 2)
    assert d1.equals(d2)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_passes_its_oracle(spec, workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--scale", "0.04")
    res = _result(proc)
    assert res["correct"] is True and res["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert list(res["metrics"]) == list(units)
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    # the scratch area is gone and no process of the run's Ray session is left
    work = os.path.join(ROOT, ".perfbench_work")
    assert not os.path.exists(work) or not os.listdir(work)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                assert work.encode() not in f.read()
        except OSError:
            pass


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run(str(tmp_path), "--workload", "bulk_apply", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "wrangler_ray" in proc.stderr
