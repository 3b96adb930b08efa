"""Correctness runner: execute `__ray_entry__.queries()` entries against
their `oracle_sql()` DuckDB oracles and compare.

    python scripts/check_correctness.py [sf_dir] [names...]

With no names every query runs. A query passes only if it passes both
compare rules: the normalized frames are equal (sorted columns, floats
rounded to 6 places, rows sorted), AND, column by column over the rows
sorted as strings, floats agree within ``allclose(atol=1e-6)`` and every
other value is equal as a string. Prints one line per query, then a JSON
summary line; exits non-zero on any failure. ``RAY_GRAFT_CPUS`` sizes the
Ray session (default 8) when the caller has not started one.
"""

from __future__ import annotations

import json
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj):
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if hasattr(obj, "dataset"):  # RecipeResult
        return obj.ok().to_pandas()
    return obj.to_pandas()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].astype("float64").round(6)
        elif df[c].dtype.kind == "b":
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def sort_as_str(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(mine: pd.DataFrame, ora: pd.DataFrame) -> str | None:
    """None when both rules pass, else why the query fails."""
    a, b = normalize(mine), normalize(ora)
    if list(a.columns) != list(b.columns):
        return f"columns {list(a.columns)} != {list(b.columns)}"
    if len(a) != len(b):
        return f"rows {len(a)} != {len(b)}"
    if not a.equals(b):
        diff_cols = [c for c in a.columns if not a[c].equals(b[c])]
        lines = [f"value mismatch in {diff_cols}"]
        for c in diff_cols[:2]:
            neq = a[c] != b[c]
            lines.append(f"   mine: {a[c][neq].head(3).tolist()} "
                         f"oracle: {b[c][neq].head(3).tolist()}")
        return "\n".join(lines)
    g, e = sort_as_str(mine), sort_as_str(ora)
    for c in g.columns:
        gv, ev = g[c].to_numpy(), e[c].to_numpy()
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            ok = np.allclose(gv.astype(float), ev.astype(float), atol=1e-6, equal_nan=True)
        else:
            ok = (pd.Series(gv).astype(str) == pd.Series(ev).astype(str)).all()
        if not ok:
            return f"1e-6 allclose mismatch in {c}"
    return None


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for name in TABLES:
        path = os.path.join(sf_dir, f"{name}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")

    oracles = entrymod.oracle_sql()
    fails, ok, no_oracle = [], 0, 0
    for name, fn in entrymod.queries().items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
            if name not in oracles:
                no_oracle += 1
                print(f"rows  {name}: {len(mine)} rows (no oracle)", flush=True)
                continue
            why = compare(mine, con.execute(oracles[name]).df())
        except Exception as e:  # noqa: BLE001 — report, don't abort the sweep
            why = f"raised {type(e).__name__}: {e}"
        if why is None:
            ok += 1
            print(f"ok    {name}: {len(mine)} rows match {time.time() - t0:.1f}s", flush=True)
        else:
            fails.append(name)
            print(f"FAIL  {name}: {why}", flush=True)
    print(json.dumps({"ok": ok, "no_oracle": no_oracle, "fails": fails}), flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
