"""Column profiling / statistics — the ``BasicStatistics`` + schema-summary
capability of the reference service layer (wrangler-core/.../statistics/
BasicStatistics.java:38-90, DirectivesHandler.java:596-668), re-expressed as
a partial-aggregate over batches + a tiny driver-side merge (no shuffle:
each batch emits ONE partial-stats row; the reduce is over #batches rows).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TYPE_PATTERNS = {
    "integer": re.compile(r"^[+-]?\d+$"),
    "number": re.compile(r"^[+-]?\d*\.\d+([eE][+-]?\d+)?$"),
    "boolean": re.compile(r"^(true|false)$", re.I),
    "date": re.compile(r"^\d{4}-\d{2}-\d{2}([ T].*)?$"),
    "email": re.compile(r"^[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}$"),
    "url": re.compile(r"^(https?|ftp)://", re.I),
    "ip": re.compile(r"^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}$"),
}


def _partial_stats(batch: pa.Table) -> pa.Table:
    """One partial-stats JSON row per batch (mergeable)."""
    out: dict = {"_rows": batch.num_rows, "columns": {}}
    for name in batch.column_names:
        col = batch.column(name)
        entry: dict = {
            "nulls": int(pc.sum(pc.cast(pc.is_null(col), pa.int64())).as_py() or 0),
        }
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            filled = pc.fill_null(col, "")
            entry["empty"] = int(
                pc.sum(pc.cast(pc.equal(filled, ""), pa.int64())).as_py() or 0
            )
            vals = [v for v in col.to_pylist() if v]
            types: dict[str, int] = {}
            for v in vals[:10000]:  # bound per-batch sniff cost
                for tname, pat in _TYPE_PATTERNS.items():
                    if pat.match(v):
                        types[tname] = types.get(tname, 0) + 1
                        break
                else:
                    types["text"] = types.get("text", 0) + 1
            entry["types"] = types
        elif pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            valid = col.drop_null()
            if len(valid):
                entry["min"] = float(pc.min(valid).as_py())
                entry["max"] = float(pc.max(valid).as_py())
                entry["sum"] = float(pc.sum(valid).as_py())
                entry["count"] = len(valid)
        out["columns"][name] = entry
    return pa.table({"partial": pa.array([json.dumps(out)], pa.string())})


def profile(ds) -> dict:
    """Per-column statistics: null%, empty%, inferred-type frequencies,
    numeric min/max/mean. Returns a dict keyed by column."""
    partials = ds.map_batches(
        _partial_stats, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    total = 0
    merged: dict = {}
    for row in partials:
        p = json.loads(row["partial"])
        total += p["_rows"]
        for col, e in p["columns"].items():
            m = merged.setdefault(
                col, {"nulls": 0, "empty": 0, "types": {}, "min": None, "max": None,
                      "sum": 0.0, "count": 0},
            )
            m["nulls"] += e.get("nulls", 0)
            m["empty"] += e.get("empty", 0)
            for t, c in e.get("types", {}).items():
                m["types"][t] = m["types"].get(t, 0) + c
            if "min" in e:
                m["min"] = e["min"] if m["min"] is None else min(m["min"], e["min"])
                m["max"] = e["max"] if m["max"] is None else max(m["max"], e["max"])
                m["sum"] += e["sum"]
                m["count"] += e["count"]
    result: dict = {"rows": total, "columns": {}}
    for col, m in merged.items():
        entry = {
            "null_pct": round(100.0 * m["nulls"] / total, 4) if total else 0.0,
            "empty_pct": round(100.0 * m["empty"] / total, 4) if total else 0.0,
            "non_null_pct": round(100.0 * (total - m["nulls"]) / total, 4) if total else 0.0,
        }
        if m["types"]:
            entry["types"] = dict(sorted(m["types"].items(), key=lambda kv: -kv[1]))
        if m["count"]:
            entry["min"] = m["min"]
            entry["max"] = m["max"]
            entry["mean"] = m["sum"] / m["count"]
        result["columns"][col] = entry
    return result


def profile_table(ds) -> pa.Table:
    """profile() flattened to an Arrow table (oracle-comparable subset:
    column, null_pct, non_null_pct)."""
    p = profile(ds)
    names, nulls, non_nulls = [], [], []
    for col, e in sorted(p["columns"].items()):
        names.append(col)
        nulls.append(e["null_pct"])
        non_nulls.append(e["non_null_pct"])
    return pa.table(
        {
            "column": pa.array(names, pa.string()),
            "null_pct": pa.array(nulls, pa.float64()),
            "non_null_pct": pa.array(non_nulls, pa.float64()),
        }
    )
