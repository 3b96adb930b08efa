"""Reference answers the workloads' outputs are checked against. None of
them uses the engine's own code paths: CDC state is a DuckDB last-writer-wins
replay, near-dup survivors come from an exact all-pairs Jaccard join, and the
directive chain is compared with the Ray-free ``apply_recipe_table`` run
over the same rows.
"""

from __future__ import annotations

import hashlib

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class CheckFailed(AssertionError):
    """An output differs from its oracle; the message names the check."""


def expect(ok: bool, check: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(f"{check}: {detail}" if detail else check)


# -- CDC: last-writer-wins replay -------------------------------------------


def lww_sql(events: str, upto: str = "") -> str:
    """Live rows after replaying ``events`` (a relation with lsn, op,
    conv_id, turn_idx, ...) in lsn order: per (conv_id, turn_idx) the
    highest-lsn event wins and a winning delete removes the key."""
    where = f"WHERE lsn <= {upto}" if upto else ""
    return f"""
        SELECT * EXCLUDE (rn) FROM (
            SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                         ORDER BY lsn DESC) AS rn
            FROM {events} {where}
        ) WHERE rn = 1 AND coalesce(op, 'U') <> 'D'
    """


def diff_count(con: duckdb.DuckDBPyConnection, a: str, b: str, cols: list[str]) -> int:
    """Rows in the symmetric multiset difference of two relations over
    ``cols``."""
    sel = ", ".join(cols)

    def minus(x: str, y: str) -> str:
        return f"(SELECT count(*) FROM (SELECT {sel} FROM {x} EXCEPT ALL SELECT {sel} FROM {y}))"

    return con.sql(f"SELECT {minus(a, b)} + {minus(b, a)}").fetchone()[0]


def check_table(con, got: pa.Table, events: str, cols: list[str], check: str) -> int:
    """The table read back equals the LWW replay of ``events`` on ``cols``;
    returns the live row count."""
    con.register("got_tbl", got)
    con.sql(f"CREATE OR REPLACE TEMP TABLE want_tbl AS {lww_sql(events)}")
    want = con.sql("SELECT count(*) FROM want_tbl").fetchone()[0]
    bad = diff_count(con, "got_tbl", "want_tbl", cols)
    con.unregister("got_tbl")
    expect(bad == 0, check,
           f"{bad} rows differ from the LWW replay ({got.num_rows} read, {want} expected)")
    return want


# -- directive chain ----------------------------------------------------------


def table_digest(t: pa.Table) -> str:
    """Order-independent digest of a table's rows: sorted on every column
    and serialized as Arrow IPC, with names included and every integer
    column widened to int64, so the digest compares values, not integer
    widths (``type_drift`` reports those)."""
    cols = sorted(t.column_names)
    t = t.select(cols).replace_schema_metadata(None)
    t = t.cast(pa.schema([
        pa.field(f.name, pa.int64() if pa.types.is_integer(f.type) else f.type)
        for f in t.schema
    ]))
    if t.num_rows:
        t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in cols]))
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.combine_chunks())
    return hashlib.sha256(sink.getvalue()).hexdigest()


def type_drift(got: pa.Schema, want: pa.Schema) -> dict[str, list[str]]:
    """Columns whose Arrow type differs between two schemas."""
    return {f.name: [str(f.type), str(want.field(f.name).type)]
            for f in got if f.name in want.names and f.type != want.field(f.name).type}


# -- near-dup: exact all-pairs Jaccard ------------------------------------------


def shingles(texts: list[str | None], k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Distinct character k-grams of each whitespace-normalized, lowercased
    text (padded to k): the sets MinHash dedup estimates Jaccard over.
    Returns ``(doc, tok)`` sorted by doc then token, one row per distinct
    (doc, k-gram); each k-gram is packed into one integer. Texts must be
    ASCII, so one character is one byte and the packing is exact."""
    norm = [" ".join((t or "").split()).lower().ljust(k).encode("ascii") for t in texts]
    lens = np.array([len(s) for s in norm], np.int64)
    c = np.frombuffer(b"".join(norm), np.uint8).astype(np.uint64)
    n_win = len(c) - k + 1
    codes = np.zeros(n_win, np.uint64)
    for j in range(k):
        codes |= c[j:j + n_win] << np.uint64(8 * (k - 1 - j))
    w = lens - k + 1
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    wstart = np.concatenate(([0], np.cumsum(w)[:-1]))
    idx = np.arange(int(w.sum())) + np.repeat(offsets - wstart, w)
    doc = np.repeat(np.arange(len(texts), dtype=np.uint64), w)
    key = np.unique((doc << np.uint64(8 * k)) | codes[idx])
    return (key >> np.uint64(8 * k)).astype(np.int64), key & np.uint64((1 << 8 * k) - 1)


def near_dup_survivors(ids: list[int], texts: list[str], threshold: float = 0.8) -> set[int]:
    """Ids kept by exact near-dup removal: docs are linked when the true
    Jaccard of their shingle sets is >= ``threshold``; each connected
    component keeps its minimum id.

    All linked pairs are found exactly by prefix filtering (AllPairs /
    PPJoin): order every set's tokens rarest first under one global order.
    Two sets with Jaccard >= t share a token within their first
    ``|A| - ceil(t|A|) + 1`` tokens; if their first shared token sits at
    positions i and j, they share at most ``min(|A| - i, |B| - j)`` tokens,
    which must reach ``t/(1+t)·(|A|+|B|)``. Only pairs passing both bounds
    (and the length bound ``t|A| <= |B|``) get an exact comparison."""
    t = threshold
    doc, tok = shingles(texts)
    n = len(texts)
    sizes = np.bincount(doc, minlength=n)
    _, inv, freq = np.unique(tok, return_inverse=True, return_counts=True)
    order = np.lexsort((tok, freq[inv], doc))  # per doc: rarest first
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.arange(len(tok)) - starts[doc[order]]
    prefix = sizes - np.ceil(t * sizes - 1e-9).astype(np.int64) + 1
    keep = pos < prefix[doc[order]]
    sel, spos = order[keep], pos[keep]
    srt = np.lexsort((doc[sel], tok[sel]))
    pt, pd, pp = tok[sel][srt], doc[sel][srt], spos[srt]
    a_l, b_l, bound_l = [], [], []
    for gap in range(1, len(pt)):
        same = pt[:-gap] == pt[gap:]
        if not same.any():
            break
        a, b = pd[:-gap][same], pd[gap:][same]
        a_l.append(a)
        b_l.append(b)
        bound_l.append(np.minimum(sizes[a] - pp[:-gap][same], sizes[b] - pp[gap:][same]))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if a_l:
        a, b, bound = np.concatenate(a_l), np.concatenate(b_l), np.concatenate(bound_l)
        pair = a * n + b
        # the first shared token gives the largest (the valid) overlap bound
        o = np.lexsort((-bound, pair))
        first = np.concatenate(([True], pair[o][1:] != pair[o][:-1]))
        a, b, bound = a[o][first], b[o][first], bound[o][first]
        need = t / (1 + t) * (sizes[a] + sizes[b]) - 1e-9
        lo, hi = np.minimum(sizes[a], sizes[b]), np.maximum(sizes[a], sizes[b])
        ok = (bound >= need) & (lo >= t * hi - 1e-9)
        ends = starts + sizes
        for x, y in zip(a[ok].tolist(), b[ok].tolist()):
            inter = len(np.intersect1d(tok[starts[x]:ends[x]], tok[starts[y]:ends[y]],
                                       assume_unique=True))
            if inter >= t * (sizes[x] + sizes[y] - inter):
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    best: dict[int, int] = {}
    for i, doc_id in enumerate(ids):
        r = find(i)
        best[r] = min(best.get(r, doc_id), doc_id)
    return set(best.values())
