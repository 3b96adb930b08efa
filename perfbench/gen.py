"""Seeded, vectorized input generation for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's
``--seed``; the same seed gives byte-identical tables. The change streams
are built with whole-array numpy/Arrow operations; only the near-dup corpus
is assembled per document (its word edits and joins). The engine only ever
sees the files these tables are written to.

Change events carry the binlog shape the CDC engine consumes:
``lsn, op, conv_id, turn_idx, role, text, tool, ts``. ``text`` is a small
JSON object so the directive chain's ``parse-as-json`` has work to do.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BASE_TS_US = 1_700_000_000_000_000
_ROLES = pa.array(["user", "Assistant", "TOOL", "system", "", None], pa.string())
_ROLE_P = [0.4, 0.3, 0.1, 0.1, 0.05, 0.05]
_TOOLS = pa.array(["search", "calc", "browse", "code", None], pa.string())
_WORDS = pa.array(
    "alpha beta gamma delta epsilon zeta theta kappa token prompt merge stream"
    .split(), pa.string()
)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream...) so adding a stream never
    shifts the draws of another."""
    return np.random.default_rng([seed, *stream])


def zipf_ranks(rng: np.random.Generator, n: int, n_keys: int, s: float) -> np.ndarray:
    """``n`` draws from ranks ``0..n_keys-1`` with P(r) ∝ 1/(r+1)^s, by
    inverse CDF (one searchsorted; no per-draw reweighting)."""
    w = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** s
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(n), side="right").clip(0, n_keys - 1)


def conv_ids(ranks: np.ndarray) -> pa.Array:
    return pc.binary_join_element_wise(
        "conv-", pc.cast(pa.array(ranks, pa.int64()), pa.string()), ""
    )


def _texts(rng: np.random.Generator, n: int) -> pa.Array:
    k = pc.cast(pa.array(rng.integers(0, 100_000, n)), pa.string())
    w = _WORDS.take(pa.array(rng.integers(0, len(_WORDS), n)))
    return pc.binary_join_element_wise('{"k": ', k, ', "w": "', w, '"}', "")


def change_rows(
    rng: np.random.Generator,
    conv_rank: np.ndarray,
    turn_idx: np.ndarray,
    op: np.ndarray,
    lsn0: int,
) -> pa.Table:
    """Change-event rows for the given keys and ops, lsn ``lsn0, lsn0+1, …``
    in row order."""
    n = len(conv_rank)
    lsn = lsn0 + np.arange(n, dtype=np.int64)
    role_idx = rng.choice(len(_ROLES), size=n, p=_ROLE_P)
    return pa.table(
        {
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(op, pa.string()),
            "conv_id": conv_ids(conv_rank),
            "turn_idx": pa.array(turn_idx.astype(np.int32), pa.int32()),
            "role": _ROLES.take(pa.array(role_idx)),
            "text": _texts(rng, n),
            "tool": _TOOLS.take(pa.array(rng.integers(0, len(_TOOLS), n))),
            "ts": pa.array(BASE_TS_US + lsn * 1000, pa.timestamp("us")),
        }
    )


def change_stream(
    rng: np.random.Generator,
    n: int,
    n_convs: int,
    turns: int,
    zipf_s: float = 1.1,
    delete_share: float = 0.1,
    lsn0: int = 1,
) -> pa.Table:
    """``n`` events over ``n_convs`` conversations with Zipf-skewed
    popularity: hot conversations collect many updates of the same
    ``(conv_id, turn_idx)`` key, so last-writer-wins has work to do."""
    ranks = zipf_ranks(rng, n, n_convs, zipf_s)
    turn = rng.integers(0, turns, n)
    u = rng.random(n)
    op = np.where(u < delete_share, "D", np.where(u < 0.3, "I", "U"))
    return change_rows(rng, ranks, turn, op, lsn0)


def write_segments(table: pa.Table, seg_dir: str, n_segments: int, first: int = 0) -> list[str]:
    """Split ``table`` into ``n_segments`` lsn-contiguous parquet files."""
    os.makedirs(seg_dir, exist_ok=True)
    n = table.num_rows
    paths = []
    for i in range(n_segments):
        lo, hi = i * n // n_segments, (i + 1) * n // n_segments
        p = os.path.join(seg_dir, f"seg-{first + i:06d}.parquet")
        pq.write_table(table.slice(lo, hi - lo), p)
        paths.append(p)
    return paths


# -- near-dup corpus ----------------------------------------------------------

_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", np.uint8)


def vocabulary(rng: np.random.Generator, n_words: int) -> list[str]:
    """Synthetic words of 3-9 letters; duplicates are dropped, so the list
    can come out slightly shorter than ``n_words``."""
    lens = rng.integers(3, 10, n_words)
    letters = _LETTERS[rng.integers(0, 26, int(lens.sum()))].tobytes().decode()
    ends = np.cumsum(lens)
    words = [letters[e - n:e] for e, n in zip(ends, lens)]
    return list(dict.fromkeys(words))


def documents(
    rng: np.random.Generator,
    n_base: int,
    copies: int,
    vocab_size: int = 4000,
    words: tuple[int, int] = (40, 90),
    light_edits: float = 0.02,
    heavy_edits: float = 0.45,
    heavy_share: float = 0.3,
) -> tuple[pa.Table, int]:
    """Base documents of random words plus ``copies`` edited copies of each.

    Every copy replaces a seeded share of its base document's words:
    ``light_edits`` (a near-duplicate, true Jaccard well above 0.8) or, for
    a ``heavy_share`` of copies, ``heavy_edits`` (well below 0.8, so it
    survives). No copy is byte-identical to its base, so the exact pre-pass
    cannot remove it and every copy is signed. Ids: base docs ``0..n_base-1``,
    copy ``c`` of doc ``i`` gets ``(c + 1) * n_base + i``. Returns the table
    and ``n_base``."""
    vocab = vocabulary(rng, vocab_size)
    nv = len(vocab)
    lens = rng.integers(words[0], words[1] + 1, n_base)
    flat = rng.integers(0, nv, int(lens.sum()))
    bounds = np.concatenate(([0], np.cumsum(lens)))
    base_words = [flat[bounds[i]:bounds[i + 1]] for i in range(n_base)]
    ids = list(range(n_base))
    texts = [" ".join(vocab[w] for w in ws) for ws in base_words]
    for c in range(copies):
        heavy = rng.random(n_base) < heavy_share
        for i, ws in enumerate(base_words):
            share = heavy_edits if heavy[i] else light_edits
            k = max(1, int(round(share * len(ws))))
            pos = rng.choice(len(ws), size=k, replace=False)
            edited = ws.copy()
            # a replacement never equals the word it replaces
            edited[pos] = (ws[pos] + rng.integers(1, nv, k)) % nv
            ids.append((c + 1) * n_base + i)
            texts.append(" ".join(vocab[w] for w in edited))
    return (
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}),
        n_base,
    )
