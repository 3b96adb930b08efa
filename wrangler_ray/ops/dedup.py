"""Deduplication: exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine.

Every shuffle is one task exchange (``wrangler_ray.tasks``): a map task per
input block splits its rows by partition, a reduce task per partition does
the grouping; the partition count is ``num_parts`` of the row count, so it
follows the data, never the CPU count.
- exact: the map task keeps the min-id row per distinct key within its
  block and splits on the 64-bit content hash, the reduce task keeps the
  min-id row per key. Shuffle volume = full data once, on a uniform hash →
  no skew. The same exchange is every near-dup variant's ``pre_exact``
  pass (embedding's hashes the vector bytes in its map task).
- MinHash, SimHash, embedding: a sign task per (exact-deduped) block emits
  its LSH bucket rows (a FRACTION of the input bytes) split by bucket
  partition; an edge task per partition emits the verified or candidate
  edges of its buckets.
- every variant then shares one tail, at every input size: the edges
  stay in the object store, and MinHash's two verify tiers (the signature
  estimate, then true shingle-set Jaccard within ±EXACT_MARGIN of the
  threshold), the connected components (``wrangler_ray.ops.cc``) and the
  survivor filter all run as task rounds on the same exchange, in the
  partitions of the rows. No edge set reaches the driver, and the
  survivors keep the rows' Arrow schema.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pandas as pd
import pyarrow as pa

from wrangler_ray.core.schema import concat_reconciled
from wrangler_ray.ops.cc import adjacency, components, drop_non_representatives, split_rows
from wrangler_ray.tasks import (
    _exchange,
    _from_blocks,
    _run_tasks,
    block_meta,
    blocks_schema,
    block_refs,
    live_refs,
    num_parts,
    part_refs,
    reduce_parts,
    split,
    split_on,
    to_arrow,
)

def _content_hash(texts: np.ndarray) -> np.ndarray:
    """Stable 64-bit content hash per value (vectorized via pandas siphash)."""
    return pd.util.hash_array(texts.astype(object), categorize=False).astype(np.uint64)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def _min_id_rows(t: pa.Table, keys: list[str], id_col: str) -> np.ndarray:
    """Sorted row positions to keep: the min-id row per distinct ``keys``
    value (compared by VALUE; ``dropna=False`` keeps one representative for
    null keys, which pandas' groupby would otherwise drop), plus every
    null-id row: a null id cannot be ranked, so it is never dropped. Only
    the key and id columns go through pandas, without schema metadata, so
    the index is positional; callers subset with ``take`` and keep the
    block's Arrow types (large_string, dictionaries, timezones, fixed-size
    lists) intact."""
    df = t.select([*keys, id_col]).replace_schema_metadata(None).to_pandas()
    keep = df.groupby(keys, sort=False, dropna=False)[id_col].idxmin().dropna()
    nulls = np.flatnonzero(df[id_col].isna().to_numpy())
    return np.union1d(keep.to_numpy(np.int64), nulls)


def _text_key(text_col: str, t: pa.Table) -> tuple:
    return t, _content_hash(t.column(text_col).to_numpy(zero_copy_only=False))


def _vec_key(vec_col: str, t: pa.Table) -> tuple:
    """``t`` with two independent 64-bit digests of each vector's raw
    bytes appended (_vh1, _vh2), and _vh1 as the key hash. Fully
    vectorized: one hash pass over the flattened element view, then an
    unweighted and a position-weighted fold. Distinct vectors collide on
    BOTH with probability ~2^-128, so the pair is treated as identity."""
    from wrangler_ray.ops.similarity import vecs_np

    raw = vecs_np(t.column(vec_col))
    n, d = raw.shape
    eh = (
        pd.util.hash_array(raw.view(np.uint32).ravel(), categorize=False)
        .astype(np.uint64)
        .reshape(n, d)
    )
    w = (np.arange(d, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    with np.errstate(over="ignore"):
        h1 = eh.sum(axis=1, dtype=np.uint64)
        h2 = (eh * w[None, :]).sum(axis=1, dtype=np.uint64)
    t = t.append_column("_vh1", pa.array(h1.astype(np.int64)))
    return t.append_column("_vh2", pa.array(h2.astype(np.int64))), h1


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Keep exactly one row (min id) per distinct text value. Eager: runs
    the exchange and returns a materialized Dataset.

    hash-partition + per-group first — SURVEY §2.9. The rows shuffle once,
    on the 64-bit content hash modulo the partition count (uniform →
    skew-free), as plain Ray tasks (see _min_id_blocks). Texts are compared
    by VALUE within a partition, so a hash collision never drops a row;
    null texts form one group, and null-id rows are always kept."""
    return _from_blocks(_min_id_blocks(ds, [text_col], id_col,
                                       functools.partial(_text_key, text_col)))


def _min_id_blocks(ds, keys: list[str], id_col: str, keyed,
                   drop: tuple = ()) -> list:
    """``(ref, block_meta)`` blocks holding the min-id row per distinct ``keys``
    value of ``ds`` (see _min_id_rows), through one task exchange on the
    key hash: ``keyed(t)`` returns ``(t, hash)``, the block with any
    computed key columns appended and a uint64 hash of its keys (equal
    keys must hash equal). A map task per block of ``ds``, a reduce task
    per partition with a vectorized groupby inside, instead of one Python
    call per distinct value. ``drop`` names key columns to remove after.
    An empty ``ds`` comes back as one empty block of its schema."""
    import ray

    blocks, schema = blocks_schema(ds)
    rows = sum(n for _, n in blocks)
    if not rows:
        empty = schema.empty_table()
        return [(ray.put(empty), block_meta(empty))]
    parts = num_parts(rows)
    return _exchange(blocks, functools.partial(_min_id_map, keys, id_col, keyed, parts),
                     functools.partial(_min_id_reduce, keys, id_col, drop), parts)


def _min_id_map(keys: list[str], id_col: str, keyed, parts: int, block) -> tuple:
    # WITHIN-BLOCK COMBINER before the exchange: keep the min-id row per
    # distinct key inside this block (min is associative, keys compared by
    # VALUE — collision-safe like the reduce), so the exchange ships only
    # each block's distinct keys. On a crawl-like corpus the exchange
    # volume drops by the block's internal dup fraction for free; on an
    # all-unique block this is one vectorized groupby pass. Metadata
    # stripped: parquet files written by pandas carry a dict that makes
    # the schema unhashable.
    t, h = keyed(to_arrow(block).replace_schema_metadata(None))
    keep = _min_id_rows(t, keys, id_col)
    if len(keep) < t.num_rows:
        t, h = t.take(pa.array(keep)), h[keep]
    return split(t, (h % np.uint64(parts)).astype(np.int64), parts)


def _min_id_reduce(keys: list[str], id_col: str, drop: tuple, *tables) -> tuple:
    # within one partition: min id per distinct key (collision-safe)
    t = concat_reconciled(list(tables))
    t = t.take(pa.array(_min_id_rows(t, keys, id_col))).drop_columns(list(drop))
    return block_meta(t), t


def _signed_blocks(ds, pre_exact: bool, keys: list[str], id_col: str, keyed,
                   drop: tuple = ()) -> list:
    """``(ref, rows)`` blocks of the rows a near-dup pass signs: those of
    ``ds``, or with ``pre_exact`` its min-id row per distinct ``keys``
    value (``_min_id_blocks``)."""
    if not pre_exact:
        return block_refs(ds)
    return [(ref, meta.num_rows) for ref, meta in _min_id_blocks(ds, keys, id_col, keyed, drop)]


# ---------------------------------------------------------------------------
# shingling + minhash
# ---------------------------------------------------------------------------

_FNV = np.uint64(1099511628211)


def _mix64(h: np.ndarray) -> np.ndarray:
    """Murmur3-style finalizer (bit spread), vectorized, wraps mod 2^64."""
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Character-k-shingle 64-bit hashes, fully vectorized: sliding windows
    over the utf-8 bytes dotted with FNV-prime powers (mod 2^64), then a
    murmur finalizer. Deterministic across processes."""
    if text is None:
        return np.empty(0, np.uint64)
    s = " ".join(text.split()).lower()
    if len(s) < k:
        s = s.ljust(k)
    codes = np.frombuffer(s.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    if len(codes) < k:
        codes = np.pad(codes, (0, k - len(codes)), constant_values=32)
    powers = np.empty(k, np.uint64)
    powers[0] = 1
    n_win = len(codes) - k + 1
    h = np.zeros(n_win, np.uint64)
    with np.errstate(over="ignore"):
        for i in range(1, k):
            powers[i] = powers[i - 1] * _FNV  # wraps mod 2^64
        # shifted-add form: k 1-D passes, no (n_win × k) temp
        for j in range(k):
            h += codes[j : j + n_win] * powers[j]
    return _mix64(h)


def _shingle_chunks(texts: list, k: int):
    """The k-shingle hashes of ``texts`` in one flattened pass per chunk,
    equal to ``_shingle_hashes`` per text: yields per chunk ``(positions,
    sh, bounds)``, the chunk's texts' positions in ``texts``, their hashes
    concatenated, and the text at ``positions[d]``'s hashes
    ``sh[bounds[d]:bounds[d + 1]]``. Null texts have none and are skipped.

    The string prep stays per text (it must match str.split()'s unicode
    whitespace semantics exactly); the hashing is batched per chunk of at
    most CHUNK bytes (a longer text alone), so a chunk's hashes (~CHUNK × 8
    B) stay L2-resident through a signer's 64 permutation passes: one
    global pass is memory-bandwidth bound (measured 2-4× slower), one text
    per pass is interpreter-bound."""
    codes, pos = [], []
    for i, x in enumerate(texts):
        if x is None:
            continue
        s = " ".join(x.split()).lower()
        if len(s) < k:
            s = s.ljust(k)
        c = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
        if len(c) < k:
            c = np.pad(c, (0, k - len(c)), constant_values=32)
        codes.append(c)
        pos.append(i)
    powers = np.empty(k, np.uint64)
    powers[0] = 1
    with np.errstate(over="ignore"):
        for j in range(1, k):
            powers[j] = powers[j - 1] * _FNV  # wraps mod 2^64
    CHUNK = 1 << 16
    lens_all = np.array([len(c) for c in codes], np.int64)
    lo = 0
    while lo < len(codes):
        hi = lo + 1
        tot = lens_all[lo]
        while hi < len(codes) and tot + lens_all[hi] <= CHUNK:
            tot += lens_all[hi]
            hi += 1
        lens = lens_all[lo:hi]
        C = np.concatenate(codes[lo:hi]).astype(np.uint64)
        nw_all = len(C) - k + 1
        with np.errstate(over="ignore"):
            H = np.zeros(nw_all, np.uint64)
            for j in range(k):
                H += C[j : j + nw_all] * powers[j]
        H = _mix64(H)
        w = lens - k + 1  # windows per text (padding guarantees >= 1)
        offsets = np.concatenate(([0], np.cumsum(lens)))[:-1]
        bounds = np.concatenate(([0], np.cumsum(w)))
        # window j of text i sits at offsets[i] + (j - bounds[i]) in H:
        # windows crossing text boundaries are skipped by construction
        idx = np.arange(bounds[-1]) + np.repeat(offsets - bounds[:-1], w)
        yield np.asarray(pos[lo:hi]), H[idx], bounds
        lo = hi


def _sign_texts(
    texts: list, a: np.ndarray, b: np.ndarray, shingle_k: int, num_perm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch MinHash signing: the flattened shingle-hash pass of
    ``_shingle_chunks`` plus per-permutation ``np.minimum.reduceat``
    segment mins — the per-doc Python/numpy-call overhead of looping
    ``signature()`` removed from the hottest dedup stage (VERDICT r4 #3).
    Byte-identical to the per-doc path (pinned by tests/test_advice_r5.py):
    reduceat's per-segment min equals the per-doc min.

    Returns ``(sigs, digs)``: ``sigs[i]`` is UINT64_MAX for null texts
    (no shingles), ``digs[i]`` the re-mixed XOR of the doc's DISTINCT
    shingle hashes (0 for null texts)."""
    n = len(texts)
    sigs = np.full((n, num_perm), np.iinfo(np.uint64).max, np.uint64)
    digs = np.zeros(n, np.uint64)
    for pos, sh, bounds in _shingle_chunks(texts, shingle_k):
        # SET digest per doc: XOR of DISTINCT shingle hashes, re-mixed
        # (np.unique per small slice beats a segmented lexsort by ~10×)
        digs[pos] = _mix64(np.array([np.bitwise_xor.reduce(np.unique(sh[lo:hi]))
                                     for lo, hi in zip(bounds[:-1], bounds[1:])], np.uint64))
        out = np.empty((len(pos), num_perm), np.uint64)
        with np.errstate(over="ignore"):
            # one 1-D pass per permutation: 2-D reduceat(axis=1) is ~15×
            # slower in numpy (segment dispatch on the non-contiguous axis)
            for p in range(num_perm):
                out[:, p] = np.minimum.reduceat(sh * a[p] + b[p], bounds[:-1])
        sigs[pos] = out
    return sigs, digs


class MinHasher:
    """num_perm hash "permutations" h_i(x) = (a_i*x + b_i) wrapping mod 2^64
    with odd a_i. Dropping the mod-Mersenne-prime reduction makes signing
    ~1.8× faster (measured); the min over shingles is decided by the HIGH
    bits of a_i*x, which are well mixed for odd multipliers over the already
    murmur-finalized shingle hashes. Stateful (parameter matrix built once)
    → used as an actor-pool stage."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 5, seed: int = 1):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 1 << 62, size=num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.randint(0, 1 << 62, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.shingle_k)
        if len(sh) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, np.uint64)
        # (num_perm, n_shingles) via broadcasting, min over shingles
        with np.errstate(over="ignore"):
            prod = sh[None, :] * self.a[:, None] + self.b[:, None]
        return prod.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist() if "text" in batch.column_names else []
        sigs, _ = _sign_texts(texts, self.a, self.b, self.shingle_k, self.num_perm)
        return batch.append_column(
            "_minhash", pa.array(list(sigs.astype(np.int64)), pa.list_(pa.int64()))
        )


def _group_all_pairs(df: pd.DataFrame, key_cols: list, id_col: str,
                     cap: int = 256) -> tuple:
    """All candidate pairs (a<b) within each key group, vectorized by group
    SIZE class (one triu expansion per distinct size — no per-row loop).
    Returns ``(a, b, fb)`` where ``fb=1`` marks fallback STAR edges from
    groups larger than ``cap``: those groups fall back to star+chain edges
    (2g-3 instead of g²/2), which silently disconnects true pairs whenever a
    star/chain edge fails downstream verification — so callers whose
    verification is remote use the fb flag to RE-PAIR failed star members
    (one repair round), and every activation is counted in
    ``FALLBACK_METRICS`` and logged so recall loss is observable."""
    if not len(df):
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.int8)
    df = df.sort_values(key_cols + [id_col], kind="mergesort")
    gid = df.groupby(key_cols, sort=False).ngroup().to_numpy()
    ids = df[id_col].to_numpy()
    counts = np.bincount(gid)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    out_a, out_b, out_fb = [], [], []
    sizes = np.unique(counts)
    for s in sizes[(sizes >= 2) & (sizes <= cap)]:
        gsel = np.nonzero(counts == s)[0]
        idx = offsets[gsel][:, None] + np.arange(s)[None, :]
        m = ids[idx]  # (n_groups, s), ids ascending within each row
        iu, ju = np.triu_indices(s, k=1)
        out_a.append(m[:, iu].ravel())
        out_b.append(m[:, ju].ravel())
        out_fb.append(np.zeros(len(gsel) * len(iu), np.int8))
    oversized = np.nonzero(counts > cap)[0]
    if len(oversized):
        import logging

        FALLBACK_METRICS["oversized_groups"] += len(oversized)
        FALLBACK_METRICS["max_group_size"] = max(
            FALLBACK_METRICS["max_group_size"], int(counts[oversized].max())
        )
        logging.getLogger(__name__).warning(
            "dedup pairing: %d group(s) exceed the all-pairs cap (%d); "
            "largest=%d — star+chain fallback engaged (repair round will "
            "re-pair members whose star edge fails verification)",
            len(oversized), cap, int(counts[oversized].max()),
        )
    for gi in oversized:
        members = ids[offsets[gi] : offsets[gi + 1]]
        # star edges (hub = min id) carry fb=1 so failed ones can be re-paired
        out_a.append(np.full(len(members) - 1, members[0]))
        out_b.append(members[1:])
        out_fb.append(np.ones(len(members) - 1, np.int8))
        # chain edges are ordinary candidates (fb=0)
        out_a.append(members[1:-1])
        out_b.append(members[2:])
        out_fb.append(np.zeros(max(len(members) - 2, 0), np.int8))
    if not out_a:
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.int8)
    return np.concatenate(out_a), np.concatenate(out_b), np.concatenate(out_fb)


# per-process observability counters for the oversized-group fallback (worker
# logs surface activations; tests read them directly)
FALLBACK_METRICS = {"oversized_groups": 0, "max_group_size": 0}

# coarse bucket count of a band row's ``_bkt``, shared by the in-flight
# banding and the persisted-index read path (both must derive the SAME _bkt
# from a band row); the band exchange partitions on ``_bkt % parts``
NUM_COARSE_BUCKETS = 64

# MinHash verification: an edge whose signature estimate lies within
# ±EXACT_MARGIN of the threshold is re-checked with true shingle-set Jaccard
EXACT_MARGIN = 0.12

# an increment's distinct band keys are pushed into the index read as an
# exact filter up to this many; past it only partition pruning applies
MAX_BROADCAST_KEYS = 4_000_000


def _coarse_bucket(keys_i64: np.ndarray, bands_i32: np.ndarray) -> np.ndarray:
    """The coarse shuffle bucket of a band row, derived from its (key, band)
    — identical for rows banded in-flight and rows read back from a
    persisted band-partitioned index."""
    return (
        (keys_i64.astype(np.uint64) ^ (bands_i32.astype(np.uint64) << np.uint64(56)))
        % np.uint64(NUM_COARSE_BUCKETS)
    ).astype(np.int32)


def _band_rows(t: pa.Table, num_perm: int, bands: int, id_col: str) -> pa.Table:
    """LSH band rows (_bkt, band, key, id, dig) of signed rows (id, sig, dig):
    one row per (doc, band). The same kernel bands an increment in flight
    and a v1 index's stored signatures, so both land in the same buckets."""
    n = t.num_rows
    if n == 0:
        return pa.table(
            {"_bkt": pa.array([], pa.int32()), "band": pa.array([], pa.int32()),
             "key": pa.array([], pa.int64()),
             id_col: pa.array([], t.column(id_col).type),
             "dig": pa.array([], pa.int64())}
        )
    rows_per_band = num_perm // bands
    sigs = (
        t.column("sig").combine_chunks().flatten().to_numpy(zero_copy_only=False)
        .astype(np.uint64).reshape(n, num_perm)
    )
    ids = t.column(id_col)
    # shingle-SET digest (computed by the signer): members of a bucket with
    # the same digest have true Jaccard 1.0; bucket_edges emits star edges
    # within a digest group and all-pairs only ACROSS digests
    digs = t.column("dig")
    # band keys fully vectorized: fold the band's minhash components with
    # a murmur-mixed multiply-accumulate (no per-row hashlib calls —
    # bands × n blake2b invocations dominated this stage)
    K = np.uint64(0x9E3779B97F4A7C15)
    out_band = np.repeat(np.arange(bands, dtype=np.int32), n)
    keys = np.empty(bands * n, np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            chunk = sigs[:, b * rows_per_band : (b + 1) * rows_per_band]
            acc = np.full(n, np.uint64(b + 1), np.uint64)
            for c in range(chunk.shape[1]):
                acc = _mix64(acc * K ^ chunk[:, c])
            keys[b * n : (b + 1) * n] = acc >> np.uint64(1)
    bkt = _coarse_bucket(keys.astype(np.int64), out_band)
    idx = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
    return pa.table(
        {
            "_bkt": pa.array(bkt),
            "band": pa.array(out_band),
            "key": pa.array(keys.astype(np.int64), pa.int64()),
            id_col: ids.take(idx),
            "dig": digs.take(idx),
        }
    )


def _collect_band_keys(band_refs: list, parts: int, max_keys: int):
    """Driver-side collection of the increment's distinct band keys from
    its band-row tables ``band_refs`` (fetched one at a time): returns
    ``(pbs, keys)`` where ``pbs`` is the distinct persisted-partition set
    (``key % parts`` — at most ``parts`` values, always tiny) and ``keys``
    is the exact distinct-key array for filter pushdown, or None when it
    exceeds ``max_keys`` (partition-level pruning only)."""
    import ray

    chunks: list = []
    pbs = np.empty(0, np.int64)
    too_many = False
    for ref in band_refs:
        k = np.unique(ray.get(ref).column("key").to_numpy(zero_copy_only=False))
        pbs = np.union1d(pbs, k % parts)
        if not too_many:
            chunks.append(k)
            if sum(len(c) for c in chunks) > max_keys:
                too_many = True
                chunks = []
    keys = None if too_many else (
        np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
    )
    return pbs.astype(np.int64), keys


def _repair_pairs(hubs: np.ndarray, members: np.ndarray, cap: int = 256) -> tuple:
    """One repair round for fallback stars where ≥1 edge failed verification:
    for each hub, all-pairs among its star members in chunks of ``cap``
    (bounded edges), plus all-pairs among the chunk leads so chunks stay
    connected through their leads. Callers pass ALL star members of each
    affected hub (passed AND failed) — a failed member's true duplicate may
    be a member whose own star edge passed (J(hub,m1)≥t, J(hub,m2)<t,
    J(m1,m2)≥t), so pairing only the failed members misses it. The hub
    itself is NOT re-paired: its edges to every member were already verified,
    so re-pairing it adds zero recall while pushing members across chunk
    boundaries. Returns (a, b) candidate arrays."""
    out_a, out_b = [], []
    df = pd.DataFrame({"h": hubs, "m": members})
    for _h, grp in df.groupby("h", sort=False):
        F = np.unique(grp["m"].to_numpy())
        if len(F) < 2:
            continue
        leads = []
        for start in range(0, len(F), cap):
            chunk = F[start : start + cap]
            leads.append(chunk[0])
            if len(chunk) >= 2:
                iu, ju = np.triu_indices(len(chunk), k=1)
                out_a.append(chunk[iu])
                out_b.append(chunk[ju])
        if len(leads) >= 2:
            la = np.asarray(leads[:cap])
            iu, ju = np.triu_indices(len(la), k=1)
            out_a.append(la[iu])
            out_b.append(la[ju])
    if not out_a:
        z = np.empty(0, np.int64)
        return z, z
    return np.concatenate(out_a).astype(np.int64), np.concatenate(out_b).astype(np.int64)


def _repair_candidates(a_ids: np.ndarray, b_ids: np.ndarray,
                       fb_mask: np.ndarray, accepted: np.ndarray,
                       cap: int = 256) -> tuple:
    """Repair-pair generation shared by the minhash/simhash verification
    tails: for every hub whose fallback star lost ≥1 edge, re-pair ALL its
    star members — the passed ones included, because a failed member's true
    duplicate may be a member whose own star edge passed. Returns (a, b)
    candidate arrays (empty when no fb edge failed)."""
    fb_fail = fb_mask & ~accepted
    if not fb_fail.any():
        z = np.empty(0, np.int64)
        return z, z
    bad_hubs = np.unique(a_ids[fb_fail])
    sel = fb_mask & np.isin(a_ids, bad_hubs)
    return _repair_pairs(a_ids[sel], b_ids[sel], cap=cap)


def _distinct_pairs(t: pa.Table) -> pa.Table:
    """The distinct (a, b) pairs of an edge table (a, b, ch, fb): the same
    pair comes from up to ``bands`` LSH buckets, and a flag set on any copy
    stays set, a chain edge's (ch=1: guaranteed duplicate, skips
    verification) or a fallback star edge's (fb=1: re-paired if
    verification fails)."""
    g = t.group_by(["a", "b"]).aggregate([("ch", "max"), ("fb", "max")])
    return pa.table({"a": g.column("a"), "b": g.column("b"),
                     "ch": g.column("ch_max"), "fb": g.column("fb_max")})


def _verified_bucket_pairs(df: pd.DataFrame, key_cols: list, id_col: str,
                           cap: int, keep) -> pa.Table:
    """Locally verified candidate edges of one coarse bucket: all pairs per
    key group (``_group_all_pairs``; star+chain past ``cap``), the
    ``keep(a, b)`` accept mask, then one repair round — members whose
    fallback star edge failed ``keep`` are re-paired all-vs-all
    (chunk-bounded) and verified immediately. Returns an (a, b) int64
    table."""
    a, b, fb = _group_all_pairs(df, key_cols, id_col, cap=cap)
    ok = keep(a, b)
    rep_a, rep_b = _repair_candidates(a, b, fb.astype(bool), ok, cap=cap)
    a, b = a[ok], b[ok]
    if len(rep_a):
        rep_ok = keep(rep_a, rep_b)
        a = np.concatenate([a, rep_a[rep_ok]])
        b = np.concatenate([b, rep_b[rep_ok]])
    return pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})


def _sign_band(text_col: str, id_col: str, hasher: MinHasher, bands: int,
               parts: int, block) -> tuple:
    """Sign-and-band map task of ``minhash_lsh_dedup``: the rows of one
    block, its signed rows (id, sig, dig) and its LSH band rows, each split
    into ``parts`` partitions, the rows and signed rows on ``id % parts``
    and the band rows on ``_bkt % parts``: ``((rows per partition, band
    rows per partition, signed parts' block_metas, band parts'
    block_metas), row part 0, …, signed part 0, …, band part 0, …)``. The
    metadata lets the artifact Datasets be built with no task of their
    own."""
    t = to_arrow(block)
    # batched signer (one flattened pass; see _sign_texts). The SET digest
    # (XOR of distinct shingle hashes, re-mixed) satisfies: identical
    # digest ⇔ identical shingle SET (up to a 2^-64 collision) ⇒ true
    # Jaccard 1.0 — the property the digest reduction in _digest_pairs
    # relies on for BOTH verification tiers
    sigs, digs = _sign_texts(t.column(text_col).to_pylist(), hasher.a, hasher.b,
                             hasher.shingle_k, hasher.num_perm)
    signed = pa.table(
        {
            id_col: t.column(id_col),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.astype(np.int64).ravel(), pa.int64()), hasher.num_perm
            ),
            "dig": pa.array(digs.astype(np.int64), pa.int64()),
        }
    )
    part = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64) % parts
    counts, *rows = split(t, part, parts)
    _, *sig_parts = split(signed, part, parts)
    # all rows of one (band, key) LSH bucket meet in one edge task
    band_counts, *band_parts = split_on(
        "_bkt", parts, _band_rows(signed, hasher.num_perm, bands, id_col))
    return ((counts, band_counts, [block_meta(b) for b in sig_parts],
             [block_meta(b) for b in band_parts]), *rows, *sig_parts, *band_parts)


def _digest_pairs(df: pd.DataFrame, id_col: str, pair_cap: int) -> tuple:
    """Candidate pairs of band rows with shingle-set-digest reduction.
    Within a (band,key) LSH bucket:
    - identical-digest members (identical shingle SETS → true Jaccard
      1.0 → identical signatures too) chain: consecutive ids, g-1 edges
      instead of g²/2 — chain edges pass BOTH verification tiers by
      construction;
    - DISTINCT digests pair all-vs-all via their min-id representatives
      (set-identical members are interchangeable for any partner, so one
      representative decides for the group)."""
    df = df.sort_values(["band", "key", "dig", id_col], kind="mergesort")
    ids = df[id_col].to_numpy()
    band = df["band"].to_numpy()
    key = df["key"].to_numpy()
    dig = df["dig"].to_numpy()
    same_bucket = np.zeros(len(df), bool)
    same_bucket[1:] = (band[1:] == band[:-1]) & (key[1:] == key[:-1])
    same_dig = same_bucket.copy()
    same_dig[1:] &= dig[1:] == dig[:-1]
    # STAR edges inside each digest group (hub = the group's first/min
    # id): g-1 edges like a chain, but graph diameter stays 2 so the
    # distributed min-label propagation converges in ~3 shuffle rounds
    # (a chain of g duplicates needs g rounds). A star hub is safe HERE
    # because same-digest edges are duplicates by construction and skip
    # verification — the hub can never be rejected.
    group_first = np.cumsum(~same_dig) - 1  # index into the firsts array
    firsts = ids[~same_dig]
    member_rows = same_dig
    star_a = firsts[group_first[member_rows]]
    star_b = ids[member_rows]
    # representatives: first row of each (band,key,dig) group
    reps = df[~same_dig]
    rep_a, rep_b, rep_fb = _group_all_pairs(reps, ["band", "key"], id_col,
                                            cap=pair_cap)
    # ch=1 marks same-digest edges: identical shingle sets ⇒ true
    # Jaccard 1.0 ⇒ accepted at any threshold WITHOUT verification;
    # fb=1 marks fallback star edges from oversized rep groups — if one
    # fails verification its members are RE-PAIRED in a repair round
    ch = np.concatenate(
        [np.ones(len(star_a), np.int8), np.zeros(len(rep_a), np.int8)]
    )
    fb = np.concatenate([np.zeros(len(star_a), np.int8), rep_fb])
    return (np.concatenate([star_a, rep_a]),
            np.concatenate([star_b, rep_b]), ch, fb)


def _band_edges(id_col: str, pair_cap: int, watermark, parts: int, *tables) -> tuple:
    """Edge task of ``minhash_lsh_dedup``: the candidate edges (a, b, ch,
    fb) of one band partition, which holds MANY (band,key) LSH buckets
    → vectorized pandas/numpy inside, split on ``a % parts``: ``((edges per
    partition, historical endpoints), part 0, …)``. ALL pairs within an LSH
    bucket are candidates (star-edges to the group min would silently drop
    real pairs whenever the min is a false-positive collision that fails
    downstream verification), with the signature-digest reduction
    collapsing identical-signature members to chains + one
    representative. With a ``watermark`` (an index's max id), pairs whose
    both endpoints are historical are dropped: they were resolved when
    those docs were indexed; the historical endpoints are the distinct
    ``a ≤ watermark``."""
    a, b, ch, fb = _digest_pairs(concat_reconciled(list(tables)).to_pandas(), id_col, pair_cap)
    if watermark is not None:
        # a<b on every emitted pair, so b ≤ watermark ⇔ both are historical
        new = b > watermark
        a, b, ch, fb = a[new], b[new], ch[new], fb[new]
    t = _distinct_pairs(pa.table({"a": a.astype(np.int64), "b": b.astype(np.int64),
                                  "ch": ch, "fb": fb}))
    a = t.column("a").to_numpy()
    counts, *edges = split(t, a % parts, parts)
    return ((counts, _historical(a, watermark)), *edges)


def _historical(ids: np.ndarray, watermark) -> np.ndarray:
    """The distinct ``ids`` at or below an index's ``watermark`` (none
    without one)."""
    return np.unique(ids[ids <= watermark]) if watermark is not None else ids[:0]


def _shingles(text_col: str, shingle_k: int, t: pa.Table) -> pa.Array:
    """The distinct shingle hashes of each row of ``t``, sorted, as bytes:
    the exact tier's value of a document, shingled in one batched pass
    (``_shingle_chunks``) in a task. Distinct, because ``_true_jaccard_ok``
    counts them as a set: a text that repeats a k-gram repeats its hash."""
    texts = t.column(text_col).to_pylist()
    out = [b""] * len(texts)
    for pos, sh, bounds in _shingle_chunks(texts, shingle_k):
        for i, lo, hi in zip(pos, bounds[:-1], bounds[1:]):
            out[i] = np.unique(sh[lo:hi]).astype(np.int64).tobytes()
    return pa.array(out, pa.binary())


def _true_jaccard_ok(threshold: float, sa, sb) -> np.ndarray:
    """Accept mask of the edges whose endpoints have the sorted distinct
    shingle arrays ``sa[i]`` and ``sb[i]`` (bytes, see ``_shingles``), by
    TRUE shingle-set Jaccard."""
    oks = np.zeros(len(sa), bool)
    for j, (x, y) in enumerate(zip(sa.to_pylist(), sb.to_pylist())):
        s_a, s_b = np.frombuffer(x, np.int64), np.frombuffer(y, np.int64)
        inter = len(np.intersect1d(s_a, s_b, assume_unique=True))
        union = len(s_a) + len(s_b) - inter
        oks[j] = ((inter / union) if union else 1.0) >= threshold
    return oks


def _sig_matrix(col, num_perm: int) -> np.ndarray:
    """The (rows × num_perm) matrix of a signature list column."""
    return (col.combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .reshape(-1, num_perm))


def _values_at(id_col: str, values, side: pa.Table, ids: np.ndarray):
    """``values(rows)`` of the ``side`` row of each id in ``ids``, computed
    once per distinct id."""
    have = side.column(id_col).to_numpy(zero_copy_only=False)
    need, inv = np.unique(ids, return_inverse=True)
    order = np.argsort(have)
    rows = order[np.searchsorted(have[order], need)]
    return values(side.take(pa.array(rows))).take(pa.array(inv))


def _sides(counts: tuple, tables: tuple) -> list:
    """A verify task's inputs: one table per side, its ``counts[i]`` parts
    concatenated, then the edge table of the parts after them."""
    out, i = [], 0
    for n in (*counts, len(tables) - sum(counts)):
        out.append(concat_reconciled(list(tables[i:i + n])))
        i += n
    return out


def _attach_sig(id_col: str, parts: int, n_sig: int, *tables) -> tuple:
    """Estimate tier, first round, partition ``a % parts``: the signature
    parts (id, sig, dig) ``tables[:n_sig]``, then the candidate edge parts
    (a, b, ch, fb). Returns the distinct edges (``_distinct_pairs``) with
    their ``a`` endpoint's signature appended (sig_a), split on ``b %
    parts``."""
    sig, edges = _sides((n_sig,), tables)
    t = _distinct_pairs(edges)
    t = t.append_column("sig_a", _values_at(id_col, operator.methodcaller("column", "sig"),
                                            sig, t.column("a").to_numpy()))
    return split(t, t.column("b").to_numpy() % parts, parts)


def _decided(edges: pa.Table, ok: np.ndarray, decided: np.ndarray, parts: int) -> tuple:
    """A verify round's verdicts on its ``edges``: the decided fallback
    star edges (a, b, ok), then the ``adjacency`` of the accepted edges
    (rows per partition, part 0, …)."""
    fb = edges.column("fb").to_numpy().astype(bool) & decided
    return (edges.filter(pa.array(fb)).select(["a", "b"]).append_column("ok", pa.array(ok[fb])),
            *adjacency(parts, edges.filter(pa.array(ok))))


def _estimate_verdicts(id_col: str, shingles, num_perm: int, threshold: float, watermark,
                       parts: int, n_sig: int, n_rows: int, *tables) -> tuple:
    """Estimate tier, second round, partition ``b % parts``: the signature
    parts, the row parts, then the edge parts (a, b, ch, fb, sig_a). An
    edge is accepted when it is a chain edge (same shingle set ⇒ true
    Jaccard 1.0) or its MinHash estimate (the share of equal signature
    components, unbiased) reaches ``threshold + EXACT_MARGIN``. It is
    unsure when not accepted and the estimate reaches ``threshold -
    EXACT_MARGIN``: it takes its ``b`` endpoint's ``shingles`` (sh_b) and
    goes on to the exact tier. Returns ``((adjacency rows per partition,
    fallback rows, unsure rows per partition, historical unsure
    endpoints), decided fallback star edges (a, b, ok), the accepted
    edges' adjacency parts, unsure part 0, …)``, the unsure edges (a, b,
    fb, sh_b) split on ``a % parts``."""
    sig, rows, edges = _sides((n_sig, n_rows), tables)
    ma = _sig_matrix(edges.column("sig_a"), num_perm)
    mb = _sig_matrix(_values_at(id_col, operator.methodcaller("column", "sig"), sig,
                                edges.column("b").to_numpy()), num_perm)
    # chunked, so the comparison temporaries stay bounded
    est, step = np.empty(len(ma)), 1 << 17
    for s in range(0, len(ma), step):
        est[s:s + step] = (ma[s:s + step] == mb[s:s + step]).mean(axis=1)
    ok = (est >= threshold + EXACT_MARGIN) | edges.column("ch").to_numpy().astype(bool)
    unsure = ~ok & (est >= threshold - EXACT_MARGIN)
    later = edges.filter(pa.array(unsure)).select(["a", "b", "fb"])
    later = later.append_column("sh_b", _values_at(id_col, shingles, rows,
                                                   later.column("b").to_numpy()))
    a = later.column("a").to_numpy()
    counts, *rest = split(later, a % parts, parts)
    fbs, adj, *adj_parts = _decided(edges, ok, ~unsure, parts)
    return ((adj, fbs.num_rows, counts, _historical(a, watermark)), fbs, *adj_parts, *rest)


def _exact_verdicts(id_col: str, shingles, threshold: float, parts: int, n_rows: int,
                    *tables) -> tuple:
    """Exact tier, partition ``a % parts``: the row parts (this call's
    rows, then the index's texts of historical endpoints), then the unsure
    edge parts (a, b, fb, sh_b). An edge is accepted when the TRUE
    shingle-set Jaccard of its endpoints reaches ``threshold``. Returns
    ``((adjacency rows per partition, fallback rows), fallback star edges
    (a, b, ok), the accepted edges' adjacency parts)``."""
    rows, edges = _sides((n_rows,), tables)
    ok = _true_jaccard_ok(threshold, _values_at(id_col, shingles, rows,
                                                edges.column("a").to_numpy()),
                          edges.column("sh_b"))
    fbs, adj, *adj_parts = _decided(edges, ok, np.ones(len(ok), bool), parts)
    return ((adj, fbs.num_rows), fbs, *adj_parts)


def _beside(parts: int, maps: list, *sides) -> list:
    """The task arguments of a verify round: per partition that holds
    edges in the map outputs ``maps``, the part count of each side (map
    outputs split on ``id % parts``), those parts, then its edge parts."""
    args = []
    for p in range(parts):
        if edge := part_refs(maps, p):
            side = [part_refs(s, p) for s in sides]
            args.append((*map(len, side), *(r for refs in side for r in refs), *edge))
    return args


def _split_read(ds, col: str, parts: int) -> list:
    """The ``split_on(col, parts)`` map outputs of the blocks of an index
    read ``ds`` that hold rows."""
    return split_rows([(ref, n) for ref, n in block_refs(ds) if n], col, parts)


def minhash_lsh_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.8,
    shingle_k: int = 5,
    pair_cap: int = 256,
    pre_exact: bool = True,
    indexed=None,
    return_artifacts: bool = False,
):
    """MinHash+LSH near-dup removal: shingle→minhash→band→bucket exchange→
    candidate pairs→verify Jaccard→connected components→keep min-id per
    cluster. Eager: returns the deduplicated rows as a materialized
    Dataset, grouped by id partition.

    The work runs as plain Ray tasks over object refs (``wrangler_ray.
    tasks``), in ``num_parts`` of the row count partitions: a sign-and-band
    task per block splits its rows and signatures on ``id % parts`` and its
    band rows on ``_bkt % parts``; an edge task per band partition emits
    the candidate edges split on ``a % parts``; the verify tiers, the
    connected components (``wrangler_ray.ops.cc``) and the survivor filter
    run as task rounds on the same exchange. No edge set reaches the
    driver, whatever the input size.

    ``pre_exact`` first collapses byte-identical texts with the
    ``exact_dedup`` exchange (keep min id per distinct text). This is
    semantics-preserving — identical texts have identical shingle sets, so
    Jaccard 1.0 ≥ any threshold and every copy always lands in its
    original's cluster with the group minimum id — but on dup-heavy
    corpora (crawl data) it shrinks signature work linearly and
    candidate-edge volume quadratically before the expensive stages run.

    Verification is two-tier so dup-heavy corpora stay cheap: every
    distinct candidate edge meets its endpoints' signatures in two task
    rounds, ``a``'s then ``b``'s, and is scored with the vectorized MinHash
    Jaccard ESTIMATE (``_estimate_verdicts``); only edges within
    ``±EXACT_MARGIN`` of the threshold take ``b``'s shingles there and meet
    ``a``'s text in one more round, to be decided by TRUE shingle-set
    Jaccard (``_exact_verdicts``). One repair round follows: the verdicts
    of the fallback star edges (one row per member of an LSH group over
    ``pair_cap``) come to the driver, and the repair pairs go through the
    same tiers.

    ``indexed`` unions an already-deduped historical corpus into the
    candidate space without re-signing it, through one protocol (a
    ``MinHashDedupIndex``): ``sig_parts`` (int), ``watermark`` (max indexed
    id), ``banded_for(pbs, keys)`` → Dataset of historical band rows
    (_bkt, band, key, id, dig) pruned to the partitions/keys the increment
    actually hashes to, ``sigs_for(ids)`` → (id, sig, dig) rows for
    exactly those ids, and ``texts_for(ids)`` → (id, text).
    The historical band rows join the band exchange as extra map inputs.
    Historical signatures are read only for candidate-edge endpoints,
    historical texts only for unsure-edge endpoints, and historical band
    rows only from matching partitions — O(increment) work per call, not
    O(index). Candidate pairs whose BOTH endpoints are historical (b ≤
    watermark) are dropped: they were resolved when those docs were
    indexed.

    Incoming ids must exceed every indexed id so cluster minima always land
    on the indexed side ("old doc wins") — enforced by MinHashDedupIndex,
    the intended caller. The returned Dataset filters ``ds`` only, so
    indexed docs never reappear in the output.

    ``return_artifacts=True`` returns ``(result, signed, banded)`` where
    ``signed``/``banded`` are materialized Datasets of the signature and
    band-row tables of THIS call's input docs — so an index appending the
    survivors persists them by filtering instead of re-signing."""
    import ray

    assert num_perm % bands == 0
    blocks = _signed_blocks(ds, pre_exact, [text_col], id_col,
                            functools.partial(_text_key, text_col))
    hasher = MinHasher(num_perm=num_perm, shingle_k=shingle_k)
    parts = num_parts(sum(n for _, n in blocks))
    # signatures computed ONCE, kept in the object store; band keys derive
    # from them in the same task
    signs = _run_tasks(
        functools.partial(_sign_band, text_col, id_col, hasher, bands, parts),
        live_refs(blocks), num_returns=3 * parts + 1,
    )
    rows = [(counts, refs[:parts]) for (counts, *_), refs in signs]
    sigs = [(counts, refs[parts:2 * parts]) for (counts, *_), refs in signs]
    maps = [(counts, refs[2 * parts:]) for (_, counts, *_), refs in signs]
    watermark = None
    if indexed is not None:
        # prune the historical read to the band partitions (and, when small
        # enough to broadcast, the exact keys) this increment hashes to —
        # O(increment) historical I/O instead of re-reading the whole index
        pbs, keys = _collect_band_keys(
            [ref for counts, refs in maps for ref, n in zip(refs, counts) if n],
            indexed.sig_parts, MAX_BROADCAST_KEYS)
        maps = maps + _split_read(indexed.banded_for(pbs, keys), "_bkt", parts)
        watermark = indexed.watermark
    out = reduce_parts(maps, functools.partial(_band_edges, id_col, pair_cap, watermark, parts),
                       num_returns=parts + 1)
    edges = [(counts, refs) for (counts, _), refs in out]
    old = np.unique(np.concatenate([np.empty(0, np.int64), *(o for (_, o), _ in out)]))
    if len(old):
        # the historical endpoints' signatures: an id-filtered read of the
        # persisted table (row-group pruning), not a full-index scan
        sigs = sigs + _split_read(indexed.sigs_for(old), id_col, parts)

    shingles = functools.partial(_shingles, text_col, shingle_k)

    def verify(edges: list) -> tuple:
        # the two tiers over edges split on a % parts: (the accepted edges'
        # adjacency map outputs, refs of the decided fallback star edges)
        by_b = _run_tasks(functools.partial(_attach_sig, id_col, parts),
                          _beside(parts, edges, sigs), num_returns=parts + 1)
        out = _run_tasks(functools.partial(_estimate_verdicts, id_col, shingles, num_perm,
                                           jaccard_threshold, watermark, parts),
                         _beside(parts, by_b, sigs, rows), num_returns=2 * parts + 2)
        unsure = [(counts, refs[parts + 1:]) for (_, _, counts, _), refs in out]
        if any(counts.any() for counts, _ in unsure):
            # the index's texts for the historical endpoints of unsure
            # edges only (an unsure edge's b is never historical)
            old = np.unique(np.concatenate([np.empty(0, np.int64),
                                            *(o for (*_, o), _ in out)]))
            texts = rows + (_split_read(indexed.texts_for(old), id_col, parts)
                            if len(old) else [])
            out = out + _run_tasks(
                functools.partial(_exact_verdicts, id_col, shingles, jaccard_threshold, parts),
                _beside(parts, unsure, texts), num_returns=parts + 2)
        return ([(meta[0], refs[1:parts + 1]) for meta, refs in out],
                [refs[0] for meta, refs in out if meta[1]])

    adj, fb = verify(edges)
    if fb:
        # repair round: a fallback star edge (fb=1, from an oversized LSH
        # group) that FAILED verification would silently disconnect true
        # pairs among its members — re-pair those members all-vs-all
        # (chunk-bounded) and verify the repair edges the same way
        t = pa.concat_tables(ray.get(fb))
        a = t.column("a").to_numpy()
        rep_a, rep_b = _repair_candidates(a, t.column("b").to_numpy(), np.ones(len(a), bool),
                                          t.column("ok").to_numpy(), cap=pair_cap)
        if len(rep_a):
            zero = np.zeros(len(rep_a), np.int8)
            counts, *reps = split(pa.table({"a": rep_a, "b": rep_b, "ch": zero, "fb": zero}),
                                  rep_a % parts, parts)
            adj += verify([(counts, [ray.put(r) for r in reps])])[0]

    result = _from_blocks(drop_non_representatives(rows, components(adj, parts), id_col))
    if return_artifacts:
        signed = [(ref, m) for (_, _, metas, _), refs in signs
                  for ref, m in zip(refs[parts:2 * parts], metas)]
        banded = [(ref, m) for (_, _, _, metas), refs in signs
                  for ref, m in zip(refs[2 * parts:], metas)]
        return result, _from_blocks(signed), _from_blocks(banded)
    return result


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """True character-k-gram Jaccard similarity."""
    if a is None or b is None:
        return 0.0
    sa = set(_shingle_hashes(a, k).tolist())
    sb = set(_shingle_hashes(b, k).tolist())
    if not sa and not sb:
        return 1.0
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (bit-vote), vectorized: token hashes
    via pandas siphash, bit matrix via broadcast shifts."""
    if not text:
        return 0
    toks = np.array(text.lower().split(), dtype=object)
    if len(toks) == 0:
        return 0
    h = pd.util.hash_array(toks, categorize=False).astype(np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    votes = bits.sum(axis=0) * 2 - len(toks)
    out = np.uint64(0)
    for i in np.nonzero(votes > 0)[0]:
        out |= np.uint64(1) << np.uint64(i)
    return int(out)


def simhash64_batch(texts) -> np.ndarray:
    """SimHash of every text in ONE pass: all tokens hashed with a single
    pandas siphash call, per-document bit votes via np.add.reduceat over the
    shared bit matrix. Identical values to per-text ``simhash64``."""
    n = len(texts)
    tok_lists = [t.lower().split() if t else [] for t in texts]
    counts = np.array([len(ts) for ts in tok_lists], np.int64)
    out = np.zeros(n, np.uint64)
    nz = counts > 0
    if not nz.any():
        return out
    all_toks = np.array(
        [tok for ts in tok_lists for tok in ts], dtype=object
    )
    h = pd.util.hash_array(all_toks, categorize=False).astype(np.uint64)
    nz_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
    nz_ends = np.cumsum(counts)[nz]
    shifts = np.arange(64, dtype=np.uint64)
    # chunk the (tokens × 64) bit matrix at DOCUMENT boundaries with ≤2^17
    # tokens per chunk: bounded temps (this VM punishes GB-scale allocations)
    votes = np.empty((int(nz.sum()), 64), np.int64)
    CH_TOK = 1 << 17
    d = 0
    n_docs = len(nz_starts)
    while d < n_docs:
        e = int(np.searchsorted(nz_ends, nz_starts[d] + CH_TOK, side="left"))
        e = max(e, d + 1)
        lo, hi = nz_starts[d], nz_ends[e - 1]
        bits = ((h[lo:hi, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
        votes[d:e] = np.add.reduceat(bits, nz_starts[d:e] - lo, axis=0)
        d = e
    pos = (votes * 2 - counts[nz][:, None]) > 0
    weights = np.uint64(1) << shifts
    out[nz] = (pos.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)
    return out


def _simhash_split(text_col: str, id_col: str, parts: int, block) -> tuple:
    """Sign-and-split map task of ``simhash_dedup``: 4 band rows (band,
    key, id, sig) per doc of one block, ``key`` one 16-bit band of the
    doc's SimHash ``sig``, split on ``(key·4 + band) % parts``."""
    t = to_arrow(block)
    sh = simhash64_batch(t.column(text_col).to_pylist())  # one siphash pass
    rep_sh = np.repeat(sh, 4)
    bands = np.tile(np.arange(4, dtype=np.uint64), len(sh))
    keys = ((rep_sh >> (bands * np.uint64(16))) & np.uint64(0xFFFF)).astype(np.int64)
    rows = pa.table({
        "band": pa.array(bands.astype(np.int32)),
        "key": pa.array(keys.astype(np.int32)),
        id_col: pa.array(np.repeat(t.column(id_col).to_numpy(zero_copy_only=False), 4)),
        "sig": pa.array(rep_sh),
    })
    return split(rows, (keys * 4 + bands.astype(np.int64)) % parts, parts)


def _simhash_edges(id_col: str, max_hamming: int, pair_cap: int, parts: int,
                   *tables) -> tuple:
    """Edge task of ``simhash_dedup``: all pairs within each (band, key)
    bucket of one partition (star-to-first would miss true pairs whenever
    the first member fails the hamming check), then one vectorized hamming
    verify over the whole pair list, repaired in place for oversized
    groups (see _verified_bucket_pairs). Returns their ``adjacency``."""
    df = concat_reconciled(list(tables)).to_pandas()
    sig_map = pd.Series(df["sig"].to_numpy(), index=df[id_col].to_numpy())
    sig_map = sig_map[~sig_map.index.duplicated()]

    def ham_keep(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
        xor = sig_map.loc[aa].to_numpy() ^ sig_map.loc[bb].to_numpy()
        bits = np.unpackbits(xor.view(np.uint8).reshape(len(xor), 8), axis=1)
        return bits.sum(axis=1) <= max_hamming

    return adjacency(parts, _verified_bucket_pairs(df, ["band", "key"], id_col, pair_cap,
                                                   ham_keep))


def _bucket_dedup(blocks: list, sign, bucket_edges, id_col: str):
    """The SimHash and embedding shape: a ``sign(parts, block)`` task per
    block splits its LSH bucket rows by partition, a ``bucket_edges(parts,
    *tables)`` task per partition emits the ``adjacency`` of the verified
    edges of its buckets, and the near-dup tail drops each cluster's
    non-minimum ids (the edges are verified already, so they cluster as
    they are)."""
    parts = num_parts(sum(n for _, n in blocks))
    maps = _run_tasks(functools.partial(sign, parts), [ref for ref, n in blocks if n],
                      num_returns=parts + 1)
    adj = reduce_parts(maps, functools.partial(bucket_edges, parts), num_returns=parts + 1)
    return _from_blocks(drop_non_representatives(
        split_rows(blocks, id_col, parts), components(adj, parts), id_col))


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id", max_hamming: int = 3,
                  pair_cap: int = 256, pre_exact: bool = True):
    """SimHash near-dup: 64-bit signature, 4×16-bit band blocking (any pair
    within hamming ≤3 shares at least one exact 16-bit band), verify hamming
    within buckets, drop non-representatives. Eager: returns a
    materialized Dataset. ``pre_exact`` collapses byte-identical texts
    first (identical text ⟹ identical simhash ⟹ hamming 0 ≤ any
    max_hamming — semantics-preserving, see minhash_lsh_dedup)."""
    blocks = _signed_blocks(ds, pre_exact, [text_col], id_col,
                            functools.partial(_text_key, text_col))
    return _bucket_dedup(blocks, functools.partial(_simhash_split, text_col, id_col),
                         functools.partial(_simhash_edges, id_col, max_hamming, pair_cap),
                         id_col)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def _unit_vecs(col) -> np.ndarray:
    from wrangler_ray.ops.similarity import vecs_np

    vecs = vecs_np(col)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return vecs / norms


def _embedding_split(vec_col: str, id_col: str, num_planes: int, seed: int, dim,
                     parts: int, block) -> tuple:
    """Sign-and-split map task of ``embedding_dedup``: (key, id, vector)
    rows of one block, ``key`` the vector's ``num_planes`` random-hyperplane
    sign bits, split on ``key % parts``. Every task draws the same planes
    from ``seed``, of dimension ``dim`` or else the vectors' own."""
    t = to_arrow(block)
    unit = _unit_vecs(t.column(vec_col))
    planes = np.random.RandomState(seed).randn(
        unit.shape[1] if dim is None else dim, num_planes).astype(np.float32)
    keys = ((unit @ planes) > 0).astype(np.int64) @ (np.int64(1) << np.arange(num_planes))
    rows = pa.table({"key": keys, id_col: t.column(id_col), vec_col: t.column(vec_col)})
    return split(rows, keys % parts, parts)


def _embedding_edges(vec_col: str, id_col: str, threshold: float, parts: int,
                     *tables) -> tuple:
    """Edge task of ``embedding_dedup``: the ``adjacency`` of the pairs of
    each LSH key bucket of one partition whose exact cosine reaches
    ``threshold``, over ALL pairs of the bucket (cap = the partition's
    rows, so never the star fallback)."""
    g = concat_reconciled(list(tables))
    ids = g.column(id_col).to_numpy(zero_copy_only=False)
    unit = _unit_vecs(g.column(vec_col))
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]

    def cos_keep(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
        ia = order[np.searchsorted(sorted_ids, aa)]
        ib = order[np.searchsorted(sorted_ids, bb)]
        # chunked: two (n_pairs × dim) gathers at once would be GB-scale
        # on a large bucket
        ok = np.empty(len(ia), bool)
        for s in range(0, len(ia), 1 << 16):
            sl = slice(s, s + (1 << 16))
            ok[sl] = np.einsum("ij,ij->i", unit[ia[sl]], unit[ib[sl]]) >= threshold
        return ok

    return adjacency(parts, _verified_bucket_pairs(g.select(["key", id_col]).to_pandas(),
                                                   ["key"], id_col, g.num_rows, cos_keep))


def embedding_dedup(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    cosine_threshold: float = 0.98,
    num_planes: int = 16,
    seed: int = 3,
    dim: int | None = None,
    pre_exact: bool = True,
):
    """Embedding near-dup: random-hyperplane LSH bucket → within-bucket exact
    cosine → connected components → keep min-id. ``num_planes`` sign bits
    per vector; exact cosine verification happens only within buckets, over
    ALL pairs of each bucket (no pair cap). Eager: returns a materialized
    Dataset.

    ``pre_exact`` collapses BYTE-identical vectors first (keep min id per
    distinct vector, keyed by ``_vec_key`` in the exchange's map task): an
    identical vector has cosine 1.0 ≥ any threshold with its copy and
    identical LSH bits, so every copy always lands in its original's
    cluster carrying the group-min id — semantics-preserving at the vector
    level (no assumption about the texts behind the vectors), same argument
    as the text pre-pass in minhash_lsh_dedup."""
    blocks = _signed_blocks(ds, pre_exact, ["_vh1", "_vh2"], id_col,
                            functools.partial(_vec_key, vec_col), drop=("_vh1", "_vh2"))
    return _bucket_dedup(
        blocks, functools.partial(_embedding_split, vec_col, id_col, num_planes, seed, dim),
        functools.partial(_embedding_edges, vec_col, id_col, cosine_threshold),
        id_col)


def ngram_jaccard_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    jaccard_threshold: float = 0.8,
    shingle_k: int = 5,
):
    """n-gram-Jaccard dedup: exact character-k-gram Jaccard is the decision
    metric; MinHash+LSH (high-recall parameters: 128 perms × 32 bands →
    band-collision probability ≈ j^4) only generates the candidate pairs so
    no O(n²) comparison ever happens. Candidate pairs are verified as in
    ``minhash_lsh_dedup``: the MinHash estimate decides, and every pair
    whose estimate lies within ±EXACT_MARGIN of the threshold is checked
    with the TRUE shingle-set Jaccard."""
    return minhash_lsh_dedup(
        ds,
        text_col=text_col,
        id_col=id_col,
        num_perm=128,
        bands=32,
        jaccard_threshold=jaccard_threshold,
        shingle_k=shingle_k,
    )
