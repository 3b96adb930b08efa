"""The dedup task exchange (``wrangler_ray.tasks``): survivors do not depend
on the partition count, no dedup route starts a Ray Data shuffle, and a
failing task stops the op."""

import numpy as np
import pyarrow as pa
import pytest

from test_dedup_repair import _dup_corpus


def _edited_corpus(n_base: int = 200, seed: int = 7) -> pa.Table:
    """Random-word documents with edited copies, survivors known by
    construction: ids ``0..n_base-1`` are the base docs; each has a lightly
    edited copy (one word replaced: true Jaccard ≈ 0.95, dropped); the
    first 60 have a heavily edited copy (half the words replaced: kept);
    the first 50 have a byte-identical copy (dropped by the exact pass)."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = ["".join(rng.choice(letters, rng.integers(3, 9))) for _ in range(3000)]
    base = [list(rng.choice(vocab, 60)) for _ in range(n_base)]

    def edited(words, k):
        words = list(words)
        for j in rng.choice(len(words), k, replace=False):
            words[j] = str(rng.choice(vocab))
        return words

    docs = [base, [edited(w, 1) for w in base], [edited(w, 30) for w in base[:60]],
            base[:50]]
    texts = [" ".join(w) for group in docs for w in group]
    return pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                     "text": texts})


def _borderline_corpus(n: int = 3, seed: int = 11) -> pa.Table:
    """Pairs of a random-word document and a copy with 2 to 4 words
    replaced, each pair an LSH candidate (16 bands of 4) whose
    64-permutation MinHash estimate and true shingle Jaccard fall on
    opposite sides of 0.8, both within ``EXACT_MARGIN`` of it. Ids
    ``0..2n-1`` are the originals; ``2n..3n-1`` their copies below 0.8
    whose estimate reaches it (kept), ``3n..4n-1`` copies at or over 0.8
    whose estimate falls short (dropped). The survivors follow the true
    Jaccard only where the exact tier runs."""
    from wrangler_ray.ops.dedup import EXACT_MARGIN, MinHasher, ngram_jaccard

    hasher = MinHasher(num_perm=64, shingle_k=5)
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = ["".join(rng.choice(letters, rng.integers(3, 9))) for _ in range(3000)]
    over, under = [], []
    while len(over) < n or len(under) < n:
        words = list(rng.choice(vocab, 60))
        copy = list(words)
        for j in rng.choice(60, int(rng.integers(2, 5)), replace=False):
            copy[j] = str(rng.choice(vocab))
        x, y = " ".join(words), " ".join(copy)
        same = hasher.signature(x) == hasher.signature(y)
        if not same.reshape(16, 4).all(axis=1).any():
            continue  # no shared band: never a candidate
        est, true = same.mean(), ngram_jaccard(x, y)
        if true < 0.8 <= est < 0.8 + EXACT_MARGIN and len(over) < n:
            over.append((x, y))
        elif 0.8 - EXACT_MARGIN <= est < 0.8 <= true and len(under) < n:
            under.append((x, y))
    pairs = over + under
    texts = [x for x, _ in pairs] + [y for _, y in pairs]
    return pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                     "text": texts})


def _ids(ds) -> list:
    return sorted(ds.to_pandas()["doc_id"].tolist())


# exact and MinHash (jaccard 0.8) survivors per corpus, as Ray Data's
# groupby exchange found them before the dedup exchange ran as plain tasks
_DUP_EXACT = [0, 1, 2, 4, 5, 7, 8, 9, 10, 11, 13, 14, 16, 17, 18, 20, 21, 22, 23,
              24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40]
_DUP_NEAR = [0, 9, 16] + list(range(21, 41))
_EDITED_EXACT = list(range(460))
_EDITED_NEAR = list(range(200)) + list(range(400, 460))
# _borderline_corpus: every original and the copies below 0.8
_BORDERLINE_EXACT = list(range(12))
_BORDERLINE_NEAR = list(range(9))


@pytest.mark.parametrize("target", [1, 3, 64])
@pytest.mark.parametrize("corpus, exact_ids, near_ids", [
    (_dup_corpus, _DUP_EXACT, _DUP_NEAR),
    (_edited_corpus, _EDITED_EXACT, _EDITED_NEAR),
    (_borderline_corpus, _BORDERLINE_EXACT, _BORDERLINE_NEAR),
])
def test_survivors_do_not_depend_on_partition_count(ray_session, monkeypatch, target,
                                                     corpus, exact_ids, near_ids):
    """``ROWS_PER_PART`` sized for 1, 3 and 64 partitions (the 41-doc
    corpus reaches 41, one row each, the 12-doc one 12): the same survivors
    as ever, for both all-pairs caps. The verify tiers, the connected
    components and the filter run over the same partitions; on the
    borderline corpus the survivors follow the true Jaccard."""
    import ray.data as rd

    from wrangler_ray import tasks
    from wrangler_ray.ops.dedup import exact_dedup, minhash_lsh_dedup

    tab = corpus()
    monkeypatch.setattr(tasks, "ROWS_PER_PART", max(1, -(-tab.num_rows // target)))
    assert tasks.num_parts(tab.num_rows) == min(target, tab.num_rows)
    ds = rd.from_arrow(tab).repartition(4).materialize()
    assert _ids(exact_dedup(ds)) == exact_ids
    for cap in (2, 10_000):
        got = minhash_lsh_dedup(ds, jaccard_threshold=0.8, pair_cap=cap)
        assert _ids(got) == near_ids, f"pair_cap={cap}"


# SimHash (max_hamming 3) survivors of _edited_corpus: the base docs, the
# heavily edited copies, and these lightly edited copies whose SimHash
# moved by more than 3 bits
_EDITED_SIMHASH = list(range(200)) + [
    200, 205, 206, 207, 212, 217, 218, 220, 222, 224, 229, 230, 231, 233, 237,
    240, 241, 246, 247, 248, 251, 253, 254, 262, 263, 265, 266, 268, 277, 279,
    281, 284, 285, 286, 290, 291, 293, 304, 306, 311, 312, 313, 315, 322, 324,
    327, 329, 330, 333, 334, 336, 344, 347, 348, 352, 361, 362, 364, 367, 370,
    374, 376, 379, 380, 381, 384, 385, 390, 391, 392, 393, 394, 399,
] + list(range(400, 460))


def _embedding_table() -> pa.Table:
    """64 random 16-d vectors (ids 0..63) and a copy of each of the first
    20 with noise of 1e-3 (ids 64..83): at cosine 0.99 every copy is
    dropped."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((64, 16)).astype(np.float32)
    noise = rng.standard_normal((20, 16)).astype(np.float32) * 1e-3
    vecs = np.vstack([base, base[:20] + noise])
    return pa.table({"vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
                     "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})


def test_dedup_starts_no_ray_data_job(ray_session, monkeypatch):
    """With ``groupby``, ``map_batches``, ``repartition``, ``union`` and
    ``aggregate`` of every Dataset raising, exact, MinHash, SimHash and
    embedding dedup return their survivors, and a ``large_string`` text
    column leaves with the input's Arrow schema."""
    import ray
    import ray.data as rd

    from wrangler_ray.ops.dedup import (
        embedding_dedup,
        exact_dedup,
        minhash_lsh_dedup,
        simhash_dedup,
    )

    tab = _edited_corpus()
    tab = tab.set_column(1, "text", tab.column("text").cast(pa.large_string()))
    ds = rd.from_arrow(tab).repartition(3).materialize()
    emb = rd.from_arrow(_embedding_table()).repartition(3).materialize()

    def banned(*a, **k):
        raise AssertionError("a Ray Data shuffle or map ran")

    out = {}
    with monkeypatch.context() as m:
        for name in ("groupby", "map_batches", "repartition", "union", "aggregate"):
            m.setattr(rd.Dataset, name, banned)
        out["exact"] = exact_dedup(ds)
        out["minhash"] = minhash_lsh_dedup(ds, jaccard_threshold=0.8)
        out["simhash"] = simhash_dedup(ds)
        out["embedding"] = embedding_dedup(emb, cosine_threshold=0.99)
    assert _ids(out["exact"]) == _EDITED_EXACT
    assert _ids(out["minhash"]) == _EDITED_NEAR
    assert _ids(out["simhash"]) == _EDITED_SIMHASH
    assert sorted(out["embedding"].to_pandas()["vec_id"]) == list(range(64))
    for key, res in out.items():
        if "embedding" not in key:
            for t in ray.get(res.to_arrow_refs()):
                assert t.schema == tab.schema, key


def test_no_edge_set_reaches_the_driver(ray_session, monkeypatch):
    """With ``ray.get`` wrapped, MinHash and SimHash dedup of a corpus with
    no LSH group over ``pair_cap`` (so no fallback star and no repair
    round) fetch no table with columns a and b: the edges stay in the
    object store, whatever the input size."""
    import ray
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup, simhash_dedup

    ds = rd.from_arrow(_edited_corpus()).repartition(3).materialize()
    real, fetched = ray.get, []

    def spy(refs, *args, **kwargs):
        out = real(refs, *args, **kwargs)
        for value in out if isinstance(out, list) else [out]:
            fetched.append(isinstance(value, pa.Table)
                           and {"a", "b"} <= set(value.column_names))
        return out

    monkeypatch.setattr(ray, "get", spy)
    assert _ids(minhash_lsh_dedup(ds, jaccard_threshold=0.8)) == _EDITED_NEAR
    assert _ids(simhash_dedup(ds)) == _EDITED_SIMHASH
    assert fetched and not any(fetched)


def test_failing_sign_task_stops_the_op(ray_session):
    """A block whose text column holds ints fails its sign task: the op
    raises that error instead of returning or hanging."""
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup

    good = pa.table({"doc_id": pa.array([0, 1], pa.int64()), "text": ["a b c d e f", "g h"]})
    bad = pa.table({"doc_id": pa.array([2, 3], pa.int64()), "text": pa.array([7, 8], pa.int64())})
    with pytest.raises(AttributeError, match="split"):
        minhash_lsh_dedup(rd.from_arrow([good, bad]), pre_exact=False)
