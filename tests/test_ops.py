"""Training-data ops: dedup, similarity, text analysis, multimodal plumbing."""

import os

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture()
def docs_ds(ray_session):
    import ray.data as rd

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",  # exact dup of 0
        "the quick brown fox jumped over the lazy dog",  # near dup of 0
        "completely different content about ray data pipelines",
        "another unrelated document discussing arrow tables",
        "the quick brown fox jumps over the lazy dog!",  # near dup of 0
    ]
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    )


def test_exact_dedup(docs_ds):
    from wrangler_ray.ops.dedup import exact_dedup

    out = exact_dedup(docs_ds).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [0, 2, 3, 4, 5]  # only the exact dup removed


def test_minhash_lsh_dedup(docs_ds):
    from wrangler_ray.ops.dedup import minhash_lsh_dedup

    out = minhash_lsh_dedup(docs_ds, jaccard_threshold=0.7).to_pandas()
    ids = sorted(out["doc_id"])
    # 0,1,2,5 form a near-dup cluster → representative 0 survives
    assert 0 in ids and 3 in ids and 4 in ids
    assert 1 not in ids and 5 not in ids


def test_ngram_jaccard_symmetric():
    from wrangler_ray.ops.dedup import ngram_jaccard

    a = "the quick brown fox"
    b = "the quick brown fox jumps"
    assert ngram_jaccard(a, a) == 1.0
    assert 0 < ngram_jaccard(a, b) < 1
    assert ngram_jaccard(a, b) == ngram_jaccard(b, a)


def test_borderline_exact_jaccard_counts_shingle_sets():
    """Texts that repeat a 5-gram: the borderline tier's shingle arrays
    are sets, so its Jaccard equals ``ngram_jaccard`` (0.727, 16 and 22
    distinct of 34 and 29 shingles) and the pair fails 0.8."""
    from wrangler_ray.ops.dedup import _shingles, _true_jaccard_ok, ngram_jaccard

    a = "alpha beta alpha beta alpha beta gamma"
    b = "alpha beta alpha beta gamma delta"
    t = _shingles("text", 5, pa.table({"doc_id": [0, 1], "text": [a, b]}))
    sh = [np.frombuffer(x, np.int64) for x in t.to_pylist()]
    inter = len(np.intersect1d(sh[0], sh[1]))
    got = inter / (len(sh[0]) + len(sh[1]) - inter)
    assert round(got, 3) == round(ngram_jaccard(a, b), 3) == 0.727
    one, two = t.slice(0, 1), t.slice(1, 1)
    assert not _true_jaccard_ok(0.8, one, two)[0]
    assert _true_jaccard_ok(0.72, one, two)[0]


def test_simhash_dedup(docs_ds):
    from wrangler_ray.ops.dedup import simhash_dedup

    out = simhash_dedup(docs_ds, max_hamming=3).to_pandas()
    ids = sorted(out["doc_id"])
    assert 0 in ids and 1 not in ids  # identical text → identical simhash


def test_embedding_dedup(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.dedup import embedding_dedup

    rng = np.random.RandomState(0)
    base = rng.randn(4, 16).astype(np.float32)
    vecs = np.vstack([base, base[0] + rng.randn(16) * 1e-3])  # near-dup of row 0
    t = pa.table(
        {
            "vec_id": pa.array(range(5), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    out = embedding_dedup(rd.from_arrow(t), cosine_threshold=0.99).to_pandas()
    ids = sorted(out["vec_id"])
    assert ids == [0, 1, 2, 3]  # row 4 deduped against row 0


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.similarity import brute_force_topk

    rng = np.random.RandomState(1)
    vecs = rng.randn(200, 8).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    q = rng.randn(3, 8).astype(np.float32)
    got = brute_force_topk(rd.from_arrow(t), q, k=5).to_pandas()
    # numpy oracle
    qa = q / np.linalg.norm(q, axis=1, keepdims=True)
    va = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = qa @ va.T
    for qi in range(3):
        expect = set(np.argsort(-sims[qi])[:5])
        mine = set(got[got["query_idx"] == qi]["vec_id"])
        assert mine == expect


def test_lsh_topk_recall(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.similarity import brute_force_topk, lsh_topk

    rng = np.random.RandomState(2)
    vecs = rng.randn(500, 16).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(500), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    q = vecs[:2] + rng.randn(2, 16).astype(np.float32) * 0.01
    exact = brute_force_topk(rd.from_arrow(t), q, k=1).to_pandas()
    approx = lsh_topk(rd.from_arrow(t), q, k=1, num_planes=8).to_pandas()
    # the true nearest neighbor of a barely-perturbed vector must be found
    assert list(approx["vec_id"])[:1] == list(exact["vec_id"])[:1]


def test_text_analysis(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.text import analyze

    t = pa.table(
        {
            "doc_id": [1, 2],
            "text": [
                "The cat and the dog sat on the mat with a hat and a bat.",
                "der hund und die katze schlafen durch den schönen nachmittag",
            ],
        }
    )
    out = analyze(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert list(out["lang_pred"]) == ["en", "de"]
    assert (out["n_ws_tokens"] > 5).all()
    assert (out["n_bpe_tokens"] >= out["n_ws_tokens"]).all()
    assert out["quality"].between(0, 1).all()
    assert (out["fingerprint"] > 0).all()


def test_multimodal_image_pipeline(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.multimodal import image_pipeline, make_fake_image_table

    t = make_fake_image_table(n=32)
    out = image_pipeline(rd.from_arrow(t), batch_size=8).to_pandas()
    assert len(out) == 32
    assert out["decoded_ok"].all()
    assert out["pix_mean"].between(0, 255).all()
    assert (out["resized_nbytes"] == 224 * 224 * 3).all()
    # determinism: same payload → same stats
    out2 = image_pipeline(rd.from_arrow(t), batch_size=16).to_pandas()
    assert np.allclose(
        out.sort_values("id")["pix_mean"].to_numpy(),
        out2.sort_values("id")["pix_mean"].to_numpy(),
    )


def test_png_codec_roundtrip():
    from wrangler_ray.ops.png import png_decode, png_encode, resize_nearest

    rng = np.random.RandomState(3)
    px = rng.randint(0, 256, size=(13, 29, 3), dtype=np.uint8)
    assert np.array_equal(png_decode(png_encode(px)), px)
    # greyscale input promotes to RGB on encode
    grey = rng.randint(0, 256, size=(9, 7), dtype=np.uint8)
    out = png_decode(png_encode(grey))
    assert out.shape == (9, 7, 3)
    assert np.array_equal(out[:, :, 0], grey)
    rs = resize_nearest(px, 8, 4)
    assert rs.shape == (4, 8, 3)
    with pytest.raises(ValueError):
        png_decode(b"not a png at all")
    with pytest.raises(ValueError):
        png_decode(png_encode(px)[:30])  # truncated


def test_png_decode_all_filters():
    # author scanlines with every filter type (1=Sub, 2=Up, 3=Average,
    # 4=Paeth) by hand and check the decoder reconstructs the raw pixels
    import struct
    import zlib

    from wrangler_ray.ops.png import png_decode

    rng = np.random.RandomState(5)
    px = rng.randint(0, 256, size=(5, 4, 3), dtype=np.uint8).astype(np.int16)
    h, w = 5, 4
    bpp = 3
    rows = []
    prev = np.zeros(w * bpp, np.int16)
    for y in range(h):
        cur = px[y].reshape(-1)
        f = y % 5
        enc = np.zeros(w * bpp, np.int16)
        for x in range(w * bpp):
            a = cur[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
            enc[x] = (cur[x] - pred) % 256
        rows.append(bytes([f]) + enc.astype(np.uint8).tobytes())
        prev = cur
    def chunk(tag, payload):
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))
    data = (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + chunk(b"IEND", b""))
    assert np.array_equal(png_decode(data), px.astype(np.uint8).reshape(h, w, 3))


def test_multimodal_real_decode_pipeline(ray_session):
    import ray.data as rd
    from wrangler_ray.ops.multimodal import image_pipeline, make_real_png_table

    t = make_real_png_table(n=24)
    out = image_pipeline(rd.from_arrow(t), batch_size=8, fake=False).to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    assert out["decoded_ok"].all()
    # solid color i%256 → pix_mean == i, pix_std == 0; dims match metadata
    assert np.allclose(out["pix_mean"], out["id"] % 256)
    assert np.allclose(out["pix_std"], 0)
    assert (out["decoded_w"] == out["width"]).all()
    assert (out["decoded_h"] == out["height"]).all()
    # real resize re-encodes an actual 224x224 PNG
    from wrangler_ray.ops.png import png_decode

    first = png_decode(out["resized_media"][0])
    assert first.shape == (224, 224, 3)
    assert (first == 0).all()  # id 0 → solid black
    # corrupt payload → decoded_ok False, not a stage crash
    import pyarrow as pa_

    bad = pa_.table({
        "id": pa_.array([0], pa_.int64()),
        "media": pa_.array([b"junk"], pa_.binary()),
        "media_type": pa_.array(["image/png"]),
        "width": pa_.array([8], pa_.int32()),
        "height": pa_.array([8], pa_.int32()),
    })
    outb = image_pipeline(rd.from_arrow(bad), batch_size=8, fake=False).to_pandas()
    assert not outb["decoded_ok"].any()


def test_dedup_auto_switch_crosses_driver_cap(docs_ds):
    """The distributed tail (task-round verify, label propagation and
    filter, the only route) keeps the survivors the driver-side clustering
    kept when it existed: MinHash [0, 3, 4], SimHash [0, 2, 3, 4, 5]."""
    from wrangler_ray.ops.dedup import minhash_lsh_dedup, simhash_dedup

    got = sorted(minhash_lsh_dedup(docs_ds, jaccard_threshold=0.7).to_pandas()["doc_id"])
    assert got == [0, 3, 4]
    got = sorted(simhash_dedup(docs_ds, max_hamming=3).to_pandas()["doc_id"])
    assert got == [0, 2, 3, 4, 5]

    import ray.data as rd
    from wrangler_ray.ops.dedup import embedding_dedup

    rng = np.random.RandomState(0)
    base = rng.randn(4, 16).astype(np.float32)
    # rows 4, 5: near-dups of row 0 (one cluster of three); row 6: of row 1
    vecs = np.vstack([base, base[0] + rng.randn(2, 16) * 1e-3,
                      base[1] + rng.randn(16) * 1e-3])
    emb = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    got = sorted(embedding_dedup(emb, cosine_threshold=0.99).to_pandas()["vec_id"])
    assert got == [0, 1, 2, 3]


def test_brute_force_topk_many_queries(ray_session):
    """64-query batch through the distributed groupby('query_idx') merge —
    every query's top-k must equal the direct numpy answer (ties → min id)."""
    import ray.data as rd

    from wrangler_ray.ops.similarity import brute_force_topk

    rng = np.random.RandomState(7)
    n, d, nq, k = 3000, 16, 64, 5
    vecs = rng.randn(n, d).astype(np.float32)
    queries = rng.randn(nq, d).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array([v.tolist() for v in vecs]),
        }
    )
    got = brute_force_topk(
        rd.from_arrow(t).repartition(8), queries, k=k
    ).to_pandas()
    assert len(got) == nq * k

    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = qn @ vn.T  # (nq, n)
    for qi in range(nq):
        # expected ordering: score desc, id asc on ties
        order = np.lexsort((np.arange(n), -sims[qi]))[:k]
        sub = got[got["query_idx"] == qi]
        assert list(sub["vec_id"]) == list(order), f"query {qi} mismatch"
        np.testing.assert_allclose(
            sub["score"].to_numpy(), sims[qi][order], rtol=1e-5
        )


def test_wav_roundtrip_and_audio_features_real(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.multimodal import (
        audio_pipeline, make_real_wav_table, wav_decode, wav_encode)

    # codec round-trip
    samples = (np.sin(np.linspace(0, 20, 1000)) * 12000).astype(np.int16)
    x, sr, nf = wav_decode(wav_encode(samples, 16000))
    assert sr == 16000 and nf == 1000
    np.testing.assert_allclose(x * 32768.0, samples, atol=0.5)

    # real decode through the actor-pool stage: closed-form rms/duration
    t = make_real_wav_table(n=24)
    out = audio_pipeline(
        rd.from_arrow(t), batch_size=8, fake=False
    ).to_pandas().sort_values("id")
    assert out["audio_ok"].all()
    ids = out["id"].to_numpy()
    np.testing.assert_allclose(
        out["rms"].to_numpy(), (ids % 100 + 1) * 250 / 32768.0, rtol=1e-6
    )
    np.testing.assert_allclose(
        out["duration_s"].to_numpy(), (1600 + 37 * ids) / 8000.0, rtol=1e-6
    )


def test_audio_features_bad_payload_is_row_error(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.multimodal import AudioFeatures, wav_encode

    t = pa.table(
        {
            "id": pa.array([0, 1, 2], pa.int64()),
            "media": pa.array(
                [wav_encode(np.full(100, 1000, np.int16)), b"not a wav", None],
                pa.binary(),
            ),
        }
    )
    out = AudioFeatures(fake=False)(t).to_pandas()
    assert list(out["audio_ok"]) == [True, False, False]
    assert out["rms"].isna().tolist() == [False, True, True]


def test_avi_roundtrip_and_video_features_real(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.avi import avi_decode, avi_encode
    from wrangler_ray.ops.multimodal import (
        VideoFrames, make_real_avi_table, video_pipeline)

    # codec round-trip: arbitrary pixel content, odd width (row padding path)
    rng = np.random.RandomState(3)
    frames = [rng.randint(0, 256, (11, 9, 3), dtype=np.uint8) for _ in range(6)]
    out, fps, w, h = avi_decode(avi_encode(frames, fps=24))
    assert (fps, w, h, len(out)) == (24, 9, 11, 6)
    for a, b in zip(frames, out):
        np.testing.assert_array_equal(a, b)

    # real decode through the actor-pool stage: closed-form sampled-frame mean
    t = make_real_avi_table(n=20)
    got = video_pipeline(
        rd.from_arrow(t), batch_size=8, fake=False
    ).to_pandas().sort_values("id")
    assert got["video_ok"].all()
    for _, row in got.iterrows():
        i = int(row["id"])
        nf = 4 + i % 13
        picked = list(range(0, nf, 2))[:4]
        assert row["n_frames_decoded"] == nf
        assert row["n_sampled"] == len(picked)
        assert row["fps"] == 10
        exp = np.mean([(i * 7 + f * 11) % 256 for f in picked])
        np.testing.assert_allclose(row["frame_mean"], exp, rtol=1e-6)


def test_video_features_bad_payload_is_row_error():
    from wrangler_ray.ops.avi import avi_encode
    from wrangler_ray.ops.multimodal import VideoFrames

    good = avi_encode([np.full((4, 4, 3), 7, np.uint8)] * 3, fps=10)
    t = pa.table(
        {
            "id": pa.array([0, 1, 2], pa.int64()),
            "media": pa.array([good, b"not an avi", None], pa.binary()),
        }
    )
    out = VideoFrames(fake=False)(t).to_pandas()
    assert list(out["video_ok"]) == [True, False, False]
    assert out["frame_mean"].isna().tolist() == [False, True, True]


def test_pre_exact_pass_preserves_survivors(ray_session):
    """The exact-dedup pre-pass must be invisible in the result: survivor
    sets with pre_exact True/False are identical on a corpus mixing exact
    dups, near dups, and a cross-copy bridge (near-dup reachable only
    through an exact copy)."""
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup, simhash_dedup

    base = [
        "the quick brown fox jumps over the lazy dog and runs away fast",
        "a completely different document about streaming dataflow engines",
        "arrow record batches move through the object store with backpressure",
    ]
    texts, ids = [], []
    i = 0
    for t in base:
        for _ in range(4):          # exact copies
            texts.append(t); ids.append(i); i += 1
        texts.append(t + "!")        # near dup bridging via the copies
        ids.append(i); i += 1
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": texts})).repartition(3)
    for fn, kw in ((minhash_lsh_dedup, {"jaccard_threshold": 0.7}),
                   (simhash_dedup, {"max_hamming": 3})):
        with_pre = sorted(fn(ds, pre_exact=True, **kw).to_pandas()["doc_id"])
        without = sorted(fn(ds, pre_exact=False, **kw).to_pandas()["doc_id"])
        assert with_pre == without, fn.__name__


def test_quality_filter_rules(ray_session):
    """quality_filter keeps exactly the rows passing every Gopher-style gate."""
    import ray.data as rd

    from wrangler_ray.ops.text import quality_filter

    texts = [
        "the quick brown fox jumps over the lazy dog and it was a good day",  # passes
        "a b",                                     # too few words
        "!!! ??? ### $$$ %%% ^^^ &&& *** ((()))",  # punct ratio + no stopwords
        "zzzzzzzzzzzz qqqqqqqqqqqq xxxxxxxxxxxx wwwwwwwwwwww vvvvvvvvvvvv",  # mean wordlen too high, no stopwords
        None,                                      # null → empty → dropped
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    )
    kept = sorted(quality_filter(ds, min_words=5).to_pandas()["doc_id"])
    assert kept == [0]
    # output schema is the input schema — a pure filter adds no columns
    assert set(quality_filter(ds).schema().names) == {"doc_id", "text"}


def test_minhash_index_incremental_equals_batch(ray_session, tmp_path):
    """Incremental dedup through a persisted MinHashDedupIndex over two
    id-ordered increments keeps exactly the batch survivors of the
    concatenated corpus, without re-signing the indexed half; a third,
    all-duplicate increment keeps nothing."""
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup
    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    base = [
        "the quick brown fox jumps over the lazy dog and runs far away",
        "a completely different document about streaming dataflow engines",
        "arrow record batches move through the object store with backpressure",
        "yet another unrelated piece of text mentioning lakehouse manifests",
    ]
    texts, ids = [], []
    i = 0
    for t in base:
        for suffix in ("", "", "!", " indeed"):   # exact + near dups
            texts.append(t + suffix); ids.append(i); i += 1

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(ids[lo:hi], pa.int64()),
            "text": pa.array(texts[lo:hi], pa.string()),
        })).repartition(2)

    batch = sorted(
        minhash_lsh_dedup(mk(0, len(ids)), jaccard_threshold=0.7)
        .to_pandas()["doc_id"]
    )

    idx = MinHashDedupIndex(str(tmp_path / "idx"), jaccard_threshold=0.7)
    half = len(ids) // 2
    kept1 = sorted(idx.dedup_increment(mk(0, half)).to_pandas()["doc_id"])
    kept2 = sorted(idx.dedup_increment(mk(half, len(ids))).to_pandas()["doc_id"])
    assert sorted(kept1 + kept2) == batch
    assert idx.count == len(batch)
    assert idx.watermark == max(kept1 + kept2)

    # an increment made ENTIRELY of near-dups of indexed docs keeps nothing
    dup_ids = [i + j for j in range(len(base))]
    dup_ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(dup_ids, pa.int64()),
        "text": pa.array([t + "?" for t in base], pa.string()),
    }))
    assert idx.dedup_increment(dup_ds).count() == 0
    # non-monotone ids are refused
    with pytest.raises(ValueError, match="watermark"):
        idx.dedup_increment(mk(0, half))
    # a fresh handle on the same dir resumes from the committed meta
    idx2 = MinHashDedupIndex(str(tmp_path / "idx"), jaccard_threshold=0.7)
    assert idx2.count == len(batch) and idx2.watermark == idx.watermark
    with pytest.raises(ValueError, match="not comparable"):
        MinHashDedupIndex(str(tmp_path / "idx"), num_perm=128)


def test_minhash_index_crashed_increment_rerun(ray_session, tmp_path):
    """Orphan files from an increment that crashed before its meta commit
    must be replaced, not appended, when the increment re-runs."""
    import ray.data as rd

    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": ["some first document about engines",
                 "a second unrelated document about lakes"],
    }))
    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work)
    # simulate the crash: files written for incr-000000 but meta never moved
    orphan = os.path.join(work, "texts", "incr-000000")
    os.makedirs(orphan)
    with open(os.path.join(orphan, "junk.parquet"), "wb") as f:
        f.write(b"not a real parquet file")
    kept = idx.dedup_increment(ds)
    assert kept.count() == 2
    # the orphan was cleared — the committed increment reads cleanly
    idx2 = MinHashDedupIndex(work)
    ds2 = rd.from_arrow(pa.table({
        "doc_id": pa.array([3], pa.int64()),
        "text": ["some first document about engines"],  # exact dup of 1
    }))
    assert idx2.dedup_increment(ds2).count() == 0


def test_ivf_index_build_query_append(ray_session, tmp_path):
    """Persisted IVF index: nprobe=all cells is exact (== numpy brute force),
    nprobe=1 reads only probed cell dirs, append without retrain is seen by
    subsequent queries, and a reopened handle serves from disk alone."""
    import ray.data as rd

    from wrangler_ray.ops.ann_index import IvfIndex

    rng = np.random.RandomState(11)
    vecs = rng.randn(300, 16).astype(np.float32)

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(range(lo, hi), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs[lo:hi]], pa.list_(pa.float32())
            ),
        })).repartition(3)

    idx = IvfIndex(str(tmp_path / "ivf"))
    info = idx.build(mk(0, 250), num_clusters=8, seed=3)
    assert info["count"] == 250

    q = vecs[:2]
    got = idx.query(q, k=5, nprobe=8).to_pandas()  # all cells → exact
    qa = q / np.linalg.norm(q, axis=1, keepdims=True)
    va = vecs[:250] / np.linalg.norm(vecs[:250], axis=1, keepdims=True)
    sims = qa @ va.T
    for qi in range(2):
        assert set(got[got["query_idx"] == qi]["vec_id"]) == set(
            np.argsort(-sims[qi])[:5]
        )

    # nprobe=1 must still find the (barely perturbed) vector's own cell
    near = vecs[5] + rng.randn(16).astype(np.float32) * 1e-3
    hit = idx.query(near, k=1, nprobe=1).to_pandas()
    assert hit["vec_id"].tolist() == [5]

    # append the remaining 50 vectors; a reopened handle must see them
    assert idx.append(mk(250, 300)) == 50
    idx2 = IvfIndex(str(tmp_path / "ivf"))
    assert idx2.meta["count"] == 300
    near2 = vecs[299] + rng.randn(16).astype(np.float32) * 1e-3
    assert idx2.query(near2, k=1, nprobe=8).to_pandas()["vec_id"].tolist() == [299]

    with pytest.raises(ValueError, match="already built"):
        idx2.build(mk(0, 10))
