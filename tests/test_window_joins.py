"""Windowed aggregates, sessionization, joins, IVF similarity, sources."""

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest


def _ts(h, m=0):
    return dt.datetime(2024, 1, 1, h, m)


def _arrow(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_size=None, batch_format="pyarrow"))


@pytest.fixture()
def events_ds(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "ts": pa.array(
                [_ts(9, 0), _ts(9, 10), _ts(11, 0), _ts(11, 20), _ts(9, 5), _ts(23, 0)],
                pa.timestamp("us"),
            ),
            "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        }
    )
    return rd.from_arrow(t)


def test_tumbling_window(events_ds):
    from ray.data.aggregate import Count, Sum

    from wrangler_ray.ops.window import tumbling_window

    out = (
        tumbling_window(
            events_ds,
            ts_col="ts",
            aggs=[Count(alias_name="n"), Sum("value", alias_name="s")],
            every="1 hour",
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    assert list(out["n"]) == [3, 2, 1]  # 9h: 3 events, 11h: 2, 23h: 1
    assert list(out["s"]) == [8.0, 7.0, 6.0]


def test_sessionize(events_ds):
    from wrangler_ray.ops.window import session_stats, sessionize

    sess = sessionize(events_ds, key_col="user_id", ts_col="ts", gap="30 minute")
    df = sess.to_pandas().sort_values(["user_id", "ts"]).reset_index(drop=True)
    # user 1: (9:00, 9:10) session 0; (11:00, 11:20) session 1
    assert list(df[df.user_id == 1]["session_id"]) == [0, 0, 1, 1]
    assert list(df[df.user_id == 2]["session_id"]) == [0, 1]

    stats = session_stats(events_ds, gap="30 minute").to_pandas().sort_values("user_id")
    assert list(stats["n_sessions"]) == [2, 2]
    assert list(stats["n_events"]) == [4, 2]


def test_asof_join_deterministic_ties(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.joins import asof_join

    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1], pa.int64()),
                "ts": pa.array([_ts(10), _ts(12)], pa.timestamp("us")),
            }
        )
    )
    # two right rows at the SAME (k, ts): the greater payload must win
    right = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1], pa.int64()),
                "ts": pa.array([_ts(9), _ts(9)], pa.timestamp("us")),
                "payload": pa.array([5, 7], pa.int64()),
            }
        )
    )
    out = asof_join(left, right, key="k", ts_col="ts").to_pandas()
    assert sorted(out["payload"]) == [7, 7]


def test_hash_and_broadcast_join(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.joins import broadcast_join, hash_join

    left = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()), "a": ["x", "y", "z"]})
    )
    right_t = pa.table({"k": pa.array([1, 2], pa.int64()), "b": ["p", "q"]})
    bj = (
        broadcast_join(left, right_t, on="k", how="left")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(bj["b"]) == ["p", "q", None]

    hj = hash_join(
        left, rd.from_arrow(right_t), on="k", how="inner"
    ).to_pandas()
    assert sorted(hj["k"]) == [1, 2]


def test_ivf_topk_matches_brute_force(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.similarity import brute_force_topk, ivf_topk

    rng = np.random.RandomState(0)
    vecs = rng.randn(300, 16).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(300), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    q = vecs[:2]
    ds = rd.from_arrow(t)
    exact = brute_force_topk(ds, q, k=5).to_pandas()
    approx = ivf_topk(ds, q, k=5, num_clusters=8, nprobe=4).to_pandas()
    # recall@5 ≥ 0.8 per query with nprobe half the clusters
    for qi in (0, 1):
        e = set(exact[exact.query_idx == qi]["vec_id"])
        a = set(approx[approx.query_idx == qi]["vec_id"])
        assert len(e & a) >= 4


def test_ivf_topk_and_index_train_the_same_centroids(ray_session, tmp_path, monkeypatch):
    """ivf_topk and IvfIndex.build share one seeded k-means trainer: the
    same inputs and seed give identical centroids through both callers."""
    import ray.data as rd

    from wrangler_ray.ops import similarity
    from wrangler_ray.ops.ann_index import IvfIndex

    vecs = np.random.RandomState(1).randn(500, 8).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(500), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
    }))
    params = dict(num_clusters=6, train_size=200, kmeans_iters=5, seed=11)
    trained = []
    train = similarity._train_centroids

    def spy(*a, **k):
        trained.append(train(*a, **k))
        return trained[-1]

    monkeypatch.setattr(similarity, "_train_centroids", spy)
    similarity.ivf_topk(ds, vecs[:2], k=3, nprobe=2, **params)
    idx = IvfIndex(str(tmp_path / "ivf"))
    idx.build(ds, **params)
    direct = train(ds, "embedding", 6, 200, 5, 11)
    assert trained[0].shape == (6, 8)
    np.testing.assert_array_equal(trained[0], idx.centroids)
    np.testing.assert_array_equal(trained[0], direct)


def test_ngram_jaccard_dedup(ray_session):
    import ray.data as rd

    from wrangler_ray.ops.dedup import ngram_jaccard_dedup

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog!",
        "entirely different words live in this document",
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(3), pa.int64()), "text": texts})
    )
    out = ngram_jaccard_dedup(ds, jaccard_threshold=0.7).to_pandas()
    assert sorted(out["doc_id"]) == [0, 2]


def test_detect_format(tmp_path):
    from wrangler_ray.sources import detect_format

    p = tmp_path / "x.parquet"
    p.write_bytes(b"PAR1....")
    assert detect_format(str(p)) == "parquet"
    q = tmp_path / "data.bin"
    q.write_bytes(b"PAR1....")
    assert detect_format(str(q)) == "parquet"  # magic fallback
    c = tmp_path / "rows"
    c.write_bytes(b"a,b,c\n1,2,3\n")
    assert detect_format(str(c)) == "csv"
    j = tmp_path / "o.unknownext"
    j.write_bytes(b'{"a": 1}')
    assert detect_format(str(j)) == "json"


def test_read_any_avro_container(ray_session, tmp_path):
    """read_any decodes Avro object-container files through the in-repo
    pure-python reader — sniffed by extension AND by the Obj\\x01 magic —
    with per-file task parallelism and column pruning."""
    import pyarrow as pa

    from wrangler_ray.ops.avro_writer import write_container
    from wrangler_ray.sources import detect_format, read_any

    schema = {
        "type": "record", "name": "r",
        "fields": [{"name": "k", "type": "long"},
                   {"name": "s", "type": "string"}],
    }
    for i in range(2):
        rows = [{"k": i * 10 + j, "s": f"v{i * 10 + j}"} for j in range(3)]
        (tmp_path / f"part-{i}.avro").write_bytes(write_container(schema, rows))

    out = read_any(str(tmp_path)).to_pandas().sort_values("k")
    assert out["k"].tolist() == [0, 1, 2, 10, 11, 12]
    assert out["s"].tolist() == [f"v{k}" for k in out["k"]]

    # magic-byte sniff on an extension-less file
    blob = write_container(schema, [{"k": 7, "s": "x"}])
    noext = tmp_path / "stream.noext"
    noext.write_bytes(blob)
    assert detect_format(str(noext)) == "avro"

    # column pruning at the decode
    cols = read_any(str(tmp_path / "part-0.avro"), columns=["k"]).to_pandas()
    assert list(cols.columns) == ["k"]


def test_read_any_tsv_delimiter(ray_session, tmp_path):
    """.tsv routes through the CSV reader with a TAB ParseOptions — the
    default comma delimiter read each line as a single cell."""
    from wrangler_ray.sources import read_any

    p = tmp_path / "rows.tsv"
    p.write_text("a\tb\n1\tx\n2\ty\n")
    out = read_any(str(p)).to_pandas()
    assert list(out.columns) == ["a", "b"]
    assert out["a"].tolist() == [1, 2]
    assert out["b"].tolist() == ["x", "y"]


def test_read_any_xlsx_and_compressed_csv(ray_session, tmp_path):
    """read_any decodes xlsx workbooks via the in-repo OOXML reader and
    sniffs compressed extensions (x.csv.gz) down to the inner format."""
    import gzip

    from wrangler_ray.ops.xlsx import xlsx_encode
    from wrangler_ray.sources import detect_format, read_any

    wb = tmp_path / "book.xlsx"
    wb.write_bytes(xlsx_encode([["n", "s"], [1, "x"], [2, "y"]]))
    assert detect_format(str(wb)) == "xlsx"
    out = read_any(str(wb)).to_pandas()
    # raw sheet shape: one STRING column per Excel letter (typed parsing is
    # the parse-as-excel directive's job)
    assert out["A"].tolist() == ["n", "1", "2"]
    assert out["B"].tolist() == ["s", "x", "y"]

    gz = tmp_path / "rows.csv.gz"
    gz.write_bytes(gzip.compress(b"a,b\n1,x\n2,y\n"))
    assert detect_format(str(gz)) == "csv"
    got = read_any(str(gz)).to_pandas()
    assert got["a"].tolist() == [1, 2] and got["b"].tolist() == ["x", "y"]


def test_connected_components(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from wrangler_ray.ops.cc import connected_components

    # a path (1-2-3-4), a pair (10-11), a singleton edge (20-20 not present)
    edges = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([1, 2, 3, 10], pa.int64()),
                "b": pa.array([2, 3, 4, 11], pa.int64()),
            }
        )
    )
    lab = {r["u"]: r["label"] for r in connected_components(edges).take_all()}
    assert lab == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}


@pytest.mark.parametrize("rows_per_part", [2048, 8])
def test_connected_components_fixed_point(ray_session, monkeypatch, rows_per_part):
    """A path over 80 shuffled ids is one component, labelled by its min
    id, however many rounds the labels take to cross it: in one partition,
    and in 10 (``ROWS_PER_PART`` 8 over 79 edges)."""
    import ray.data as rd

    from wrangler_ray import tasks
    from wrangler_ray.ops.cc import connected_components

    monkeypatch.setattr(tasks, "ROWS_PER_PART", rows_per_part)
    ids = np.random.default_rng(0).permutation(np.arange(1000, 1080))
    edges = rd.from_arrow(pa.table({"a": pa.array(ids[:-1], pa.int64()),
                                    "b": pa.array(ids[1:], pa.int64())}))
    lab = {r["u"]: r["label"] for r in connected_components(edges).take_all()}
    assert sorted(lab) == list(range(1000, 1080))
    assert set(lab.values()) == {1000}


def test_minhash_distributed_matches_driver(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from wrangler_ray.ops.dedup import minhash_lsh_dedup

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog!",
        "completely different content about ray data pipelines",
        "another unrelated document discussing arrow tables",
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": texts})
    )
    dist = sorted(minhash_lsh_dedup(ds, jaccard_threshold=0.7).to_pandas()["doc_id"])
    assert dist == [0, 3, 4]


def test_simhash_distributed_matches_driver(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from wrangler_ray.ops.dedup import simhash_dedup

    texts = [
        "the quick brown fox jumps over the lazy dog today",
        "the quick brown fox jumps over the lazy dog today",
        "completely different content about ray data pipelines",
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(3), pa.int64()), "text": texts})
    )
    dist = sorted(simhash_dedup(ds).to_pandas()["doc_id"])
    assert dist == [0, 2]


def test_hopping_window(ray_session):
    import datetime as dt

    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    from wrangler_ray.ops.window import hopping_window

    base = dt.datetime(2024, 1, 1)
    ts = [base + dt.timedelta(minutes=m) for m in (0, 10, 40, 70)]
    t = pa.table({"k": ["a"] * 4, "ts": pa.array(ts, pa.timestamp("us"))})
    out = (
        hopping_window(
            rd.from_arrow(t), ts_col="ts", key_cols=["k"],
            aggs=[Count(alias_name="n")], every="30 minute", period="1 hour",
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    # windows (start, count): 23:30→[0,10), 00:00→[0,10,40], 00:30→[40,70? 70>=60+30? win 00:30-01:30 holds 40,70], 01:00→[70]
    got = {row.window_start.to_pydatetime(): row.n for row in out.itertuples()}
    assert got[base - dt.timedelta(minutes=30)] == 2  # 00:00,00:10
    assert got[base] == 3                              # 00:00,00:10,00:40
    assert got[base + dt.timedelta(minutes=30)] == 2   # 00:40, 01:10
    assert got[base + dt.timedelta(minutes=60)] == 1   # 01:10
    # every event appears in exactly period/every = 2 windows
    assert out["n"].sum() == 8

    import pytest as _pytest

    with _pytest.raises(ValueError):
        hopping_window(rd.from_arrow(t), ts_col="ts", aggs=[Count()],
                       every="25 minute", period="1 hour")


def test_broadcast_join_dataset_and_empty_small_side(ray_session):
    """broadcast_join accepts a Ray Dataset small side (collected once) and
    an EMPTY small side yields left rows with null right columns — the
    degenerate shapes that crash Ray's native hash join."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from wrangler_ray.ops.joins import broadcast_join

    l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                                "a": pa.array(["x", "y", "z"])}))
    r = rd.from_arrow(pa.table({"k": pa.array([2, 3, 4], pa.int64()),
                                "b": pa.array([20, 30, 40], pa.int64())}))
    out = broadcast_join(l, r, on="k").to_pandas().sort_values("k")
    assert out["b"].tolist()[1:] == [20, 30] and pd.isna(out["b"].iloc[0])

    er = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64())}))
    out2 = broadcast_join(l, er, on="k").to_pandas()
    assert len(out2) == 3 and out2["b"].isna().all()


def test_hash_join_with_an_empty_side(ray_session):
    """Each side brings its own Arrow schema to the exchange, so an empty
    right side still joins: inner gives no rows on the joined schema,
    left_outer the left rows with null right columns."""
    import ray.data as rd

    from wrangler_ray.ops.joins import hash_join

    left_t = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "a": ["x", "y", "z"]})
    right_t = pa.table({"k": pa.array([], pa.int64()), "a": pa.array([], pa.string()),
                        "b": pa.array([], pa.float64())})
    joined = pa.schema([("k", pa.int64()), ("a", pa.string()), ("a_r", pa.string()),
                        ("b", pa.float64())])

    inner = hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t), on="k")
    assert inner.count() == 0
    assert inner.schema().base_schema.equals(joined)

    out = _arrow(hash_join(rd.from_arrow(left_t), rd.from_arrow(right_t), on="k",
                           how="left_outer")).sort_by("k")
    assert out.schema.equals(joined)
    assert out.column("a").to_pylist() == ["x", "y", "z"]
    assert out.column("a_r").null_count == out.column("b").null_count == 3

    both = hash_join(rd.from_arrow(left_t.slice(0, 0)), rd.from_arrow(right_t), on="k",
                     how="left_outer")
    assert both.count() == 0


def test_asof_join_keeps_integer_types(ray_session):
    """Output columns keep their input Arrow types on both sides; a left row
    with no match gets null, not NaN."""
    import ray.data as rd

    from wrangler_ray.ops.joins import asof_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([_ts(10), _ts(12), _ts(10)], pa.timestamp("us")),
        "eid": pa.array([2**60 + 1, 7, 8], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "ts": pa.array([_ts(11), _ts(11)], pa.timestamp("us")),
        "payload": pa.array([2**60 + 3, 9], pa.int64()),
        "eid": pa.array([5, 6], pa.int32()),
    }))
    out = _arrow(asof_join(left, right, key="k", ts_col="ts")).sort_by(
        [("k", "ascending"), ("ts", "ascending")])
    assert out.schema.field("eid").type == pa.int64()
    assert out.schema.field("payload").type == pa.int64()
    assert out.schema.field("eid_r").type == pa.int32()
    assert out.column("eid").to_pylist() == [2**60 + 1, 7, 8]
    assert out.column("payload").to_pylist() == [None, 2**60 + 3, None]
    assert out.column("eid_r").to_pylist() == [None, 5, None]


def test_sessionize_sharded_null_key_matches_plain(ray_session, monkeypatch):
    """Null keys form one key, also across a 1-day bucket boundary, as in
    one gap scan over the whole table."""
    import ray.data as rd

    from wrangler_ray.ops import window

    day, minute = 86_400_000_000, 60_000_000
    ts = [day - 60 * minute, day + 60 * minute, day + 70 * minute]
    t = pa.table({
        "user_id": pa.array([None] * 3 + [1] * 3, pa.int64()),
        "ts": pa.array(np.array(ts * 2, "datetime64[us]")),
    })
    monkeypatch.setattr(window, "BUCKET_US", day)
    plain = window._sessions(["user_id"], "ts", 30 * minute, t)[0]
    got = _arrow(window.sessionize(rd.from_arrow(t)))
    for out in (plain, got):
        out = out.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        assert out.column("session_id").to_pylist() == [0, 1, 1, 0, 1, 1]


def test_sessionize_null_ts_joins_last_session(ray_session, monkeypatch):
    """A null ts joins its key's last session, in a key spanning several
    time buckets and in a key whose only row has a null ts, as the
    ``lag()`` semantics of the ``sessionize_events`` oracle."""
    import ray.data as rd

    from wrangler_ray.ops import window

    day, minute = 86_400_000_000, 60_000_000
    monkeypatch.setattr(window, "BUCKET_US", day)
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array([1] * 5 + [2], pa.int64()),
        "ts": pa.array([0, minute, 3 * day, 6 * day, None, None], pa.timestamp("us")),
    })).repartition(3)
    got = _arrow(window.sessionize(ds)).sort_by([("user_id", "ascending"), ("ts", "ascending")])
    assert got.column("session_id").to_pylist() == [0, 0, 1, 2, 2, 0]
    stats = _arrow(window.session_stats(ds)).sort_by("user_id")
    assert stats.column("n_sessions").to_pylist() == [3, 1]
    assert stats.column("n_events").to_pylist() == [5, 1]


def test_sessionize_gap_wider_than_a_bucket(ray_session, monkeypatch):
    """The bucket stitch needs no bucket wider than ``gap``: with 1-hour
    buckets and a 1-day gap, sessions run across whole empty buckets and
    still match one gap scan over the whole table."""
    import ray.data as rd

    from wrangler_ray.ops import window

    hour = 3_600_000_000
    rng = np.random.RandomState(4)
    n = 3000
    t = pa.table({
        "user_id": pa.array(rng.randint(0, 20, n), pa.int64()),
        "ts": pa.array(np.cumsum(rng.choice([hour // 2, 5 * hour, 30 * hour], n))
                       .astype("datetime64[us]")),
    })
    monkeypatch.setattr(window, "BUCKET_US", hour)
    want = window._sessions(["user_id"], "ts", 24 * hour, t)[0]
    got = _arrow(window.sessionize(rd.from_arrow(t).repartition(4), gap="1 day"))
    got = got.sort_by([("user_id", "ascending"), ("ts", "ascending")])
    assert got.column("session_id").equals(want.column("session_id"))
    stats = _arrow(window.session_stats(rd.from_arrow(t), gap="1 day")).sort_by("user_id")
    assert stats.column("n_sessions").to_pylist() == [
        v + 1 for v in want.group_by("user_id").aggregate([("session_id", "max")])
        .sort_by("user_id").column("session_id_max").to_pylist()]


def test_tumbling_window_plural_units(events_ds):
    """``every`` takes plural units, as ``hopping_window`` and
    ``sessionize`` do."""
    from ray.data.aggregate import Count

    from wrangler_ray.ops.window import tumbling_window

    def counts(every):
        out = _arrow(tumbling_window(events_ds, ts_col="ts", aggs=[Count(alias_name="n")],
                                     every=every))
        return out.sort_by("window_start").column("n").to_pylist()

    assert counts("60 minutes") == counts("1 hours") == counts("1 hour") == [3, 2, 1]


def test_session_stats_empty_input(ray_session):
    """An empty input gives zero rows of ``(key, n_events, n_sessions)``."""
    import ray.data as rd

    from wrangler_ray.ops.window import session_stats

    out = session_stats(rd.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
    })))
    assert out.count() == 0
    assert [(f.name, f.type) for f in out.schema().base_schema] == [
        ("user_id", pa.int64()), ("n_events", pa.int64()), ("n_sessions", pa.int64())]


def test_sessionize_starts_no_ray_data_job(events_ds, monkeypatch):
    """With ``groupby``, ``map_batches``, ``repartition`` and ``aggregate``
    of every Dataset raising, sessionize and session_stats still run: both
    are plain Ray tasks."""
    import ray.data as rd

    from wrangler_ray.ops.window import session_stats, sessionize

    ds = events_ds.materialize()

    def banned(*a, **k):
        raise AssertionError("a Ray Data shuffle or map ran")

    with monkeypatch.context() as m:
        for name in ("groupby", "map_batches", "repartition", "aggregate"):
            m.setattr(rd.Dataset, name, banned)
        sess = _arrow(sessionize(ds))
        stats = _arrow(session_stats(ds))
    sess = sess.sort_by([("user_id", "ascending"), ("ts", "ascending")])
    assert sess.column("session_id").to_pylist() == [0, 0, 1, 1, 0, 1]
    stats = stats.sort_by("user_id")
    assert stats.column("n_sessions").to_pylist() == [2, 2]
    assert stats.column("n_events").to_pylist() == [4, 2]


def test_sessionize_spreads_a_hot_key(ray_session):
    """A key holding half of the rows over many time buckets comes out
    spread over blocks: no output block holds more than half of the
    rows."""
    import ray.data as rd

    from wrangler_ray.ops.window import BUCKET_US, sessionize
    from wrangler_ray.tasks import block_refs

    rng = np.random.RandomState(3)
    n = 20_000
    t = pa.table({
        "user_id": pa.array(np.where(rng.rand(n) < 0.5, 0, rng.randint(1, 500, n)), pa.int64()),
        "ts": pa.array(rng.randint(0, 40 * BUCKET_US, n).astype("datetime64[us]")),
    })
    rows = [k for _, k in block_refs(sessionize(rd.from_arrow(t).repartition(4)))]
    assert sum(rows) == n
    assert max(rows) <= n // 2, rows
