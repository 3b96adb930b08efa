"""Round-5 advisor-fix regressions (ADVICE.md r4 → r5 fixes)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from wrangler_ray.ops.dedup import exact_dedup


def test_hash_ids_null_text_never_collides_with_none_string(ray_session):
    """ADVICE r4 (medium): a null text must not collide with the literal
    string "None" (``pd.util.hash_array`` stringifies None, so the two hash
    alike). The exchange compares texts by value: all nulls dedup to ONE
    representative (``dropna=False``) and 'None' strings survive
    separately. (The name is kept from the removed ``method="hash_ids"``
    exchange this once compared against.)"""
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "text": ["a", "b", "a", None, "None", None, "b"],
        }
    )
    ds = rd.from_pandas(df)
    full = sorted(exact_dedup(ds).to_pandas()["doc_id"])
    assert full == [1, 2, 4, 5]


def test_hash_ids_dropped_ids_stay_distributed(ray_session):
    """Survivors on a corpus spread over several blocks, with duplicates
    across blocks: one per distinct text, the min id. (The name is kept
    from the removed ``method="hash_ids"`` exchange, whose dropped-id set
    this once checked.)"""
    rng = np.random.RandomState(7)
    n = 4000
    texts = [f"doc body {i % 900}" for i in range(n)]  # ~3.1k dups
    df = pd.DataFrame({"doc_id": rng.permutation(n), "text": texts})
    ds = rd.from_pandas(df).repartition(8)
    full = sorted(exact_dedup(ds).to_pandas()["doc_id"])
    assert full == sorted(df.groupby("text")["doc_id"].min())
    assert len(full) == 900


def test_hash_ids_no_duplicates_is_identity(ray_session):
    """No-dup corpus: the input must pass through intact."""
    df = pd.DataFrame({"doc_id": [3, 1, 2], "text": ["x", "y", "z"]})
    out = exact_dedup(rd.from_pandas(df)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 3]


def _ivf_fixture(tmp_path):
    import ray.data as rd

    from wrangler_ray.ops.ann_index import IvfIndex

    rng = np.random.RandomState(7)
    vecs = rng.randn(60, 8).astype(np.float32)

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "vec_id": pa.array(range(lo, hi), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs[lo:hi]],
                pa.list_(pa.float32())),
        }))

    idx = IvfIndex(str(tmp_path / "ivf"))
    idx.build(mk(0, 30), num_clusters=4, seed=3)
    idx.append(mk(30, 60))
    return idx, vecs


def test_ivf_compact_sweeps_orphan_dirs(ray_session, tmp_path):
    """ADVICE r5: a crash between compact's meta commit and old-dir deletion
    leaves dead incr dirs that _committed_incr_dirs never returns — the next
    compact used to early-return without sweeping them, leaking forever.
    _vacuum_orphans must remove them even on the <=1-live-dir path."""
    import os

    idx, vecs = _ivf_fixture(tmp_path)
    assert idx.compact() == 60
    # simulate the crash: a dead pre-compact dir reappears (number < incr,
    # not in live_incrs)
    orphan = tmp_path / "ivf" / "cells" / "incr-000000"
    os.makedirs(orphan / "c=0", exist_ok=True)
    (orphan / "c=0" / "junk.parquet").write_bytes(b"not parquet")
    assert idx.compact() == 0  # <=1 live dir — but the sweep still runs
    assert not orphan.exists()
    res = idx.query(vecs[5], k=3, nprobe=4).to_pandas()
    assert res["vec_id"].iloc[0] == 5


def test_minhash_index_compact_sweeps_orphan_dirs(ray_session, tmp_path):
    import os

    from wrangler_ray.ops.dedup_index import MinHashDedupIndex

    # genuinely distinct docs (no shared shingles) so both increments keep
    # survivors and compact has >1 dir to fold
    texts = [" ".join(f"w{i}x{j}" for j in range(12)) for i in range(20)]
    import ray.data as rd

    def mk(lo, hi):
        return rd.from_arrow(pa.table({
            "doc_id": pa.array(range(lo, hi), pa.int64()),
            "text": pa.array(texts[lo:hi], pa.string()),
        }))

    work = str(tmp_path / "idx")
    idx = MinHashDedupIndex(work, jaccard_threshold=0.7, sig_parts=4)
    idx.dedup_increment(mk(0, 10))
    idx.dedup_increment(mk(10, 20))
    assert idx.compact() > 0
    orphans = []
    for kind in ("texts", "signatures", "bands"):
        o = tmp_path / "idx" / kind / "incr-000000"
        os.makedirs(o, exist_ok=True)
        (o / "junk.parquet").write_bytes(b"x")
        orphans.append(o)
    assert idx.compact() == 0
    for o in orphans:
        assert not o.exists(), o
    # index still functional after the sweep: new ids (watermark is
    # monotone) carrying historical texts are all dropped as dups
    dup = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(20, 25), pa.int64()),
        "text": pa.array(texts[0:5], pa.string()),
    }))
    assert idx.dedup_increment(dup).count() == 0


def test_cdc_resume_survives_lost_spill_scratch(
    ray_session, tmp_path, monkeypatch, spills_at_commit
):
    """ADVICE r5: the persisted spill index says the spill phase is
    complete, but a spill file it indexes can still vanish before the merge
    (a store lifecycle rule, a manual staging cleanup). Resume used to trust
    it and every merge retry failed on the missing file. The engine must
    detect the missing spill, drop the index, and rewrite the spills."""
    import json

    import pyarrow.fs as pafs
    import ray.data as rd

    from wrangler_ray.cdc import engine as eng
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    d = tmp_path / "stream"
    info = generate_change_stream(str(d), n_convs=20, n_events=400,
                                  n_segments=2, seed=11)
    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    table = eng.CdcTable("lake", num_partitions=4, filesystem=fs)
    table.init_from_snapshot(rd.read_parquet(info["base"]))

    # crash AFTER the spill write + spill-index write, BEFORE the merge —
    # MergePartition is constructed driver-side right after the index write
    orig_init = eng.MergePartition.__init__

    def boom(self, *a, **k):
        raise RuntimeError("simulated crash before merge")

    monkeypatch.setattr(eng.MergePartition, "__init__", boom)
    with pytest.raises(Exception, match="simulated crash"):
        table.apply_changes(info["segments"])
    monkeypatch.setattr(eng.MergePartition, "__init__", orig_init)

    # the index was written... and then one indexed spill disappears
    (index_file,) = tmp_path.glob("lake/staging/*/spill-index.json")
    txn_dir = index_file.parent
    index = json.loads((txn_dir / "spill-index.json").read_text())
    before = {f for spills in index.values() for f, *_ in spills}
    (txn_dir / "spills" / sorted(before)[0]).unlink()

    # retry must rewrite the spills and reach full parity
    table2 = eng.CdcTable("lake", num_partitions=4, filesystem=fs)
    m = table2.apply_changes(info["segments"])
    assert m["txn_id"] == txn_dir.name
    indexed, on_disk = spills_at_commit[m["txn_id"]]
    assert indexed and indexed <= on_disk
    assert not indexed & before, "resume must rewrite, not reuse, the spills"
    oracle = replay_oracle(info["base"], info["segments"])
    assert_tables_equal(table2.read_arrow(), oracle)


def test_avro_union_bool_promotes_when_no_boolean_branch(caplog):
    """ADVICE r5: True under ["null","long"] must encode (bool is an int in
    Python and pre-typed-matching writers accepted it) — via int promotion,
    while a union WITH a boolean branch still picks boolean. The promotion
    is logged: one warning per call, naming the union; a call that
    promotes nothing logs nothing."""
    import logging

    from wrangler_ray.directives.avro_reader import read_container
    from wrangler_ray.ops.avro_writer import write_container

    schema = {
        "type": "record", "name": "R",
        "fields": [
            {"name": "flag_long", "type": ["null", "long"]},
            {"name": "flag_bool", "type": ["null", "boolean", "long"]},
        ],
    }
    payload = write_container(
        schema,
        [
            {"flag_long": True, "flag_bool": True},
            {"flag_long": False, "flag_bool": 7},
            {"flag_long": None, "flag_bool": None},
        ],
    )
    _schema, got = read_container(payload)
    assert got[0]["flag_long"] == 1 and got[0]["flag_bool"] is True
    assert got[1]["flag_long"] == 0 and got[1]["flag_bool"] == 7
    assert got[2]["flag_long"] is None and got[2]["flag_bool"] is None
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1
    assert warned[0].getMessage().endswith('boolean branch: ["null", "long"]')

    caplog.clear()
    write_container(schema, [{"flag_long": 5, "flag_bool": False}])
    assert not [r for r in caplog.records if r.levelno == logging.WARNING]


def test_sign_texts_byte_identical_to_per_doc_path():
    """VERDICT r4 #3: the batched signer must be byte-identical to the
    per-doc signature()/digest path for every edge case — unicode
    whitespace runs, short strings (char-pad vs byte-pad), multi-byte
    UTF-8, repeated shingles, None texts, empty strings. The exact tier's
    batched shingle sets (``_shingles``) equal the per-doc ones."""
    from wrangler_ray.ops.dedup import (
        MinHasher,
        _mix64,
        _shingle_hashes,
        _shingles,
        _sign_texts,
    )

    h = MinHasher(num_perm=64, shingle_k=5)
    texts = [
        "the quick brown fox jumps over the lazy dog",
        None,
        "",
        "ab",
        "a  b\t\tc\n d",           # whitespace runs
        "ÜBER façade ünïcode ß",   # multi-byte utf-8 (len(chars) != len(bytes))
        "aaaaaaaaaaaaaaaa",        # heavy repeated shingles
        " nbsp spaced",  # unicode whitespace (str.split semantics)
        "x" * 4,                   # exactly k-1 chars -> ljust pad
        "the quick brown fox jumps over the lazy dog",  # exact dup
    ]
    sigs, digs = _sign_texts(texts, h.a, h.b, h.shingle_k, h.num_perm)
    for i, x in enumerate(texts):
        ref_sig = h.signature(x)
        assert np.array_equal(sigs[i], ref_sig), f"sig mismatch doc {i}: {x!r}"
        sh = _shingle_hashes(x, h.shingle_k)
        ref_dig = (
            np.uint64(0)
            if len(sh) == 0
            else _mix64(np.bitwise_xor.reduce(np.unique(sh))[None])[0]
        )
        assert digs[i] == ref_dig, f"dig mismatch doc {i}: {x!r}"
    # exact dups produce identical signatures AND digests
    assert np.array_equal(sigs[0], sigs[9]) and digs[0] == digs[9]
    # the exact tier's batched shingle sets equal the per-doc ones
    got = _shingles("text", h.shingle_k, pa.table({"text": pa.array(texts, pa.string())}))
    for i, x in enumerate(texts):
        ref = np.unique(_shingle_hashes(x, h.shingle_k)).astype(np.int64).tobytes()
        assert got[i].as_py() == (ref if x is not None else b""), f"shingles doc {i}: {x!r}"


def test_bpe_pattern_engine_parity():
    """The canonical BPE-piece pattern is RE2-safe so the SAME pattern runs
    in pyarrow's RE2 kernel, Python re, and DuckDB oracles — all three
    engines must count identically on adversarial whitespace / contraction
    / punctuation / unicode shapes (guards pattern drift between the batch
    kernel, per-row fallbacks, and the SQL oracle)."""
    import random

    import duckdb

    from wrangler_ray.ops.text import _BPE_PAT_RE2, _BPE_RE

    cases = [
        "", " ", "  ", "a", " a", "a ", "a  ", "  a", "a b", "a  b",
        "a   b", "it's", "don't they'll we're I've I'm he'd", "a\t\tb",
        "x \t y", "1 22  333", "!!", "a!!b", "a !! b", "a'sx", "a''s",
        "tab\tnewline\nmix \n\t end  ", "...a...", "+-*/", "é ü ß",
        "word's  end'll", "'s", "''", "' '", "1'2", "a'b'c",
    ]
    rng = random.Random(42)
    alphabet = list("ab c'!.\t\n1é ")
    for _ in range(300):
        cases.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
    import pyarrow as _pa
    import pyarrow.compute as _pc

    arr = _pa.array(cases, _pa.string())
    re2_counts = _pc.count_substring_regex(arr, _BPE_PAT_RE2).to_pylist()
    con = duckdb.connect()
    for s, got in zip(cases, re2_counts):
        want = len(_BPE_RE.findall(s))
        assert got == want, f"{s!r}: arrow={got} python={want}"
        duck = con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [s, _BPE_PAT_RE2]
        ).fetchone()[0]
        assert duck == want, f"{s!r}: duckdb={duck} python={want}"


def _whole_table_sessions(t, gap="30 minute"):
    """The session ids of ``t`` from one gap scan over the whole table on
    the driver, sorted by (user_id, ts)."""
    from wrangler_ray.ops.window import _sessions, _span_us

    return _sessions(["user_id"], "ts", _span_us(gap), t)[0].to_pandas()


def test_sessionize_sharded_matches_plain(ray_session, monkeypatch):
    """VERDICT r4 #8: sessionize, sharded by 1-day time buckets and stitched
    at the bucket boundaries, must produce EXACTLY the session ids of one
    gap scan over the whole table, including sessions that span bucket
    boundaries and keys with empty buckets between active ones."""
    from wrangler_ray.ops import window

    rng = np.random.RandomState(9)
    rows = []
    us_day = 86_400_000_000
    for uid in range(6):
        t = rng.randint(0, us_day)
        for _ in range(rng.randint(30, 80)):
            # mixture of small gaps (same session), medium (new session),
            # and huge (skips whole buckets)
            r = rng.rand()
            t += int(
                rng.randint(1, 20 * 60_000_000) if r < 0.6
                else rng.randint(31 * 60_000_000, 3 * 3_600_000_000) if r < 0.9
                else rng.randint(3 * us_day, 9 * us_day)
            )
            rows.append((uid, t))
    # force boundary-straddling sessions: events 1 min apart across a 1-day
    # bucket edge
    for uid in (0, 1):
        edge = 5 * us_day
        rows += [(uid, edge - 30_000_000), (uid, edge + 30_000_000)]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[1] for r in rows], "datetime64[us]")),
    })
    ds = rd.from_arrow(t).repartition(8)
    plain = _whole_table_sessions(t)
    monkeypatch.setattr(window, "BUCKET_US", us_day)
    shard = (
        window.sessionize(ds)
        .to_pandas().sort_values(["user_id", "ts"]).reset_index(drop=True)
    )
    assert list(plain.columns) == ["user_id", "ts", "session_id"]
    assert sorted(shard.columns) == sorted(plain.columns)
    pd.testing.assert_frame_equal(plain, shard[plain.columns])


def test_sessionize_skew_within_2x_uniform(ray_session):
    """VERDICT r4 #8 done-criterion: a corpus where ONE key holds 50% of all
    rows must sessionize within 2× the uniform-key wall time (the group fn
    is vectorized, so the hot group is compute-cheap; this pins that
    property against per-row regressions)."""
    import time

    from wrangler_ray.ops.window import sessionize

    rng = np.random.RandomState(5)
    n = 400_000
    ts = pa.array(np.sort(rng.randint(0, 10**12, n)).astype("datetime64[us]"))
    uni = pa.table({
        "user_id": pa.array((np.arange(n) % 500).astype(np.int64)), "ts": ts
    })
    sk = pa.table({
        "user_id": pa.array(
            np.where(rng.rand(n) < 0.5, 0, rng.randint(1, 500, n)).astype(np.int64)
        ),
        "ts": ts,
    })
    def run(t):
        ds = rd.from_arrow(t).repartition(8).materialize()
        t0 = time.perf_counter()
        assert sessionize(ds).count() == n
        return time.perf_counter() - t0

    run(uni)  # warm
    t_uni = min(run(uni) for _ in range(2))
    t_skew = min(run(sk) for _ in range(2))
    assert t_skew <= 2 * t_uni + 1.0, (t_skew, t_uni)


def test_sessionize_sharded_degenerate_inputs(ray_session):
    """Empty input (degenerate empty-groupby block) and a single row must
    both produce the contract schema (input + session_id)."""
    from wrangler_ray.ops.window import sessionize

    empty = rd.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
    }))
    out = sessionize(empty)
    assert out.count() == 0
    assert set(out.schema().names) == {"user_id", "ts", "session_id"}

    one = rd.from_arrow(pa.table({
        "user_id": pa.array([7], pa.int64()),
        "ts": pa.array(np.array([123456], "datetime64[us]")),
    }))
    df = sessionize(one).to_pandas()
    assert len(df) == 1 and df["session_id"].iloc[0] == 0


def test_sessionize_sharded_random_streams_match_plain(ray_session, monkeypatch):
    """Randomized A/B: across several seeds and time-bucket widths,
    sessionize must equal one gap scan over the whole table row-for-row."""
    from wrangler_ray.ops import window

    us_hour = 3_600_000_000
    for seed in (1, 2, 3):
        rng = np.random.RandomState(seed)
        n = 1500
        keys = rng.randint(0, 12, n)
        # gaps spanning minutes to multiple days -> sessions regularly cross
        # shard boundaries
        steps = rng.choice(
            [60_000_000, 45 * 60_000_000, 30 * us_hour], size=n,
            p=[0.7, 0.2, 0.1],
        )
        ts = np.cumsum(steps) + rng.randint(0, us_hour, n)
        t = pa.table({
            "user_id": pa.array(keys, pa.int64()),
            "ts": pa.array(ts.astype("datetime64[us]")),
        })
        ds = rd.from_arrow(t).repartition(6)
        plain = _whole_table_sessions(t)
        for days in (1, 3):
            monkeypatch.setattr(window, "BUCKET_US", days * 24 * us_hour)
            got = (
                window.sessionize(ds).to_pandas()
                .sort_values(["user_id", "ts"]).reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(plain, got[plain.columns])


def test_cdc_objectstore_lww_random_stream(ray_session, tmp_path, spills_at_commit):
    """Randomized replay parity through the object-store exchange: a seeded
    random change stream applied through an injected pyarrow fs must match
    the pandas replay oracle exactly (LWW on lsn, deletes suppressed,
    stable order)."""
    import pyarrow.fs as pafs
    import ray.data as rd

    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    info = generate_change_stream(
        str(tmp_path / "s"), n_convs=40, n_events=1500, n_segments=3, seed=23,
        evolve_schema_at_segment=2,
    )
    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    table = CdcTable("lake", num_partitions=8, filesystem=fs)
    table.init_from_snapshot(rd.read_parquet(info["base"]))
    for seg in info["segments"]:  # incremental tail through the fs exchange
        m = table.apply_changes([seg])
        indexed, on_disk = spills_at_commit[m["txn_id"]]
        assert indexed and indexed <= on_disk
    oracle = replay_oracle(info["base"], info["segments"])
    assert_tables_equal(table.read_arrow(), oracle)


def test_cdc_objectstore_hot_partition_salted_merge(
    ray_session, tmp_path, monkeypatch, spills_at_commit
):
    """Hot-partition salting × object-store exchange: a skewed stream whose hot
    partition splits into salted sub-merges must reach replay parity when
    the spills live on the table's pyarrow.fs (ranged reads, several sub
    tasks re-reading the same spill batches through the reader cache)."""
    import pyarrow.fs as pafs
    import ray.data as rd

    from wrangler_ray.cdc import engine
    from wrangler_ray.cdc.engine import CdcTable
    from wrangler_ray.cdc.generate import generate_change_stream
    from wrangler_ray.cdc.oracle import assert_tables_equal, replay_oracle

    monkeypatch.setattr(engine, "SPLIT_ROWS", 200)  # force salted sub-merges
    info = generate_change_stream(
        str(tmp_path / "s"), n_convs=6, n_events=3000, n_segments=2, seed=31,
    )
    fs = pafs.SubTreeFileSystem(str(tmp_path), pafs.LocalFileSystem())
    table = CdcTable("lake", num_partitions=4, filesystem=fs)
    table.init_from_snapshot(rd.read_parquet(info["base"]))
    m = table.apply_changes(info["segments"])
    indexed, on_disk = spills_at_commit[m["txn_id"]]
    assert indexed and indexed <= on_disk
    oracle = replay_oracle(info["base"], info["segments"])
    assert_tables_equal(table.read_arrow(), oracle)
    # the hot partitions really did split (several staged sub-files)
    multi = [v for v in m["partitions"].values()
             if isinstance(v, list) and len(v) > 1]
    assert multi, "expected at least one salted multi-file partition"


def test_exact_dedup_keeps_large_string_schema(ray_session):
    """ADVICE r5: the within-block combiner round-tripped only blocks WITH
    duplicates through pandas, turning large_string into string, so blocks
    with and without duplicates entered the shuffle with different
    schemas. Both the combiner and the per-bucket reduce now subset with
    ``take``: every output block keeps the input's Arrow types."""
    import ray

    dups = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a", "b", "a", "b"], pa.large_string()),
    })
    uniq = pa.table({
        "doc_id": pa.array([5, 6, 7], pa.int64()),
        "text": pa.array(["a", "c", "d"], pa.large_string()),
    })
    out = exact_dedup(rd.from_arrow([dups, uniq]))
    blocks = [ray.get(r) for r in out.to_arrow_refs()]
    assert {b.schema.field("text").type for b in blocks if b.num_rows} == {
        pa.large_string()
    }
    got = pa.concat_tables([b for b in blocks if b.num_rows])
    assert sorted(got.column("doc_id").to_pylist()) == [1, 2, 6, 7]


def test_exact_dedup_keeps_null_id_rows(ray_session):
    """ADVICE r5: null ids cannot be ranked, so a null-id row is never
    dropped — string ids with nulls included."""
    t = pa.table({
        "doc_id": pa.array(["d1", None, "d3", None, "d5", "d6", None],
                           pa.string()),
        "text": pa.array(["a", "a", "b", "c", "a", "b", "c"], pa.string()),
    })
    out = exact_dedup(rd.from_arrow(t).repartition(3))
    ids = out.to_pandas()["doc_id"].tolist()
    assert sorted(i for i in ids if i is not None) == ["d1", "d3"]
    assert sum(i is None for i in ids) == 3
