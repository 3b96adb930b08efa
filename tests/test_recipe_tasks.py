"""``apply_recipe`` on the task window: one plain Ray task per input part,
fed by the read's own read tasks (a bare read with at least two of them)
or by the input's blocks, and an output Dataset built from the metadata
the tasks return. Every route must give the rows of ``apply_recipe_table``
over the same input."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import gen, oracles
from perfbench.workloads import LIGHT_RECIPE

ROWS = 4000


@pytest.fixture(scope="module")
def rows():
    return gen.change_stream(gen.rng_for(1, 3), ROWS, 200, 32)


def _table(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")


def _digest_equal(ds, t: pa.Table) -> None:
    """``apply_recipe`` over ``ds`` gives ``apply_recipe_table`` over ``t``."""
    from wrangler_ray.pipeline import apply_recipe, apply_recipe_table

    got = _table(apply_recipe(ds, LIGHT_RECIPE))
    want, _ = apply_recipe_table(t, LIGHT_RECIPE)
    assert got.num_rows == want.num_rows
    assert oracles.table_digest(got) == oracles.table_digest(want)


@pytest.mark.parametrize("files", [1, 2, 4, 16])
def test_bare_read_matches_table_run(ray_session, rows, tmp_path, files):
    import ray.data as rd

    _digest_equal(rd.read_parquet(gen.write_segments(rows, str(tmp_path), files)), rows)


def test_read_options_reach_the_read_tasks(ray_session, rows, tmp_path):
    import ray.data as rd

    segs = gen.write_segments(rows, str(tmp_path / "segs"), 4)
    _digest_equal(rd.read_parquet(segs, override_num_blocks=8), rows)
    cols = [c for c in rows.column_names if c != "ts"]
    _digest_equal(rd.read_parquet(segs, columns=cols), rows.select(cols))


def test_hive_partitions_keep_their_column(ray_session, rows, tmp_path):
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe

    root = str(tmp_path / "hive")
    pq.write_to_dataset(rows, root, partition_cols=["role"])
    assert len(glob.glob(root + "/role=*")) >= 2
    # the reference rows are Ray Data's own read of the directory
    _digest_equal(rd.read_parquet(root), _table(rd.read_parquet(root)))
    assert "role" in apply_recipe(rd.read_parquet(root), LIGHT_RECIPE).schema().names


def test_block_sources_match_table_run(ray_session, rows, tmp_path):
    """A read followed by a map, and in-memory tables: the blocks of the
    input's execution feed the tasks."""
    import ray.data as rd

    segs = gen.write_segments(rows, str(tmp_path), 4)
    _digest_equal(rd.read_parquet(segs).map_batches(lambda t: t, batch_format="pyarrow"), rows)
    _digest_equal(rd.from_arrow([rows.slice(0, 1500), rows.slice(1500)]), rows)


def test_union_writes_one_error_file_per_block_and_matches(ray_session, tmp_path):
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe, apply_recipe_table

    t1 = pa.table({"k": pa.array([0, 1, 2], pa.int64())})
    t2 = pa.table({"k": pa.array([0, 7, 8], pa.int64())})
    recipe = ["send-to-error exp:{k == 0} 'zero'"]
    res = apply_recipe(rd.from_arrow(t1).union(rd.from_arrow(t2)), recipe, on_error="tag")
    out = res.write_split(str(tmp_path / "out"))
    assert len(glob.glob(out["errors"] + "/*.parquet")) == 2
    ok = _table(res.ok())
    want, _ = apply_recipe_table(pa.concat_tables([t1, t2]), recipe)
    assert oracles.table_digest(ok) == oracles.table_digest(want)


def test_bare_read_starts_no_ray_data_job(ray_session, rows, tmp_path, monkeypatch):
    """With ``map_batches`` and ``iter_internal_ref_bundles`` of every
    Dataset raising, a bare read still runs, and the output counts from
    its metadata."""
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe, apply_recipe_table

    ds = rd.read_parquet(gen.write_segments(rows, str(tmp_path), 4))

    def banned(*a, **k):
        raise AssertionError("a Ray Data job ran")

    with monkeypatch.context() as m:
        for name in ("map_batches", "iter_internal_ref_bundles"):
            m.setattr(rd.Dataset, name, banned)
        out = apply_recipe(ds, LIGHT_RECIPE)
        n = out.count()
    assert n == apply_recipe_table(rows, LIGHT_RECIPE)[0].num_rows
    assert oracles.table_digest(_table(out)) == oracles.table_digest(
        apply_recipe_table(rows, LIGHT_RECIPE)[0])


def test_global_variables_sum_over_parts(ray_session, rows, tmp_path):
    import ray.data as rd

    from wrangler_ray.pipeline import collect_global_variables

    recipe = ["increment-variable n_user 1 exp:{role == 'user'}",
              "increment-variable n 1 exp:{true}"]
    want = {"n_user": rows.column("role").to_pylist().count("user"), "n": ROWS}
    segs = gen.write_segments(rows, str(tmp_path), 4)
    for ds in (rd.read_parquet(segs), rd.from_arrow([rows.slice(0, 1500), rows.slice(1500)])):
        assert collect_global_variables(ds, recipe) == want


@pytest.mark.parametrize("source", ["read", "blocks"])
def test_output_blocks_keep_input_order(ray_session, rows, tmp_path, source):
    import ray
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe

    if source == "read":
        ds = rd.read_parquet(gen.write_segments(rows, str(tmp_path), 8))
    else:
        ds = rd.from_arrow([rows.slice(i, 500) for i in range(0, ROWS, 500)])
    out = apply_recipe(ds, LIGHT_RECIPE)
    lsn = np.concatenate([b.column("lsn").to_numpy() for b in ray.get(out.to_arrow_refs())])
    assert len(lsn) and (np.diff(lsn) > 0).all()


def test_empty_input_gives_no_rows(ray_session, rows):
    import ray.data as rd

    from wrangler_ray.pipeline import apply_recipe

    assert apply_recipe(rd.from_arrow(rows.slice(0, 0)), LIGHT_RECIPE).count() == 0


def test_fail_mode_raises_pipeline_abort(ray_session):
    import ray.data as rd

    from wrangler_ray.core.errors import PipelineAbort
    from wrangler_ray.pipeline import apply_recipe

    with pytest.raises(PipelineAbort):
        apply_recipe(rd.from_arrow(pa.table({"v": [1, 100]})), ["fail exp:{v > 50}"],
                     on_error="fail").count()


def test_outputs_need_no_from_arrow_refs(ray_session, rows, monkeypatch):
    """With ``ray.data.from_arrow_refs`` raising, every operator whose
    output is built from its tasks' blocks gives the rows it gives
    without the patch, and none runs a ``block_meta`` task of its own:
    ``minhash_lsh_dedup``'s artifact Datasets are built from the metadata
    its sign tasks return."""
    import ray.data as rd
    import ray.data.read_api

    from wrangler_ray import tasks
    from wrangler_ray.ops import dedup
    from wrangler_ray.ops.cc import connected_components
    from wrangler_ray.ops.dedup import exact_dedup, minhash_lsh_dedup
    from wrangler_ray.ops.joins import asof_join, hash_join
    from wrangler_ray.ops.window import session_stats, sessionize
    from wrangler_ray.pipeline import apply_recipe

    words = ["alpha beta gamma delta", "alpha beta gamma delta", "epsilon zeta eta theta",
             "alpha beta gamma deltas", "iota kappa lambda mu"]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64()),
                                   "text": words}))
    events = rd.from_arrow(rows.select(["lsn", "conv_id", "ts"]))
    convs = rd.from_arrow(pa.table({"conv_id": [f"conv-{i}" for i in range(0, 200, 3)],
                                    "tag": list(range(0, 200, 3))}))
    edges = rd.from_arrow(pa.table({"a": pa.array([1, 2, 7], pa.int64()),
                                    "b": pa.array([2, 3, 8], pa.int64())}))
    # rd.from_arrow runs from_arrow_refs: every input is built before the patch
    table = rd.from_arrow(rows)
    ops = {
        "apply_recipe": lambda: apply_recipe(table, LIGHT_RECIPE),
        "exact_dedup": lambda: exact_dedup(docs),
        "minhash": lambda: minhash_lsh_dedup(docs, jaccard_threshold=0.5),
        # the digest cannot sort the signed artifact's fixed-size-list column
        **{f"minhash_artifact_{i}": (lambda i=i: minhash_lsh_dedup(
            docs, jaccard_threshold=0.5, return_artifacts=True)[i].drop_columns(
                ["sig"] if i == 1 else [])) for i in range(3)},
        "hash_join": lambda: hash_join(events, convs, on="conv_id"),
        "asof_join": lambda: asof_join(events, events.select_columns(["conv_id", "ts", "lsn"]),
                                       key="conv_id", ts_col="ts"),
        "sessionize": lambda: sessionize(events, key_col="conv_id", gap="1 minute"),
        "session_stats": lambda: session_stats(events, key_col="conv_id", gap="1 minute"),
        "connected_components": lambda: connected_components(edges),
    }
    want = {name: oracles.table_digest(_table(op())) for name, op in ops.items()}

    def banned(*a, **k):
        raise AssertionError("from_arrow_refs ran")

    def no_meta_tasks(run):
        def spy(fn, *a, **k):
            assert fn is not tasks.block_meta, "a block_meta task ran"
            return run(fn, *a, **k)
        return spy

    with monkeypatch.context() as m:
        m.setattr(rd, "from_arrow_refs", banned)
        m.setattr(ray.data.read_api, "from_arrow_refs", banned)
        for mod in (tasks, dedup):
            m.setattr(mod, "_run_tasks", no_meta_tasks(mod._run_tasks))
        got = {name: oracles.table_digest(_table(op())) for name, op in ops.items()}
    assert got == want
