import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture
def spills_at_commit(monkeypatch, tmp_path):
    """Record, per committed CDC transaction, ``(indexed, on_disk)``: the
    spill file names the txn's spill index lists, and the ``*.arrow`` names
    found on local disk under ``tmp_path/<table_dir>/staging/<txn>/spills/``
    just before the commit deletes them. Tables under test run on a
    ``SubTreeFileSystem`` rooted at ``tmp_path``, so a non-empty ``indexed``
    that is a subset of ``on_disk`` shows the exchange went through the
    injected filesystem."""
    import json

    from wrangler_ray.cdc.engine import CdcTable

    seen: dict = {}
    finalize = CdcTable._finalize

    def spy(self, lineage, txn_id, *args, **kwargs):
        staging = tmp_path / self.table_dir / "staging" / txn_id
        index = staging / "spill-index.json"
        indexed = set()
        if index.exists():
            indexed = {
                f for spills in json.loads(index.read_text()).values()
                for f, *_ in spills
            }
        on_disk = {p.name for p in (staging / "spills").glob("*.arrow")}
        seen[txn_id] = (indexed, on_disk)
        return finalize(self, lineage, txn_id, *args, **kwargs)

    monkeypatch.setattr(CdcTable, "_finalize", spy)
    return seen
