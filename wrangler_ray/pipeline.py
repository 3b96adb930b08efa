"""Recipe → one fused chain task per input part.

Lifecycle (mirrors reference wrangler-transform/.../Wrangler.java:335-489 and
the executor at wrangler-core/.../executor/RecipePipelineExecutor.java, but
vectorized):

    recipe text ──parse (driver)──► [DirectiveCall]
                ──compile──► [Directive instances]  (args bound, regexes compiled)
    one plain Ray task per input part (``tasks.input_parts``): read the
    part (or take its block), DirectiveChain per block, return the output
    block and its metadata

The whole chain runs fused inside ONE call per block, inside the task that
reads the records when the input is a bare read (as the reference runs the
recipe in the stage that reads them), with errors threaded as a side table
(see core/errors.py).
"""

from __future__ import annotations

import functools
from typing import Optional, Union

import pyarrow as pa

from wrangler_ray.core.errors import (
    ERROR_COLUMNS,
    PipelineAbort,
    empty_error_table,
)
from wrangler_ray.core.registry import Directive, DirectiveContext, get_directive_class
from wrangler_ray.core.schema import concat_reconciled, unified_schema, unify_to_schema
from wrangler_ray.parser.recipe import parse_recipe
from wrangler_ray.tasks import (
    _from_blocks,
    _run_tasks,
    block_meta,
    input_parts,
    part_blocks,
    to_arrow,
)

# Importing the directives package registers every directive.
import wrangler_ray.directives  # noqa: F401  (registration side effect)


def compile_recipe(
    recipe: Union[str, list[str]],
    environment: Optional[dict] = None,
    config=None,
    migrate: bool = False,
) -> list[Directive]:
    """Parse + bind arguments: recipe text → list of ready Directive instances.

    ``config`` is an optional ``DirectiveConfig`` (exclusions + aliases,
    reference parser/ConfigDirectiveContext.java:27-64): each call name is
    dereferenced through the alias map and checked against the exclusion
    list before registry lookup — excluded names raise ``RecipeParseError``.
    ``migrate=True`` first rewrites legacy v1 syntax to the v2 grammar
    (reference parser/MigrateToV2.java:67-90).
    """
    if migrate:
        from wrangler_ray.parser.migrate import migrate_to_v2

        recipe = migrate_to_v2(recipe)
    calls = parse_recipe(recipe)
    directives = []
    for call in calls:
        name = config.resolve(call.name) if config is not None else call.name
        cls = get_directive_class(name)
        directives.append(cls(call))
    return directives


class DirectiveChain:
    """The fused batch function: Arrow table in → tagged Arrow table out.

    on_error:
      - "skip": error rows silently dropped (reference on-error=skip-error,
        Wrangler.java:444-464)
      - "fail": first error row aborts the job (on-error=fail-pipeline)
      - "tag":  error rows appended with ``_wr_code/_wr_msg/_wr_directive/_wr_row``
        columns filled and data columns nulled (send-to-error-port)
    """

    def __init__(
        self,
        directives: list[Directive],
        on_error: str = "skip",
        environment: Optional[dict] = None,
    ):
        assert on_error in ("skip", "fail", "tag")
        self.directives = directives
        self.on_error = on_error
        self.environment = environment or {}

    def lineage(self) -> list[dict]:
        """Per-directive field lineage declarations (reference
        lineage/LineageOperations.java:38-80): which columns each directive
        reads and writes, in chain order."""
        return [d.lineage() for d in self.directives]

    def transform(
        self, batch: pa.Table, ctx: Optional[DirectiveContext] = None
    ) -> tuple[pa.Table, pa.Table]:
        """Run the chain in ``ctx`` (a fresh context when None); return
        (ok, errors)."""
        if ctx is None:
            ctx = DirectiveContext(self.environment)
        ok = batch
        errs: list[pa.Table] = []
        for d in self.directives:
            if ok.num_rows == 0:
                break
            ok, err = d.apply(ok, ctx)
            if err is not None and err.num_rows:
                errs.append(err)
        err_table = concat_reconciled(errs) if errs else empty_error_table()
        return ok, err_table

    def __call__(self, batch: pa.Table) -> pa.Table:
        ok, err = self.transform(batch)
        if err.num_rows and self.on_error == "fail":
            first = err.slice(0, 1).to_pylist()[0]
            raise PipelineAbort(
                f"row failed in directive '{first['_wr_directive']}': {first['_wr_msg']}"
            )
        if self.on_error != "tag":
            return ok
        # tag: unify ok-schema + error columns, null-backfill both sides.
        tag_schema = unified_schema([ok.schema, err.schema])
        parts = [unify_to_schema(ok, tag_schema)]
        if err.num_rows:
            parts.append(unify_to_schema(err, tag_schema))
        return pa.concat_tables(parts)


class RecipeResult:
    """Handle on a recipe applied with on_error="tag".

    ``dataset`` is the tagged output, materialized by ``apply_recipe``;
    ``ok()`` / ``errors()`` filter it. ``write_split()`` writes it as two
    parquet trees split on the error flag, in one pass over its blocks.
    """

    def __init__(self, dataset):
        self.dataset = dataset

    def write_split(self, out_dir: str, **write_kwargs) -> dict:
        """Write the tagged output as two parquet trees in one pass:
        ``<out_dir>/ok/`` (error columns dropped) and ``<out_dir>/errors/``
        (the 4 error columns only, one file per block that holds errors).
        Returns ``{"ok": path, "errors": path}``."""
        import os

        import pyarrow.compute as pc

        ok_dir = os.path.join(out_dir, "ok")
        err_dir = os.path.join(out_dir, "errors")
        os.makedirs(ok_dir, exist_ok=True)
        os.makedirs(err_dir, exist_ok=True)

        def split_batch(t: pa.Table) -> pa.Table:
            # one pass per batch: write the error slice to its tree as a side
            # output, return the ok slice for the main write_parquet sink
            if "_wr_code" not in t.column_names:
                return t
            import hashlib
            import io

            import pyarrow.parquet as pq

            mask = pc.is_valid(t.column("_wr_code"))
            errs = t.filter(mask).select(
                [c for c in ERROR_COLUMNS if c in t.column_names]
            )
            if errs.num_rows:
                # deterministic content-derived filename: a Ray task retry /
                # speculative re-execution of the same block OVERWRITES its
                # own file instead of duplicating error rows. The digest runs
                # over the FULL input batch (ok rows included), not just the
                # 4-column error slice — two different blocks can easily
                # produce byte-identical error tables on dup-heavy corpora
                # and must not collide on the same filename
                sink = io.BytesIO()
                with pa.ipc.new_stream(sink, t.schema) as w:
                    w.write_table(t)
                digest = hashlib.blake2b(sink.getvalue(), digest_size=12).hexdigest()
                pq.write_table(
                    errs, os.path.join(err_dir, f"errors-{digest}.parquet")
                )
            return t.filter(pc.invert(mask)).drop_columns(
                [c for c in ERROR_COLUMNS if c in t.column_names]
            )

        self.dataset.map_batches(
            split_batch, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(ok_dir, **write_kwargs)
        return {"ok": ok_dir, "errors": err_dir}

    def ok(self):
        import pyarrow.compute as pc

        def drop_err(t: pa.Table) -> pa.Table:
            if "_wr_code" not in t.column_names:
                return t
            mask = pc.is_null(t.column("_wr_code"))
            return t.filter(mask).drop_columns(
                [c for c in ERROR_COLUMNS if c in t.column_names]
            )

        return self.dataset.map_batches(drop_err, batch_format="pyarrow")

    def errors(self):
        import pyarrow.compute as pc

        def keep_err(t: pa.Table) -> pa.Table:
            if "_wr_code" not in t.column_names:
                return t.schema.empty_table().select([])
            mask = pc.is_valid(t.column("_wr_code"))
            return t.filter(mask).select([c for c in ERROR_COLUMNS if c in t.column_names])

        return self.dataset.map_batches(keep_err, batch_format="pyarrow")


def recipe_lineage(
    recipe: Union[str, list[str]],
    environment: Optional[dict] = None,
    config=None,
    migrate: bool = False,
) -> list[dict]:
    """COMPILE-TIME field-level lineage for a recipe (reference
    lineage/LineageOperations.java:38-80 / api/lineage/Mutation): one entry
    per directive, in chain order, each declaring its relation ``kind``
    ("transform" | "filter" | "drop" | "keep" | "generate"), the columns it
    ``reads`` and the columns it ``writes``. No data is touched — the graph
    comes from argument binding alone, so it is available before execution
    (the same declarations a recipe-bearing ``CdcTable.apply_changes``
    records in the committed manifest as ``directive_lineage``)."""
    return DirectiveChain(
        compile_recipe(recipe, environment=environment, config=config,
                       migrate=migrate)
    ).lineage()


def apply_recipe(
    ds,
    recipe: Union[str, list[str]],
    on_error: str = "skip",
    environment: Optional[dict] = None,
    config=None,
    migrate: bool = False,
):
    """Apply a recipe to a ``ray.data.Dataset`` (the ``TestingRig.execute``
    equivalent — reference wrangler-core/src/test/java/.../TestingRig.java:79-93).
    Eager: runs the chain and returns a materialized Dataset (on_error=skip
    or fail) or a RecipeResult over one (on_error=tag); a failed row under
    on_error=fail raises ``PipelineAbort``.

    One plain Ray task per part of ``ds`` (``tasks.input_parts``) runs the
    chain over each block of its part and returns their outputs as one
    block, in input order. The parts come from one of two sources: when
    ``ds`` is a bare read that splits into at least two read tasks, each
    task runs one of them itself, so no Ray Data operator stands between
    the read and the chain (this reads Ray's internal logical plan); else
    the blocks of ``ds``'s own execution, streamed into the tasks. The
    output Dataset is built from the metadata the tasks return.

    ``config``: optional ``DirectiveConfig`` applying admin exclusions and
    aliases at compile time. ``migrate=True`` accepts legacy v1 recipe
    syntax.
    """
    directives = compile_recipe(recipe, environment, config=config, migrate=migrate)
    chain = DirectiveChain(directives, on_error=on_error, environment=environment)
    out = _from_blocks([(refs[0], meta) for meta, refs in _run_tasks(
        functools.partial(_chain_part, chain), input_parts(ds), num_returns=2)])
    if on_error == "tag":
        return RecipeResult(out)
    return out


def _chain_part(chain: DirectiveChain, part) -> tuple:
    """One ``apply_recipe`` task: ``(metadata, output block)`` of ``chain``
    over each block of ``part``, the outputs concatenated."""
    out = [chain(to_arrow(b)) for b in part_blocks(part)]
    # the read task of an empty parquet file yields no block
    out = concat_reconciled(out) if out else pa.table({})
    return block_meta(out), out


def apply_recipe_table(
    table: pa.Table,
    recipe: Union[str, list[str]],
    environment: Optional[dict] = None,
) -> tuple[pa.Table, pa.Table]:
    """Driver-side / test-rig execution over one in-memory Arrow table.

    Returns (ok, errors) exactly like the fused chain does per batch.
    """
    directives = compile_recipe(recipe, environment)
    chain = DirectiveChain(directives, on_error="tag", environment=environment)
    return chain.transform(table)


def collect_global_variables(ds, recipe, environment=None) -> dict:
    """Run the chain for its TRANSIENT-VARIABLE side effects and merge the
    GLOBAL scope across batches (reference TransientStore GLOBAL semantics,
    wrangler-api/.../TransientStore.java:27-64: per-task totals; here each
    batch emits its partial variables and numeric partials are summed —
    the §2.12 'per-batch partials + final reduce' mapping). The tasks are
    ``apply_recipe``'s, one per input part; each returns only its blocks'
    partials, merged here in input order."""
    directives = compile_recipe(recipe, environment)
    chain = DirectiveChain(directives, on_error="skip", environment=environment)
    merged: dict = {}
    for partials in _run_tasks(functools.partial(_part_variables, chain), input_parts(ds)):
        for part in partials:
            for k, v in part.items():
                if isinstance(v, (int, float)) and isinstance(merged.get(k), (int, float)):
                    merged[k] = merged[k] + v
                else:
                    merged.setdefault(k, v)
    return merged


def _part_variables(chain: DirectiveChain, part) -> list[dict]:
    """One ``collect_global_variables`` task: the variables ``chain`` sets
    over each block of ``part``, one dict per block."""
    partials = []
    for b in part_blocks(part):
        ctx = DirectiveContext(chain.environment)
        chain.transform(to_arrow(b), ctx)
        partials.append(ctx.variables)
    return partials
