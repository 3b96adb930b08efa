"""Arrow schema reconciliation — the additive schema-evolution primitive.

Replaces the reference's per-directive output-schema generation
(wrangler-core/.../executor/RecipePipelineExecutor.java:112-121 with
``DirectiveOutputSchemaGenerator``): in the new engine every batch carries its
Arrow schema, and whenever two tables with different (additive) schemas must
combine — CDC change segments with a new column, error-channel concat, merge
of old partition data with evolved changes — we unify the schemas and
null-backfill the missing columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """The value offsets (``len(arr) + 1`` of them, from 0) and the data
    bytes of the non-empty string or large_string array ``arr``, as numpy
    views of its buffers; a slice gives only its own values."""
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(arr.buffers()[1], width)[arr.offset:arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    data = np.empty(0, np.uint8) if data is None else np.frombuffer(data, np.uint8)
    return offsets - offsets[0], data[offsets[0]:offsets[-1]]


def set_column(table: pa.Table, name: str, arr) -> pa.Table:
    """``table`` with column ``name`` replaced by ``arr`` in place, or
    appended when the table has no such column."""
    if name in table.column_names:
        return table.set_column(table.column_names.index(name), name, arr)
    return table.append_column(name, arr)


def unified_schema(schemas: list[pa.Schema]) -> pa.Schema:
    """Unify schemas additively: union of fields in first-seen order; a field
    appearing with different types is promoted via pyarrow's unify (permissive)
    or falls back to string."""
    try:
        return pa.unify_schemas(list(schemas), promote_options="permissive")
    except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
        # Fall back: first-seen field wins; incompatible re-typed as string.
        fields: dict[str, pa.Field] = {}
        for s in schemas:
            for f in s:
                if f.name not in fields:
                    fields[f.name] = f
                elif fields[f.name].type != f.type:
                    fields[f.name] = pa.field(f.name, pa.string())
        return pa.schema(list(fields.values()))


def unify_to_schema(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project ``table`` onto ``schema``: missing columns null-backfilled,
    mismatched types cast, column order normalized to ``schema``."""
    n = table.num_rows
    cols = []
    for f in schema:
        if f.name in table.column_names:
            col = table.column(f.name)
            if col.type != f.type:
                col = col.cast(f.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def reconcile_tables(tables: list[pa.Table]) -> list[pa.Table]:
    """Bring a list of tables onto one unified schema (null-backfill)."""
    tables = [t for t in tables if t is not None]
    if not tables:
        return []
    schema = unified_schema([t.schema for t in tables])
    return [unify_to_schema(t, schema) for t in tables]


def concat_reconciled(tables: list[pa.Table]) -> pa.Table:
    ts = reconcile_tables(tables)
    if not ts:
        raise ValueError("no tables to concat")
    if len(ts) == 1:
        return ts[0]
    return pa.concat_tables(ts)
