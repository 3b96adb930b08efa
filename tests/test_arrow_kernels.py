"""The whole-block Arrow/numpy paths of ``parse-as-json`` and ``mask-number``
against their per-row paths, block by block and without Ray: the same ok
table (schema, column order, values) and the same error rows, or the same
exception. A block the fast path cannot reproduce exactly must fall back,
so every fallback trigger is generated too.
"""

import json

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrangler_ray.core.registry import DirectiveContext
from wrangler_ray.directives import parsers, transform
from wrangler_ray.pipeline import compile_recipe


def _directive(text):
    return compile_recipe([text])[0]


def _outcome(fn):
    """``("ok", schema, rows, errors)`` of a directive call, or the
    exception type it raised; rows as ``repr`` so NaN, -0.0 and int/float
    compare exactly."""
    try:
        ok, err = fn()
    except Exception as e:  # noqa: BLE001 - the per-row path's own errors
        return ("raised", type(e))
    err_rows = [] if err is None else err.to_pylist()
    return ("ok", ok.schema, repr(ok.to_pylist()), err_rows)


def _variants(table, draw):
    """The same block as one chunk, two chunks, a slice of a larger table,
    or with a large_string JSON column."""
    how = draw(st.sampled_from(["plain", "chunked", "sliced", "large"]))
    if how == "chunked" and table.num_rows > 1:
        k = table.num_rows // 2
        return pa.concat_tables([table.slice(0, k), table.slice(k)])
    if how == "sliced":
        padded = pa.concat_tables([table.slice(0, 1), table, table.slice(0, 1)]).combine_chunks()
        return padded.slice(1, table.num_rows)
    if how == "large":
        i = table.column_names.index("j")
        return table.set_column(i, "j", table.column("j").cast(pa.large_string()))
    return table


# -- parse-as-json --------------------------------------------------------------

# each of these sends a block to the per-row path
_TRIGGERS = [
    None,  # null cell
    "",  # blank cells
    "  \t ",
    '{"a": 1}\n',  # spans lines
    '{"a":\n1}',
    '{"a": 1}\r',
    '{"a": 1}{"a": 2}',  # two values in one cell: Arrow reads two rows
    '[{"a": 1}, {"a": 2}]',  # top-level array or scalar
    "7",
    "null",
    '"s"',
    '{"a": 1, "a": 2}',  # duplicate key
    '{"a": true}',  # bool or string mixed with a number
    '{"a": "1"}',
    '{"a": {"b": 1}}',  # object or array field
    '{"a": [1, 2]}',
    "{bad",  # invalid JSON
    '{"a": 1,}',
    '{"a": NaN}',  # non-finite doubles
    '{"a": -Infinity}',
    '{"a": Inf}',  # Arrow reads these; json.loads rejects them
    '{"a": -NaN}',
    '﻿{"a": 1}',
    '{"a": 1e400}',
    '{"a": -0}',  # -0.0 in a double column for Arrow, 0.0 per row
    '{"a": 123456789012345678901234}',  # beyond int64
    '{"a": 1234567890123456789}',  # 19 digits
    '{"a": 9007199254740993}',  # past 2**53
]

_TIMESTAMPS = ["2020-01-01", "2020-01-01T00:00:00Z", "2020-01-01 10:00:00",
               "2020-01-01T00:00:00.123", "1999-12-31T23:59:59"]

_VALUES = {
    "int": st.integers(-(10**6), 10**6),
    "bigint": st.integers(-(2**64), 2**64) | st.integers(-(10**17), 10**17),
    "float": st.floats(width=64) | st.integers(-1000, 1000),  # mixed int/float
    "finite": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "bool": st.booleans(),
    "str": st.text(max_size=12) | st.sampled_from(_TIMESTAMPS),
    "ts": st.sampled_from(_TIMESTAMPS),
    "null": st.none(),
    "any": st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    "nested": st.dictionaries(st.sampled_from("pq"), st.integers(0, 9), max_size=2)
    | st.lists(st.integers(0, 9), max_size=2),
}
_KEYS = ["a", "b", "c_d", "é", "", "x/y", "a.b"]


@st.composite
def _json_tables(draw):
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True))
    kind = {k: draw(st.sampled_from(sorted(_VALUES))) for k in keys}
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        present = draw(st.permutations(keys))[: draw(st.integers(0, len(keys)))]
        obj = {k: draw(_VALUES[kind[k]]) for k in present}
        sep = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        cells.append(pad + json.dumps(obj, separators=sep, ensure_ascii=draw(st.booleans())))
    if draw(st.integers(0, 2)) == 0:
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_TRIGGERS))
    n = len(cells)
    cols = {"id": pa.array(range(n), pa.int64()), "j": pa.array(cells, pa.string())}
    if draw(st.booleans()):  # a column that a flattened key overwrites
        old = {"j_a": pa.array(["old"] * n)}
        cols = {**old, **cols} if draw(st.booleans()) else {**cols, **old}
    return _variants(pa.table(cols), draw)


@settings(max_examples=400, deadline=None)
@given(_json_tables(), st.sampled_from([1, 2, -1]))
def test_parse_as_json_fast_path_equals_per_row(table, depth):
    d = _directive(f"parse-as-json :j {depth}")
    fast = _outcome(lambda: d.apply(table, DirectiveContext({})))
    rows = _outcome(lambda: d._apply_rows(table, "j"))
    assert fast == rows


@pytest.mark.parametrize("cell", _TRIGGERS)
def test_parse_as_json_trigger_falls_back(cell):
    cells = ['{"a": 1.5, "b": "w"}', cell, '{"a": 2, "b": "v"}']
    assert parsers._read_json_lines(pa.chunked_array([pa.array(cells, pa.string())])) is None
    d = _directive("parse-as-json :j 1")
    table = pa.table({"j": cells})
    assert _outcome(lambda: d.apply(table, DirectiveContext({}))) == \
        _outcome(lambda: d._apply_rows(table, "j"))


@pytest.mark.parametrize("cells", [
    ['{"a": 1, "t": "2020-01-01"}', '{"a": 2.5, "t": "2020-01-01T00:00:00Z"}'],
    ['{"a": 1}', '{"a": 2.5}', '{"b": null}'],
    ['{"a": true, "s": "x"}', '{}', ' {"s": "\\u00e9\\ud83d\\ude00"} '],
    ['{"a": 123456789012345678}', '{"a": -5}'],  # 18 digits, int64 only
])
def test_parse_as_json_clean_blocks_take_the_fast_path(cells):
    table = pa.table({"id": range(len(cells)), "j_a": ["old"] * len(cells), "j": cells})
    assert parsers._read_json_lines(table.column("j")) is not None
    d = _directive("parse-as-json :j 1")
    fast = _outcome(lambda: d.apply(table, DirectiveContext({})))
    assert fast == _outcome(lambda: d._apply_rows(table, "j"))
    assert fast[1].names[:2] == ["id", "j_a"]  # the collided column keeps its place


def test_parse_as_json_keeps_timestamp_like_text():
    d = _directive("parse-as-json :j 1")
    ok, _ = d.apply(pa.table({"j": ['{"t": "2020-01-01"}', '{"t": "2021-02-03 04:05:06"}']}),
                    DirectiveContext({}))
    assert ok.schema.field("j_t").type == pa.string()
    assert ok.column("j_t").to_pylist() == ["2020-01-01", "2021-02-03 04:05:06"]


def test_parse_as_json_integer_beyond_int64_is_an_error_row():
    table = pa.table({"id": [1, 2, 3], "j": ['{"a": 123456789012345678901234}', '{"a": 5}',
                                            '[{"a": 1}, {"a": -99999999999999999999}]']})
    ok, err = _directive("parse-as-json :j 1").apply(table, DirectiveContext({}))
    assert ok.to_pylist() == [{"id": 2, "j_a": 5}]
    assert err.column("_wr_code").to_pylist() == [3, 3]
    assert [json.loads(r)["id"] for r in err.column("_wr_row").to_pylist()] == [1, 3]


@pytest.mark.parametrize("cells, want", [
    (['{"a": "x"}', '{"a": 1}'], ["x", "1"]),
    (['{"a": true}', '{"a": 1}', '{"b": 2}'], ["true", "1", None]),
    (['{"a": 1.5}', '{"a": 9007199254740993}'], ["1.5", "9007199254740993"]),
    (['[{"a": "s"}, {"a": [1]}]', '{"a": false}'], ["s", "[1]", "false"]),
])
def test_parse_as_json_mixed_type_field_is_a_string_column(cells, want):
    table = pa.table({"id": range(len(cells)), "j": cells})
    d = _directive("parse-as-json :j 1")
    fast = _outcome(lambda: d.apply(table, DirectiveContext({})))
    assert fast == _outcome(lambda: d._apply_rows(table, "j"))
    ok, err = d.apply(table, DirectiveContext({}))
    assert err is None
    assert ok.schema.field("j_a").type == pa.string()
    assert ok.column("j_a").to_pylist() == want


# -- mask-number ----------------------------------------------------------------

_ASCII = st.text(alphabet="0123456789-abXx# ", max_size=12)


@st.composite
def _mask_tables(draw):
    if draw(st.integers(0, 4)) == 0:
        vals = draw(st.lists(st.none() | st.integers(-(10**12), 10**12), max_size=8))
        return pa.table({"j": pa.array(vals, pa.int64())})
    value = st.none() | _ASCII | (st.text(max_size=6) if draw(st.booleans()) else _ASCII)
    vals = draw(st.lists(value, max_size=8))
    return _variants(pa.table({"j": pa.array(vals, pa.string())}), draw)


@settings(max_examples=400, deadline=None)
@given(_mask_tables(), st.text(alphabet="#xX-9a ", max_size=12) | st.sampled_from(["é#", ""]))
def test_mask_number_fast_path_equals_per_row(table, pattern):
    d = _directive("mask-number :j 'x'")
    d.pattern = pattern
    ok, err = d.apply(table, DirectiveContext({}))
    vals = transform._str_col(table, "j")
    want = pa.array([transform.mask_number_value(v, pattern) for v in vals.to_pylist()],
                    vals.type)
    assert err.num_rows == 0
    assert ok.column_names == table.column_names
    assert ok.column("j").type == want.type
    assert ok.column("j").to_pylist() == want.to_pylist()
    fast = [transform._mask_ascii(c, pattern) for c in vals.chunks]
    ascii_ = pattern.isascii() and all(v is None or v.isascii() for v in vals.to_pylist())
    assert all(c is not None for c in fast) == (ascii_ or not len(vals))


def test_mask_number_without_a_pattern_is_a_parse_error():
    from wrangler_ray.core.errors import RecipeParseError

    with pytest.raises(RecipeParseError, match="pattern"):
        compile_recipe(["mask-number :s"])


@pytest.mark.parametrize("pattern", ["xxxx######", "x#-#", "##"])
def test_mask_number_keeps_large_string(pattern):
    for vals in (["conv-12", None, ""], ["cönv-12", None, ""]):  # fast path, per-row path
        table = pa.table({"j": pa.array(vals, pa.large_string())})
        ok, _ = _directive(f"mask-number :j '{pattern}'").apply(table, DirectiveContext({}))
        assert ok.column("j").type == pa.large_string()
        assert ok.column("j").to_pylist() == [transform.mask_number_value(v, pattern)
                                              for v in vals]


# -- the benchmark's block shape never falls back --------------------------------


def test_bench_shaped_block_takes_both_fast_paths(monkeypatch):
    n = 5000
    table = pa.table({
        "conv_id": [f"conv-{i * 37 % 1000}" for i in range(n)],
        "text": [json.dumps({"k": i * 7919 % 100000, "w": f"word{i % 13}"}) for i in range(n)],
    })
    calls = {"json.loads": 0, "mask_number_value": 0}

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(parsers._json, "loads", counted("json.loads", parsers._json.loads))
    monkeypatch.setattr(transform, "mask_number_value",
                        counted("mask_number_value", transform.mask_number_value))
    ctx = DirectiveContext({})
    ok, _ = _directive("parse-as-json :text 1").apply(table, ctx)
    ok, _ = _directive("copy :conv_id :conv_raw").apply(ok, ctx)
    ok, _ = _directive("mask-number :conv_raw 'xxxx######'").apply(ok, ctx)
    assert calls == {"json.loads": 0, "mask_number_value": 0}
    assert ok.column_names == ["conv_id", "text_k", "text_w", "conv_raw"]
    assert ok.column("text_k").type == pa.int64()
    assert ok.column("conv_raw").to_pylist()[:2] == ["xxxx-0", "xxxx-37"]
