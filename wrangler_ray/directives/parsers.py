"""Parsers: directives that turn a string/binary cell into columns or rows
(reference: wrangler-core src/main/java/io/cdap/directives/parser/*.java,
xml/XmlToJson.java, language/SetCharset.java)."""

from __future__ import annotations

import csv as _csv
import io
import json as _json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

from wrangler_ray.core.errors import DirectiveError, make_error_table
from wrangler_ray.core.naming import resolve_column
from wrangler_ray.core.registry import Directive, directive
from wrangler_ray.core.schema import set_column, string_buffers
from wrangler_ray.directives.javafmt import java_datefmt_to_py


def _looks_like_header(fields: list[str]) -> bool:
    """Header sniff: all fields are non-numeric, non-empty strings (reference
    CsvParser.java:184-203 type-sniffing)."""
    if not fields:
        return False
    for f in fields:
        f = (f or "").strip()
        if not f:
            return False
        try:
            float(f)
            return False
        except ValueError:
            pass
    return True


@directive("parse-as-csv")
class ParseAsCsv(Directive):
    """parse-as-csv :col 'delimiter' [header] — parse a string cell into
    columns col_1..col_n, or header names when header=true (reference
    directives/parser/CsvParser.java:131-203). Header detection happens per
    batch on the first row — at dataset scale resolve the header once on the
    driver and pass header names via set-headers instead."""

    usage = "parse-as-csv :col 'delimiter' [header]"

    def __init__(self, call):
        self.column = call.col(0)
        delim = call.text(1, default=",") or ","
        self.delim = {"\\t": "\t", "\\u0001": "\x01"}.get(delim, delim)
        self.header = call.boolean(2, default=False)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        reader = _csv.reader(
            io.StringIO("\n".join(v.replace("\n", " ") if v else "" for v in vals)),
            delimiter=self.delim,
            quotechar='"',
            skipinitialspace=False,
        )
        rows = list(reader)
        # io trick drops trailing empty strings mismatch: re-align row count
        while len(rows) < len(vals):
            rows.append([])
        header_names = None
        start = 0
        if self.header and rows and _looks_like_header(rows[0]):
            header_names = [re.sub(r"\s+", "_", h.strip()) for h in rows[0]]
            start = 1
        body = rows[start:]
        width = max((len(r) for r in body), default=0)
        names = (
            header_names[:width] + [f"{col}_{i+1}" for i in range(len(header_names), width)]
            if header_names
            else [f"{col}_{i+1}" for i in range(width)]
        )
        base = table.slice(start)
        for i in range(width):
            arr = pa.array(
                [r[i] if i < len(r) else None for r in body], pa.string()
            )
            base = set_column(base, names[i], arr)
        return self.ok(base)


def _flatten_json(obj, prefix: str, depth: int, out: dict):
    if depth <= 0 or not isinstance(obj, dict):
        out[prefix] = obj
        return
    for k, v in obj.items():
        key = f"{prefix}_{k}" if prefix else k
        if isinstance(v, dict) and depth > 1:
            _flatten_json(v, key, depth - 1, out)
        else:
            out[key] = v


def _json_cell_to_value(v):
    if isinstance(v, (dict, list)):
        return _json.dumps(v, ensure_ascii=False)
    return v


def _json_column(vals: list) -> pa.Array:
    """One field's values as a column; a field whose values ``pa.array``
    cannot hold in one column (a string and a number, a bool and a number,
    a double and an int past 2**53) becomes a string column: a string stays
    as it is, any other value becomes its JSON text, as objects and arrays
    already do."""
    try:
        return pa.array(vals)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        return pa.array([v if v is None or isinstance(v, str) else _json.dumps(v)
                         for v in vals], pa.string())


# the column types the per-row path gives JSON scalars: pa.array of Python
# ints, floats, bools, strings and Nones
_SCALAR_TYPES = {pa.int64(), pa.float64(), pa.bool_(), pa.string(), pa.null()}


def _beyond_int64(v) -> bool:
    return type(v) is int and not -(2**63) <= v < 2**63


def _read_json_lines(cells: pa.ChunkedArray) -> pa.Table | None:
    """Every cell of ``cells`` parsed by one ``pyarrow.json`` call: one row
    per cell, one column per field, typed as the per-row path types it. None
    when the result could differ from ``json.loads`` per cell (see
    ParseAsJson)."""
    if not (pa.types.is_string(cells.type) or pa.types.is_large_string(cells.type)):
        return None
    n = len(cells)
    # every cell holds a "{", so none is blank and the row count below
    # catches a cell that holds two objects
    if n == 0 or cells.null_count or not pc.all(pc.match_substring(cells, "{")).as_py():
        return None
    lines = pc.binary_join_element_wise(cells, pa.scalar("\n", cells.type), pa.scalar("", cells.type))
    _, data = string_buffers(lines.combine_chunks())
    # one line per cell; Arrow skips a byte order mark json.loads rejects
    if np.count_nonzero(data == 10) != n or (data == 13).any() or data[0] == 0xEF:
        return None
    buf = pa.py_buffer(data)

    def read(schema=None) -> pa.Table:
        return pj.read_json(
            pa.BufferReader(buf),
            read_options=pj.ReadOptions(use_threads=False, block_size=len(data)),
            parse_options=pj.ParseOptions(explicit_schema=schema),
        )

    try:
        t = read()
        if any(pa.types.is_timestamp(f.type) for f in t.schema):
            # Arrow infers timestamps from ISO-like strings; keep the text
            t = read(pa.schema([f.with_type(pa.string()) if pa.types.is_timestamp(f.type)
                                else f for f in t.schema]))
    except pa.ArrowInvalid:
        return None
    if t.num_rows != n or any(f.type not in _SCALAR_TYPES for f in t.schema):
        return None
    doubles = [c for c in t.columns if c.type == pa.float64()]
    for c in doubles:
        # Arrow also reads Inf and -NaN, and -0 as -0.0 in a double column
        v = pc.drop_null(c).to_numpy()
        if not np.isfinite(v).all() or np.signbit(v[v == 0]).any():
            return None
    # an integer of 16+ digits: Arrow makes one past int64 a double, and the
    # per-row path cannot put one past 2**53 in a double column
    if doubles and pc.any(pc.match_substring_regex(cells, r"(^|[^\d.])\d{16}")).as_py():
        return None
    return t


@directive("parse-as-json")
class ParseAsJson(Directive):
    """parse-as-json :col [depth] — parse JSON cells, one Arrow read per block;
    objects flatten to col_field up to depth; top-level arrays explode to
    multiple rows (reference directives/parser/JsParser.java:97-184).

    A string block of one-line JSON objects with scalar fields is parsed in
    one ``pyarrow.json`` call for the whole block. Any block that call might
    not reproduce exactly runs per row through ``json.loads``: a null or
    blank cell, a cell that spans lines or holds more than one value, a
    top-level array or scalar, invalid JSON, duplicate keys, a field mixing
    types Arrow will not mix (bool or string with number) or holding an
    object or array, a non-finite or negative-zero double, an integer of 16
    or more digits in a block with a double field, or depth < 1. Rows whose
    JSON is invalid, or holds an integer beyond int64, go to the error
    channel (code 3). A field whose values cannot share one Arrow column
    becomes a string column of JSON text (``_json_column``)."""

    usage = "parse-as-json :col [depth]"

    def __init__(self, call):
        self.column = call.col(0)
        self.depth = int(call.number(1, default=1) or 1)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        fields = _read_json_lines(table.column(col)) if self.depth > 0 else None
        if fields is None:
            return self._apply_rows(table, col)
        out = {name: table.column(name) for name in table.column_names if name != col}
        for name, arr in zip(fields.column_names, fields.columns):
            out[f"{col}_{name}"] = arr
        return self.ok(pa.table(out)) if out else self._apply_rows(table, col)

    def _apply_rows(self, table, col):
        vals = table.column(col).to_pylist()
        flat_rows = []
        rep_idx = []
        bad_idx = []
        for i, v in enumerate(vals):
            try:
                p = _json.loads(v) if isinstance(v, str) else v
            except (ValueError, TypeError):
                bad_idx.append(i)
                continue
            # explode top-level arrays, flatten objects
            rows = [self._flatten(col, e) for e in (p if isinstance(p, list) else [p])]
            if any(_beyond_int64(x) for r in rows for x in r.values()):
                bad_idx.append(i)
                continue
            flat_rows.extend(rows)
            rep_idx.extend([i] * len(rows))
        # bad rows leave the main flow (they're on the error channel)
        err = (
            make_error_table(
                table.take(pa.array(bad_idx, pa.int64())), 3, "invalid JSON", self.name
            )
            if bad_idx
            else None
        )
        keys = dict.fromkeys(k for r in flat_rows for k in r)
        rep = pa.array(rep_idx, pa.int64())
        out = {name: table.column(name).take(rep) for name in table.column_names if name != col}
        for k in keys:
            out[k] = _json_column([r.get(k) for r in flat_rows])
        if not out:
            out[col] = pa.array([], pa.string())
        return pa.table(out), err

    def _flatten(self, col: str, p) -> dict:
        if not isinstance(p, dict):
            return {col: _json_cell_to_value(p)}
        flat: dict = {}
        _flatten_json(p, "", self.depth, flat)
        return {f"{col}_{k}": _json_cell_to_value(v) for k, v in flat.items()}


@directive("json-path")
class JsonPath(Directive):
    """json-path :source :destination 'path' — JsonPath extraction (reference
    directives/parser/JsPath.java; subset: $.a.b[0].c and [*] wildcards)."""

    usage = "json-path :source :destination 'path'"

    def __init__(self, call):
        self.src = call.col(0)
        self.dst = call.col(1)
        self.path = call.text(2)
        parts = []
        p = self.path
        if p.startswith("$"):
            p = p[1:]
        for m in re.finditer(r"\.([A-Za-z_][A-Za-z0-9_\-]*)|\[(\d+|\*)\]", p):
            key, idx = m.group(1), m.group(2)
            parts.append(key if key is not None else ("*" if idx == "*" else int(idx)))
        self.parts = parts

    def _extract(self, obj):
        cur = [obj]
        for part in self.parts:
            nxt = []
            for o in cur:
                if part == "*":
                    if isinstance(o, list):
                        nxt.extend(o)
                    elif isinstance(o, dict):
                        nxt.extend(o.values())
                elif isinstance(part, int):
                    if isinstance(o, list) and part < len(o):
                        nxt.append(o[part])
                else:
                    if isinstance(o, dict) and part in o:
                        nxt.append(o[part])
            cur = nxt
        if not cur:
            return None
        return cur[0] if len(cur) == 1 else cur

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        vals = table.column(src).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
                continue
            try:
                obj = _json.loads(v) if isinstance(v, str) else v
                out.append(_json_cell_to_value(self._extract(obj)))
            except (ValueError, TypeError):
                out.append(None)
        return self.ok(set_column(table, self.dst, pa.array(out)))


@directive("parse-as-fixed-length")
class ParseFixedLength(Directive):
    """parse-as-fixed-length :col w1,w2,... [padding] — slice by widths into
    col_1..col_n (reference directives/parser/FixedLengthParser.java)."""

    usage = "parse-as-fixed-length :col <width>[,<width>]* [padding]"

    def __init__(self, call):
        self.column = call.col(0)
        spec = call.text(1)
        self.widths = [int(w) for w in str(spec).split(",")]
        self.padding = call.text(2, default=None)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        s = table.column(col)
        if not (pa.types.is_string(s.type) or pa.types.is_large_string(s.type)):
            s = pc.cast(s, pa.string())
        start = 0
        for i, w in enumerate(self.widths):
            piece = pc.utf8_slice_codeunits(s, start, start + w)
            if self.padding:
                piece = pc.utf8_trim(piece, self.padding)
            table = set_column(table, f"{col}_{i+1}", piece)
            start += w
        return self.ok(table)


# Common Log Format / Combined Log Format field extraction
_CLF_REGEX = re.compile(
    r'(?P<ip>\S+) (?P<identd>\S+) (?P<user>\S+) \[(?P<datetime>[^\]]+)\] '
    r'"(?P<method>\S+) (?P<uri>\S+) ?(?P<protocol>[^"]*)" '
    r'(?P<status>\d{3}|-) (?P<size>\d+|-)'
    r'(?: "(?P<referrer>[^"]*)" "(?P<agent>[^"]*)")?'
)


def _compile_log_format(fmt: str):
    """Compile an Apache LogFormat %-directive string to (regex, fields).
    Covers the standard tokens (%h %l %u %t %r %s %>s %b %D %T %v %p and
    %{Name}i/%{Name}e/%{Name}C); unknown tokens match a non-space run. The
    reference parses with ApacheHttpdLoglineParser (ParseLog.java:67), which
    additionally explodes sub-fields; here each token is one column."""
    import re as _re

    parts = []
    fields: list[str] = []
    i = 0
    n = len(fmt)

    def name_for(tok: str, arg: str | None) -> str:
        if arg is not None:
            a = arg.lower().replace("-", "_")
            if a == "referer":
                return "referrer"
            if a == "user_agent":
                return "agent"
            return a
        return {
            "h": "ip", "l": "identd", "u": "user", "t": "datetime",
            "s": "status", ">s": "status", "b": "size", "D": "duration_us",
            "T": "duration_s", "v": "vhost", "p": "port", "m": "method",
            "U": "uri", "q": "query", "H": "protocol", "a": "client_ip",
        }.get(tok, f"f{len(fields) + 1}")

    while i < n:
        c = fmt[i]
        if c != "%":
            parts.append(_re.escape(c))
            i += 1
            continue
        i += 1
        arg = None
        if i < n and fmt[i] == "{":
            j = fmt.index("}", i)
            arg = fmt[i + 1 : j]
            i = j + 1
        tok = ""
        if i < n and fmt[i] == ">":
            tok = ">"
            i += 1
        if i < n:
            tok += fmt[i]
            i += 1
        if tok == "t" and arg is None:
            fields.append("datetime")
            parts.append(r"\[(?P<datetime>[^\]]+)\]")
        elif tok == "r":
            fields += ["method", "uri", "protocol"]
            parts.append(r'(?P<method>\S+) (?P<uri>\S+) ?(?P<protocol>[^\s"]*)')
        else:
            fname = name_for(tok, arg)
            base = fname
            k = 2
            while fname in fields:
                fname = f"{base}_{k}"
                k += 1
            fields.append(fname)
            parts.append(rf"(?P<{fname}>\S+)" if tok not in ("i",) or arg is None
                         else rf"(?P<{fname}>.*?)")
    return _re.compile("".join(parts)), fields


@directive("parse-as-log")
class ParseAsLog(Directive):
    """parse-as-log :col 'format' — Apache/nginx access-log parse (reference
    directives/parser/ParseLog.java:67). 'common'/'combined' use the CLF
    regex; any other format string compiles through the %-directive compiler
    (one column per token); compiled once per chain."""

    usage = "parse-as-log :col 'format'"

    def __init__(self, call):
        self.column = call.col(0)
        self.format = call.text(1, default="common")
        self.custom = None
        if self.format not in ("common", "combined") and "%" in str(self.format):
            self.custom = _compile_log_format(str(self.format))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        if self.custom is not None:
            regex, fields = self.custom
            cols = {f: [] for f in fields}
            for v in vals:
                m = regex.search(v) if v else None
                for f in fields:
                    g = m.group(f) if m else None
                    cols[f].append(None if g in ("-", None) else g)
            for f in fields:
                table = set_column(table, f"{col}_{f}", pa.array(cols[f], pa.string()))
            return self.ok(table)
        fields = ["ip", "user", "datetime", "method", "uri", "protocol", "status",
                  "size", "referrer", "agent"]
        cols: dict[str, list] = {f: [] for f in fields}
        for v in vals:
            m = _CLF_REGEX.match(v) if v else None
            for f in fields:
                if m:
                    g = m.group(f)
                    cols[f].append(None if g in ("-", None) else g)
                else:
                    cols[f].append(None)
        for f in fields:
            if f in ("status", "size"):
                arr = pa.array(
                    [int(x) if x is not None else None for x in cols[f]], pa.int64()
                )
            else:
                arr = pa.array(cols[f], pa.string())
            table = set_column(table, f"log_{f}", arr)
        return self.ok(table)


@directive("parse-as-simple-date")
class ParseSimpleDate(Directive):
    """parse-as-simple-date :col 'java-pattern' (reference
    directives/parser/ParseSimpleDate.java) — vectorized pc.strptime."""

    usage = "parse-as-simple-date :col 'pattern'"

    def __init__(self, call):
        self.column = call.col(0)
        self.fmt = java_datefmt_to_py(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        s = table.column(col)
        if not (pa.types.is_string(s.type) or pa.types.is_large_string(s.type)):
            return self.ok(table)
        parsed = pc.strptime(s, format=self.fmt, unit="us", error_is_null=True)
        return self.ok(set_column(table, col, parsed))


@directive("parse-as-datetime")
class ParseAsDatetime(ParseSimpleDate):
    """parse-as-datetime :col 'java-pattern' (reference
    directives/parser/ParseDateTime.java) — same vectorized parse."""

    usage = "parse-as-datetime :col 'pattern'"


@directive("parse-as-date")
class ParseAsDate(Directive):
    """parse-as-date :col [timezone] — natural-language-ish date parse
    (reference directives/parser/ParseDate.java:103 uses natty). Python has no
    in-container NL date library, so this tries a battery of common formats
    per value (compiled once)."""

    usage = "parse-as-date :col [timezone]"

    _FORMATS = [
        "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d", "%m/%d/%Y %H:%M:%S",
        "%m/%d/%Y", "%d/%m/%Y", "%m-%d-%Y", "%d %b %Y", "%b %d, %Y", "%d.%m.%Y",
        "%Y/%m/%d",
    ]

    def __init__(self, call):
        self.column = call.col(0)
        self.tz = call.text(1, default="UTC")

    def apply(self, table, ctx):
        import datetime as dt

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
                continue
            parsed = None
            s = str(v).strip()
            try:
                parsed = dt.datetime.fromisoformat(s)
            except ValueError:
                for f in self._FORMATS:
                    try:
                        parsed = dt.datetime.strptime(s, f)
                        break
                    except ValueError:
                        continue
            out.append(parsed)
        return self.ok(set_column(table, f"{col}_1", pa.array(out, pa.timestamp("us"))))


@directive("parse-timestamp")
class ParseTimestamp(Directive):
    """parse-timestamp :col [unit] — epoch long/string → timestamp (reference
    directives/parser/ParseTimestamp.java; unit seconds|milliseconds|microseconds)."""

    usage = "parse-timestamp :col [seconds|milliseconds|microseconds]"

    def __init__(self, call):
        self.column = call.col(0)
        self.unit = (call.text(1, default="milliseconds") or "milliseconds").lower()

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = table.column(col)
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            arr = pc.cast(arr, pa.int64())
        elif not pa.types.is_integer(arr.type):
            arr = pc.cast(arr, pa.int64(), safe=False)
        mult = {"seconds": 1_000_000, "milliseconds": 1_000, "microseconds": 1}[
            self.unit if self.unit in ("seconds", "milliseconds", "microseconds")
            else "milliseconds"
        ]
        us = pc.multiply(pc.cast(arr, pa.int64()), mult)
        ts = pc.cast(us, pa.timestamp("us"))
        return self.ok(set_column(table, col, ts))


@directive("parse-as-currency")
class ParseAsCurrency(Directive):
    """parse-as-currency :source :destination [locale] — currency string →
    double (reference directives/currency/ParseAsCurrency.java; locale-less
    heuristic: strip currency symbols/grouping)."""

    usage = "parse-as-currency :source :destination [locale]"

    _STRIP = re.compile(r"[^\d.,\-()]")

    def __init__(self, call):
        self.src = call.col(0)
        self.dst = call.col(1)
        self.locale = call.text(2, default="en_US")

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        vals = table.column(src).to_pylist()
        out = []
        eu = self.locale and self.locale.lower().startswith(("de", "fr", "es", "it"))
        for v in vals:
            if v is None:
                out.append(None)
                continue
            s = self._STRIP.sub("", str(v))
            neg = s.startswith("(") and s.endswith(")")
            s = s.strip("()")
            if eu:
                s = s.replace(".", "").replace(",", ".")
            else:
                s = s.replace(",", "")
            try:
                x = float(s)
                out.append(-x if neg else x)
            except ValueError:
                out.append(None)
        return self.ok(set_column(table, self.dst, pa.array(out, pa.float64())))


@directive("set-charset")
class SetCharset(Directive):
    """set-charset :col 'charset' — binary → string decode (reference
    directives/language/SetCharset.java:76-113)."""

    usage = "set-charset :col 'charset'"

    def __init__(self, call):
        self.column = call.col(0)
        self.charset = call.text(1, default="utf-8") or "utf-8"

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = table.column(col)
        if pa.types.is_string(arr.type):
            return self.ok(table)
        vals = arr.to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
            else:
                try:
                    out.append(bytes(v).decode(self.charset, errors="replace"))
                except LookupError as e:
                    raise DirectiveError(f"set-charset: unknown charset {self.charset}") from e
        return self.ok(set_column(table, col, pa.array(out, pa.string())))


@directive("parse-xml-to-json")
class ParseXmlToJson(Directive):
    """parse-xml-to-json :col [depth] — XML → JSON string then flatten like
    parse-as-json (reference directives/xml/XmlToJson.java; stdlib
    ElementTree instead of org.json.XML)."""

    usage = "parse-xml-to-json :col [depth]"

    def __init__(self, call):
        self.column = call.col(0)
        self.depth = int(call.number(1, default=1) or 1)

    @staticmethod
    def _elem_to_obj(elem):
        children = list(elem)
        obj: dict = {}
        for k, v in elem.attrib.items():
            obj[k] = v
        if not children:
            text = (elem.text or "").strip()
            if obj:
                if text:
                    obj["content"] = text
                return obj
            return text if text else None
        for child in children:
            val = ParseXmlToJson._elem_to_obj(child)
            if child.tag in obj:
                if not isinstance(obj[child.tag], list):
                    obj[child.tag] = [obj[child.tag]]
                obj[child.tag].append(val)
            else:
                obj[child.tag] = val
        return obj

    def apply(self, table, ctx):
        import xml.etree.ElementTree as ET

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out = []
        bad_idx = []
        for i, v in enumerate(vals):
            if v is None:
                out.append(None)
                continue
            try:
                root = ET.fromstring(v)
                out.append(_json.dumps({root.tag: self._elem_to_obj(root)}, ensure_ascii=False))
            except ET.ParseError:
                out.append(None)
                bad_idx.append(i)
        table = set_column(table, col, pa.array(out, pa.string()))
        err = make_error_table(
            table.take(pa.array(bad_idx, pa.int64())), 4, "invalid XML", self.name
        ) if bad_idx else None
        return table, err


_AVRO_SCHEMAS: dict[str, dict] = {}


def register_avro_schema(schema_id: str, schema: dict) -> None:
    """Register an Avro schema for ``parse-as-avro`` (the analog of the
    reference's SchemaRegistryClient — ParseAvro.java:47,76; here schemas are
    registered driver-side and broadcast with the compiled chain, the same
    pattern as lookup tables)."""
    _AVRO_SCHEMAS[str(schema_id)] = schema


@directive("parse-as-avro")
class ParseAsAvro(Directive):
    """parse-as-avro :col <schema-id> json|binary [version] — decode each
    cell as one Avro message using a registered schema (reference
    directives/parser/ParseAvro.java:118; schema-registry decoder there,
    ``register_avro_schema`` + the pure-python binary decoder here). Record
    fields become ``col_<field>`` columns; undecodable cells divert to the
    error channel."""

    usage = "parse-as-avro :col <schema-id> json|binary [version]"

    def __init__(self, call):
        from wrangler_ray.core.errors import DirectiveError

        self.column = call.col(0)
        self.schema_id = str(call.text(1))
        self.mode = str(call.text(2, default="binary")).lower()
        schema = _AVRO_SCHEMAS.get(self.schema_id)
        if schema is None:
            raise DirectiveError(
                f"parse-as-avro: schema '{self.schema_id}' not registered "
                "(use wrangler_ray.directives.parsers.register_avro_schema)"
            )
        self.schema = schema

    def apply(self, table, ctx):
        import json as _json

        from wrangler_ray.core.errors import make_error_table
        from wrangler_ray.directives.avro_reader import _Reader, _collect_named, _decode

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        named: dict = {}
        _collect_named(self.schema, named)
        vals = table.column(col).to_pylist()
        decoded: list = []
        err_mask = []
        err_msg = ""
        for v in vals:
            if v is None:
                decoded.append(None)
                err_mask.append(False)
                continue
            try:
                if self.mode == "json":
                    rec = _json.loads(v if isinstance(v, str) else v.decode())
                else:
                    rec = _decode(
                        _Reader(v if isinstance(v, bytes) else bytes(v)),
                        self.schema, named,
                    )
                decoded.append(rec)
                err_mask.append(False)
            except Exception as e:  # noqa: BLE001 — bad message → error row
                decoded.append(None)
                err_mask.append(True)
                err_msg = str(e)
        keep = pa.array([not m for m in err_mask])
        ok = table.filter(keep)
        kept = [d for d, m in zip(decoded, err_mask) if not m]
        fields = sorted({k for d in kept if isinstance(d, dict) for k in d})
        for f in fields:
            colvals = [
                (None if not isinstance(d, dict) else d.get(f)) for d in kept
            ]
            colvals = [
                _json.dumps(x, default=str) if isinstance(x, (dict, list)) else x
                for x in colvals
            ]
            types = {type(x) for x in colvals if x is not None}
            if len(types) > 1:
                colvals = [None if x is None else str(x) for x in colvals]
            ok = set_column(ok, f"{col}_{f}", pa.array(colvals))
        failed = table.filter(pa.array(err_mask))
        if failed.num_rows:
            return ok, make_error_table(failed, 2, f"parse-as-avro: {err_msg}", self.name)
        return self.ok(ok)


@directive("parse-as-avro-file")
class ParseAsAvroFile(Directive):
    """parse-as-avro-file :col — treat a binary cell as a whole Avro object-
    container file and explode it to one row per record; top-level record
    fields become columns, nested records/maps/arrays are JSON-serialized
    (reference directives/parser/ParseAvroFile.java — Java Avro there, the
    pure-python container reader in avro_reader.py here). Unreadable
    containers divert the row to the error channel."""

    usage = "parse-as-avro-file :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        import json as _json

        from wrangler_ray.core.errors import make_error_table
        from wrangler_ray.directives.avro_reader import read_container

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out_rows: list[dict] = []
        err_mask = []
        err_msg = ""
        for v in vals:
            if v is None:
                err_mask.append(False)
                continue
            try:
                _schema, records = read_container(
                    v if isinstance(v, bytes) else bytes(v)
                )
            except Exception as e:  # noqa: BLE001 — bad container → error row
                err_mask.append(True)
                err_msg = str(e)
                continue
            err_mask.append(False)
            for rec in records:
                if not isinstance(rec, dict):
                    rec = {col: rec}
                flat = {}
                for k, val in rec.items():
                    if isinstance(val, (dict, list)):
                        flat[k] = _json.dumps(val, default=str)
                    elif isinstance(val, bytes):
                        flat[k] = val
                    else:
                        flat[k] = val
                out_rows.append(flat)
        cols: dict[str, list] = {}
        for r in out_rows:
            for k in r:
                cols.setdefault(k, [None] * len(out_rows))
        for i, r in enumerate(out_rows):
            for k, val in r.items():
                cols[k][i] = val
        for k, vs in cols.items():
            types = {type(x) for x in vs if x is not None}
            if len(types) > 1:
                cols[k] = [None if x is None else str(x) for x in vs]
        ok = pa.table(cols) if cols else pa.table({"_empty": pa.array([], pa.int64())})
        failed = table.filter(pa.array(err_mask)) if any(err_mask) else None
        if failed is not None and failed.num_rows:
            return ok, make_error_table(
                failed, 2, f"parse-as-avro-file: {err_msg}", self.name
            )
        return self.ok(ok)


_PROTO_DESCRIPTORS: dict[str, dict] = {}


def register_protobuf_descriptor(schema_id: str, desc_bytes: bytes) -> None:
    """Register a compiled FileDescriptorSet (.desc bytes) for
    ``parse-as-protobuf`` (the schema-registry analog — reference
    ParseProtobuf.java:116 fetches descriptors from the registry; here they
    are parsed once on the driver by proto_reader.parse_descriptor_set and
    broadcast with the compiled chain)."""
    from wrangler_ray.directives.proto_reader import parse_descriptor_set

    _PROTO_DESCRIPTORS[str(schema_id)] = parse_descriptor_set(desc_bytes)


@directive("parse-as-protobuf")
class ParseAsProtobuf(Directive):
    """parse-as-protobuf :col <schema-id> <record-name> [version] — decode
    each binary cell as one protobuf message of the named record using a
    registered descriptor set; fields become ``col_<field>`` columns (nested
    messages / repeated fields JSON-serialized); undecodable cells divert to
    the error channel (reference directives/parser/ParseProtobuf.java:116 —
    Java runtime there, the pure-python wire decoder here)."""

    usage = "parse-as-protobuf :col <schema-id> <record-name> [version]"

    def __init__(self, call):
        from wrangler_ray.core.errors import DirectiveError

        self.column = call.col(0)
        self.schema_id = str(call.text(1))
        self.record = str(call.text(2))
        messages = _PROTO_DESCRIPTORS.get(self.schema_id)
        if messages is None:
            raise DirectiveError(
                f"parse-as-protobuf: descriptor '{self.schema_id}' not registered "
                "(use wrangler_ray.directives.parsers.register_protobuf_descriptor)"
            )
        self.messages = messages
        self.record_full = self.record
        if self.record not in messages:
            matches = [m for m in messages if m.endswith("." + self.record)]
            if len(matches) == 1:
                self.record_full = matches[0]
            else:
                raise DirectiveError(
                    f"parse-as-protobuf: record '{self.record}' not found in "
                    f"descriptor '{self.schema_id}' (has: {sorted(messages)})"
                )

    def apply(self, table, ctx):
        import json as _json

        from wrangler_ray.core.errors import make_error_table
        from wrangler_ray.directives.proto_reader import decode_message

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        decoded: list = []
        err_mask = []
        err_msg = ""
        for v in vals:
            if v is None:
                decoded.append(None)
                err_mask.append(False)
                continue
            try:
                rec = decode_message(
                    v if isinstance(v, bytes) else bytes(v),
                    self.messages, self.record_full,
                )
                decoded.append(rec)
                err_mask.append(False)
            except Exception as e:  # noqa: BLE001 — bad message → error row
                decoded.append(None)
                err_mask.append(True)
                err_msg = str(e)
        keep = pa.array([not m for m in err_mask])
        ok = table.filter(keep)
        kept = [d for d, m in zip(decoded, err_mask) if not m]
        fields = sorted({k for d in kept if isinstance(d, dict) for k in d})
        for f in fields:
            colvals = [
                (None if not isinstance(d, dict) else d.get(f)) for d in kept
            ]
            colvals = [
                _json.dumps(x, default=str) if isinstance(x, (dict, list)) else x
                for x in colvals
            ]
            types = {type(x) for x in colvals if x is not None}
            if len(types) > 1:
                colvals = [None if x is None else str(x) for x in colvals]
            ok = set_column(ok, f"{col}_{f}", pa.array(colvals))
        failed = table.filter(pa.array(err_mask))
        if failed.num_rows:
            return ok, make_error_table(
                failed, 2, f"parse-as-protobuf: {err_msg}", self.name
            )
        return self.ok(ok)


def _xlsx_rows(data: bytes, sheet) -> list[dict]:
    """Minimal stdlib XLSX reader (zip of XML — no external library needed):
    resolves the sheet by index or name via workbook.xml(+rels), shared
    strings, and cell types s/str/inlineStr/b/number. Returns one dict per
    sheet row keyed by Excel column letters ("A", "B", ...)."""
    import io as _io
    import re as _re
    import xml.etree.ElementTree as ET
    import zipfile

    NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
    RNS = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}"
    PNS = "{http://schemas.openxmlformats.org/package/2006/relationships}"
    zf = zipfile.ZipFile(_io.BytesIO(data))
    wb = ET.fromstring(zf.read("xl/workbook.xml"))
    rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
    rel_map = {r.get("Id"): r.get("Target") for r in rels.iter(f"{PNS}Relationship")}
    sheets = []  # (name, target)
    for sh in wb.iter(f"{NS}sheet"):
        target = rel_map.get(sh.get(f"{RNS}id"), "")
        if target and not target.startswith("xl/"):
            target = "xl/" + target.lstrip("/")
        sheets.append((sh.get("name"), target))
    chosen = None
    ss = str(sheet)
    if ss.isdigit() and int(ss) < len(sheets):
        chosen = sheets[int(ss)][1]
    else:
        for name, target in sheets:
            if name == ss:
                chosen = target
                break
    if not chosen:
        raise ValueError(f"xlsx sheet {sheet!r} not found")
    shared: list[str] = []
    if "xl/sharedStrings.xml" in zf.namelist():
        for si in ET.fromstring(zf.read("xl/sharedStrings.xml")).iter(f"{NS}si"):
            shared.append("".join(t.text or "" for t in si.iter(f"{NS}t")))
    rows: list[dict] = []
    for row in ET.fromstring(zf.read(chosen)).iter(f"{NS}row"):
        out: dict = {}
        for c in row.iter(f"{NS}c"):
            ref = c.get("r", "")
            letters = _re.match(r"[A-Z]+", ref)
            if not letters:
                continue
            ctype = c.get("t", "n")
            v_el = c.find(f"{NS}v")
            if ctype == "inlineStr":
                is_el = c.find(f"{NS}is")
                val = "".join(t.text or "" for t in is_el.iter(f"{NS}t")) if is_el is not None else None
            elif v_el is None or v_el.text is None:
                val = None
            elif ctype == "s":
                val = shared[int(v_el.text)]
            elif ctype == "b":
                val = v_el.text == "1"
            elif ctype == "str":
                val = v_el.text
            else:
                f = float(v_el.text)
                val = int(f) if f.is_integer() else f
            if val is not None:
                out[letters.group(0)] = val
        rows.append(out)
    return rows


@directive("parse-as-excel")
class ParseAsExcel(Directive):
    """parse-as-excel :col [sheet] [header] — explode an xlsx workbook held in
    a binary cell into one row per sheet row, columns named by Excel letters
    (A, B, ...; or the first row's values when header=true), plus ``fwd`` /
    ``bkd`` forward/backward row indices (reference
    directives/parser/ParseExcel.java:101-220 — POI there, stdlib zip+XML
    here). An unreadable workbook / missing sheet diverts the row to the
    error channel, like the reference's error collector."""

    usage = "parse-as-excel :col [sheet] [header]"

    def __init__(self, call):
        self.column = call.col(0)
        self.sheet = call.text(1, default="0")
        try:
            hdr = call.boolean(2, default=False)  # bare true/false token
        except Exception:
            hdr = str(call.text(2, default="false")).lower() == "true"
        self.header = bool(hdr)

    def apply(self, table, ctx):
        from wrangler_ray.core.errors import make_error_table

        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out_rows: list[dict] = []
        err_mask = []
        err_msg = ""
        for v in vals:
            if v is None:
                err_mask.append(False)
                continue
            try:
                sheet_rows = _xlsx_rows(v if isinstance(v, bytes) else bytes(v), self.sheet)
            except Exception as e:  # noqa: BLE001 — bad workbook → error row
                err_mask.append(True)
                err_msg = str(e)
                continue
            err_mask.append(False)
            names: dict = {}
            start = 0
            if self.header and sheet_rows:
                names = {k: str(val) for k, val in sheet_rows[0].items()}
                start = 1
            n = len(sheet_rows) - start
            for i, r in enumerate(sheet_rows[start:]):
                rec = {"fwd": i, "bkd": n - i - 1}
                for k, val in r.items():
                    rec[names.get(k, k)] = val
                out_rows.append(rec)
        # normalize mixed-type columns to string so Arrow can infer
        cols: dict[str, list] = {}
        for i, r in enumerate(out_rows):
            for k in r:
                cols.setdefault(k, [None] * len(out_rows))
        for i, r in enumerate(out_rows):
            for k, val in r.items():
                cols[k][i] = val
        for k, vs in cols.items():
            types = {type(x) for x in vs if x is not None}
            if len(types) > 1:
                cols[k] = [None if x is None else str(x) for x in vs]
        ok = (
            pa.table(cols)
            if cols
            else pa.table({"fwd": pa.array([], pa.int64())})
        )
        failed = table.filter(pa.array(err_mask)) if any(err_mask) else None
        if failed is not None and failed.num_rows:
            return ok, make_error_table(
                failed, 2, f"parse-as-excel: {err_msg}", self.name
            )
        return self.ok(ok)


@directive("parse-as-hl7")
class ParseAsHL7(Directive):
    """parse-as-hl7 :col [depth] — minimal HL7v2 pipe-segment parse (reference
    directives/parser/HL7Parser.java:70 uses HAPI; here: segments → JSON
    object {SEG: [fields...]})."""

    usage = "parse-as-hl7 :col [depth]"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
                continue
            segments: dict = {}
            for seg in str(v).replace("\r", "\n").split("\n"):
                seg = seg.strip()
                if not seg:
                    continue
                fields = seg.split("|")
                segments.setdefault(fields[0], []).append(fields[1:])
            out.append(_json.dumps(segments, ensure_ascii=False))
        return self.ok(set_column(table, f"{col}_hl7", pa.array(out, pa.string())))
