"""Output formatters (reference: wrangler-core
src/main/java/io/cdap/directives/writer/*.java, currency/FormatAsCurrency.java).
True file sinks are Dataset-level (`ds.write_parquet` / the CDC manifest sink)."""

from __future__ import annotations

import csv as _csv
import io
import json as _json

import pyarrow as pa

from wrangler_ray.core.naming import resolve_column
from wrangler_ray.core.registry import Directive, directive
from wrangler_ray.core.schema import set_column


def _json_safe(v):
    if isinstance(v, (bytes, bytearray)):
        return v.decode("utf-8", errors="replace")
    if hasattr(v, "isoformat"):
        return v.isoformat()
    return v


@directive("write-as-csv")
class WriteAsCsv(Directive):
    """write-as-csv :col — serialize the whole row to a CSV string cell
    (reference directives/writer/WriteAsCSV.java)."""

    usage = "write-as-csv :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        rows = table.to_pylist()
        out = []
        for r in rows:
            buf = io.StringIO()
            _csv.writer(buf, lineterminator="").writerow(
                ["" if v is None else v for v in r.values()]
            )
            out.append(buf.getvalue())
        return self.ok(set_column(table, self.column, pa.array(out, pa.string())))


@directive("write-as-json-map")
class WriteAsJsonMap(Directive):
    """write-as-json-map :col — whole row → JSON object string (reference
    directives/writer/WriteAsJsonMap.java)."""

    usage = "write-as-json-map :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        rows = table.to_pylist()
        out = [
            _json.dumps({k: _json_safe(v) for k, v in r.items()}, ensure_ascii=False)
            for r in rows
        ]
        return self.ok(set_column(table, self.column, pa.array(out, pa.string())))


@directive("write-as-json-object")
class WriteAsJsonObject(Directive):
    """write-as-json-object :dst :col[,:col]* — selected columns → JSON object
    in dst (reference directives/writer/WriteAsJsonObject.java)."""

    usage = "write-as-json-object :destination :col [,:col]*"

    def __init__(self, call):
        self.dst = call.col(0)
        self.columns = call.cols(1)

    def apply(self, table, ctx):
        cols = [c for c in (resolve_column(table, c) for c in self.columns) if c]
        data = {c: table.column(c).to_pylist() for c in cols}
        n = table.num_rows
        out = [
            _json.dumps({c: _json_safe(data[c][i]) for c in cols}, ensure_ascii=False)
            for i in range(n)
        ]
        return self.ok(set_column(table, self.dst, pa.array(out, pa.string())))


@directive("format-as-currency")
class FormatAsCurrency(Directive):
    """format-as-currency :source :destination [locale] — double → currency
    string (reference directives/currency/FormatAsCurrency.java; en_US style
    without the locale tables: $#,##0.00)."""

    usage = "format-as-currency :source :destination [locale]"

    def __init__(self, call):
        self.src = call.col(0)
        self.dst = call.col(1)
        self.locale = call.text(2, default="en_US") or "en_US"

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        vals = table.column(src).to_pylist()
        symbol = {"en_us": "$", "en_gb": "£", "de_de": "€", "fr_fr": "€", "ja_jp": "¥"}.get(
            self.locale.lower(), "$"
        )
        out = []
        for v in vals:
            if v is None:
                out.append(None)
                continue
            x = float(v)
            if self.locale.lower().startswith(("de", "fr")):
                s = f"{x:,.2f}"
                s = s.replace(",", "\x00").replace(".", ",").replace("\x00", ".")
                out.append(f"{s} {symbol}")
            else:
                out.append(f"{symbol}{x:,.2f}")
        return self.ok(set_column(table, self.dst, pa.array(out, pa.string())))
