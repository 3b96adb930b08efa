"""Date / datetime transforms (reference: wrangler-core
src/main/java/io/cdap/directives/date/*.java and datetime/*.java)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from wrangler_ray.core.naming import resolve_column
from wrangler_ray.core.registry import Directive, directive
from wrangler_ray.core.schema import set_column
from wrangler_ray.directives.javafmt import java_datefmt_to_py


def _strftime(arr, fmt: str):
    """Arrow's strftime prints %S WITH the fractional part whenever the
    timestamp has sub-second resolution — Java's 'ss' never does. When the
    translated pattern carries no explicit %f, truncate to seconds first so
    'ss' means seconds, like SimpleDateFormat."""
    if "%f" not in fmt and pa.types.is_timestamp(arr.type) and arr.type.unit != "s":
        arr = pc.cast(arr, pa.timestamp("s"), safe=False)
    return pc.strftime(arr, format=fmt)


@directive("diff-date")
class DiffDate(Directive):
    """diff-date :col1 :col2 :dst — millisecond difference col1 - col2
    (reference directives/date/DiffDate.java)."""

    usage = "diff-date :column1 :column2 :destination"

    def __init__(self, call):
        self.c1 = call.col(0)
        self.c2 = call.col(1)
        self.dst = call.col(2)

    def apply(self, table, ctx):
        c1 = resolve_column(table, self.c1)
        c2 = resolve_column(table, self.c2)
        if c1 is None or c2 is None:
            return self.ok(table)
        a = pc.cast(table.column(c1), pa.timestamp("us"))
        b = pc.cast(table.column(c2), pa.timestamp("us"))
        diff_us = pc.cast(pc.subtract(a, b), pa.int64())
        ms = pc.divide(diff_us, 1000)
        return self.ok(set_column(table, self.dst, ms))


@directive("format-date")
class FormatDate(Directive):
    """format-date :col 'java-pattern' — date/timestamp → string (reference
    directives/date/FormatDate.java). Vectorized pc.strftime."""

    usage = "format-date :col 'pattern'"

    def __init__(self, call):
        self.column = call.col(0)
        self.fmt = java_datefmt_to_py(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = table.column(col)
        if not (pa.types.is_timestamp(arr.type) or pa.types.is_date(arr.type)):
            arr = pc.cast(arr, pa.timestamp("us"))
        if pa.types.is_date(arr.type):
            arr = pc.cast(arr, pa.timestamp("us"))
        out = _strftime(arr, self.fmt)
        return self.ok(set_column(table, col, out))


@directive("format-unix-timestamp")
class FormatUnixTimestamp(Directive):
    """format-unix-timestamp :col 'java-pattern' — epoch seconds → formatted
    string (reference docs: format-unix-timestamp)."""

    usage = "format-unix-timestamp :col 'pattern'"

    def __init__(self, call):
        self.column = call.col(0)
        self.fmt = java_datefmt_to_py(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = pc.cast(table.column(col), pa.int64(), safe=False)
        ts = pc.cast(pc.multiply(arr, 1_000_000), pa.timestamp("us"))
        return self.ok(set_column(table, col, _strftime(ts, self.fmt)))


@directive("current-datetime")
class CurrentDatetime(Directive):
    """current-datetime :col [zone] — inject now() (reference
    directives/datetime/CurrentDateTime.java). Deterministic when the chain
    environment provides 'now' (job-start constant) — recommended for replay."""

    usage = "current-datetime :col [zone]"

    def __init__(self, call):
        self.column = call.col(0)
        self.zone = call.text(1, default="UTC")

    def apply(self, table, ctx):
        import datetime as dt

        now = ctx.environment.get("now")
        if now is None:
            now = dt.datetime.utcnow()
        n = table.num_rows
        arr = pa.array([now] * n, pa.timestamp("us"))
        return self.ok(set_column(table, self.column, arr))


@directive("datetime-to-timestamp")
class DatetimeToTimestamp(Directive):
    """datetime-to-timestamp :col [zone] (reference
    directives/datetime/DateTimeToTimeStamp.java) — naive datetime assumed in
    `zone`, converted to UTC timestamp."""

    usage = "datetime-to-timestamp :col [zone]"

    def __init__(self, call):
        self.column = call.col(0)
        self.zone = call.text(1, default="UTC")

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = table.column(col)
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            arr = pc.cast(arr, pa.timestamp("us"))
        if self.zone and self.zone.upper() != "UTC":
            arr = pc.assume_timezone(
                pc.cast(arr, pa.timestamp("us")), self.zone,
                ambiguous="earliest", nonexistent="earliest",
            )
            arr = pc.cast(arr, pa.timestamp("us"))  # normalize back to naive UTC
        return self.ok(set_column(table, col, pc.cast(arr, pa.timestamp("us"))))


@directive("timestamp-to-datetime")
class TimestampToDatetime(Directive):
    """timestamp-to-datetime :col [zone] (reference
    directives/datetime/TimestampToDateTime.java) — timestamp → local naive
    datetime in `zone`."""

    usage = "timestamp-to-datetime :col [zone]"

    def __init__(self, call):
        self.column = call.col(0)
        self.zone = call.text(1, default="UTC")

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = pc.cast(table.column(col), pa.timestamp("us"))
        if self.zone and self.zone.upper() != "UTC":
            zoned = pc.cast(arr, pa.timestamp("us", tz="UTC"))
            local = pc.local_timestamp(pc.cast(zoned, pa.timestamp("us", tz=self.zone)))
            return self.ok(set_column(table, col, local))
        return self.ok(set_column(table, col, arr))


@directive("format-datetime")
class FormatDatetime(Directive):
    """format-datetime :col 'java-pattern' (reference
    directives/datetime/FormatDateTime.java)."""

    usage = "format-datetime :col 'pattern'"

    def __init__(self, call):
        self.column = call.col(0)
        self.fmt = java_datefmt_to_py(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = pc.cast(table.column(col), pa.timestamp("us"))
        return self.ok(set_column(table, col, _strftime(arr, self.fmt)))
