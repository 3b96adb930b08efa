"""Expression function-library behavior corpus (reference
wrangler-core/src/test/java/io/cdap/functions/*Test.java). Evaluates
expressions through the real engine against 1-row tables — what `set-column`
does per batch."""

import datetime as dt

import pyarrow as pa
import pytest

from wrangler_ray.expr.engine import compile_expression


def ev(src, **cols):
    arrays = {}
    for k, v in cols.items():
        arrays[k] = pa.array([v])
    t = pa.table(arrays) if arrays else pa.table({"_x": pa.array([0])})
    out = compile_expression(src).evaluate_table(t)
    if hasattr(out, "__len__") and not isinstance(out, (str, bytes)):
        return out[0]
    return out


# --- Global.java -----------------------------------------------------------

def test_coalesce():
    assert ev("coalesce(a, b, c)", a=None, b=None, c="c") == "c"
    assert ev("coalesce(a, b)", a="a", b="b") == "a"


def test_null_helpers():
    assert ev("NullToEmpty(a)", a=None) == ""
    assert ev("NullToZero(a)", a=None) == 0
    assert ev("NullToValue(a, 42)", a=None) == 42
    assert bool(ev("IsNull(a)", a=None)) is True
    assert bool(ev("IsNotNull(a)", a="x")) is True


def test_concat_format_pad():
    assert ev("concat(a, '-', b)", a="x", b="y") == "x-y"
    assert ev("format('%s=%d', a, b)", a="k", b=7) == "k=7"
    assert ev("padAtStart(a, 5, '0')", a="42") == "00042"
    assert ev("padAtEnd(a, 4, 'x')", a="ab") == "abxx"


def test_numeric_conversions():
    assert ev("toInteger(a)", a="12") == 12
    assert ev("toDouble(a)", a="1.5") == 1.5
    assert ev("unquote(a)", a='"hi"') == "hi"


# --- DataQuality.java / Types.java -----------------------------------------

def test_dq_inrange():
    assert bool(ev("dq:inrange(1, 0, 10)")) is True
    assert bool(ev("dq:inrange(0.9, 1, 10)")) is False
    assert bool(ev("dq:inrange(1.1, 1, 10)")) is True


def test_dq_email_url_ip():
    assert bool(ev("dq:isEmail(a)", a="root@example.io")) is True
    assert bool(ev("dq:isEmail(a)", a="not-an-email")) is False
    assert bool(ev("dq:isUrl(a)", a="https://x.io/p")) is True
    assert bool(ev("dq:isIP(a)", a="10.0.0.1")) is True
    assert bool(ev("dq:isIP(a)", a="999.0.0.1")) is False


def test_dq_luhn_cards():
    # 4111111111111111 is the canonical Visa test number (passes Luhn)
    assert bool(ev("dq:isCreditCard(a)", a="4111111111111111")) is True
    assert bool(ev("dq:isCreditCard(a)", a="4111111111111112")) is False


def test_types_sniffing():
    # Types.java helpers are registered under the dq: namespace (EL.java
    # has no separate "types" namespace)
    assert bool(ev("dq:isInteger(a)", a="123")) is True
    assert bool(ev("dq:isInteger(a)", a="1.5")) is False
    assert bool(ev("dq:isNumber(a)", a="1.5")) is True
    assert bool(ev("dq:isBoolean(a)", a="true")) is True
    assert bool(ev("dq:isDate(a)", a="2024-01-02")) is True
    assert bool(ev("dq:isEmpty(a)", a="")) is True


# --- Dates.java / DateAndTime.java -----------------------------------------

def test_date_components():
    d = dt.datetime(2017, 2, 2, 21, 6, 44)
    assert ev("date:YEAR(a)", a=d) == 2017
    assert ev("date:MONTH(a)", a=d) == 2
    assert ev("date:DAY_OF_WEEK(a)", a=d) in (4, 5)  # Thu (locale convention)


def test_days_between():
    a = dt.datetime(2024, 1, 1)
    b = dt.datetime(2024, 1, 11)
    assert abs(ev("date:DAYS_BETWEEN(a, b)", a=a, b=b)) == 10


# --- JsonFunctions.java ----------------------------------------------------

def test_json_select_and_len():
    j = '{"a": {"b": [1, 2, 3]}, "name": "x"}'
    assert ev("json:ArrayLength(json:Select(a, '$.a.b'))", a=j) == 3
    assert bool(ev("json:IsValid(a)", a=j)) is True
    assert bool(ev("json:IsValid(a)", a="{nope")) is False


# --- Logical.java ----------------------------------------------------------

def test_bit_ops():
    assert ev("logical:BitAnd(a, b)", a=12, b=10) == 8
    assert ev("logical:BitOr(a, b)", a=12, b=10) == 14
    assert ev("logical:BitXor(a, b)", a=12, b=10) == 6


# --- vectorized evaluation over real columns --------------------------------

def test_vectorized_batch_path():
    t = pa.table({"v": pa.array([1, 2, 3], pa.int64()), "s": ["a", "bb", "ccc"]})
    expr = compile_expression("v * 2 + string:length(s)")
    out = expr.evaluate_table(t)
    assert list(out) == [3, 6, 9]


def test_nested_pushdowns_match_row_path():
    """A pushed-down call nested in another pushable call: the outer call
    runs on the inner kernel's result (not on a column of that name), so
    the batch path gives what the row path gives."""
    t = pa.table({"body": ["  Hi X ", None, "abc", " xx"]})
    for src, want in (
        ("string:length(string:trim(body))", [4, None, 3, 2]),
        ('string:contains(string:lower(body), "x")', [True, False, False, True]),
        ("string:upper(string:trim(body))", ["HI X", None, "ABC", "XX"]),
    ):
        expr = compile_expression(src)
        assert list(expr.evaluate_table(t)) == want, src
        assert [expr.evaluate_row(r) for r in t.to_pylist()] == want, src


def test_pushdown_runs_in_a_fresh_process():
    """A chain compiled here and unpickled in a fresh interpreter, as a Ray
    worker receives it, runs its pushed-down call on the Arrow kernel: the
    child replaces the per-row function with one that raises, and still
    gets the lengths. A subprocess, not a Ray task: a reused worker that
    once compiled an expression would hide a kernel table filled only at
    compile time."""
    import os
    import subprocess
    import sys

    import cloudpickle

    from wrangler_ray.pipeline import DirectiveChain, compile_recipe

    chain = DirectiveChain(compile_recipe(["set-column :n exp:{string:length(text)}"]))
    child = (
        "import sys, cloudpickle, pyarrow as pa\n"
        "from wrangler_ray.expr import functions as F\n"
        "def boom(*a):\n"
        "    raise RuntimeError('per-row string:length ran')\n"
        "F.FUNCTIONS['string__length'] = boom\n"
        "chain = cloudpickle.loads(sys.stdin.buffer.read())\n"
        "out = chain(pa.table({'text': ['ab', 'cde', '', 'x']}))\n"
        "print(out.column('n').to_pylist())\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", child], input=cloudpickle.dumps(chain),
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split("\n")[-2] == "[2, 3, 0, 1]"


# --- DateAndTime.java (DataStage family; parity cases ported from reference
# wrangler-core/src/test/java/io/cdap/functions/DateAndTimeTest.java) --------

def test_datetime_get_parse():
    assert ev("datetime:GetDate('2008-08-18')") == dt.date(2008, 8, 18)
    assert ev("datetime:GetTime('22:30:52')") == dt.time(22, 30, 52)
    assert ev("datetime:GetDateTime('2008-08-18 22:30:52')") == dt.datetime(2008, 8, 18, 22, 30, 52)
    combined = ev("datetime:GetDateTime(datetime:GetDate('2008-08-18'), datetime:GetTime('22:30:52'))")
    assert combined == dt.datetime(2008, 8, 18, 22, 30, 52)


def test_datetime_date_from_days_since():
    assert ev("datetime:DateFromDaysSince(18250, datetime:GetDate('1958-08-18'))") == dt.date(2008, 8, 5)
    assert ev("datetime:DateFromDaysSince(-1, datetime:GetDate('1958-08-18'))") == dt.date(1958, 8, 17)


def test_datetime_date_from_components():
    assert ev("datetime:DateFromComponents(2010, 12, 2)") == dt.date(2010, 12, 2)
    assert ev("datetime:DateFromComponents(2020, 3, 7)") == dt.date(2020, 3, 7)


def test_datetime_julian_day():
    assert ev("datetime:DateFromJulianDay(2454614)") == dt.date(2008, 5, 27)
    assert ev("datetime:JulianDayFromDate(datetime:GetDate('2008-05-27'))") == 2454614


def test_datetime_date_offset_by_components():
    assert ev("datetime:DateOffsetByComponents(datetime:GetDate('2011-08-18'), 2, 0, 0)") == dt.date(2013, 8, 18)
    assert ev("datetime:DateOffsetByComponents(datetime:GetDate('2011-08-18'), 2, 1, -1)") == dt.date(2013, 9, 17)
    assert ev("datetime:DateOffsetByComponents(datetime:GetDate('2011-08-18'), 2, 5, -1)") == dt.date(2014, 1, 17)


def test_datetime_days_since_from_date():
    assert ev("datetime:DaysSinceFromDate(datetime:GetDate('2008-08-18'), datetime:GetDate('1958-08-18'))") == -18263
    assert ev("datetime:DaysSinceFromDate(datetime:GetDate('1958-08-18'), datetime:GetDate('2008-08-18'))") == 18263


def test_datetime_days_in_month_year():
    # Java Month.maxLength: February reports 29 in ANY year
    assert ev("datetime:DaysInMonth(datetime:GetDate('2011-02-18'))") == 29
    assert ev("datetime:DaysInMonth(datetime:GetDate('2011-08-18'))") == 31
    assert ev("datetime:DaysInYear(datetime:GetDate('2012-08-18'))") == 366
    assert ev("datetime:DaysInYear(datetime:GetDate('2011-08-18'))") == 365


def test_datetime_date_offset_by_days():
    assert ev("datetime:DateOffsetByDays(datetime:GetDate('2011-08-18'), 2)") == dt.date(2011, 8, 20)
    assert ev("datetime:DateOffsetByDays(datetime:GetDate('2011-08-18'), -31)") == dt.date(2011, 7, 18)


def test_datetime_time_parts():
    assert ev("datetime:HoursFromTime(datetime:GetTime('22:30:52'))") == 22
    assert ev("datetime:MinutesFromTime(datetime:GetTime('22:30:52'))") == 30
    assert ev("datetime:SecondsFromTime(datetime:GetTime('22:30:52'))") == 52
    assert ev("datetime:NanoSecondsFromTime(datetime:GetTime('00:30:52.32'))") == 320000000
    assert ev("datetime:MicroSecondsFromTime(datetime:GetTime('00:30:52.32'))") == 320000
    assert ev("datetime:MilliSecondsFromTime(datetime:GetTime('00:30:52.32'))") == 320
    assert ev("datetime:MidnightSecondsFromTime(datetime:GetTime('00:30:52'))") == 1852


def test_datetime_month_parts():
    assert ev("datetime:MonthDayFromDate(datetime:GetDate('2008-08-18'))") == 18
    assert ev("datetime:MonthFromDate(datetime:GetDate('2008-08-18'))") == 8
    assert ev("datetime:YearFromDate(datetime:GetDate('2008-08-18'))") == 2008
    assert ev("datetime:YeardayFromDate(datetime:GetDate('2008-08-18'))") == 231


def test_datetime_weekday_navigation():
    # 2008-08-18 is a Monday; next thursday = 2008-08-21
    assert ev("datetime:NextWeekdayFromDate(datetime:GetDate('2008-08-18'), 'thursday')") == dt.date(2008, 8, 21)
    assert ev("datetime:NextWeekdayFromDate(datetime:GetDate('2008-08-18'), 'thu')") == dt.date(2008, 8, 21)
    # next monday from a monday is strictly one week later
    assert ev("datetime:NextWeekdayFromDate(datetime:GetDate('2008-08-18'), 'monday')") == dt.date(2008, 8, 25)
    assert ev("datetime:PreviousWeekdayFromDate(datetime:GetDate('2008-08-18'), 'thursday')") == dt.date(2008, 8, 14)
    assert ev("datetime:PreviousWeekdayFromDate(datetime:GetDate('2008-08-18'), 'monday')") == dt.date(2008, 8, 11)
    assert ev("datetime:NthWeekdayFromDate(datetime:GetDate('2009-08-18'), 'thursday', 1)") == dt.date(2009, 8, 20)
    assert ev("datetime:NthWeekdayFromDate(datetime:GetDate('2009-08-18'), 'thursday', -2)") == dt.date(2009, 8, 6)


def test_datetime_seconds_since():
    assert ev(
        "datetime:SecondsSinceFromDateTime(datetime:GetDateTime('2008-08-18 22:30:52'),"
        " datetime:GetDateTime('2008-08-18 22:30:02'))"
    ) == 50
    assert ev(
        "datetime:SecondsSinceFromDateTime(datetime:GetDateTime('2008-08-18 22:30:02'),"
        " datetime:GetDateTime('2008-08-18 22:30:52'))"
    ) == -50


def test_datetime_time_builders():
    assert ev("datetime:TimeFromComponents(10, 23, 12, 0)") == dt.time(10, 23, 12)
    assert ev("datetime:TimeFromMidnightSeconds(1852)") == dt.time(0, 30, 52)
    assert ev("datetime:TimeOffsetByComponents(datetime:GetTime('14:05:29'), 2, 0, 20)") == dt.time(16, 5, 49)


def test_datetime_datetime_builders():
    assert ev(
        "datetime:DateTimeFromSecondsSince(50, datetime:GetDateTime('2008-08-18 22:30:02'))"
    ) == dt.datetime(2008, 8, 18, 22, 30, 52)
    assert ev("datetime:DateTimeFromEpoch(1234567890)") == dt.datetime(2009, 2, 13, 23, 31, 30)
    assert ev(
        "datetime:DateTimeFromTime(datetime:GetTime('12:00:01'), datetime:GetDateTime('2008-08-18 22:30:52'))"
    ) == dt.datetime(2008, 8, 18, 12, 0, 1)
    assert ev(
        "datetime:DateTimeOffsetByComponents(datetime:GetDateTime('2011-08-18 14:05:29'), 0, 1, 0, 1, 0, 0)"
    ) == dt.datetime(2011, 9, 18, 15, 5, 29)
    assert ev(
        "datetime:DateTimeOffsetBySeconds(datetime:GetDateTime('2011-08-18 14:05:29'), 32)"
    ) == dt.datetime(2011, 8, 18, 14, 6, 1)


def test_datetime_epochs():
    assert ev("datetime:EpochFromDateTime(datetime:GetDateTime('2009-02-13 23:31:30'))") == 1234567890
    assert ev("datetime:EpochFromTimestamp(datetime:GetDateTime('2009-02-13 23:31:30'))") == 1234567890


def test_datetime_weekday_numbers():
    # 2008-08-18 is Monday; with default Sunday start → 7 - 1 + 1 = 7?
    # Java: previousOrSame(SUNDAY) of Mon 18th = Sun 17th, dayValue(SUN)=7 → 7-7+1=1
    assert ev("datetime:WeekdayFromDate(datetime:GetDate('2008-08-18'))") == 1
    assert ev("datetime:WeekdayFromDate(datetime:GetDate('2008-08-18'), 'monday')") == 7
    # YearweekFromDate: WeekFields(MONDAY, 7)
    assert ev("datetime:YearweekFromDate(datetime:GetDate('2008-08-18'))") == 33


def test_dates_java_additions():
    d = dt.datetime(2008, 8, 18, 22, 30, 52)
    assert ev("date:MONTH_SHORT(a)", a=d) == "Aug"
    assert ev("date:MONTH_LONG(a)", a=d) == "August"
    assert ev("date:DAY_OF_WEEK_SHORT(a)", a=d) == "Mon"
    assert ev("date:DAY_OF_WEEK_LONG(a)", a=d) == "Monday"
    assert ev("date:DAY_OF_YEAR(a)", a=d) == 231
    assert ev("date:ERA(a)", a=d) == 1
    assert ev("date:ERA_SHORT(a)", a=d) == "AD"
    assert ev("date:SECONDS_TO_DAYS(a)", a=190800) == 2
    assert ev("date:SECONDS_TO_HOURS(a)", a=190800) == 53
    assert ev("date:SECONDS_TO_MINUTES(a)", a=190800) == 3180
    assert ev("date:SECONDS_TO_WEEKS(a)", a=1296000) == 2
    assert bool(ev("date:isDate(a)", a="2008-08-18")) is True
    assert bool(ev("date:isDate(a)", a="not a date")) is False
    assert bool(ev("date:isTime(a)", a="22:30:52")) is True


def test_geo_infence():
    import json

    fence = json.dumps({
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[
                    [-122.05, 37.37], [-122.05, 37.41],
                    [-121.99, 37.41], [-121.99, 37.37], [-122.05, 37.37]
                ]]
            }
        }]
    })
    assert bool(ev("geo:InFence(37.39, -122.02, fence)", fence=fence)) is True
    assert bool(ev("geo:InFence(37.50, -122.02, fence)", fence=fence)) is False
    assert bool(ev("geo:InFence(a, -122.02, fence)", a=None, fence=fence)) is False


def test_ddl_functions():
    import json

    schema = json.dumps({
        "type": "record", "name": "rec", "fields": [
            {"name": "a", "type": "int"},
            {"name": "b", "type": ["null", "string"]},
            {"name": "c", "type": {"type": "record", "name": "inner", "fields": [
                {"name": "x", "type": "long"}]}},
        ]})
    assert bool(ev("ddl:hasField(ddl:parse(s), 'a')", s=schema)) is True
    assert bool(ev("ddl:hasField(ddl:parse(s), 'zzz')", s=schema)) is False
    dropped = ev("ddl:drop(ddl:parse(s), 'a')", s=schema)
    assert [f["name"] for f in dropped["fields"]] == ["b", "c"]
    nested = ev("ddl:drop(ddl:parse(s), 'c.x')", s=schema)
    assert nested["fields"][2]["type"]["fields"] == []
    assert ev("ddl:select(ddl:parse(s), 'b')", s=schema) == "string"
    assert ev("ddl:select(ddl:parse(s), 'c.x')", s=schema) == "long"
    sql_schema = ev("ddl:parsesql(s)", s="select a int, b from table t")
    assert [f["name"] for f in sql_schema["fields"]] == ["a", "b"]
    assert "int" in sql_schema["fields"][0]["type"]
    js = ev("ddl:toJson(ddl:parse(s))", s=schema)
    assert json.loads(js)["name"] == "rec"


# --- number:/decimal:/arithmetic:/escape:/strings:/bytes:/StringUtils -------

def test_number_functions():
    assert ev("number:AsDouble(a)", a=3) == 3.0
    assert ev("number:AsInteger(a)", a=3.9) == 3
    assert ev("number:Mantissa(a)", a=12.34) == pytest.approx(0.34)
    assert ev("number:Mantissa(a)", a=7) == 0.0
    assert ev("number:Mantissa(a)", a=None) == 0.0


def test_decimal_functions():
    from decimal import Decimal

    assert ev("decimal:add(a, b)", a=Decimal("1.5"), b=Decimal("2.25")) == Decimal("3.75")
    assert ev("decimal:multiply(a, b)", a=Decimal("1.5"), b=2) == Decimal("3.0")
    assert ev("decimal:precision(a)", a=Decimal("123.45")) == 5
    assert ev("decimal:scale(a)", a=Decimal("123.45")) == 2
    assert ev("decimal:unscaled(a)", a=Decimal("-123.45")) == -12345
    assert ev("decimal:decimal_left(a, 2)", a=Decimal("12345")) == Decimal("123.45")
    assert ev("decimal:decimal_right(a, 2)", a=Decimal("1.2345")) == Decimal("123.45")
    assert ev("decimal:pow(a, 3)", a=Decimal("2")) == Decimal("8")
    assert ev("decimal:negate(a)", a=Decimal("5")) == Decimal("-5")
    assert ev("decimal:sign(a)", a=Decimal("-5")) == -1
    assert ev("decimal:divider(a, b)", a=Decimal("7"), b=Decimal("3")) == Decimal("1")
    assert ev("decimal:divider(a, b)", a=Decimal("-7"), b=Decimal("3")) == Decimal("-1")


def test_arithmetic_functions():
    assert ev("arithmetic:add(a, b, 3)", a=1, b=2) == 6
    assert ev("arithmetic:add(a, b)", a=None, b=2) is None
    assert ev("arithmetic:minus(a, b)", a=5, b=3) == 2
    assert ev("arithmetic:multiply(a, b)", a=4, b=2.5) == 10.0
    assert ev("arithmetic:divideq(a, b)", a=7, b=2) == 3  # int/int floors
    assert ev("arithmetic:divideq(a, b)", a=7.0, b=2) == 3.5
    assert ev("arithmetic:divideq(a, b)", a=7, b=0) is None
    assert ev("arithmetic:divider(a, b)", a=7, b=3) == 1
    assert ev("arithmetic:lcm(a, b)", a=4, b=6) == 12
    assert bool(ev("arithmetic:equal(a, b)", a=3, b=3)) is True
    assert bool(ev("arithmetic:equal(a, b)", a=3, b=4)) is False
    assert ev("arithmetic:max(a, b, 9)", a=1, b=5) == 9
    assert ev("arithmetic:min(a, b)", a=1, b=5) == 1
    assert ev("arithmetic:average(a, b, 6)", a=3, b=3) == 4


def test_escape_functions():
    assert ev("escape:escapeHtml(a)", a="<b>&'x'</b>") == "&lt;b&gt;&amp;&#x27;x&#x27;&lt;/b&gt;"
    assert ev("escape:unescapeHtml(a)", a="&lt;b&gt;&amp;") == "<b>&"
    assert ev("escape:escapeXml(a)", a='<a b="c">') == "&lt;a b=&quot;c&quot;&gt;"
    assert ev("escape:unescapeXml(a)", a="&lt;a&gt;&apos;") == "<a>'"
    assert ev("escape:escapeJava(a)", a='line1\nline2"q"') == 'line1\\nline2\\"q\\"'
    assert ev("escape:unescapeJava(a)", a="tab\\there") == "tab\there"
    assert ev("escape:escapeCsv(a)", a='a,b"c"') == '"a,b""c"""'
    assert ev("escape:escapeCsv(a)", a="plain") == "plain"
    assert ev("escape:unescapeCsv(a)", a='"a,b""c"""') == 'a,b"c"'


def test_guava_strings_functions():
    assert bool(ev("strings:isNullOrEmpty(a)", a=None)) is True
    assert bool(ev("strings:isNullOrEmpty(a)", a="")) is True
    assert bool(ev("strings:isNullOrEmpty(a)", a="x")) is False
    assert ev("strings:nullToEmpty(a)", a=None) == ""
    assert ev("strings:emptyToNull(a)", a="") is None
    assert ev("strings:repeat(a, 3)", a="ab") == "ababab"
    assert ev("strings:padStart(a, 5, '0')", a="42") == "00042"
    assert ev("strings:padEnd(a, 4, 'x')", a="ab") == "abxx"
    assert ev("strings:commonPrefix(a, b)", a="flower", b="flight") == "fl"
    assert ev("strings:commonSuffix(a, b)", a="testing", b="running") == "ing"


def test_bytes_functions():
    assert ev("bytes:toString(a)", a=b"hi") == "hi"
    assert ev("bytes:toBytes(a)", a="hi") == b"hi"
    assert ev("bytes:toHexString(a)", a=b"\x01\xff") == "01ff"
    assert ev("bytes:fromHexString(a)", a="01ff") == b"\x01\xff"
    assert ev("bytes:toInt(a)", a=(7).to_bytes(4, "big")) == 7
    assert ev("bytes:toLong(a)", a=(-2).to_bytes(8, "big", signed=True)) == -2


def test_stringutils_additions():
    assert ev("string:capitalize(a)", a="cat") == "Cat"
    assert ev("string:uncapitalize(a)", a="Cat") == "cat"
    assert ev("string:swapCase(a)", a="aBc") == "AbC"
    assert ev("string:reverse(a)", a="abc") == "cba"
    assert ev("string:abbreviate(a, 7)", a="abcdefghij") == "abcd..."
    assert bool(ev("string:isAlpha(a)", a="abc")) is True
    assert bool(ev("string:isAlpha(a)", a="ab1")) is False
    assert bool(ev("string:isNumeric(a)", a="123")) is True
    assert bool(ev("string:isBlank(a)", a="  ")) is True
    assert ev("string:left(a, 2)", a="abcd") == "ab"
    assert ev("string:right(a, 2)", a="abcd") == "cd"
    assert ev("string:mid(a, 1, 2)", a="abcd") == "bc"
    assert ev("string:leftPad(a, 5, '*')", a="ab") == "***ab"
    assert ev("string:chomp(a)", a="line\r\n") == "line"
    assert ev("string:chop(a)", a="abc") == "ab"
    assert ev("string:countMatches(a, 'ab')", a="ababab") == 3
    assert ev("string:deleteWhitespace(a)", a=" a b\tc ") == "abc"


def test_operators_inside_string_literals_preserved():
    """'||', '&&', '!', 'true' etc. INSIDE quoted literals must survive the
    JEXL→python operator rewrite verbatim."""
    assert ev("concat('A||B', '!', a)", a="x") == "A||B!x"
    assert ev("concat('a&&b', ' true null ', a)", a="x") == "a&&b true null x"
    assert bool(ev("a == 'x' && true", a="x")) is True


def test_ternary_inside_call_args():
    assert ev("concat(a > 1 ? 'hi' : 'lo', '-', a > 5 ? 'big' : 'small')", a=3) == "hi-small"
    assert ev("padAtStart(a > 0 ? 'y' : 'n', 3, '.')", a=1) == "..y"
    # nested parenthesized ternary
    assert ev("a > 2 ? (a > 4 ? 'big' : 'mid') : 'small'", a=3) == "mid"


def test_json_namespace_additions():
    import json

    doc = json.dumps({"A": {"b": [1, 2, 3]}, "keep": 1, "drop_me": 2})
    assert ev("json:select(a, 'A.b.1')", a=doc) == 2
    assert ev("json:drop(a, 'drop_me')", a=doc) == {"A": {"b": [1, 2, 3]}, "keep": 1}
    assert ev("json:keysToLower(a)", a=doc)["a"]["b"] == [1, 2, 3]
    assert ev("json:join(a, '-')", a="[1, 2, 3]") == "1-2-3"
    assert bool(ev("json:IsNull(a)", a="null")) is True
    assert bool(ev("json:IsObject(a)", a=doc)) is True
    assert bool(ev("json:IsArray(a)", a="[1]")) is True
    assert bool(ev("json:IsArray(a)", a=doc)) is False


def test_dq_card_brands_and_isbn():
    assert bool(ev("dq:isVisa(a)", a="4111111111111111")) is True
    assert bool(ev("dq:isVisa(a)", a="5500005555555559")) is False
    assert bool(ev("dq:isMaster(a)", a="5555555555554444")) is True
    assert bool(ev("dq:isAmex(a)", a="378282246310005")) is True
    assert bool(ev("dq:isDiscover(a)", a="6011111111111117")) is True
    assert bool(ev("dq:isDiner(a)", a="30569309025904")) is True
    assert bool(ev("dq:isISBN10(a)", a="0-306-40615-2")) is True
    assert bool(ev("dq:isISBN10(a)", a="0306406153")) is False
    assert bool(ev("dq:isISBN13(a)", a="978-0-306-40615-7")) is True
    assert bool(ev("dq:isISBN13(a)", a="9780306406158")) is False
    assert bool(ev("dq:isGenericTld(a)", a=".com")) is True
    assert bool(ev("dq:isCountryTld(a)", a=".uk")) is True
    assert bool(ev("dq:isDomainTld(a)", a=".zzz")) is False
    assert bool(ev("dq:isnull(a)", a=None)) is True
    assert bool(ev("dq:isempty(a)", a="")) is True


def test_logical_bit_compress_expand():
    assert ev("logical:BitCompress(a)", a="1011") == 11
    assert ev("logical:BitExpand(a)", a=11) == "1011"
    assert ev("BitExpand(BitCompress(a))", a="1100") == "1100"
