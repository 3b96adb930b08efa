"""String / value transformations (reference: wrangler-core
src/main/java/io/cdap/directives/transformation/*.java). All are stateless
batch maps over Arrow; pyarrow.compute kernels where one exists, otherwise a
vectorized-ish Python pass over the column (never per-row dataset ops).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import random
import re
import urllib.parse
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from wrangler_ray.core.errors import DirectiveError, RecipeParseError
from wrangler_ray.core.naming import resolve_column
from wrangler_ray.core.registry import Directive, directive
from wrangler_ray.core.schema import set_column, string_buffers


def _str_col(table: pa.Table, name: str) -> pa.ChunkedArray:
    col = table.column(name)
    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    return col


class _SingleColumn(Directive):
    def __init__(self, call):
        self.column = call.col(0)

    def kernel(self, col):  # pragma: no cover - abstract
        raise NotImplementedError

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        return self.ok(set_column(table, col, self.kernel(_str_col(table, col))))


@directive("uppercase")
class Uppercase(_SingleColumn):
    """uppercase :col (reference transformation/Upper.java)."""

    usage = "uppercase :col"

    def kernel(self, col):
        return pc.utf8_upper(col)


@directive("lowercase")
class Lowercase(_SingleColumn):
    """lowercase :col (reference transformation/Lower.java)."""

    usage = "lowercase :col"

    def kernel(self, col):
        return pc.utf8_lower(col)


@directive("titlecase")
class Titlecase(_SingleColumn):
    """titlecase :col (reference transformation/TitleCase.java)."""

    usage = "titlecase :col"

    def kernel(self, col):
        return pc.utf8_title(col)


@directive("trim")
class Trim(_SingleColumn):
    """trim :col (reference transformation/Trim.java + Trimmer.java)."""

    usage = "trim :col"

    def kernel(self, col):
        return pc.utf8_trim_whitespace(col)


@directive("ltrim")
class LTrim(_SingleColumn):
    """ltrim :col (reference transformation/LeftTrim.java)."""

    usage = "ltrim :col"

    def kernel(self, col):
        return pc.utf8_ltrim_whitespace(col)


@directive("rtrim")
class RTrim(_SingleColumn):
    """rtrim :col (reference transformation/RightTrim.java)."""

    usage = "rtrim :col"

    def kernel(self, col):
        return pc.utf8_rtrim_whitespace(col)


def _parse_cut_ranges(spec: str):
    """UNIX `cut -c` ranges: '1-3', '2-', '-5', '4', comma-separated.
    Returns list of (start0, stop_or_None)."""
    ranges = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            a, b = part.split("-", 1)
            start = int(a) - 1 if a else 0
            stop = int(b) if b else None
        else:
            start = int(part) - 1
            stop = int(part)
        ranges.append((start, stop))
    return ranges


@directive("cut-character")
class CutCharacter(Directive):
    """cut-character :src :dst 'ranges' — UNIX cut -c semantics (reference
    transformation/CharacterCut.java)."""

    usage = "cut-character :source :destination 'ranges'"

    def __init__(self, call):
        self.src = call.col(0)
        self.dst = call.col(1)
        self.ranges = _parse_cut_ranges(call.text(2))

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        col = _str_col(table, src)
        pieces = [
            pc.utf8_slice_codeunits(col, start, stop if stop is not None else 2**31 - 1)
            for start, stop in self.ranges
        ]
        out = pieces[0]
        for p in pieces[1:]:
            out = pc.binary_join_element_wise(out, p, "")
        return self.ok(set_column(table, self.dst, out))


@directive("split")
class Split(Directive):
    """split :source 'delimiter' :col1 :col2 — first part / rest (reference
    transformation/Split.java, deprecated in favor of split-to-columns)."""

    usage = "split :source 'delimiter' :col1 :col2"

    def __init__(self, call):
        self.src = call.col(0)
        self.delim = call.text(1)
        self.c1 = call.col(2)
        self.c2 = call.col(3)

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        col = _str_col(table, src)
        parts = pc.split_pattern(col, self.delim, max_splits=1)
        vals = parts.to_pylist()
        second = pa.array(
            [v[1] if v is not None and len(v) > 1 else None for v in vals], pa.string()
        )
        first = pa.array(
            [v[0] if v is not None and len(v) > 0 else None for v in vals], pa.string()
        )
        table = set_column(table, self.c1, first)
        table = set_column(table, self.c2, second)
        return self.ok(table)


@directive("split-to-columns")
class SplitToColumns(Directive):
    """split-to-columns :col 'regex' — split into col_1..col_n (reference
    column/SplitToColumns.java: pad to max parts)."""

    usage = "split-to-columns :col 'regex'"

    def __init__(self, call):
        self.column = call.col(0)
        self.pattern = re.compile(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = _str_col(table, col).to_pylist()
        split = [self.pattern.split(v) if v is not None else None for v in vals]
        width = max((len(s) for s in split if s is not None), default=0)
        for i in range(width):
            arr = pa.array(
                [s[i] if s is not None and i < len(s) else None for s in split],
                pa.string(),
            )
            table = set_column(table, f"{col}_{i + 1}", arr)
        return self.ok(table)


@directive("split-email")
class SplitEmail(Directive):
    """split-email :col — adds col_account / col_domain (reference
    transformation/SplitEmail.java)."""

    usage = "split-email :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        s = _str_col(table, col)
        # reference semantics (SplitEmail.java execute): RFC-822 display-name
        # forms "Name <addr>" extract the bracketed address; a '<' with no
        # closing '>' is a bad email → (null, null); otherwise split on the
        # LAST '@' (lastIndexOf)
        vals = s.to_pylist()
        acct, dom = [], []
        for v in vals:
            if v is not None and "<" in v:
                lt = v.rfind("<")
                gt = v.rfind(">")
                v = None if gt == -1 else v[lt + 1 : gt]
            if v is None or "@" not in v:
                acct.append(None)
                dom.append(None)
            else:
                a, _, d = v.rpartition("@")
                acct.append(a)
                dom.append(d)
        table = set_column(table, f"{col}_account", pa.array(acct, pa.string()))
        table = set_column(table, f"{col}_domain", pa.array(dom, pa.string()))
        return self.ok(table)


@directive("split-url")
class SplitURL(Directive):
    """split-url :col — adds _protocol/_authority/_host/_port/_path/_filename/_query
    (reference transformation/SplitURL.java)."""

    usage = "split-url :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = _str_col(table, col).to_pylist()
        proto, auth, host, port, path, query, filename = [], [], [], [], [], [], []
        for v in vals:
            if v is None:
                for lst in (proto, auth, host, port, path, query, filename):
                    lst.append(None)
                continue
            try:
                u = urllib.parse.urlparse(v)
                proto.append(u.scheme or None)
                auth.append(u.netloc or None)
                host.append(u.hostname)
                port.append(u.port)
                path.append(u.path or None)
                query.append(u.query or None)
                filename.append((u.path or "").rsplit("/", 1)[-1] or None)
            except ValueError:
                for lst in (proto, auth, host, port, path, query, filename):
                    lst.append(None)
        table = set_column(table, f"{col}_protocol", pa.array(proto, pa.string()))
        table = set_column(table, f"{col}_authority", pa.array(auth, pa.string()))
        table = set_column(table, f"{col}_host", pa.array(host, pa.string()))
        table = set_column(table, f"{col}_port", pa.array(port, pa.int32()))
        table = set_column(table, f"{col}_path", pa.array(path, pa.string()))
        table = set_column(table, f"{col}_filename", pa.array(filename, pa.string()))
        table = set_column(table, f"{col}_query", pa.array(query, pa.string()))
        return self.ok(table)


@directive("url-encode")
class UrlEncode(_SingleColumn):
    """url-encode :col (reference transformation/UrlEncode.java — Java
    URLEncoder semantics: space → '+')."""

    usage = "url-encode :col"

    def kernel(self, col):
        return pa.array(
            [urllib.parse.quote_plus(v) if v is not None else None for v in col.to_pylist()],
            pa.string(),
        )


@directive("url-decode")
class UrlDecode(_SingleColumn):
    """url-decode :col (reference transformation/UrlDecode.java)."""

    usage = "url-decode :col"

    def kernel(self, col):
        return pa.array(
            [urllib.parse.unquote_plus(v) if v is not None else None for v in col.to_pylist()],
            pa.string(),
        )


_CODECS = {
    "base64": (lambda b: base64.b64encode(b), lambda b: base64.b64decode(b)),
    "base32": (lambda b: base64.b32encode(b), lambda b: base64.b32decode(b)),
    "hex": (lambda b: binascii.hexlify(b), lambda b: binascii.unhexlify(b)),
}


@directive("encode")
class Encode(Directive):
    """encode base32|base64|hex :col (reference transformation/Encode.java —
    commons-codec; result replaces value with encoded string in col_encode_<m>)."""

    usage = "encode base32|base64|hex :col"

    def __init__(self, call):
        self.method = (call.text(0) or "base64").lower()
        self.column = call.col(1)
        if self.method not in _CODECS:
            raise DirectiveError(f"encode: unknown method '{self.method}'")

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        enc = _CODECS[self.method][0]
        vals = table.column(col).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
            else:
                b = v if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8")
                out.append(enc(b).decode("ascii"))
        return self.ok(set_column(table, f"{col}_encode_{self.method}", pa.array(out, pa.string())))


@directive("decode")
class Decode(Directive):
    """decode base32|base64|hex :col (reference transformation/Decode.java)."""

    usage = "decode base32|base64|hex :col"

    def __init__(self, call):
        self.method = (call.text(0) or "base64").lower()
        self.column = call.col(1)
        if self.method not in _CODECS:
            raise DirectiveError(f"decode: unknown method '{self.method}'")

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        dec = _CODECS[self.method][1]
        vals = table.column(col).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
            else:
                b = v if isinstance(v, (bytes, bytearray)) else str(v).encode("ascii")
                try:
                    out.append(dec(b).decode("utf-8", errors="replace"))
                except (binascii.Error, ValueError):
                    out.append(None)
        return self.ok(set_column(table, f"{col}_decode_{self.method}", pa.array(out, pa.string())))


@directive("find-and-replace")
class FindAndReplace(Directive):
    """find-and-replace :col 's/find/replace/g' — sed substitute semantics
    (reference transformation/FindAndReplace.java)."""

    usage = "find-and-replace :col 's/<find>/<replace>/g'"

    def __init__(self, call):
        self.column = call.col(0)
        expr = call.text(1)
        m = re.fullmatch(r"s/((?:[^/\\]|\\.)*)/((?:[^/\\]|\\.)*)/([gi]*)", expr or "")
        if m is None:
            raise DirectiveError(f"find-and-replace: bad sed expression '{expr}'")
        self.pattern = m.group(1)
        self.repl = m.group(2).replace("$", "\\")
        self.global_ = "g" in m.group(3)
        self.ignorecase = "i" in m.group(3)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        s = _str_col(table, col)
        if self.ignorecase or "\\" in self.repl:
            flags = re.I if self.ignorecase else 0
            pat = re.compile(self.pattern, flags)
            count = 0 if self.global_ else 1
            out = pa.array(
                [pat.sub(self.repl, v, count=count) if v is not None else None for v in s.to_pylist()],
                pa.string(),
            )
        else:
            out = pc.replace_substring_regex(
                s, self.pattern, self.repl, max_replacements=None if self.global_ else 1
            )
        return self.ok(set_column(table, col, out))


@directive("extract-regex-groups")
class ExtractRegexGroups(Directive):
    """extract-regex-groups :col 'regex' — one new column per capture group
    col_1..col_n (reference transformation/ExtractRegexGroups.java)."""

    usage = "extract-regex-groups :col 'regex'"

    def __init__(self, call):
        self.column = call.col(0)
        self.pattern = re.compile(call.text(1))

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = _str_col(table, col).to_pylist()
        groups = self.pattern.groups
        cols = [[] for _ in range(groups)]
        for v in vals:
            m = self.pattern.search(v) if v is not None else None
            for g in range(groups):
                cols[g].append(m.group(g + 1) if m else None)
        for g in range(groups):
            table = set_column(table, f"{col}_{g + 1}", pa.array(cols[g], pa.string()))
        return self.ok(table)


@directive("indexsplit")
class IndexSplit(Directive):
    """indexsplit :source start end :dst — 1-based inclusive slice (reference
    transformation/IndexSplit.java, deprecated)."""

    usage = "indexsplit :source <start> <end> :destination"

    def __init__(self, call):
        self.src = call.col(0)
        self.start = int(call.number(1)) - 1
        self.end = int(call.number(2))
        self.dst = call.col(3)

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        out = pc.utf8_slice_codeunits(_str_col(table, src), max(self.start, 0), self.end)
        return self.ok(set_column(table, self.dst, out))


@directive("fill-null-or-empty")
class FillNullOrEmpty(Directive):
    """fill-null-or-empty :col 'value' (reference transformation/FillNullOrEmpty.java)."""

    usage = "fill-null-or-empty :col 'value'"

    def __init__(self, call):
        self.column = call.col(0)
        self.value = call.text(1)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        arr = table.column(col)
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            filled = pc.fill_null(arr, self.value)
            filled = pc.if_else(pc.equal(filled, ""), pa.scalar(self.value), filled)
        else:
            filled = pc.fill_null(pc.cast(arr, pa.string()), self.value)
        return self.ok(set_column(table, col, filled))


@directive("generate-uuid")
class GenerateUUID(Directive):
    """generate-uuid :col (reference transformation/GenerateUUID.java).
    Deterministic when ctx.environment['seed'] is set (replay/tests)."""

    usage = "generate-uuid :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        n = table.num_rows
        seed = ctx.environment.get("seed")
        if seed is not None:
            rng = random.Random(seed)
            vals = [str(uuid.UUID(int=rng.getrandbits(128), version=4)) for _ in range(n)]
        else:
            vals = [str(uuid.uuid4()) for _ in range(n)]
        return self.ok(set_column(table, self.column, pa.array(vals, pa.string())))


@directive("hash")
class MessageHash(Directive):
    """hash :col 'algo' [encode] — digest replaces value (reference
    transformation/MessageHash.java:56-126; encode=true → hex string)."""

    usage = "hash :col 'algorithm' [encode]"

    def __init__(self, call):
        self.column = call.col(0)
        algo = (call.text(1) or "SHA-256").lower().replace("-", "").replace("_", "")
        self.algo = {"sha1": "sha1", "sha256": "sha256", "sha384": "sha384",
                     "sha512": "sha512", "md5": "md5", "md2": "md5"}.get(algo, algo)
        self.encode = call.boolean(2, default=True)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = table.column(col).to_pylist()
        out = []
        h0 = hashlib.new(self.algo)
        for v in vals:
            if v is None:
                out.append(None)
                continue
            h = h0.copy()
            h.update(v if isinstance(v, (bytes, bytearray)) else str(v).encode("utf-8"))
            out.append(h.hexdigest() if self.encode else h.digest())
        typ = pa.string() if self.encode else pa.binary()
        return self.ok(set_column(table, col, pa.array(out, typ)))


def mask_number_value(value, pattern: str) -> str:
    """Positional mask, exact reference algorithm
    (transformation/MaskNumber.java:119-146): '#' emits the input char (skipped
    when input exhausted); 'x'/'X' emits lowercase 'x' and always advances;
    any other pattern char is emitted literally and advances the input cursor
    only when the input char equals it."""
    if value is None:
        return None
    s = str(value)
    out = []
    i = 0
    for ch in pattern:
        if ch == "#":
            if i > len(s) - 1:
                continue
            out.append(s[i])
            i += 1
        elif ch in ("x", "X"):
            out.append("x")
            i += 1
        else:
            if i < len(s) and s[i] == ch:
                i += 1
            out.append(ch)
    return "".join(out)


def _mask_ascii(arr: pa.Array, pattern: str) -> pa.Array | None:
    """``mask_number_value`` over every value of the string array ``arr``
    at once: one vectorized step per pattern character over the value bytes,
    with a per-row cursor. None when a value or the pattern is not ASCII."""
    if not len(arr):
        return arr
    if pattern is None or not pattern.isascii():
        return None
    offsets, data = string_buffers(arr)
    if (data >= 0x80).any():
        return None
    n, starts = len(arr), offsets[:-1].astype(np.int64)
    lens = np.diff(offsets)
    src = np.append(data, np.uint8(0))  # a cursor past a value reads this byte
    past = len(data)
    cur = np.zeros(n, np.int64)
    out = np.empty((n, len(pattern)), np.uint8)
    emit = np.ones((n, len(pattern)), bool)
    for j, ch in enumerate(pattern):
        inside = cur < lens
        if ch == "#":
            out[:, j] = src[np.where(inside, starts + cur, past)]
            emit[:, j] = inside
            cur += inside
        elif ch in ("x", "X"):
            out[:, j] = ord("x")
            cur += 1
        else:
            out[:, j] = ord(ch)
            cur += inside & (src[np.where(inside, starts + cur, past)] == ord(ch))
    validity = None
    if arr.null_count:
        valid = arr.is_valid()
        emit &= valid.to_numpy(zero_copy_only=False)[:, None]
        validity = arr.buffers()[0] if arr.offset == 0 else valid.buffers()[1]
    new_offsets = np.zeros(n + 1, offsets.dtype)
    np.cumsum(emit.sum(axis=1), out=new_offsets[1:])
    buffers = [validity, pa.py_buffer(new_offsets), pa.py_buffer(out[emit])]
    return pa.Array.from_buffers(arr.type, n, buffers, arr.null_count)


@directive("mask-number")
class MaskNumber(Directive):
    """mask-number :col 'pattern' — positional mask, one numpy pass per block
    (reference transformation/MaskNumber.java).

    Runs on the column's bytes, one numpy step per pattern character for the
    whole block, when the pattern and every value are ASCII; otherwise per
    value through ``mask_number_value``. A non-string column is masked as
    its text; the output keeps a string column's type (string or
    large_string)."""

    usage = "mask-number :col 'pattern'"

    def __init__(self, call):
        self.column = call.col(0)
        self.pattern = call.text(1)
        if self.pattern is None:
            raise RecipeParseError(f"{call.name}: missing pattern argument 1: {call.source}")

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = _str_col(table, col)
        chunks = [_mask_ascii(c, self.pattern) for c in vals.chunks]
        if any(c is None for c in chunks):
            out = pa.array([mask_number_value(v, self.pattern) for v in vals.to_pylist()],
                           vals.type)
        else:
            out = pa.chunked_array(chunks, vals.type)
        return self.ok(set_column(table, col, out))


@directive("mask-shuffle")
class MaskShuffle(Directive):
    """mask-shuffle :col — substitute chars within their class, preserving
    length/case/digit classes (reference transformation/MaskShuffle.java).
    Seeded via ctx.environment['seed'] for deterministic replay."""

    usage = "mask-shuffle :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        rng = random.Random(ctx.environment.get("seed", 0))
        lo = "abcdefghijklmnopqrstuvwxyz"
        up = lo.upper()
        dig = "0123456789"
        vals = _str_col(table, col).to_pylist()
        out = []
        for v in vals:
            if v is None:
                out.append(None)
                continue
            chars = []
            for c in v:
                if c.islower():
                    chars.append(rng.choice(lo))
                elif c.isupper():
                    chars.append(rng.choice(up))
                elif c.isdigit():
                    chars.append(rng.choice(dig))
                else:
                    chars.append(c)
            out.append("".join(chars))
        return self.ok(set_column(table, col, pa.array(out, pa.string())))


@directive("quantize")
class Quantize(Directive):
    """quantize :source :destination r1:r2=label[,r3:r4=label]* — closed-range
    →label map (reference transformation/Quantization.java:84-129, guava
    RangeMap.closed). Vectorized with numpy interval tests."""

    usage = "quantize :source :destination <low>:<high>=<label>[,...]"

    def __init__(self, call):
        self.src = call.col(0)
        self.dst = call.col(1)
        spec = call.text(2)
        self.ranges = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            rng, _, label = part.partition("=")
            lo, _, hi = rng.partition(":")
            self.ranges.append((float(lo), float(hi), label.strip()))

    def apply(self, table, ctx):
        src = resolve_column(table, self.src)
        if src is None:
            return self.ok(table)
        x = table.column(src).to_numpy(zero_copy_only=False).astype(np.float64)
        out = np.full(len(x), None, dtype=object)
        for lo, hi, label in self.ranges:
            mask = (x >= lo) & (x <= hi) & ~np.isnan(x)
            out[mask] = label
        return self.ok(set_column(table, self.dst, pa.array(out.tolist(), pa.string())))


def _levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _jaro(a: str, b: str) -> float:
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    ma = [False] * la
    mb = [False] * lb
    matches = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not mb[j] and a[i] == b[j]:
                ma[i] = mb[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(la):
        if ma[i]:
            while not mb[k]:
                k += 1
            if a[i] != b[k]:
                t += 1
            k += 1
    t //= 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3


def _jaro_winkler(a: str, b: str) -> float:
    j = _jaro(a, b)
    prefix = 0
    for x, y in zip(a[:4], b[:4]):
        if x == y:
            prefix += 1
        else:
            break
    return j + prefix * 0.1 * (1 - j)


def _ngrams(s: str, n: int = 2) -> set:
    return {s[i : i + n] for i in range(max(len(s) - n + 1, 1))} if s else set()


def _cosine_sim(a: str, b: str) -> float:
    from collections import Counter

    ca, cb = Counter(a.split()), Counter(b.split())
    common = set(ca) & set(cb)
    num = sum(ca[w] * cb[w] for w in common)
    den = (sum(v * v for v in ca.values()) ** 0.5) * (sum(v * v for v in cb.values()) ** 0.5)
    return num / den if den else 0.0


def _dice(a: str, b: str) -> float:
    sa, sb = _ngrams(a), _ngrams(b)
    if not sa and not sb:
        return 1.0
    return 2 * len(sa & sb) / (len(sa) + len(sb)) if (sa or sb) else 0.0


def _jaccard_str(a: str, b: str) -> float:
    sa, sb = _ngrams(a), _ngrams(b)
    if not sa and not sb:
        return 1.0
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


_SIMILARITY = {
    "levenshtein": lambda a, b: 1.0 - _levenshtein(a, b) / max(len(a), len(b), 1),
    "jaro": _jaro,
    "jaro-winkler": _jaro_winkler,
    "cosine": _cosine_sim,
    "dice": _dice,
    "jaccard": _jaccard_str,
    "block-distance": lambda a, b: _dice(a, b),
    "euclidean": lambda a, b: _dice(a, b),
    "simon-white": _dice,
    "identity": lambda a, b: 1.0 if a == b else 0.0,
}


class _TextPair(Directive):
    def __init__(self, call):
        self.metric = (call.text(0) or "levenshtein").lower()
        self.c1 = call.col(1)
        self.c2 = call.col(2)
        self.dst = call.col(3)
        self.fn = _SIMILARITY.get(self.metric, _SIMILARITY["levenshtein"])

    def score(self, a, b) -> float:
        raise NotImplementedError

    def apply(self, table, ctx):
        c1 = resolve_column(table, self.c1)
        c2 = resolve_column(table, self.c2)
        if c1 is None or c2 is None:
            return self.ok(table)
        va = _str_col(table, c1).to_pylist()
        vb = _str_col(table, c2).to_pylist()
        out = [
            self.score(a or "", b or "") if (a is not None or b is not None) else None
            for a, b in zip(va, vb)
        ]
        return self.ok(set_column(table, self.dst, pa.array(out, pa.float32())))


@directive("text-distance")
class TextDistance(_TextPair):
    """text-distance <metric> :col1 :col2 :dst (reference
    transformation/TextDistanceMeasure.java — simmetrics distances)."""

    usage = "text-distance <metric> :col1 :col2 :destination"

    def score(self, a, b):
        if self.metric == "levenshtein":
            return float(_levenshtein(a, b))
        return 1.0 - self.fn(a, b)


@directive("text-metric")
class TextMetric(_TextPair):
    """text-metric <metric> :col1 :col2 :dst — similarity 0..1 (reference
    transformation/TextMetricMeasure.java)."""

    usage = "text-metric <metric> :col1 :col2 :destination"

    def score(self, a, b):
        return self.fn(a, b)


# ---------------------------------------------------------------------------
# Porter stemmer (pure python, classic algorithm) for the `stemming` directive
# (reference directives/nlp/Stemming.java + internal/PorterStemmer.java).
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(word, i):
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem):
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_cons(stem, i)
        if not cons:
            prev_vowel = True
        elif prev_vowel:
            m += 1
            prev_vowel = False
    return m


def _has_vowel(stem):
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def porter_stem(word: str) -> str:
    w = word.lower()
    if len(w) <= 2:
        return w
    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        w = _step1b_fix(w)
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        w = _step1b_fix(w)
    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2/3/4 suffix maps (measure-gated)
    for suffixes, mmin in (
        (
            {
                "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
                "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
                "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
                "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
                "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
            },
            0,
        ),
        (
            {
                "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
                "ical": "ic", "ful": "", "ness": "",
            },
            0,
        ),
        (
            {
                "al": "", "ance": "", "ence": "", "er": "", "ic": "", "able": "",
                "ible": "", "ant": "", "ement": "", "ment": "", "ent": "",
                "ou": "", "ism": "", "ate": "", "iti": "", "ous": "", "ive": "",
                "ize": "",
            },
            1,
        ),
    ):
        for suf in sorted(suffixes, key=len, reverse=True):
            if w.endswith(suf):
                stem = w[: -len(suf)]
                if _measure(stem) > mmin:
                    w = stem + suffixes[suf]
                break
    # special -ion in step 4
    if w.endswith("ion") and len(w) > 3 and w[-4] in "st" and _measure(w[:-3]) > 1:
        w = w[:-3]
    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _cvc(stem)):
            w = stem
    # step 5b
    if _measure(w) > 1 and w.endswith("ll"):
        w = w[:-1]
    return w


def _cvc(stem):
    if len(stem) < 3:
        return False
    return (
        _is_cons(stem, len(stem) - 3)
        and not _is_cons(stem, len(stem) - 2)
        and _is_cons(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


def _step1b_fix(w):
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if len(w) >= 2 and w[-1] == w[-2] and _is_cons(w, len(w) - 1) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _cvc(w):
        return w + "e"
    return w


@directive("stemming")
class Stemming(Directive):
    """stemming :col — Porter-stem whitespace tokens → col_porter list column
    (reference directives/nlp/Stemming.java:65-105)."""

    usage = "stemming :col"

    def __init__(self, call):
        self.column = call.col(0)

    def apply(self, table, ctx):
        col = resolve_column(table, self.column)
        if col is None:
            return self.ok(table)
        vals = _str_col(table, col).to_pylist()
        out = [
            [porter_stem(t) for t in v.split()] if v is not None else None for v in vals
        ]
        return self.ok(set_column(table, f"{col}_porter", pa.array(out, pa.list_(pa.string()))))
