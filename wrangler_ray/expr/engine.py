"""JEXL-style expression engine, vectorized over Arrow batches.

The reference evaluates JEXL3 expressions per row with row columns as
variables (reference wrangler-core/.../expression/EL.java:82-115; used by
set-column / filter-row / send-to-error / fail / set-variable). Here an
expression is compiled ONCE on the driver:

    JEXL-ish source ──preprocess──► restricted Python source
                    ──ast.parse + whitelist validate──► code object

and evaluated per batch in one of two modes:

- **vectorized**: column variables are numpy arrays; ``&&``/``||``/``!``/
  ternary are rewritten to masked numpy helpers, comparisons/arithmetic
  vectorize natively, and library functions lift scalars to arrays via an
  ``@elementwise`` wrapper.
- **row fallback**: if vectorized evaluation raises (mixed types, null
  arithmetic), each row is evaluated with scalar variables; a row that still
  raises yields null (filters treat null as False; set-column writes null).

Never ``eval`` of raw text: the AST is validated against a node/name
whitelist before compilation.
"""

from __future__ import annotations

import ast
import re

import numpy as np
import pyarrow as pa

from wrangler_ray.core.errors import RecipeParseError
from wrangler_ray.expr import functions as F

# ---------------------------------------------------------------------------
# preprocessing: JEXL surface → Python surface
# ---------------------------------------------------------------------------

_NS_CALL = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*):([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def _rewrite_ternary(src: str) -> str:
    """Rewrite ``cond ? a : b`` to ``((a) if (cond) else (b))``, recursively:
    parenthesized groups are rewritten inside-out and argument lists are
    split on top-level commas (a ternary binds tighter than a comma), so
    ``f(x > 1 ? 'a' : 'b', y)`` works. Quote-aware throughout."""
    # 1. recurse into balanced () / [] groups
    out = []
    i, n = 0, len(src)
    in_str = None
    while i < n:
        c = src[i]
        if in_str:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(src[i + 1])
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "'\"":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c in "([":
            close = ")" if c == "(" else "]"
            depth = 1
            j = i + 1
            instr2 = None
            while j < n and depth:
                d = src[j]
                if instr2:
                    if d == "\\":
                        j += 2
                        continue
                    if d == instr2:
                        instr2 = None
                elif d in "'\"":
                    instr2 = d
                elif d in "([":
                    depth += 1
                elif d in ")]":
                    depth -= 1
                j += 1
            inner = src[i + 1 : j - 1]
            out.append(c + _rewrite_ternary(inner) + close)
            i = j
            continue
        out.append(c)
        i += 1
    s = "".join(out)

    # 2. split on top-level commas (argument lists) and rewrite each part
    parts = []
    depth = 0
    in_str = None
    last = 0
    for i, c in enumerate(s):
        if in_str:
            if c == in_str and (i == 0 or s[i - 1] != "\\"):
                in_str = None
        elif c in "'\"":
            in_str = c
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(s[last:i])
            last = i + 1
    parts.append(s[last:])
    if len(parts) > 1:
        return ",".join(_rewrite_ternary(p) for p in parts)

    # 3. top-level cond ? a : b (right-associative)
    depth = 0
    in_str = None
    q_pos = -1
    for i, c in enumerate(s):
        if in_str:
            if c == in_str and s[i - 1] != "\\":
                in_str = None
        elif c in "'\"":
            in_str = c
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "?" and depth == 0 and q_pos < 0:
            q_pos = i
        elif c == ":" and depth == 0 and q_pos >= 0:
            cond = s[:q_pos]
            a = s[q_pos + 1 : i]
            b = s[i + 1 :]
            return f"(({_rewrite_ternary(a)}) if ({cond}) else ({_rewrite_ternary(b)}))"
    return s


def _split_literals(s: str):
    """Split source into (is_string_literal, text) segments so operator
    rewrites never touch the INSIDE of a quoted string (e.g. a '||' or '!'
    in a concat literal must survive verbatim)."""
    parts = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c in "'\"":
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == c:
                    j += 1
                    break
                j += 1
            parts.append((True, s[i:j]))
            i = j
        else:
            j = i
            while j < n and s[j] not in "'\"":
                j += 1
            parts.append((False, s[i:j]))
            i = j
    return parts


def preprocess(src: str) -> str:
    out = []
    for is_str, seg in _split_literals(src.strip()):
        if is_str:
            out.append(seg)
            continue
        # namespace calls: math:floor( → math__floor(
        seg = _NS_CALL.sub(r"\1__\2(", seg)
        # JEXL literals / operators (token-aware enough for our grammar subset)
        seg = re.sub(r"\bnull\b", "None", seg)
        seg = re.sub(r"\btrue\b", "True", seg)
        seg = re.sub(r"\bfalse\b", "False", seg)
        seg = seg.replace("&&", " and ").replace("||", " or ")
        # '!' not part of '!=' → ' not '
        seg = re.sub(r"!(?!=)", " not ", seg)
        out.append(seg)
    s = "".join(out)
    # ternary (the rewriter is quote-aware)
    if "?" in s:
        s = _rewrite_ternary(s)
    return s


# ---------------------------------------------------------------------------
# AST validation + vectorization rewrites
# ---------------------------------------------------------------------------

_ALLOWED_NODES = (
    ast.Expression, ast.BoolOp, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call,
    ast.Name, ast.Constant, ast.IfExp, ast.And, ast.Or, ast.Not, ast.USub,
    ast.UAdd, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
    ast.Pow, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In,
    ast.NotIn, ast.Load, ast.List, ast.Tuple, ast.Subscript, ast.Index,
    ast.Slice, ast.keyword, ast.BitAnd, ast.BitOr, ast.BitXor, ast.Invert,
)


class _Vectorize(ast.NodeTransformer):
    """Rewrite and/or/not/ifexp into masked-helper calls so they work on
    numpy arrays."""

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        fn = "__wr_and" if isinstance(node.op, ast.And) else "__wr_or"
        out = node.values[0]
        for v in node.values[1:]:
            out = ast.Call(func=ast.Name(id=fn, ctx=ast.Load()), args=[out, v], keywords=[])
        return out

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return ast.Call(
                func=ast.Name(id="__wr_not", ctx=ast.Load()), args=[node.operand], keywords=[]
            )
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        return ast.Call(
            func=ast.Name(id="__wr_where", ctx=ast.Load()),
            args=[node.test, node.body, node.orelse],
            keywords=[],
        )


def _validate(tree: ast.AST, src: str) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise RecipeParseError(
                f"expression uses unsupported syntax {type(node).__name__}: {src}"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise RecipeParseError(f"only simple function calls allowed: {src}")
            if node.func.id not in F.FUNCTIONS:
                # compile-time rejection — dunders and anything outside the
                # registered library never reach eval (which also runs with
                # empty __builtins__ as defense in depth)
                raise RecipeParseError(
                    f"unknown function '{node.func.id}' in expression: {src}"
                )


def _truthy(v):
    if v is None:
        return False
    if isinstance(v, np.ndarray):
        return v
    return bool(v)


def _as_bool(x):
    """Coerce scalar or array to bool scalar/array with None→False."""
    if isinstance(x, np.ndarray):
        if x.dtype == object:
            return np.fromiter((bool(v) if v is not None else False for v in x), bool, len(x))
        return x.astype(bool)
    return _truthy(x)


def _wr_and(a, b):
    a, b = _as_bool(a), _as_bool(b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_and(a, b)
    return a and b


def _wr_or(a, b):
    a, b = _as_bool(a), _as_bool(b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_or(a, b)
    return a or b


def _wr_not(a):
    a = _as_bool(a)
    if isinstance(a, np.ndarray):
        return np.logical_not(a)
    return not a


def _wr_where(c, a, b):
    c = _as_bool(c)
    if isinstance(c, np.ndarray):
        return np.where(c, a, b)
    return a if c else b


_HELPERS = {
    "__wr_and": _wr_and,
    "__wr_or": _wr_or,
    "__wr_not": _wr_not,
    "__wr_where": _wr_where,
}


# ---------------------------------------------------------------------------
# Arrow-kernel pushdown
# ---------------------------------------------------------------------------
# Calls like string:length(text) over a table column would otherwise force the
# column into a numpy OBJECT array (one Python str per row — the dominant cost
# on wide text at scale). For functions with a pyarrow.compute equivalent the
# call is rewritten at compile time to a synthetic variable computed per batch
# directly on the zero-copy Arrow column. The kernel table is built at import,
# so a CompiledExpr unpickled in a Ray worker (shipped inside a DirectiveChain)
# finds every kernel its pushdown specs name.

def _pd_kernels():
    import pyarrow.compute as pc

    return {
        "string__length": lambda c: pc.utf8_length(c),
        "strlen": lambda c: pc.utf8_length(c),
        "dq__strlen": lambda c: pc.utf8_length(c),
        "string__lower": lambda c: pc.utf8_lower(c),
        "string__toLowerCase": lambda c: pc.utf8_lower(c),
        "string__upper": lambda c: pc.utf8_upper(c),
        "string__toUpperCase": lambda c: pc.utf8_upper(c),
        "string__trim": lambda c: pc.utf8_trim_whitespace(c),
        "string__contains": lambda c, pat: pc.match_substring(c, pat),
        "string__startsWith": lambda c, pat: pc.starts_with(c, pat),
        "string__endsWith": lambda c, pat: pc.ends_with(c, pat),
        "math__abs": lambda c: pc.abs(c),
        "math__floor": lambda c: pc.floor(c),
        "math__ceil": lambda c: pc.ceil(c),
    }


_ARROW_PUSHDOWN = _pd_kernels()


class _PushdownRewriter(ast.NodeTransformer):
    """Replace ``fn(col[, const...])`` with a synthetic variable when ``fn``
    has an Arrow kernel; the call site's spec is recorded for per-batch
    evaluation."""

    def __init__(self, kernels: dict):
        self.kernels = kernels
        self.specs: list[tuple[str, str, str, tuple]] = []

    def visit_Call(self, node):
        self.generic_visit(node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self.kernels
            and node.args
            and isinstance(node.args[0], ast.Name)
            # an inner call already pushed down is no column: the outer call
            # runs on its kernel result instead
            and not node.args[0].id.startswith("__wr_pd")
            and all(isinstance(a, ast.Constant) for a in node.args[1:])
            and not node.keywords
        ):
            syn = f"__wr_pd{len(self.specs)}"
            self.specs.append(
                (
                    syn,
                    node.func.id,
                    node.args[0].id,
                    tuple(a.value for a in node.args[1:]),
                )
            )
            return ast.Name(id=syn, ctx=ast.Load())
        return node


class CompiledExpr:
    def __init__(self, source: str):
        self.source = source
        py = preprocess(source)
        try:
            tree = ast.parse(py, mode="eval")
        except SyntaxError as e:
            raise RecipeParseError(f"cannot parse expression '{source}': {e}") from e
        _validate(tree, source)
        # vectorized variant: Arrow-kernel pushdown first, then mask rewrites
        pd = _PushdownRewriter(_ARROW_PUSHDOWN)
        vtree = pd.visit(ast.parse(py, mode="eval"))
        self.pushdowns = pd.specs
        vtree = _Vectorize().visit(vtree)
        ast.fix_missing_locations(vtree)
        self._vec_code = compile(vtree, "<expr-vec>", "eval")
        self._row_code = compile(tree, "<expr-row>", "eval")

        def _free_names(t):
            return (
                {
                    n.id
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
                }
                - set(F.FUNCTIONS)
                - set(_HELPERS)
                - {"True", "False", "None"}
            )

        # names for the row-fallback path (original tree: all columns/vars)
        self.row_names = sorted(_free_names(tree))
        # names the VECTORIZED path must materialize as numpy (pushed-down
        # columns excluded — they stay zero-copy Arrow)
        self.names = sorted(n for n in _free_names(vtree) if not n.startswith("__wr_pd"))

    # -- evaluation ---------------------------------------------------------

    def _globals(self) -> dict:
        g = {"__builtins__": {}}
        g.update(F.FUNCTIONS)
        g.update(_HELPERS)
        return g

    def evaluate_table(self, table: pa.Table, variables: dict | None = None):
        """Evaluate over a batch. Returns a numpy array (len == num_rows) or a
        scalar (to be broadcast by the caller)."""
        n = table.num_rows
        lower_map = {c.lower(): c for c in reversed(table.column_names)}

        def _col_src(name):
            if name in table.column_names:
                return name
            return lower_map.get(name.lower())

        def _materialize(name):
            src = _col_src(name)
            if src is not None:
                return table.column(src).to_numpy(zero_copy_only=False)
            if variables and name in variables:
                return variables[name]
            return None  # absent column → null scalar

        cols: dict[str, np.ndarray] = {name: _materialize(name) for name in self.names}
        # Arrow-kernel pushdowns: zero-copy on the Arrow column, no Python
        # string materialization
        for syn, fnkey, colname, consts in self.pushdowns:
            src = _col_src(colname)
            val = None
            if src is not None:
                try:
                    val = _ARROW_PUSHDOWN[fnkey](table.column(src), *consts).to_numpy(
                        zero_copy_only=False
                    )
                except (pa.ArrowException, TypeError):
                    # a column the kernel cannot take (a non-string column,
                    # a constant of the wrong type): the per-row function
                    val = None
            if val is None:
                val = F.FUNCTIONS[fnkey](_materialize(colname), *consts)
            cols[syn] = val
        # vectorized attempt
        env = dict(cols)
        try:
            out = eval(self._vec_code, self._globals(), env)  # noqa: S307 (validated AST)
            if isinstance(out, np.ndarray) and len(out) == n:
                return out
            if np.isscalar(out) or out is None or isinstance(out, (str, bytes, bool)):
                return out
            return out
        except Exception:
            pass
        # row fallback (original, un-pushed-down expression: materialize all
        # referenced columns)
        cols = {name: _materialize(name) for name in self.row_names}
        results = []
        g = self._globals()
        for i in range(n):
            envr = {
                k: (v[i] if isinstance(v, np.ndarray) else v) for k, v in cols.items()
            }
            try:
                results.append(eval(self._row_code, g, envr))  # noqa: S307
            except Exception:
                results.append(None)
        return np.array(results, dtype=object)

    def evaluate_row(self, row: dict):
        env = {name: row.get(name) for name in self.row_names}
        try:
            return eval(self._row_code, self._globals(), env)  # noqa: S307
        except Exception:
            return None


_CACHE: dict[str, CompiledExpr] = {}


def compile_expression(source: str) -> CompiledExpr:
    """Compile with a driver-side cache (reference EL keeps a 1024-entry
    JEXL cache, EL.java:82-99)."""
    ce = _CACHE.get(source)
    if ce is None:
        ce = CompiledExpr(source)
        if len(_CACHE) < 1024:
            _CACHE[source] = ce
    return ce
