"""Expression trees for real-valued functions of several complex variables.

An ``Expr`` is an immutable tree over the variables ``z1..zn`` and their
conjugates.  Evaluation is plain complex arithmetic; differentiation treats
``z_j`` and ``conj(z_j)`` as independent variables, so first and second
mixed derivatives come out exact rather than through finite differences.
"""

from __future__ import annotations

import math
import re as _regex
import weakref
from functools import lru_cache

import numpy as np

from .errors import ConfigError, EvalDomainError, ExprSyntaxError

_NODES = weakref.WeakValueDictionary()


class Expr:
    """One node of an expression tree.

    ``kind`` is "const", "var", "pow", "neg", a function name of
    ``_FUNCS``, or one of "add", "sub", "mul", "div".
    Payload fields are only meaningful for the matching kind; ``exponent``
    is always a non-negative integer (negative powers go through "div").

    Nodes are hash-consed in ``_NODES``: building one returns the live node
    of the same kind, children, payload and constant bits, so ``==`` and
    ``hash`` are identity.  Constants are keyed by the bits of both parts:
    (-2.5+0j) and (-2.5-0j) are two nodes, and every NaN constant is one.
    """

    __slots__ = ("kind", "children", "value", "index", "conjugated", "exponent",
                 "__weakref__")

    def __new__(cls, kind: str, children: tuple = (), value: complex = 0j,
                index: int = 0, conjugated: bool = False, exponent: int = 0):
        value = complex(value)
        key = (kind, children, value.real.hex(), value.imag.hex(), index,
               conjugated, exponent)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, field in zip(cls.__slots__, (kind, children, value, index,
                                                   conjugated, exponent)):
                object.__setattr__(node, name, field)
            _NODES[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: Expr nodes are shared")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Expr nodes are shared")

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return power(self, k)

    def __str__(self):
        return to_text(self)

    def __reduce__(self):
        # through __new__: unpickling, copy and deepcopy return the live node
        return Expr, (self.kind, self.children, self.value, self.index,
                      self.conjugated, self.exponent)


def _coerce(x):
    if isinstance(x, Expr):
        return x
    return const(x)


# ---------------------------------------------------------------------------
# smart constructors (conservative folding: constants plus 0/1 identities)

def const(v) -> Expr:
    return Expr("const", value=complex(v))


def var(j: int, conjugated: bool = False) -> Expr:
    if j < 1:
        raise ValueError(f"variable index must be >= 1, got {j}")
    return Expr("var", index=j, conjugated=conjugated)


def _is_const(e, v=None):
    return e.kind == "const" and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return const(0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0:
        return const(a.value / b.value)
    if _is_const(a, 0):
        return const(0)
    if _is_const(b, 1):
        return a
    return Expr("div", (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return const(-a.value)
    if a.kind == "neg":
        return a.children[0]
    return Expr("neg", (a,))


def power(a: Expr, k: int) -> Expr:
    k = int(k)
    if k < 0:
        raise ValueError("negative exponents must be written through division")
    if k == 0:
        return const(1)
    if k == 1:
        return a
    if _is_const(a):
        return const(a.value ** k)
    return Expr("pow", (a,), exponent=k)


def conj(a: Expr) -> Expr:
    if _is_const(a):
        return const(a.value.conjugate())
    if a.kind == "var":
        return Expr("var", index=a.index, conjugated=not a.conjugated)
    if a.kind == "conj":
        return a.children[0]
    return Expr("conj", (a,))


def re_(a: Expr) -> Expr:
    if _is_const(a):
        return const(a.value.real)
    return Expr("re", (a,))


def im_(a: Expr) -> Expr:
    if _is_const(a):
        return const(a.value.imag)
    return Expr("im", (a,))


def abs_(a: Expr) -> Expr:
    if _is_const(a):
        return const(abs(a.value))
    return Expr("abs", (a,))


def abs2(a: Expr) -> Expr:
    if _is_const(a):
        return const(abs(a.value) ** 2)
    return Expr("abs2", (a,))


def ln(a: Expr) -> Expr:
    if _is_const(a) and a.value.imag == 0 and a.value.real > 0:
        return const(math.log(a.value.real))
    return Expr("ln", (a,))


def exp_(a: Expr) -> Expr:
    if _is_const(a):
        return const(np.exp(a.value))
    return Expr("exp", (a,))


# the function names of the grammar, with their constructors
_FUNCS = {"re": re_, "im": im_, "abs": abs_, "abs2": abs2, "ln": ln,
          "exp": exp_, "conj": conj}
_CTOR = {**_FUNCS, "neg": neg, "add": add, "sub": sub, "mul": mul, "div": div}


# ---------------------------------------------------------------------------
# structure helpers

def max_index(e: Expr) -> int:
    """Largest variable index appearing in the tree (0 for constants)."""
    if e.kind == "var":
        return e.index
    if not e.children:
        return 0
    return max(max_index(c) for c in e.children)


def moduli_only(e: Expr) -> bool:
    """True when every variable is the direct argument of ``abs2`` or
    ``abs``, so that ``e`` depends on z only through the moduli |z_j|."""
    if e.kind in ("abs2", "abs") and e.children[0].kind == "var":
        return True
    return e.kind != "var" and all(moduli_only(c) for c in e.children)


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace each variable j in ``mapping`` by the given expression.

    A conjugated leaf ``conj(z_j)`` becomes the conjugate of the replacement,
    so substituting holomorphic linear forms commutes with differentiation.
    """
    if e.kind == "const":
        return e
    if e.kind == "var":
        repl = mapping.get(e.index)
        if repl is None:
            return e
        return conj(repl) if e.conjugated else repl
    kids = tuple(substitute(c, mapping) for c in e.children)
    if e.kind == "pow":
        return power(kids[0], e.exponent)
    return _CTOR[e.kind](*kids)


# ---------------------------------------------------------------------------
# evaluation

def as_point(z, n: int | None = None) -> np.ndarray:
    """Normalize a point/vector of C^n to a 1-d complex array."""
    a = np.atleast_1d(np.asarray(z, dtype=complex))
    if a.ndim != 1:
        raise ValueError(f"expected a flat coordinate vector, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"expected dimension {n}, got {a.shape[0]}")
    return a


def point_from_pairs(pairs, path: str, n: int | None = None) -> np.ndarray:
    """Decode a config list of [re, im] pairs into a 1-d complex array;
    ConfigError names the field ``path`` if it is malformed or not n long."""
    try:
        a = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a list of [re, im] pairs") from None
    if n is not None and a.shape[0] != n:
        raise ConfigError(f"{path}: expected {n} coordinates, got {a.shape[0]}")
    return a


_REAL_IMAG_TOL = 1e-12


def evaluate(f: Expr, z):
    """Evaluate the tree ``f`` at the point ``z`` (any complex sequence), as
    a Python complex: ``program((f,))`` on one row, as ``row_values`` runs
    it on a batch's rows.  Raises EvalDomainError for ln of a non-positive
    (or non-real) argument, for division by exactly zero, for a power or
    modulus that overflows and for a variable beyond the point's dimension,
    carrying the offending subexpression and the point; when several are
    reachable, the first in that order is raised.
    """
    return row_values(program((f,)), as_point(z)[None])[0, 0].item()


# the value of each node kind: its (real, imaginary) parts from its
# children's parts {0}, {1} (real) and {2}, {3} (imaginary); the product is
# CPython's _Py_c_prod, abs2 Python's two products and one sum
_ROW_OPS = {
    "add": ("{0} + {1}", "{2} + {3}"), "sub": ("{0} - {1}", "{2} - {3}"),
    "mul": ("{0} * {1} - {2} * {3}", "{0} * {3} + {2} * {1}"),
    "neg": ("-{0}", "-{2}"), "conj": ("{0}", "-{2}"),
    "re": ("{0}", "_ZERO"), "im": ("{2}", "_ZERO"),
    "abs2": ("{0} * {0} + {2} * {2}", "_ZERO"),
}
# the call for a node of these kinds on its child's parts {0}, {1}; all but
# exp also give the rows where Python's complex arithmetic raises
_ROW_FUNCS = {"pow": "_pow_rows({0}, {1}, {2!r}, m)", "abs": "_abs_rows({0}, {1})",
              "ln": "_ln_rows({0}, {1}, m)", "exp": "_exp_rows({0}, {1}, m)"}
_ZERO = np.float64(0.0)


def _full(x, m):
    return np.broadcast_to(x, (m,))


def _quot_rows(ar, ai, br, bi, m):
    """CPython's _Py_c_quot: its two scaled branches as arrays, and the
    complex operator itself where both give two NaN parts (a NaN in the
    divisor, or the infinities that Python 3.12 recovers).  Rows whose
    divisor is zero are the caller's errors and keep a placeholder."""
    first = abs(br) >= abs(bi)
    ratio = np.where(first, bi / br, br / bi)
    denom = np.where(first, br + bi * ratio, br * ratio + bi)
    re = np.where(first, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(first, ai - ar * ratio, ai * ratio - ar) / denom
    redo = np.flatnonzero(_full(np.isnan(re) & np.isnan(im) & ((br != 0) | (bi != 0)), m))
    if redo.size:
        re, im = np.array(_full(re, m)), np.array(_full(im, m))
        for i in redo.tolist():
            w = (complex(_full(ar, m)[i], _full(ai, m)[i])
                 / complex(_full(br, m)[i], _full(bi, m)[i]))
            re[i], im[i] = w.real, w.imag
    return re, im


def _pow_rows(ar, ai, k, m):
    """w ** k as CPython computes it, and where it overflows: for k <= 100
    c_powu's repeated squaring from (1, 0) with _Py_c_prod, where an
    infinite part is CPython's OverflowError; above that the complex
    operator itself on each element."""
    if k > 100:
        re, im, over = np.empty(m), np.empty(m), np.zeros(m, dtype=bool)
        for i, (x, y) in enumerate(zip(_full(ar, m).tolist(), _full(ai, m).tolist())):
            try:
                w = complex(x, y) ** k
            except OverflowError:
                w, over[i] = 0j, True
            re[i], im[i] = w.real, w.imag
        return re, im, over
    re, im, pr, pi, bit = np.float64(1.0), _ZERO, ar, ai, 1
    while True:
        if k & bit:
            re, im = re * pr - im * pi, re * pi + im * pr
        bit <<= 1
        if bit > k:
            return re, im, np.isinf(re) | np.isinf(im)
        pr, pi = pr * pr - pi * pi, pr * pi + pi * pr


def _abs_rows(ar, ai):
    """|w| by the hypot that CPython's abs calls, as a complex value's parts,
    and where abs raises OverflowError: an infinite modulus of finite parts."""
    h = np.hypot(ar, ai)
    return h, _ZERO, np.isinf(h) & np.isfinite(ar) & np.isfinite(ai)


def _ln_rows(ar, ai, m):
    """ln w by math.log on each real part, and where the walk raises: the
    overflow of its abs(w), or its domain test (with Python's max(1.0, |w|),
    which keeps 1.0 for a NaN modulus)."""
    h, _, over = _abs_rows(ar, ai)
    failed = (over | (abs(ai) > _REAL_IMAG_TOL * np.where(h > 1.0, h, 1.0))
              | (ar <= 0))
    re = np.array([math.log(x) if not x <= 0 else 0.0 for x in _full(ar, m).tolist()])
    return re, _ZERO, failed


def _exp_rows(ar, ai, m):
    """np.exp on the complex rows, as on each complex value."""
    w = np.empty(m, dtype=complex)
    w.real, w.imag = ar, ai
    w = np.exp(w)
    return w.real, w.imag


def _row_values(m, parts):
    """The (m, roots) complex array of the roots' (real, imaginary) parts."""
    out = np.empty((m, len(parts)), dtype=complex)
    for j, (re, im) in enumerate(parts):
        out.real[:, j], out.imag[:, j] = re, im
    return out


def _first_failures(m, checks):
    """Per row, the position of its first failing check, or -1; a check is
    a mask of rows, or one boolean for all of them."""
    fail = np.full(m, -1)
    for index, failed in reversed(checks):
        fail[failed] = index
    return fail


def row_error(prog, row, check):
    """The exception of a walk over ``prog``'s trees at ``row``, whose first
    failing check is ``prog.checks[check]``: its message and subexpression,
    with the row as the point.  ln's test takes |w| first, so where that
    overflows the error is the bare OverflowError of Python's abs."""
    kind, node = prog.checks[check]
    z = tuple(np.asarray(row, dtype=complex).tolist())
    if kind == "unknown":
        return ValueError(f"unknown node kind {node.kind!r}")
    if kind == "var":
        kind = f"variable z{node.index} exceeds point dimension {len(z)}"
    elif kind == "ln":
        # the argument's checks all come before this one, and passed
        w = program((node,))(np.array([z]))[0].item()
        try:
            abs(w)
        except OverflowError as err:
            return err
        kind = f"ln of non-positive argument {w}"
    return EvalDomainError(kind, to_text(node), z)


def row_errors(prog, zz, failed) -> dict:
    """{i: ``row_error`` at row i} for each row i of the (m, n) array zz that
    ``prog`` flagged, from the ``failed`` positions it returned."""
    return {i: row_error(prog, zz[i], failed[i]) for i in np.flatnonzero(failed >= 0).tolist()}


def row_values(prog, zz) -> np.ndarray:
    """The (m, roots) values of ``prog`` at the rows of zz; at the first row
    that it flags, raises that row's ``row_error``."""
    values, failed = prog(zz)
    flagged = np.flatnonzero(failed >= 0)
    if flagged.size:
        raise row_error(prog, zz[flagged[0]], failed[flagged[0]])
    return values


def real_rows(f):
    """The row form of a real function, an (m, n) array to its m values: for
    an expression the real parts of ``row_values``, as Python floats; for a
    callable its own ``rows`` attribute if it has one, else one call per row."""
    if isinstance(f, Expr):
        prog = program((f,))
        return lambda zz: row_values(prog, zz)[:, 0].real.tolist()
    return getattr(f, "rows", None) or (lambda zz: [f(z) for z in zz])


@lru_cache(maxsize=None)
def program(roots):
    """The program of a tuple of trees, compiled once per tuple and kept for
    the process: ``program(roots)(zz)`` takes an (m, n) complex array and
    returns the (m, len(roots)) complex array of the roots' values and, per
    row, the position of its first failing check, or -1.  Each node is its
    real and imaginary parts as float arrays, computed once in depth-first
    order (a quotient's denominator first) by CPython's complex formulas
    (``_ROW_OPS``, ``_ROW_FUNCS``), so each row gets the bits of a walk over
    the trees in Python complex arithmetic.  The checks are the walk's
    errors in its order (see ``evaluate``); ``program(roots).checks`` gives
    each one's kind and node, from which ``row_error`` builds the walk's
    exception.  A call costs a few numpy operations per node.
    """
    local, consts, params = {}, [], []      # consts are bound to default arguments
    checks, lines = [], []      # per check its kind and node; node v's parts are xv, yv

    def check(failed, kind, node, guard=None):
        line = f"_c.append(({len(checks)}, {failed}))"
        checks.append((kind, node))
        lines.append(line if guard is None else f"if {guard}: {line}")

    def visit(e):
        name = local.get(e)
        if name is not None:
            return name
        k, kids = e.kind, e.children
        if k == "const":
            name = local[e] = f"v{len(local)}"
            params.append(f"x{name}=_kr[{len(consts)}], y{name}=_ki[{len(consts)}]")
            consts.append(e.value)
            return name
        checked = None      # the check of the rows that the line flags
        if k == "var":
            j = e.index - 1
            row = (f"(_re[:, {j}], {'-' * e.conjugated}_im[:, {j}]) if n > {j} "
                   f"else (_ZERO, _ZERO)")
            check("True", "var", e, guard=f"n <= {j}")
        elif k == "div":
            den = visit(kids[1])
            check(f"(x{den} == 0) & (y{den} == 0)", "division by zero", kids[1])
            num = visit(kids[0])
            row = f"_quot_rows(x{num}, y{num}, x{den}, y{den}, m)"
        elif k in _ROW_FUNCS:
            w = visit(kids[0])
            row = _ROW_FUNCS[k].format(f"x{w}", f"y{w}", e.exponent)
            if k != "exp":
                checked = ("ln", kids[0]) if k == "ln" else ("overflow", e)
        elif k in _ROW_OPS:
            args = list(map(visit, kids))   # a comprehension would add a frame per level
            a, b = (args * 2)[:2]
            row = ", ".join(f.format(f"x{a}", f"x{b}", f"y{a}", f"y{b}")
                            for f in _ROW_OPS[k])
        else:
            row, checked = "_ZERO, _ZERO, True", ("unknown", e)
        name = local[e] = f"v{len(local)}"
        lines.append(f"x{name}, y{name}{', _f' * bool(checked)} = {row}")
        if checked:
            check("_f", *checked)
        return name

    results = [visit(r) for r in roots]
    source = "\n".join([
        f"def program({', '.join(['zz', *params])}):",
        "    m, n = zz.shape",
        "    _re, _im, _c = zz.real, zz.imag, []",
        "    with _errstate(all='ignore'):",
        *(f"        {line}" for line in lines or ["pass"]),
        f"    return (_row_values(m, [{', '.join(f'(x{r}, y{r})' for r in results)}]),",
        "            _first_failures(m, _c))",
    ])
    namespace = {"_kr": [np.float64(c.real) for c in consts],
                 "_ki": [np.float64(c.imag) for c in consts], "_errstate": np.errstate,
                 "_ZERO": _ZERO, **{f.__name__: f for f in (
                     _quot_rows, _pow_rows, _abs_rows, _ln_rows, _exp_rows, _row_values,
                     _first_failures)}}
    exec(source, namespace)
    prog = namespace["program"]
    prog.checks = checks
    return prog


# ---------------------------------------------------------------------------
# Wirtinger differentiation

@lru_cache(maxsize=None)
def _wirt(e: Expr, j: int, conjugated: bool) -> Expr:
    k = e.kind
    if k == "const":
        return const(0)
    if k == "var":
        hit = e.index == j and e.conjugated == conjugated
        return const(1 if hit else 0)
    if k == "add":
        return add(_wirt(e.children[0], j, conjugated), _wirt(e.children[1], j, conjugated))
    if k == "sub":
        return sub(_wirt(e.children[0], j, conjugated), _wirt(e.children[1], j, conjugated))
    if k == "neg":
        return neg(_wirt(e.children[0], j, conjugated))
    if k == "mul":
        a, b = e.children
        return add(mul(_wirt(a, j, conjugated), b), mul(a, _wirt(b, j, conjugated)))
    if k == "div":
        a, b = e.children
        num = sub(mul(_wirt(a, j, conjugated), b), mul(a, _wirt(b, j, conjugated)))
        return div(num, power(b, 2))
    if k == "pow":
        a = e.children[0]
        return mul(mul(const(e.exponent), power(a, e.exponent - 1)),
                   _wirt(a, j, conjugated))
    a = e.children[0]
    if k == "conj":
        # d conj(u) / dz = conj(du/dzbar): conjugation swaps the flag
        return conj(_wirt(a, j, not conjugated))
    if k == "re":
        # re(u) = (u + conj u) / 2
        return mul(const(0.5), add(_wirt(a, j, conjugated), conj(_wirt(a, j, not conjugated))))
    if k == "im":
        # im(u) = (u - conj u) / (2i)
        return mul(const(-0.5j), sub(_wirt(a, j, conjugated), conj(_wirt(a, j, not conjugated))))
    if k == "abs2":
        # abs2(u) = u * conj(u)
        return add(mul(_wirt(a, j, conjugated), conj(a)),
                   mul(a, conj(_wirt(a, j, not conjugated))))
    if k == "abs":
        # rewrite through abs2; valid away from zeros of the argument
        return div(_wirt(abs2(a), j, conjugated), mul(const(2), abs_(a)))
    if k == "ln":
        return div(_wirt(a, j, conjugated), a)
    if k == "exp":
        return mul(e, _wirt(a, j, conjugated))
    raise ValueError(f"unknown node kind {k!r}")


def wirtinger(f: Expr, j: int, conjugated: bool = False) -> Expr:
    """Symbolic d f / d z_j (or d f / d conj(z_j) when ``conjugated``)."""
    if j < 1:
        raise ValueError(f"variable index must be >= 1, got {j}")
    return _wirt(f, j, bool(conjugated))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RX = _regex.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                           r"|\d+(?:[eE][+-]?\d+)?)|([a-zA-Z][a-zA-Z0-9]*)|([-+*/^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RX.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            out.append(("number", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, val, pos = self.peek()
        if kind == "op" and val == symbol:
            return self.take()
        raise ExprSyntaxError(
            "end of input" if kind == "end" else f"unexpected token {val!r}",
            pos, (repr(symbol),))

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos,
                                  ("operator", "end of input"))
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self):
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "number" or not val.isdigit():
                raise ExprSyntaxError(
                    "end of input" if kind == "end" else f"unexpected token {val!r}",
                    pos, ("non-negative integer exponent",))
            self.take()
            e = power(e, int(val))
        return e

    def atom(self):
        kind, val, pos = self.take()
        if kind == "number":
            return const(float(val))
        if kind == "op" and val == "-":
            return neg(self.atom())
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if val == "i":
                return const(1j)
            if val in _FUNCS:
                self.expect_op("(")
                e = self.expr()
                self.expect_op(")")
                return _FUNCS[val](e)
            m = _regex.fullmatch(r"z(\d+)", val)
            if m:
                j = int(m.group(1))
                if j < 1 or j > self.n:
                    raise ExprSyntaxError(
                        f"variable index {j} out of range [1, {self.n}]", pos)
                return var(j)
            raise ExprSyntaxError(f"unknown name {val!r}", pos,
                                  ("variable zN", "function name", "i"))
        raise ExprSyntaxError(
            "end of input" if kind == "end" else f"unexpected token {val!r}",
            pos, ("number", "variable", "function", "'('"))


def parse(text: str, n: int) -> Expr:
    """Parse expression text over variables z1..zn into an Expr tree."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse)

def _fmt_real(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _const_text(v: complex) -> str:
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        if v.imag == 1:
            return "i"
        return f"({_fmt_real(v.imag)}*i)" if v.imag >= 0 else f"(-{_fmt_real(-v.imag)}*i)"
    re_txt = _fmt_real(v.real)
    if v.imag >= 0:
        return f"({re_txt}+{_fmt_real(v.imag)}*i)"
    return f"({re_txt}-{_fmt_real(-v.imag)}*i)"


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def to_text(e: Expr) -> str:
    """Render to grammar-conforming text; parse(to_text(e)) rebuilds e.  A
    non-finite constant prints as its ``repr`` ("inf", "nan") and does not."""

    def go(node, parent_prec):
        k = node.kind
        if k == "const":
            txt = _const_text(node.value)
            if txt.startswith("-") and parent_prec >= 2:
                txt = "(" + txt + ")"
            return txt
        if k == "var":
            base = f"z{node.index}"
            return f"conj({base})" if node.conjugated else base
        if k in _FUNCS:
            return f"{k}({go(node.children[0], 0)})"
        if k == "neg":
            # "-X^k" parses as (-X)^k, so the child must outrank pow here
            inner = go(node.children[0], _PREC["pow"] + 1)
            txt = "-" + inner
            return "(" + txt + ")" if parent_prec > 1 else txt
        if k == "pow":
            base = node.children[0]
            if base.kind == "var" and not base.conjugated:
                txt = f"z{base.index}^{node.exponent}"
            else:
                txt = f"({go(base, 0)})^{node.exponent}"
            return "(" + txt + ")" if parent_prec > _PREC["pow"] else txt
        prec = _PREC[k]
        symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[k]
        left = go(node.children[0], prec - 1)
        right = go(node.children[1], prec)
        txt = f"{left} {symbol} {right}" if prec == 1 else f"{left}{symbol}{right}"
        return "(" + txt + ")" if parent_prec >= prec else txt

    return go(e, 0)
