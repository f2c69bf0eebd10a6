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


def evaluate(f, z):
    """Evaluate ``f`` at the point ``z`` (any complex sequence).

    ``f`` is one tree, or a sequence of trees evaluated in one pass whose
    values come back as a list.  This is ``program`` run on the point's
    coordinates as a list of Python complex; loops that already hold such
    a list call the program directly.
    Raises EvalDomainError for ln of a non-positive (or non-real) argument,
    for division by exactly zero, for a power or modulus that overflows and
    for a variable beyond the point's dimension, carrying the offending
    subexpression and the point; when several are reachable, the first in
    that order is raised.
    """
    z = as_point(z).tolist()
    if isinstance(f, Expr):
        return program((f,))(z)[0]
    return program(tuple(f))(z)


# the value of each node kind from its children's locals {0}, {1}
_OPS = {
    "add": "{0} + {1}", "sub": "{0} - {1}", "mul": "{0} * {1}",
    "neg": "-{0}", "conj": "{0}.conjugate()",
    "re": "complex({0}.real)", "im": "complex({0}.imag)",
    "abs": "complex(abs({0}))",
    "abs2": "complex({0}.real * {0}.real + {0}.imag * {0}.imag)",
    "ln": "complex(_log({0}.real))", "exp": "complex(_exp(complex({0})))",
}


def _fail(message, node, z):
    return EvalDomainError(message, to_text(node), tuple(z))


def _beyond_dimension(var_nodes, z):
    """The error for the first variable, in program order, beyond ``z``."""
    n = len(z)
    e = next(e for e in var_nodes if e.index > n)
    return _fail(f"variable z{e.index} exceeds point dimension {n}", e, z)


@lru_cache(maxsize=None)
def program(roots):
    """The program of a tuple of trees: a function of ``z``, a list of Python
    complex (numpy scalars would change the arithmetic), that returns the
    list of the roots' values there.  Compiled once per tuple and kept for
    the process: each node is one local, computed in depth-first order (a
    quotient's denominator first) with CPython complex arithmetic, so the
    values are a walk's over the trees bit for bit.  Errors: see ``evaluate``."""
    local = {}
    consts = []         # const values, bound to default arguments
    params = []
    failing = []        # the subexpressions that domain errors name
    var_nodes = []
    body = []

    def visit(e):
        name = local.get(e)
        if name is not None:
            return name
        k = e.kind
        kids = e.children
        if k == "const":
            name = local[e] = f"v{len(local)}"
            params.append(f"{name}=_k[{len(consts)}]")
            consts.append(e.value)
            return name
        if k == "var":
            var_nodes.append(e)
            code = f"z[{e.index - 1}]" + (".conjugate()" if e.conjugated else "")
        elif k == "div":
            den = visit(kids[1])
            body.append(f"if {den} == 0: raise _fail('division by zero', "
                        f"_n[{len(failing)}], z)")
            failing.append(kids[1])
            code = f"{visit(kids[0])} / {den}"
        elif k == "pow":
            code = f"{visit(kids[0])} ** {e.exponent!r}"
        elif k in _OPS:
            args = list(map(visit, kids))   # a comprehension would add a frame per level
            if k == "ln":
                w = args[0]
                body.append(f"if abs({w}.imag) > {_REAL_IMAG_TOL!r} * max(1.0, abs({w}))"
                            f" or {w}.real <= 0: raise _fail("
                            f"f'ln of non-positive argument {{{w}}}', "
                            f"_n[{len(failing)}], z)")
                failing.append(kids[0])
            code = _OPS[k].format(*args)
        else:
            body.append(f"raise ValueError({f'unknown node kind {k!r}'!r})")
            code = "None"
        name = local[e] = f"v{len(local)}"
        if k in ("pow", "abs"):
            # CPython raises OverflowError where a mul would give inf
            body.append(f"try: {name} = {code}")
            body.append(f"except OverflowError: raise _fail('overflow', "
                        f"_n[{len(failing)}], z) from None")
            failing.append(e)
        else:
            body.append(f"{name} = {code}")
        return name

    results = [visit(r) for r in roots]
    source = "\n".join([
        f"def program({', '.join(['z', *params])}):",
        "    try:",
        *(f"        {line}" for line in body or ["pass"]),
        "    except IndexError:",
        "        raise _beyond_dimension(_vars, z) from None",
        f"    return [{', '.join(results)}]",
    ])
    namespace = {"_k": consts, "_n": failing, "_vars": var_nodes, "_fail": _fail,
                 "_beyond_dimension": _beyond_dimension, "_log": math.log,
                 "_exp": np.exp}
    exec(source, namespace)
    return namespace["program"]


def as_real_function(f):
    """A point function z -> Re f(z) for an expression; callables pass through."""
    if isinstance(f, Expr):
        return lambda z: evaluate(f, z).real
    return f


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
    if x == int(x) and abs(x) < 1e15:
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
    """Render to grammar-conforming text; parse(to_text(e)) rebuilds e."""

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
