"""Shared oracles and utilities for the test suite."""

import math

import numpy as np

from levikit import expr as ex
from levikit import hulls
from levikit.errors import EvalDomainError, LevikitError


def brute_force_extreme_points(points: np.ndarray) -> set:
    """A point is extreme iff it lies in no triangle of the other points.

    Caratheodory in the plane; vectorized over all triangles per query.
    Assumes general position (random float inputs).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    idx = np.arange(n)
    from itertools import combinations
    triangles = np.array(list(combinations(range(n), 3)))
    a = pts[triangles[:, 0]]
    b = pts[triangles[:, 1]]
    c = pts[triangles[:, 2]]

    def inside_any(p, skip):
        mask = ~np.any(triangles == skip, axis=1)
        aa, bb, cc = a[mask], b[mask], c[mask]
        d1 = (p[0] - bb[:, 0]) * (aa[:, 1] - bb[:, 1]) - (aa[:, 0] - bb[:, 0]) * (p[1] - bb[:, 1])
        d2 = (p[0] - cc[:, 0]) * (bb[:, 1] - cc[:, 1]) - (bb[:, 0] - cc[:, 0]) * (p[1] - cc[:, 1])
        d3 = (p[0] - aa[:, 0]) * (cc[:, 1] - aa[:, 1]) - (cc[:, 0] - aa[:, 0]) * (p[1] - aa[:, 1])
        neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
        pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
        return bool(np.any(~(neg & pos)))

    extreme = set()
    for i in idx:
        if not inside_any(pts[i], i):
            extreme.add((float(pts[i][0]), float(pts[i][1])))
    return extreme


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def compose_with_matrix(f: ex.Expr, v: np.ndarray) -> ex.Expr:
    """Expression for z -> f(V z)."""
    n = v.shape[0]
    mapping = {}
    for j in range(n):
        row = ex.const(0)
        for k in range(n):
            if v[j, k] != 0:
                row = ex.add(row, ex.mul(ex.const(v[j, k]), ex.var(k + 1)))
        mapping[j + 1] = row
    return ex.substitute(f, mapping)


def same_structure(a: ex.Expr, b: ex.Expr) -> bool:
    """Structural equality of two trees: fields by value ``==``, children
    recursively.  Unlike ``is`` it takes (-2.5+0j) and (-2.5-0j) as equal,
    which ``to_text`` prints alike, as -2.5."""
    return (a.kind == b.kind and a.value == b.value and a.index == b.index
            and a.conjugated == b.conjugated and a.exponent == b.exponent
            and len(a.children) == len(b.children)
            and all(map(same_structure, a.children, b.children)))


def walk_evaluate(f, z):
    """The recursive evaluator that ``expr.evaluate``'s compiled programs
    replace: one walk over the trees with a memo by node identity, kept as
    the oracle they must match bit for bit, errors included."""
    zz = ex.as_point(z)
    memo: dict[int, complex] = {}

    def go(e: ex.Expr) -> complex:
        got = memo.get(id(e))
        if got is not None:
            return got
        k = e.kind
        if k == "const":
            v = e.value
        elif k == "var":
            if e.index > zz.shape[0]:
                raise EvalDomainError(
                    f"variable z{e.index} exceeds point dimension {zz.shape[0]}",
                    ex.to_text(e), tuple(zz.tolist()))
            v = zz[e.index - 1]
            if e.conjugated:
                v = v.conjugate()
        elif k == "add":
            v = go(e.children[0]) + go(e.children[1])
        elif k == "sub":
            v = go(e.children[0]) - go(e.children[1])
        elif k == "mul":
            v = go(e.children[0]) * go(e.children[1])
        elif k == "div":
            den = go(e.children[1])
            if den == 0:
                raise EvalDomainError("division by zero",
                                      ex.to_text(e.children[1]), tuple(zz.tolist()))
            v = go(e.children[0]) / den
        elif k in ("pow", "abs"):
            w = go(e.children[0])
            try:
                v = w ** e.exponent if k == "pow" else abs(w)
            except OverflowError:
                raise EvalDomainError("overflow", ex.to_text(e), tuple(zz.tolist())) from None
        elif k == "neg":
            v = -go(e.children[0])
        elif k == "re":
            v = complex(go(e.children[0]).real)
        elif k == "im":
            v = complex(go(e.children[0]).imag)
        elif k == "abs2":
            w = go(e.children[0])
            v = complex(w.real * w.real + w.imag * w.imag)
        elif k == "conj":
            v = go(e.children[0]).conjugate()
        elif k == "ln":
            w = go(e.children[0])
            if abs(w.imag) > ex._REAL_IMAG_TOL * max(1.0, abs(w)) or w.real <= 0:
                raise EvalDomainError(f"ln of non-positive argument {w}",
                                      ex.to_text(e.children[0]), tuple(zz.tolist()))
            v = complex(math.log(w.real))
        elif k == "exp":
            v = np.exp(complex(go(e.children[0])))
        else:
            raise ValueError(f"unknown node kind {k!r}")
        v = complex(v)
        memo[id(e)] = v
        return v

    return go(f) if isinstance(f, ex.Expr) else [go(e) for e in f]


def affine_membership_oracle(k_set, x, functionals=500, seed=0, tol=1e-9):
    """The per-query affine test that ``hulls.affine_hull_membership``
    batches: for each query the family is redrawn with ``uniform(-B, B)``
    offsets and K is projected on it again, and sup_K |A| is the direct
    maximum over K.  Kept as the oracle the batch must match bit for bit."""
    pts = k_set.points.astype(float)
    xx = np.asarray(x, dtype=float)
    bound = 2.0 * max(float(np.max(np.abs(pts))), float(np.max(np.abs(xx))), 1e-12)
    if not math.isfinite(bound):
        raise LevikitError(f"affine offset bound 2*max|coordinate| is {bound}, "
                           f"not finite")
    ss_u, ss_b = np.random.SeedSequence(seed).spawn(2)
    raw = np.random.default_rng(ss_u).standard_normal((functionals, pts.shape[1]))
    dirs = raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    offs = np.random.default_rng(ss_b).uniform(-bound, bound, size=functionals)
    values = np.abs(dirs @ xx + offs)
    norms = np.max(np.abs(pts @ dirs.T + offs), axis=0)
    return hulls._membership(tuple(float(v) for v in xx), values, norms, tol, lambda i: {
        "kind": "affine", "direction": tuple(dirs[i]), "offset": float(offs[i])})


def polynomial_membership_oracle(k_set, z, degree, count=0, seed=0, tol=1e-9):
    """The per-query polynomial test that ``hulls.polynomial_hull_membership``
    batches: sup_K |p| of every candidate is computed again for each
    query.  Kept as the oracle the batch must match bit for bit."""
    pts = k_set.points.astype(complex)
    zz = np.asarray(z, dtype=complex).reshape(1, -1)
    exps = hulls.monomial_exponents(pts.shape[1], degree)
    rng = np.random.default_rng(seed)
    candidates = [([e], [1.0 + 0j]) for e in exps] + [
        (exps, list(np.exp(2j * np.pi * rng.uniform(size=len(exps)))))
        for _ in range(count)]
    sizes = []
    for exponents, coefficients in candidates:
        with np.errstate(over="ignore", invalid="ignore"):
            at_z = complex(hulls._eval_poly(exponents, coefficients, zz)[0])
            norm = float(np.max(np.abs(hulls._eval_poly(exponents, coefficients, pts))))
        try:
            value = abs(at_z)
        except OverflowError:
            value = math.inf
        sizes.append((value, norm))
    values, norms = np.array(sizes).T
    query = tuple((v.real, v.imag) for v in np.asarray(z, dtype=complex))
    return hulls._membership(query, values, norms, tol, lambda i: {
        "kind": "polynomial", "exponents": [list(e) for e in candidates[i][0]],
        "coefficients": [[c.real, c.imag] for c in map(complex, candidates[i][1])]})
