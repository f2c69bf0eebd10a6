"""Convex hulls, affine-functional and polynomial-family hull membership.

Membership verdicts are one-sided by design: "Outside" always carries a
separating certificate that re-evaluates with margin above tolerance, while
"Inside" only means the tested functional family found no separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import expr as ex
from .errors import ConfigError, LevikitError


@dataclass
class PointSet:
    points: np.ndarray         # (k, n)
    is_complex: bool

    def __post_init__(self):
        dtype = complex if self.is_complex else float
        pts = np.atleast_2d(np.asarray(self.points, dtype=dtype))
        if pts.size == 0:
            raise ValueError("point set must be non-empty")
        self.points = pts

    @property
    def dimension(self):
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


def real_points(arr) -> PointSet:
    return PointSet(np.asarray(arr, dtype=float), is_complex=False)


def complex_points(arr) -> PointSet:
    return PointSet(np.asarray(arr, dtype=complex), is_complex=True)


def load_point_set(path, dimension: int, is_complex: bool = True) -> PointSet:
    """One point per line, comma-separated real/imag pairs (2n numbers for C^n)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals = [float(v) for v in line.split(",")]
            except ValueError:
                raise LevikitError(f"{path}:{lineno}: expected comma-separated "
                                   f"numbers") from None
            if not all(map(math.isfinite, vals)):
                raise ConfigError(f"{path}:{lineno}: coordinates must be finite")
            if is_complex:
                if len(vals) != 2 * dimension:
                    raise LevikitError(
                        f"{path}:{lineno}: expected {2 * dimension} numbers")
                rows.append([complex(vals[2 * j], vals[2 * j + 1])
                             for j in range(dimension)])
            else:
                if len(vals) != dimension:
                    raise LevikitError(
                        f"{path}:{lineno}: expected {dimension} numbers")
                rows.append(vals)
    if not rows:
        raise LevikitError(f"{path}: no points found")
    return PointSet(np.array(rows), is_complex=is_complex)


def decode_points(rows, is_complex: bool, path: str,
                  n: int | None = None) -> np.ndarray:
    """Config rows as a (k, n) array: each row is n reals, or n [re, im]
    pairs when ``is_complex``; without ``n`` the first row fixes it, so
    there must be one.  ConfigError names ``path[i]`` for a bad or
    non-finite row."""
    if not isinstance(rows, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of points")
    if n is None and not rows:
        raise ConfigError(f"{path}: expected at least one point")
    out = []
    for i, row in enumerate(rows):
        if is_complex:
            x = ex.point_from_pairs(row, f"{path}[{i}]", n)
        else:
            try:
                x = np.asarray(row, dtype=float)
            except (TypeError, ValueError):
                x = None
            if x is None or x.ndim != 1 or (n is not None and len(x) != n):
                count = "" if n is None else f"{n} "
                raise ConfigError(f"{path}[{i}]: expected a list of {count}real numbers")
        if not np.isfinite(x).all():
            raise ConfigError(f"{path}[{i}]: coordinates must be finite")
        n = len(x)
        out.append(x)
    return np.array(out, dtype=complex if is_complex else float)


@dataclass(frozen=True)
class HullMembershipResult:
    query: tuple
    verdict: str               # "Inside" | "Outside" | "BoundaryAmbiguous"
    certificate: dict          # separating functional/polynomial, or None
    tested: int
    best_margin: float         # max over tested of |A(x)| - ||A||_K


def _membership(query, values, norms, tol, certificate) -> HullMembershipResult:
    """The verdict shared by both families, from |f(x)| and sup_K |f| of each
    tested f: the first largest margin |f(x)| - sup_K |f| decides, and
    ``certificate(i)`` describes f_i for an Outside certificate."""
    margins = values - norms
    if np.isnan(margins).any():
        raise LevikitError("hull membership margin is NaN: a tested function "
                           "is not finite at the query or on K")
    idx = int(np.argmax(margins))
    best_margin = float(margins[idx])
    if best_margin > tol:
        return HullMembershipResult(query, "Outside", {
            **certificate(idx), "value": float(values[idx]),
            "norm_on_set": float(norms[idx])}, len(margins), best_margin)
    verdict = "BoundaryAmbiguous" if best_margin >= -tol else "Inside"
    return HullMembershipResult(query, verdict, None, len(margins), best_margin)


# ---------------------------------------------------------------------------
# exact hull in the plane

def convex_hull_2d(points) -> list:
    """Counterclockwise extreme points; collinear interior points excluded."""
    if isinstance(points, PointSet):
        pts = points.points
    else:
        pts = np.asarray(points, dtype=float)
    uniq = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(uniq) <= 2:
        return uniq

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # collinear points leave the two segment endpoints
    return lower[:-1] + upper[:-1]


def polygon_contains(vertices, p, tol: float = 0.0) -> bool:
    """Membership in a convex CCW polygon (closed, within tol of each edge)."""
    if len(vertices) == 1:
        return math.dist(vertices[0], p) <= tol
    if len(vertices) == 2:
        return point_segment_distance(p, vertices[0], vertices[1]) <= tol
    for i in range(len(vertices)):
        a = vertices[i]
        b = vertices[(i + 1) % len(vertices)]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


def point_segment_distance(p, a, b) -> float:
    pa = np.asarray(p, dtype=float) - np.asarray(a, dtype=float)
    ba = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    denom = float(ba @ ba)
    t = 0.0 if denom == 0 else float(np.clip(pa @ ba / denom, 0.0, 1.0))
    return float(np.linalg.norm(pa - t * ba))


def distance_to_polygon(vertices, p) -> float:
    """Distance from a point to the boundary of a convex polygon."""
    if len(vertices) == 1:
        return math.dist(vertices[0], p)
    return min(point_segment_distance(p, vertices[i],
                                      vertices[(i + 1) % len(vertices)])
               for i in range(len(vertices)))


# ---------------------------------------------------------------------------
# affine outer approximation (real hull)

def affine_functionals(seed: int, count: int, dimension: int,
                       bound: float) -> tuple:
    """(directions, offsets) for the sampled affine family A(y) = u.y + b.

    Directions and offsets come from separately spawned streams so the
    family for a larger count extends the family for a smaller count
    exactly (seed-prefix monotonicity).
    """
    ss_u, ss_b = np.random.SeedSequence(seed).spawn(2)
    raw = np.random.default_rng(ss_u).standard_normal((count, dimension))
    norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    offsets = np.random.default_rng(ss_b).uniform(-bound, bound, size=count)
    return raw / norms, offsets


def _affine_sizes(dirs, offs, pts, x) -> tuple:
    """(|A(x)|, sup_K |A|) for each functional A(y) = dirs[i] . y + offs[i]."""
    return np.abs(dirs @ x + offs), np.max(np.abs(pts @ dirs.T + offs), axis=0)


def affine_hull_membership(k_set: PointSet, x, functionals: int = 500,
                           seed: int = 0, tol: float = 1e-9) -> HullMembershipResult:
    """Sampled-affine-functional membership test against the convex hull of K.

    Functionals are A(y) = u . y + b with unit u and offset b uniform in
    [-B, B], B = 2 * coordinate bound of K and x; offsets matter because the
    comparison runs on |A|.  The functional family extends monotonically
    with the count for a fixed seed, so growing ``functionals`` never flips
    an Outside verdict back to Inside.
    """
    if functionals < 1:
        raise ValueError("functional count must be >= 1")
    pts = k_set.points.astype(float)
    xx = np.asarray(x, dtype=float)
    bound = 2.0 * max(float(np.max(np.abs(pts))), float(np.max(np.abs(xx))), 1e-12)
    if not math.isfinite(bound):
        raise LevikitError(f"affine offset bound 2*max|coordinate| is {bound}, "
                           f"not finite")
    dirs, offs = affine_functionals(seed, functionals, pts.shape[1], bound)
    values, norms = _affine_sizes(dirs, offs, pts, xx)
    return _membership(tuple(float(v) for v in xx), values, norms, tol, lambda i: {
        "kind": "affine", "direction": tuple(dirs[i]), "offset": float(offs[i])})


# ---------------------------------------------------------------------------
# polynomial outer approximation (holomorphically convex hull)

def monomial_exponents(dimension: int, degree: int) -> list:
    return [e for e in product(range(degree + 1), repeat=dimension)
            if 0 < sum(e) <= degree]


def _eval_poly(exponents, coefficients, pts: np.ndarray) -> np.ndarray:
    vals = np.zeros(pts.shape[0], dtype=complex)
    for e, c in zip(exponents, coefficients):
        term = np.full(pts.shape[0], c, dtype=complex)
        for j, p in enumerate(e):
            if p:
                term *= pts[:, j] ** p
        vals += term
    return vals


def _polynomial_sizes(exponents, coefficients, pts, z) -> tuple:
    """(|p(z)|, sup_K |p|) for p = sum of coefficient * monomial; z is (1, n)."""
    value = abs(complex(_eval_poly(exponents, coefficients, z)[0]))
    return value, float(np.max(np.abs(_eval_poly(exponents, coefficients, pts))))


def polynomial_hull_membership(k_set: PointSet, z, degree: int, count: int = 0,
                               seed: int = 0, tol: float = 1e-9) -> HullMembershipResult:
    """Outer polynomial-family test: Outside iff some tested p has
    |p(z)| > sup_K |p| + tol.

    The family is every monomial of total degree 1..degree plus ``count``
    seeded polynomials with unit-modulus coefficients on the same
    basis.  Inside only means the tested family does not separate; no claim
    is made about the true holomorphically convex hull.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    pts = k_set.points.astype(complex)
    zz = np.asarray(z, dtype=complex).reshape(1, -1)
    exps = monomial_exponents(pts.shape[1], degree)

    rng = np.random.default_rng(seed)
    candidates = [([e], [1.0 + 0j]) for e in exps] + [
        (exps, list(np.exp(2j * np.pi * rng.uniform(size=len(exps)))))
        for _ in range(count)]
    values, norms = np.array([_polynomial_sizes(exponents, coefficients, pts, zz)
                              for exponents, coefficients in candidates]).T
    query = tuple((v.real, v.imag) for v in np.asarray(z, dtype=complex))
    return _membership(query, values, norms, tol, lambda i: {
        "kind": "polynomial", "exponents": [list(e) for e in candidates[i][0]],
        "coefficients": [[c.real, c.imag] for c in map(complex, candidates[i][1])]})


def certificate_failure(points: np.ndarray, query, certificate, tol: float,
                        path: str) -> str | None:
    """Why a stored Outside verdict fails to re-check, or None when its
    certificate still separates the report's ``query`` field from the
    (k, n) ``points`` of K by more than ``tol``; ``path`` names the record
    in decoding errors."""
    if certificate is None:
        return "Outside verdict without certificate"
    if certificate["kind"] == "affine":
        values, norms = _affine_sizes(
            np.array([certificate["direction"]], dtype=float),
            certificate["offset"], points.astype(float),
            np.asarray(query, dtype=float))
        value, norm_k = values[0], norms[0]
    else:
        value, norm_k = _polynomial_sizes(
            certificate["exponents"],
            ex.point_from_pairs(certificate["coefficients"],
                                f"{path}.certificate.coefficients"),
            points.astype(complex),
            ex.point_from_pairs(query, f"{path}.query").reshape(1, -1))
    if value > norm_k + tol:
        return None
    return "separation certificate does not re-check"


@dataclass(frozen=True)
class CoordinateBound:
    per_coordinate: tuple
    bound: float


def hull_boundedness_check(k_set: PointSet) -> CoordinateBound:
    """sup_K |z_j| per coordinate; any query exceeding a bound is Outside
    via that coordinate functional."""
    per = tuple(float(v) for v in np.max(np.abs(k_set.points), axis=0))
    return CoordinateBound(per, max(per))
