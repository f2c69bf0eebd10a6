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
from .norms import LINFTY, row_norms


def _point_set(points, dtype) -> np.ndarray:
    """K as a non-empty (k, n) array of ``dtype``."""
    pts = np.atleast_2d(np.asarray(points, dtype=dtype))
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    return pts


def load_point_set(path, dimension: int, is_complex: bool = True) -> np.ndarray:
    """K as a (k, n) array from a file: one point per line, comma-separated
    real/imag pairs (2n numbers for C^n), or n reals unless ``is_complex``."""
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
            width = 2 * dimension if is_complex else dimension
            if len(vals) != width:
                raise LevikitError(f"{path}:{lineno}: expected {width} numbers")
            rows.append([complex(*vals[2 * j:2 * j + 2]) for j in range(dimension)]
                        if is_complex else vals)
    if not rows:
        raise LevikitError(f"{path}: no points found")
    return np.array(rows)


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
    if not is_complex:
        try:    # well-formed rows in one conversion; the loop names a bad row
            points = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):
            points = np.empty(0)
        if (points.ndim == 2 and n in (None, points.shape[1])
                and np.isfinite(points).all()):
            return points
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


def _membership(queries, values, norms, tol, certificate) -> list:
    """The verdicts shared by both families, one per query, from the (m, F)
    arrays of |f(x)| and sup_K |f| of each tested f at each of the m
    queries: the first largest margin |f(x)| - sup_K |f| decides, and
    ``certificate(j, i)`` describes f_i at query j for an Outside
    certificate.  The first query in order with a NaN or infinite margin
    raises."""
    with np.errstate(invalid="ignore"):     # inf - inf is the NaN rejected below
        margins = values - norms
    best = margins.argmax(axis=1)           # a row's first NaN, if it has one
    best_margins = margins[np.arange(len(best)), best].tolist()
    tested = margins.shape[1]
    results = []
    for j, (query, idx, best_margin) in enumerate(zip(queries, best.tolist(),
                                                      best_margins)):
        if math.isnan(best_margin):
            raise LevikitError("hull membership margin is NaN: a tested function "
                               "is not finite at the query or on K")
        if math.isinf(best_margin):
            raise LevikitError(f"hull membership margin is {best_margin}: |f(x)| is "
                               f"{values[j, idx]} and sup_K |f| is {norms[j, idx]} "
                               f"for tested function {idx}")
        if best_margin > tol:
            results.append(HullMembershipResult(query, "Outside", {
                **certificate(j, idx), "value": float(values[j, idx]),
                "norm_on_set": float(norms[j, idx])}, tested, best_margin))
        else:
            verdict = "BoundaryAmbiguous" if best_margin >= -tol else "Inside"
            results.append(HullMembershipResult(query, verdict, None, tested,
                                                 best_margin))
    return results


# ---------------------------------------------------------------------------
# exact hull in the plane

def convex_hull_2d(points) -> list:
    """Counterclockwise extreme points; collinear interior points excluded."""
    pts = np.asarray(points, dtype=float)
    uniq = sorted({(float(p[0]), float(p[1])) for p in pts})
    if len(uniq) <= 2:
        return uniq

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]     # its last point starts the other chain

    # collinear points leave the two segment endpoints
    return chain(uniq) + chain(reversed(uniq))


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

def affine_functionals(seed: int, count: int, dimension: int) -> tuple:
    """(directions, draws) of the sampled affine family A(y) = u.y + b: unit
    directions u, and the ``random()`` draws d from which an offset bound B
    gives b = -B + (2B) * d, what ``Generator.uniform(-B, B)`` computes.
    The two come from separately spawned streams, so the family for a
    larger count extends the family for a smaller count exactly."""
    ss_u, ss_b = np.random.SeedSequence(seed).spawn(2)
    raw = np.random.default_rng(ss_u).standard_normal((count, dimension))
    norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    return raw / norms, np.random.default_rng(ss_b).random(count)


_QUERY_CHUNK = 64      # queries per array pass of affine_hull_membership


def affine_hull_membership(k_set, queries, functionals: int = 500,
                           seed: int = 0, tol: float = 1e-9) -> list:
    """Sampled-affine-functional membership of each query in the convex hull
    of K, the rows of the (k, n) real array ``k_set``, one result per query.

    Functionals are A(y) = u . y + b with unit u and offset b uniform in
    [-B, B], B = 2 * coordinate bound of K and the query; offsets matter
    because the comparison runs on |A|.  One family serves every query, and
    K is projected on its directions once: rounding p + b is monotone in p,
    so sup_K |A| = max(|hi + b|, |lo + b|) over the largest and smallest
    projections, bit for bit.  Growing ``functionals`` extends the family,
    so it never flips an Outside verdict back to Inside.

    Queries go through in chunks of 64, each as (64, functionals) arrays of
    offsets, |A(x)| and sup_K |A|: one array pass per chunk in place of a
    Python turn per query, while the arrays stay a few hundred kB (chunks of
    256 raised the peak RSS of a 5,000-query run by about 4 MB).
    ``np.matmul`` on one (n, 1) column per query is the gemv of ``dirs @ x``
    bit for bit; one product with all queries rounds differently.  B is a
    Python ``max`` per query, which skips a NaN coordinate, so a NaN query
    fails on its margin.  The first query in order whose bound is not finite
    or whose margin is NaN or infinite raises.
    """
    if functionals < 1:
        raise ValueError("functional count must be >= 1")
    pts = _point_set(k_set, float)
    k_max = float(np.max(np.abs(pts)))
    dirs, draws = affine_functionals(seed, functionals, pts.shape[1])
    proj = pts @ dirs.T
    hi, lo = proj.max(axis=0), proj.min(axis=0)
    xs = np.asarray(queries, dtype=float).reshape(len(queries), pts.shape[1])
    results = []
    for start in range(0, len(xs), _QUERY_CHUNK):
        chunk = xs[start:start + _QUERY_CHUNK]
        bounds = [2.0 * max(k_max, v, 1e-12)
                  for v in row_norms(chunk, LINFTY).tolist()]
        bad = next((j for j, v in enumerate(bounds) if not math.isfinite(v)),
                   len(bounds))
        bound = np.array(bounds[:bad])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            offs = -bound + (2.0 * bound) * draws
            values = np.abs(np.matmul(dirs, chunk[:bad, :, None])[..., 0] + offs)
            norms = np.maximum(np.abs(hi + offs), np.abs(lo + offs))
        results += _membership(
            map(tuple, chunk[:bad].tolist()), values, norms, tol,
            lambda j, i: {"kind": "affine", "direction": tuple(dirs[i].tolist()),
                          "offset": float(offs[j, i])})
        if bad < len(bounds):
            raise LevikitError(f"affine offset bound 2*max|coordinate| is "
                               f"{bounds[bad]}, not finite")
    return results


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


def _sup_modulus(exponents, coefficients, pts) -> float:
    """max |p| over the rows of ``pts``, for p = sum of coefficient * monomial.
    Here and in ``_moduli`` a size beyond the float range comes back
    infinite (or NaN), without a warning, for ``_membership`` to reject."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(_eval_poly(exponents, coefficients, pts))))


def _moduli(exponents, coefficients, zs) -> np.ndarray:
    """|p(z)| at each row z of ``zs``, bit for bit Python's ``abs`` of
    ``_eval_poly`` at z alone (inf where it overflows): numpy forms its
    in-place product of one complex element by CPython's formula, not by the
    fused multiply-add of longer arrays, so the products are formed on the parts."""
    with np.errstate(over="ignore", invalid="ignore"):
        re = im = np.zeros(len(zs))
        for e, c in zip(exponents, coefficients):
            tr, ti = complex(c).real, complex(c).imag
            for j, p in enumerate(e):
                if p:
                    w = zs[:, j] ** p
                    tr, ti = tr * w.real - ti * w.imag, tr * w.imag + ti * w.real
            re, im = re + tr, im + ti
        return np.hypot(re, im)     # abs's hypot, which np.abs of a complex need not be


def polynomial_hull_membership(k_set, queries, degree: int, count: int = 0,
                               seed: int = 0, tol: float = 1e-9) -> list:
    """Outer polynomial-family test, one result per query z, with K the rows
    of the (k, n) array ``k_set``: Outside iff some tested p has
    |p(z)| > sup_K |p| + tol, with sup_K |p| computed once.

    The family is every monomial of total degree 1..degree plus ``count``
    seeded polynomials with unit-modulus coefficients on the same
    basis.  Inside only means the tested family does not separate; no claim
    is made about the true holomorphically convex hull.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    pts = _point_set(k_set, complex)
    exps = monomial_exponents(pts.shape[1], degree)

    rng = np.random.default_rng(seed)
    candidates = [([e], [1.0 + 0j]) for e in exps] + [
        (exps, list(np.exp(2j * np.pi * rng.uniform(size=len(exps)))))
        for _ in range(count)]
    norms = np.array([_sup_modulus(e, c, pts) for e, c in candidates])
    zs = np.asarray(queries, dtype=complex).reshape(len(queries), pts.shape[1])
    values = np.stack([_moduli(e, c, zs) for e, c in candidates], axis=1)
    return _membership(
        [tuple((v.real, v.imag) for v in z) for z in zs], values,
        np.broadcast_to(norms, values.shape), tol, lambda j, i: {
            "kind": "polynomial", "exponents": [list(e) for e in candidates[i][0]],
            "coefficients": [[c.real, c.imag] for c in map(complex, candidates[i][1])]})


def certificate_failure(points: np.ndarray, query, certificate, tol: float,
                        path: str) -> str | None:
    """Why a stored Outside verdict fails to re-check, or None when its
    certificate still separates the report's ``query`` field from the
    (k, n) ``points`` of K by more than ``tol``; ``path`` names the record
    in decoding errors.  An affine sup_K |A| is the direct maximum over K,
    independent of the projection extremes the membership test uses."""
    if certificate is None:
        return "Outside verdict without certificate"
    if certificate["kind"] == "affine":
        direction = np.array([certificate["direction"]], dtype=float)
        offset = certificate["offset"]
        value = np.abs(direction @ np.asarray(query, dtype=float) + offset)[0]
        norm_k = np.max(np.abs(points.astype(float) @ direction.T + offset))
    else:
        exponents = certificate["exponents"]
        coefficients = ex.point_from_pairs(certificate["coefficients"],
                                           f"{path}.certificate.coefficients")
        value = _moduli(exponents, coefficients, ex.point_from_pairs(
            query, f"{path}.query").reshape(1, -1))[0]
        norm_k = _sup_modulus(exponents, coefficients, points.astype(complex))
    if value > norm_k + tol:
        return None
    return "separation certificate does not re-check"


@dataclass(frozen=True)
class CoordinateBound:
    per_coordinate: tuple
    bound: float


def hull_boundedness_check(k_set) -> CoordinateBound:
    """sup_K |z_j| per coordinate over the rows of the (k, n) array ``k_set``;
    any query exceeding a bound is Outside via that coordinate functional."""
    per = tuple(float(v) for v in np.max(np.abs(_point_set(k_set, None)), axis=0))
    return CoordinateBound(per, max(per))
