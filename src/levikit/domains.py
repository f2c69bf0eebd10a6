"""Declarative domain descriptions with membership, sampling and distances.

Every distance-consuming operation takes a ``metric`` parameter
("euclidean" or "linfty", complex-modulus max norm); passing None selects
the variant's natural metric: Euclidean for balls and sublevel sets, L-infinity
for polydiscs and Reinhardt unions.  Mixing metrics silently is the likeliest
correctness bug in this problem family, hence the explicit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import calculus as lc
from . import expr as ex
from .errors import (LevikitError, NoInteriorPoint, PointOutsideDomain,
                     SamplingExhausted, UnsupportedMetric)
from .sampling import disc_point, unit_vector

EUCLIDEAN = "euclidean"
LINFTY = "linfty"
_LEVEL_TOL = 1e-10


def _as_ctuple(v):
    return tuple(complex(x) for x in np.atleast_1d(np.asarray(v, dtype=complex)))


def _as_rtuple(v):
    return tuple(float(x) for x in np.atleast_1d(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_ctuple(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dimension(self):
        return len(self.center)


@dataclass(frozen=True)
class Polydisc:
    center: tuple
    radii: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", _as_ctuple(self.center))
        object.__setattr__(self, "radii", _as_rtuple(self.radii))
        if len(self.center) != len(self.radii):
            raise ValueError("center and radii must have equal length")
        if any(r <= 0 for r in self.radii):
            raise ValueError("polydisc radii must be positive")

    @property
    def dimension(self):
        return len(self.center)


@dataclass(frozen=True)
class ReinhardtUnion:
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ReinhardtUnion needs at least one member polydisc")
        n = members[0].dimension
        for m in members:
            if not isinstance(m, Polydisc):
                raise ValueError("ReinhardtUnion members must be polydiscs")
            if m.dimension != n:
                raise ValueError("ReinhardtUnion members must share dimension")
            if any(c != 0 for c in m.center):
                raise ValueError("ReinhardtUnion members must be centered at 0")

    @property
    def dimension(self):
        return self.members[0].dimension


@dataclass(frozen=True)
class Sublevel:
    """Open set {f < level}; box_center/box_radii bound the sampling region."""

    expr: ex.Expr
    level: float
    dimension: int
    box_center: tuple = None
    box_radii: tuple = None
    interior_hint: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "dimension", int(self.dimension))
        if ex.max_index(self.expr) > self.dimension:
            raise ValueError("expression uses variables beyond the declared dimension")
        if self.box_center is not None:
            object.__setattr__(self, "box_center", _as_ctuple(self.box_center))
            object.__setattr__(self, "box_radii", _as_rtuple(self.box_radii))
        if self.interior_hint is not None:
            object.__setattr__(self, "interior_hint", _as_ctuple(self.interior_hint))


@dataclass(frozen=True)
class Intersection:
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("Intersection needs at least one member")
        n = members[0].dimension
        if any(m.dimension != n for m in members):
            raise ValueError("Intersection members must share dimension")

    @property
    def dimension(self):
        return self.members[0].dimension


@dataclass(frozen=True)
class WholeSpace:
    dimension: int


@dataclass(frozen=True)
class BoundarySample:
    point: tuple
    outward: tuple          # unit outward direction, or None where unavailable
    source: str
    face_index: int = None


@dataclass(frozen=True)
class BoundarySamples:
    samples: tuple
    skipped_rays: int = 0

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)


def natural_metric(d) -> str:
    if isinstance(d, (Polydisc, ReinhardtUnion)):
        return LINFTY
    return EUCLIDEAN


def _norm(v, metric):
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(v))
    if metric == LINFTY:
        return float(np.max(np.abs(v)))
    raise UnsupportedMetric(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# membership

def contains(d, z) -> bool:
    """Exact membership per variant; all inequalities are strict (open sets)."""
    zz = ex.as_point(z, d.dimension)
    if isinstance(d, Ball):
        return float(np.linalg.norm(zz - np.asarray(d.center))) < d.radius
    if isinstance(d, Polydisc):
        gaps = np.abs(zz - np.asarray(d.center))
        return bool(np.all(gaps < np.asarray(d.radii)))
    if isinstance(d, ReinhardtUnion):
        return any(contains(m, zz) for m in d.members)
    if isinstance(d, Sublevel):
        return ex.evaluate(d.expr, zz).real < d.level
    if isinstance(d, Intersection):
        return all(contains(m, zz) for m in d.members)
    if isinstance(d, WholeSpace):
        return True
    raise TypeError(f"not a domain: {d!r}")


# ---------------------------------------------------------------------------
# bounding regions and interior sampling

def bounding_polydisc(d) -> Polydisc:
    """A polydisc containing the domain, used for rejection sampling."""
    if isinstance(d, Ball):
        return Polydisc(d.center, (d.radius,) * d.dimension)
    if isinstance(d, Polydisc):
        return d
    if isinstance(d, ReinhardtUnion):
        radii = np.max([m.radii for m in d.members], axis=0)
        return Polydisc((0,) * d.dimension, radii)
    if isinstance(d, Sublevel):
        if d.box_center is None:
            raise LevikitError("Sublevel domain needs a bounding box for sampling")
        return Polydisc(d.box_center, d.box_radii)
    if isinstance(d, Intersection):
        boxes = []
        for m in d.members:
            try:
                boxes.append(bounding_polydisc(m))
            except LevikitError:
                continue
        if not boxes:
            raise LevikitError("Intersection has no bounded member to sample from")
        return min(boxes, key=lambda b: float(np.prod(b.radii)))
    raise LevikitError(f"no bounding region for {type(d).__name__}")


def interior_sample(d, count: int, seed: int) -> np.ndarray:
    """Seeded interior points, shape (count, n)."""
    return interior_sample_rng(d, count, np.random.default_rng(seed))


def interior_sample_rng(d, count: int, rng: np.random.Generator) -> np.ndarray:
    """Interior points drawn from an existing generator."""
    n = d.dimension
    if isinstance(d, WholeSpace):
        return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    if isinstance(d, Ball):
        center = np.asarray(d.center)
        out = np.empty((count, n), dtype=complex)
        for i in range(count):
            u = unit_vector(rng, n)
            out[i] = center + d.radius * rng.uniform() ** (1.0 / (2 * n)) * u
        return out
    if isinstance(d, Polydisc):
        center = np.asarray(d.center)
        out = np.empty((count, n), dtype=complex)
        for i in range(count):
            out[i] = center + np.array([disc_point(rng, r) for r in d.radii])
        return out
    box = bounding_polydisc(d)
    center = np.asarray(box.center)
    out = []
    attempts = 0
    max_attempts = max(1000, 200 * count)
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise SamplingExhausted(
                f"interior sampling of {type(d).__name__} failed",
                len(out) / attempts)
        z = center + np.array([disc_point(rng, r) for r in box.radii])
        try:
            inside = contains(d, z)
        except LevikitError:
            continue
        if inside:
            out.append(z)
    return np.array(out)


# ---------------------------------------------------------------------------
# boundary sampling

def _sublevel_interior_point(d: Sublevel, rng) -> np.ndarray:
    if d.interior_hint is not None:
        z0 = np.asarray(d.interior_hint)
        if ex.evaluate(d.expr, z0).real < d.level:
            return z0
    box = bounding_polydisc(d)
    center = np.asarray(box.center)
    for _ in range(500):
        z = center + np.array([disc_point(rng, r) for r in box.radii])
        try:
            if ex.evaluate(d.expr, z).real < d.level:
                return z
        except LevikitError:
            continue
    raise NoInteriorPoint(
        f"no point with f < {d.level} found among trial samples")


def _bisect_level(f: ex.Expr, level, z_in, z_out, tol=_LEVEL_TOL, max_iter=200,
                  outside: bool = False):
    """Point on the segment [z_in, z_out] with |f - level| <= tol.

    With ``outside`` the returned point additionally satisfies f >= level
    (it is the outer bracket endpoint), so it never re-enters the open set.
    """
    lo, hi = 0.0, 1.0
    seg = z_out - z_in
    for _ in range(max_iter):
        if outside:
            z_hi = z_in + hi * seg
            v_hi = ex.evaluate(f, z_hi).real - level
            if 0 <= v_hi <= tol:
                return z_hi
        mid = 0.5 * (lo + hi)
        z = z_in + mid * seg
        v = ex.evaluate(f, z).real - level
        if not outside and abs(v) <= tol:
            return z
        if v < 0:
            lo = mid
        else:
            hi = mid
    return z_in + (hi if outside else 0.5 * (lo + hi)) * seg


def _nudge_outside(d, point, center) -> np.ndarray:
    """Scale the offset from the center outward by ulps until membership fails.

    Analytic boundary points round to either side of the surface; samples
    are contractually outside the open set, so push across when needed.
    """
    z = np.asarray(point)
    c = np.asarray(center)
    for _ in range(8):
        if not contains(d, z):
            return z
        z = c + (z - c) * (1.0 + 4e-16)
    return z


def boundary_sample(d, count: int, seed: int) -> BoundarySamples:
    """Seeded points on the boundary, accurate to ~1e-8 per variant.

    Supported variants: Ball and Polydisc (analytic) and Sublevel with a
    bounding box (bisection along random rays from an interior point).
    """
    rng = np.random.default_rng(seed)
    n = d.dimension
    samples = []
    if isinstance(d, Ball):
        center = np.asarray(d.center)
        for _ in range(count):
            u = unit_vector(rng, n)
            z = _nudge_outside(d, center + d.radius * u, center)
            samples.append(BoundarySample(tuple(z), tuple(u), "sphere"))
        return BoundarySamples(tuple(samples))
    if isinstance(d, Polydisc):
        center = np.asarray(d.center)
        for _ in range(count):
            face = int(rng.integers(n))
            phase = np.exp(2j * np.pi * rng.uniform())
            z = center + np.array([disc_point(rng, r) for r in d.radii])
            z[face] = center[face] + d.radii[face] * phase
            for _ in range(8):
                if not contains(d, z):
                    break
                z[face] = center[face] + (z[face] - center[face]) * (1.0 + 4e-16)
            outward = np.zeros(n, dtype=complex)
            outward[face] = phase
            samples.append(BoundarySample(tuple(z), tuple(outward),
                                          f"face-{face + 1}", face_index=face))
        return BoundarySamples(tuple(samples))
    if isinstance(d, Sublevel):
        z0 = _sublevel_interior_point(d, rng)
        box = bounding_polydisc(d)
        t_max = 2.0 * float(np.sum(box.radii)) + float(np.linalg.norm(
            z0 - np.asarray(box.center)))
        skipped = 0
        attempts = 0
        while len(samples) < count:
            attempts += 1
            if attempts > 100 * count:
                raise SamplingExhausted("sublevel boundary sampling failed",
                                        len(samples) / attempts)
            u = unit_vector(rng, n)
            t = 1e-3 * t_max
            bracket = None
            while t <= t_max:
                try:
                    v = ex.evaluate(d.expr, z0 + t * u).real
                except LevikitError:
                    break
                if v >= d.level:
                    bracket = t
                    break
                t *= 2.0
            if bracket is None:
                skipped += 1
                continue
            z = _bisect_level(d.expr, d.level, z0, z0 + bracket * u,
                              outside=True)
            g = _sublevel_gradient(d, z)
            gn = np.linalg.norm(g)
            outward = tuple(g / gn) if gn > 1e-12 else None
            samples.append(BoundarySample(tuple(z), outward, "level-set"))
        return BoundarySamples(tuple(samples), skipped)
    raise LevikitError(
        f"boundary sampling not supported for {type(d).__name__}")


# ---------------------------------------------------------------------------
# distances

def _ball_interior_linfty(a_gaps, radius) -> float:
    # largest t with the closed polydisc of radius t inside the ball:
    # n t^2 + 2 t sum(a) + (sum(a^2) - r^2) = 0, positive root
    n = a_gaps.shape[0]
    s1 = float(np.sum(a_gaps))
    s2 = float(np.sum(a_gaps ** 2))
    disc = s1 * s1 - n * (s2 - radius * radius)
    return (-s1 + math.sqrt(disc)) / n


def _ball_exterior_linfty(a_gaps, radius) -> float:
    # smallest t with the closed polydisc of radius t touching the sphere
    lo, hi = 0.0, float(np.max(a_gaps))

    def nearest(t):
        return math.sqrt(float(np.sum(np.maximum(a_gaps - t, 0.0) ** 2)))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nearest(mid) > radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interior_distance(d, zz, metric) -> float:
    if isinstance(d, Ball):
        gaps = np.abs(zz - np.asarray(d.center))
        if metric == EUCLIDEAN:
            return d.radius - float(np.linalg.norm(zz - np.asarray(d.center)))
        return _ball_interior_linfty(gaps, d.radius)
    if isinstance(d, Polydisc):
        # for interior points the Euclidean and L-infinity gaps coincide:
        # only the binding face coordinate needs to move
        gaps = np.asarray(d.radii) - np.abs(zz - np.asarray(d.center))
        return float(np.min(gaps))
    if isinstance(d, ReinhardtUnion):
        best = 0.0
        for m in d.members:
            if contains(m, zz):
                best = max(best, _interior_distance(m, zz, metric))
        return best
    if isinstance(d, Intersection):
        return min(_interior_distance(m, zz, metric) for m in d.members)
    if isinstance(d, Sublevel):
        return _sublevel_distance(d, zz, metric)
    if isinstance(d, WholeSpace):
        return math.inf
    raise TypeError(f"not a domain: {d!r}")


def _exterior_distance(d, zz, metric) -> float:
    if isinstance(d, Ball):
        gaps = np.abs(zz - np.asarray(d.center))
        if metric == EUCLIDEAN:
            return float(np.linalg.norm(zz - np.asarray(d.center))) - d.radius
        return _ball_exterior_linfty(gaps, d.radius)
    if isinstance(d, Polydisc):
        over = np.maximum(np.abs(zz - np.asarray(d.center)) - np.asarray(d.radii), 0.0)
        if metric == EUCLIDEAN:
            return float(np.linalg.norm(over))
        return float(np.max(over))
    if isinstance(d, ReinhardtUnion):
        return min(_exterior_distance(m, zz, metric) for m in d.members)
    if isinstance(d, Sublevel):
        return _sublevel_distance(d, zz, metric)
    raise UnsupportedMetric(
        f"exterior distance not available for {type(d).__name__}")


@lru_cache(maxsize=64)
def _cached_boundary_points(d, count, seed):
    return np.array([s.point for s in boundary_sample(d, count, seed).samples])


def _sublevel_gradient(d: Sublevel, b) -> np.ndarray:
    """Steepest-ascent direction of the defining function as a complex vector."""
    return np.conj(lc.complex_gradient(d.expr, b).components)


def _reproject_to_level(d: Sublevel, c, tol=_LEVEL_TOL):
    """Pull a near-boundary point back onto the level set along the gradient."""
    v = ex.evaluate(d.expr, c).real - d.level
    if abs(v) <= tol:
        return c
    g = _sublevel_gradient(d, c)
    gn = np.linalg.norm(g)
    if gn < 1e-12:
        return None
    ghat = g / gn
    direction = -np.sign(v) * ghat
    s = abs(v) / gn
    for _ in range(60):
        probe = c + s * direction
        try:
            vp = ex.evaluate(d.expr, probe).real - d.level
        except LevikitError:
            return None
        if vp * v <= 0:
            inside_pt, outside_pt = (c, probe) if v < 0 else (probe, c)
            return _bisect_level(d.expr, d.level, inside_pt, outside_pt)
        s *= 2.0
    return None


def _foot_point(d: Sublevel, z, b0, steps=12):
    """Slide a boundary point along the level set toward the query point."""
    b = np.asarray(b0)
    best = float(np.linalg.norm(z - b))
    for _ in range(steps):
        g = _sublevel_gradient(d, b)
        gn = np.linalg.norm(g)
        if gn < 1e-12:
            break
        ghat = g / gn
        diff = z - b
        tang = diff - np.real(np.dot(diff, ghat.conj())) * ghat
        if np.linalg.norm(tang) <= 1e-12 * max(1.0, best):
            break
        scale = 1.0
        improved = False
        for _ in range(6):
            candidate = _reproject_to_level(d, b + scale * tang)
            if candidate is not None:
                dist = float(np.linalg.norm(z - candidate))
                if dist < best - 1e-15:
                    b, best = candidate, dist
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            break
    return b


def _sublevel_distance(d: Sublevel, zz, metric, samples=512, seed=0) -> float:
    """Sample-based distance to the level set, refined to the nearest foot point.

    Resolution-limited: the refinement starts from the nearest seeded
    boundary samples, so badly undersampled level-set branches can be missed.
    """
    pts = _cached_boundary_points(d, samples, seed)
    dists = np.array([_norm(zz - b, metric) for b in pts])
    best = float(np.min(dists))
    for idx in np.argsort(dists)[:3]:
        refined = _foot_point(d, zz, pts[idx])
        best = min(best, _norm(zz - refined, metric))
    return best


def distance_to_boundary(d, z, metric: str | None = None) -> float:
    """Distance from an interior point to the boundary in the chosen metric."""
    zz = ex.as_point(z, d.dimension)
    if metric is None:
        metric = natural_metric(d)
    if metric not in (EUCLIDEAN, LINFTY):
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    if not contains(d, zz):
        raise PointOutsideDomain(f"{tuple(zz)} is not inside the domain")
    return _interior_distance(d, zz, metric)


def signed_distance(d, z, metric: str | None = None) -> float:
    """Negative inside the closure, positive outside, ~0 on the boundary."""
    zz = ex.as_point(z, d.dimension)
    if metric is None:
        metric = natural_metric(d)
    if metric not in (EUCLIDEAN, LINFTY):
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    if contains(d, zz):
        return -_interior_distance(d, zz, metric)
    return _exterior_distance(d, zz, metric)


# ---------------------------------------------------------------------------
# defining functions

def defining_expr(d) -> ex.Expr:
    """A global defining function where the variant admits one."""
    if isinstance(d, Ball):
        total = ex.const(-d.radius ** 2)
        for j, c in enumerate(d.center):
            total = ex.add(total, ex.abs2(ex.sub(ex.var(j + 1), ex.const(c))))
        return total
    if isinstance(d, Sublevel):
        return ex.sub(d.expr, ex.const(d.level))
    raise LevikitError(f"no global defining function for {type(d).__name__}")


def face_defining_expr(d: Polydisc, face: int) -> ex.Expr:
    """Local defining function |z_j - c_j|^2 - r_j^2 for one polydisc face."""
    c = d.center[face]
    r = d.radii[face]
    return ex.sub(ex.abs2(ex.sub(ex.var(face + 1), ex.const(c))),
                  ex.const(r * r))


def sample_defining_expr(d, sample: BoundarySample) -> ex.Expr:
    """Defining function appropriate for a boundary sample of d."""
    if isinstance(d, Polydisc):
        return face_defining_expr(d, sample.face_index)
    return defining_expr(d)


# ---------------------------------------------------------------------------
# config serialization

def _ctuple_to_list(t):
    return [[x.real, x.imag] for x in t]


def _list_to_ctuple(v, path):
    try:
        return tuple(complex(p[0], p[1]) for p in v)
    except (TypeError, IndexError):
        raise LevikitError(f"{path}: expected a list of [re, im] pairs") from None


def domain_to_dict(d) -> dict:
    if isinstance(d, Ball):
        return {"variant": "ball", "dimension": d.dimension,
                "center": _ctuple_to_list(d.center), "radius": d.radius}
    if isinstance(d, Polydisc):
        return {"variant": "polydisc", "dimension": d.dimension,
                "center": _ctuple_to_list(d.center), "radii": list(d.radii)}
    if isinstance(d, ReinhardtUnion):
        return {"variant": "reinhardt_union", "dimension": d.dimension,
                "members": [{"radii": list(m.radii)} for m in d.members]}
    if isinstance(d, Sublevel):
        out = {"variant": "sublevel", "dimension": d.dimension,
               "expression": ex.to_text(d.expr), "level": d.level}
        if d.box_center is not None:
            out["box_center"] = _ctuple_to_list(d.box_center)
            out["box_radii"] = list(d.box_radii)
        if d.interior_hint is not None:
            out["interior_hint"] = _ctuple_to_list(d.interior_hint)
        return out
    if isinstance(d, Intersection):
        return {"variant": "intersection", "dimension": d.dimension,
                "members": [domain_to_dict(m) for m in d.members]}
    if isinstance(d, WholeSpace):
        return {"variant": "whole_space", "dimension": d.dimension}
    raise TypeError(f"not a domain: {d!r}")


def domain_from_dict(spec: dict, path: str = "domain"):
    variant = spec.get("variant")
    if variant == "ball":
        return Ball(_list_to_ctuple(spec["center"], f"{path}.center"),
                    spec["radius"])
    if variant == "polydisc":
        return Polydisc(_list_to_ctuple(spec["center"], f"{path}.center"),
                        tuple(spec["radii"]))
    if variant == "reinhardt_union":
        members = []
        for i, m in enumerate(spec["members"]):
            radii = tuple(m["radii"])
            members.append(Polydisc((0,) * len(radii), radii))
        return ReinhardtUnion(tuple(members))
    if variant == "sublevel":
        n = int(spec["dimension"])
        f = ex.parse(spec["expression"], n)
        kwargs = {}
        if "box_center" in spec:
            kwargs["box_center"] = _list_to_ctuple(spec["box_center"],
                                                   f"{path}.box_center")
            kwargs["box_radii"] = tuple(spec["box_radii"])
        if "interior_hint" in spec:
            kwargs["interior_hint"] = _list_to_ctuple(spec["interior_hint"],
                                                      f"{path}.interior_hint")
        return Sublevel(f, spec.get("level", 0.0), n, **kwargs)
    if variant == "intersection":
        return Intersection(tuple(domain_from_dict(m, f"{path}.members[{i}]")
                                  for i, m in enumerate(spec["members"])))
    if variant == "whole_space":
        return WholeSpace(int(spec["dimension"]))
    raise LevikitError(f"{path}.variant: unknown variant {variant!r}")


def hartogs_figure() -> ReinhardtUnion:
    """The standard non-log-convex Reinhardt example in C^2."""
    e = math.e
    return ReinhardtUnion((Polydisc((0, 0), (e, e * e)),
                           Polydisc((0, 0), (e * e, e))))
