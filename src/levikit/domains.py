"""Declarative domain descriptions with membership, sampling and distances.

Each variant is one class that owns its geometry; ``Domain`` holds the
shared defaults.  The module functions are the entry points: they normalize
the point once and resolve the metric, then call the variant's methods.

Every distance-consuming operation takes a ``metric`` parameter
("euclidean" or "linfty", complex-modulus max norm); passing None selects
the variant's natural metric: Euclidean for balls and sublevel sets, L-infinity
for polydiscs and Reinhardt unions.  Mixing metrics silently is the likeliest
correctness bug in this problem family, hence the explicit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps

import numpy as np

from . import calculus as lc
from . import expr as ex
from .errors import LevikitError, PointOutsideDomain, UnsupportedMetric
from .sampling import disc_points, rejection_sample, unit_vector

EUCLIDEAN = "euclidean"
LINFTY = "linfty"
_LEVEL_TOL = 1e-10


def _as_ctuple(v):
    return tuple(complex(x) for x in np.atleast_1d(np.asarray(v, dtype=complex)))


def _as_rtuple(v):
    return tuple(float(x) for x in np.atleast_1d(np.asarray(v, dtype=float)))


def _ctuple_to_list(t):
    return [[x.real, x.imag] for x in t]


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


_VARIANTS = {}


class Domain:
    """Defaults shared by the variants.  A variant implements ``contains``,
    ``interior_distance``, ``to_dict`` and ``from_dict``; its class statement
    names it and registers it for ``domain_from_dict``.  Every ``zz`` passed
    in is a point already normalized by ``ex.as_point``; ``contains`` and
    ``interior_distance`` also take an (m, n) array of such points and
    answer one value per row."""

    def __init_subclass__(cls, variant: str, natural_metric: str = EUCLIDEAN):
        super().__init_subclass__()
        cls.variant = variant
        cls.natural_metric = natural_metric
        _VARIANTS[variant] = cls

    def bounding_polydisc(self) -> Polydisc:
        """A polydisc containing the domain, used for rejection sampling."""
        raise LevikitError(f"no bounding region for {type(self).__name__}")

    def interior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection sampling from the bounding polydisc, shape (count, n)."""
        box = self.bounding_polydisc()
        center = np.asarray(box.center)

        def draw():
            z = center + disc_points(rng, box.radii)
            try:
                return z if self.contains(z) else None
            except LevikitError:
                return None

        samples, _ = rejection_sample(
            draw, count, max(1000, 200 * count),
            f"interior sampling of {type(self).__name__} failed")
        return np.array(samples)

    def boundary_sample(self, count: int, rng: np.random.Generator) -> BoundarySamples:
        raise LevikitError(f"boundary sampling not supported for {type(self).__name__}")

    def approach_paths(self, count, rng, steps, metric) -> list | None:
        """Exact paths for the exhaustion probe; None where there are none."""
        return None

    def point_paths(self, count: int, seed: int, steps: int) -> list:
        """Paths for a function evaluated at float points, with no closed-form
        distance (None): the segments from seeded boundary samples to one
        interior anchor at t = 10^-k, kept where inside."""
        anchor = interior_sample(self, 1, seed)[0]
        paths = []
        for s in boundary_sample(self, count, seed + 1):
            b = np.asarray(s.point)
            points = (b + t * (anchor - b) for t in approach_parameters(steps))
            paths.append([(z, None) for z in points if contains(self, z)])
        return paths

    def exterior_distance(self, zz, metric) -> float:
        raise LevikitError(f"exterior distance not available for {type(self).__name__}")

    def defining_expr(self, face: int | None = None) -> ex.Expr:
        """A defining function: global, or for one face where faces exist."""
        raise LevikitError(f"no global defining function for {type(self).__name__}")


def _per_row(method):
    """Answer an (m, n) array with one call of a one-point method per row:
    for the variants whose array arithmetic would round differently."""
    @wraps(method)
    def rows_or_point(self, zz, *args):
        if zz.ndim == 2:
            return np.array([method(self, z, *args) for z in zz])
        return method(self, zz, *args)
    return rows_or_point


def _nudge_outside(d, z, center, part):
    """Scale ``z[part] - center[part]`` outward by ulps until membership fails.

    Analytic boundary points round to either side of the surface; samples
    are contractually outside the open set, so push across when needed.
    """
    for _ in range(8):
        if not d.contains(z):
            break
        z[part] = center[part] + (z[part] - center[part]) * (1.0 + 4e-16)
    return z


@dataclass(frozen=True)
class Ball(Domain, variant="ball"):
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

    @_per_row
    def contains(self, zz) -> bool:
        return float(np.linalg.norm(zz - np.asarray(self.center))) < self.radius

    def bounding_polydisc(self) -> Polydisc:
        return Polydisc(self.center, (self.radius,) * self.dimension)

    def interior_sample(self, count, rng):
        n = self.dimension
        center = np.asarray(self.center)
        out = np.empty((count, n), dtype=complex)
        for i in range(count):
            u = unit_vector(rng, n)
            out[i] = center + self.radius * rng.uniform() ** (1.0 / (2 * n)) * u
        return out

    def boundary_sample(self, count, rng):
        center = np.asarray(self.center)
        samples = []
        for _ in range(count):
            u = unit_vector(rng, self.dimension)
            z = _nudge_outside(self, center + self.radius * u, center, ...)
            samples.append(BoundarySample(tuple(z), tuple(u), "sphere"))
        return BoundarySamples(tuple(samples))

    def approach_paths(self, count, rng, steps, metric):
        """Radial paths c + (1 - t) R u to boundary samples.  d(t) is R t, or
        in L-infinity the root of ``_ball_interior_linfty`` at a = (1 - t) R |u|,
        rewritten so that no digits cancel as t -> 0."""
        center = np.asarray(self.center)
        r, n = self.radius, self.dimension
        paths = []
        for s in self.boundary_sample(count, rng):
            u = np.asarray(s.point) - center
            u = u / np.linalg.norm(u)
            s1 = float(np.sum(np.abs(u)))

            def dist(t):
                if metric == EUCLIDEAN:
                    return r * t
                return r * t * (2.0 - t) / ((1.0 - t) * s1 + math.sqrt(
                    ((1.0 - t) * s1) ** 2 + n * t * (2.0 - t)))

            paths.append([(center + (1.0 - t) * r * u, dist(t))
                          for t in approach_parameters(steps)])
        return paths

    @_per_row
    def interior_distance(self, zz, metric) -> float:
        if metric == EUCLIDEAN:
            return self.radius - float(np.linalg.norm(zz - np.asarray(self.center)))
        return _ball_interior_linfty(np.abs(zz - np.asarray(self.center)),
                                     self.radius)

    def exterior_distance(self, zz, metric) -> float:
        if metric == EUCLIDEAN:
            return float(np.linalg.norm(zz - np.asarray(self.center))) - self.radius
        return _ball_exterior_linfty(np.abs(zz - np.asarray(self.center)),
                                     self.radius)

    def defining_expr(self, face=None) -> ex.Expr:
        total = ex.const(-self.radius ** 2)
        for j, c in enumerate(self.center):
            total = ex.add(total, ex.abs2(ex.sub(ex.var(j + 1), ex.const(c))))
        return total

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension,
                "center": _ctuple_to_list(self.center), "radius": self.radius}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(ex.point_from_pairs(spec["center"], f"{path}.center"),
                   spec["radius"])


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


@dataclass(frozen=True)
class Polydisc(Domain, variant="polydisc", natural_metric=LINFTY):
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

    def contains(self, zz):
        return (np.abs(zz - np.asarray(self.center)) < np.asarray(self.radii)).all(axis=-1)

    def bounding_polydisc(self) -> Polydisc:
        return self

    def boundary_sample(self, count, rng):
        n = self.dimension
        center = np.asarray(self.center)
        samples = []
        for _ in range(count):
            face = int(rng.integers(n))
            phase = np.exp(2j * np.pi * rng.uniform())
            z = center + disc_points(rng, self.radii)
            z[face] = center[face] + self.radii[face] * phase
            z = _nudge_outside(self, z, center, face)
            outward = np.zeros(n, dtype=complex)
            outward[face] = phase
            samples.append(BoundarySample(tuple(z), tuple(outward),
                                          f"face-{face + 1}", face_index=face))
        return BoundarySamples(tuple(samples))

    def approach_paths(self, count, rng, steps, metric):
        faces = [(np.asarray(s.point), s.face_index, self.radii[s.face_index])
                 for s in self.boundary_sample(count, rng)]
        return _face_paths((self,), faces, steps, np.asarray(self.center))

    def interior_distance(self, zz, metric):
        # for interior points the Euclidean and L-infinity gaps coincide:
        # only the binding face coordinate needs to move
        return (np.asarray(self.radii) - np.abs(zz - np.asarray(self.center))).min(axis=-1)

    def exterior_distance(self, zz, metric) -> float:
        over = np.maximum(np.abs(zz - np.asarray(self.center))
                          - np.asarray(self.radii), 0.0)
        if metric == EUCLIDEAN:
            return float(np.linalg.norm(over))
        return float(np.max(over))

    def defining_expr(self, face=None) -> ex.Expr:
        """Local defining function |z_j - c_j|^2 - r_j^2 for face j."""
        if face is None:
            return super().defining_expr()
        return ex.sub(ex.abs2(ex.sub(ex.var(face + 1), ex.const(self.center[face]))),
                      ex.const(self.radii[face] * self.radii[face]))

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension,
                "center": _ctuple_to_list(self.center), "radii": list(self.radii)}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(ex.point_from_pairs(spec["center"], f"{path}.center"),
                   tuple(spec["radii"]))


@dataclass(frozen=True)
class ReinhardtUnion(Domain, variant="reinhardt_union", natural_metric=LINFTY):
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("ReinhardtUnion needs at least one member polydisc")
        n = self.members[0].dimension
        for m in self.members:
            if not isinstance(m, Polydisc):
                raise ValueError("ReinhardtUnion members must be polydiscs")
            if m.dimension != n:
                raise ValueError("ReinhardtUnion members must share dimension")
            if any(c != 0 for c in m.center):
                raise ValueError("ReinhardtUnion members must be centered at 0")

    @property
    def dimension(self):
        return self.members[0].dimension

    def contains(self, zz):
        return reduce(np.logical_or, (m.contains(zz) for m in self.members))

    def bounding_polydisc(self) -> Polydisc:
        return Polydisc((0,) * self.dimension,
                        np.max([m.radii for m in self.members], axis=0))

    def _exposed_faces(self, count, rng):
        """Seeded face points of the members that no member contains, as
        (point, face, face radius of the member drawn) triples."""
        def draw():
            owner = self.members[int(rng.integers(len(self.members)))]
            j = int(rng.integers(self.dimension))
            b = disc_points(rng, owner.radii)
            b[j] = owner.radii[j] * np.exp(2j * np.pi * rng.uniform())
            return None if self.contains(b) else (b, j, owner.radii[j])

        return rejection_sample(draw, count, 500 * count,
                                "no exposed Reinhardt face points found")[0]

    def boundary_sample(self, count, rng):
        samples = []
        for b, j, _ in self._exposed_faces(count, rng):
            outward = np.zeros(self.dimension, dtype=complex)
            outward[j] = b[j] / abs(b[j])
            samples.append(BoundarySample(tuple(b), tuple(outward), f"face-{j + 1}", j))
        return BoundarySamples(tuple(samples))

    def approach_paths(self, count, rng, steps, metric):
        return _face_paths(self.members, self._exposed_faces(count, rng), steps)

    def interior_distance(self, zz, metric):
        # callers have checked that zz is in the union; a member that misses
        # zz has a gap <= 0, so the largest gap is a containing member's
        return reduce(np.maximum, (m.interior_distance(zz, metric) for m in self.members))

    def exterior_distance(self, zz, metric) -> float:
        return min(m.exterior_distance(zz, metric) for m in self.members)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension,
                "members": [{"radii": list(m.radii)} for m in self.members]}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(tuple(Polydisc((0,) * len(m["radii"]), tuple(m["radii"]))
                         for m in spec["members"]))


def _face_paths(members, faces, steps, center=None):
    """Paths that move z_j of each face point (b, j, r) of polydiscs centred at
    ``center`` (the origin, never added, when None) to c_j + (1 - t) r phase.
    d(t) is the largest gap over the members holding the point, the face gap
    formed as (r_m - r) + t r to stay exact as t -> 0.  ``np.abs`` of an array
    and ``abs`` of one entry can differ in the last bit; each variant keeps
    the one its reports were made with."""
    paths = []
    for b, j, r in faces:
        if center is None:
            offsets, moduli = b, np.abs(b)
        else:
            offsets = b - center
            moduli = [abs(x) for x in offsets]
        phase = offsets[j] / abs(offsets[j])

        def point(t):
            z = b.copy()
            z[j] = (1.0 - t) * r * phase
            if center is not None:
                z[j] += center[j]
            return z

        def dist(t):
            best = 0.0
            for m in members:
                gap = min((m.radii[k] - r) + t * r if k == j else m.radii[k] - moduli[k]
                          for k in range(len(b)))
                if gap > 0:
                    best = max(best, gap)
            return best

        paths.append([(point(t), dist(t)) for t in approach_parameters(steps)])
    return paths


@dataclass(frozen=True)
class Sublevel(Domain, variant="sublevel"):
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
        if any(v is not None and len(v) != self.dimension for v in
               (self.box_center, self.box_radii, self.interior_hint)):
            raise ValueError("box_center, box_radii and interior_hint need "
                             "one entry per dimension")

    @_per_row
    def contains(self, zz) -> bool:
        return ex.evaluate(self.expr, zz).real < self.level

    def bounding_polydisc(self) -> Polydisc:
        if self.box_center is None:
            raise LevikitError("Sublevel domain needs a bounding box for sampling")
        return Polydisc(self.box_center, self.box_radii)

    def _interior_point(self, rng) -> np.ndarray:
        if self.interior_hint is not None:
            z0 = np.asarray(self.interior_hint)
            if self.contains(z0):
                return z0
        return self.interior_sample(1, rng)[0]

    def boundary_sample(self, count, rng):
        """Bisection along random rays from an interior point."""
        z0 = self._interior_point(rng)
        box = self.bounding_polydisc()
        t_max = 2.0 * float(np.sum(box.radii)) + float(np.linalg.norm(
            z0 - np.asarray(box.center)))

        def draw():
            u = unit_vector(rng, self.dimension)
            # f - level < 0 at z0; 10 doublings end at 0.512 * t_max
            z_out = self._march(z0, u, 1e-3 * t_max, -1.0, 10)
            if z_out is None:
                return None
            z = _bisect_level(self.expr, self.level, z0, z_out, outside=True)
            g = self._gradient(z)
            gn = np.linalg.norm(g)
            outward = tuple(g / gn) if gn > 1e-12 else None
            return BoundarySample(tuple(z), outward, "level-set")

        samples, skipped_rays = rejection_sample(draw, count, 100 * count,
                                                 "sublevel boundary sampling failed")
        return BoundarySamples(tuple(samples), skipped_rays)

    def _gradient(self, b) -> np.ndarray:
        """Steepest-ascent direction of the defining function as a complex vector."""
        return np.conj(lc.complex_gradient(self.expr, b).components)

    def _march(self, z, direction, s, v, steps):
        """The first point ``z + s * direction``, ``s`` doubling ``steps``
        times, where f - level changes sign against ``v`` (f - level at
        ``z``, or a value of its sign); None when no point does, or when f
        cannot be evaluated at one."""
        for _ in range(steps):
            probe = z + s * direction
            try:
                vp = ex.evaluate(self.expr, probe).real - self.level
            except LevikitError:
                return None
            if vp * v <= 0:
                return probe
            s *= 2.0
        return None

    def _reproject_to_level(self, c):
        """Pull a near-boundary point back onto the level set along the gradient."""
        v = ex.evaluate(self.expr, c).real - self.level
        if abs(v) <= _LEVEL_TOL:
            return c
        g = self._gradient(c)
        gn = np.linalg.norm(g)
        if gn < 1e-12:
            return None
        probe = self._march(c, -np.sign(v) * (g / gn), abs(v) / gn, v, 60)
        if probe is None:
            return None
        inside_pt, outside_pt = (c, probe) if v < 0 else (probe, c)
        return _bisect_level(self.expr, self.level, inside_pt, outside_pt)

    def _foot_point(self, z, b0):
        """Slide a boundary point along the level set toward the query point."""
        b = np.asarray(b0)
        best = float(np.linalg.norm(z - b))
        for _ in range(12):
            g = self._gradient(b)
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
                candidate = self._reproject_to_level(b + scale * tang)
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

    @_per_row
    def interior_distance(self, zz, metric) -> float:
        """Sample-based distance to the level set, refined to the nearest foot point.

        Resolution-limited: the refinement starts from the nearest of 512 seeded
        boundary samples, so badly undersampled level-set branches can be missed.
        """
        pts = _cached_boundary_points(self)
        dists = np.array([_norm(zz - b, metric) for b in pts])
        best = float(np.min(dists))
        for idx in np.argsort(dists)[:3]:
            refined = self._foot_point(zz, pts[idx])
            best = min(best, _norm(zz - refined, metric))
        return best

    exterior_distance = interior_distance

    def defining_expr(self, face=None) -> ex.Expr:
        return ex.sub(self.expr, ex.const(self.level))

    def to_dict(self) -> dict:
        out = {"variant": self.variant, "dimension": self.dimension,
               "expression": ex.to_text(self.expr), "level": self.level}
        if self.box_center is not None:
            out["box_center"] = _ctuple_to_list(self.box_center)
            out["box_radii"] = list(self.box_radii)
        if self.interior_hint is not None:
            out["interior_hint"] = _ctuple_to_list(self.interior_hint)
        return out

    @classmethod
    def from_dict(cls, spec, path):
        n = int(spec["dimension"])
        f = ex.parse(spec["expression"], n)
        kwargs = {}
        if "box_center" in spec:
            kwargs["box_center"] = ex.point_from_pairs(spec["box_center"],
                                                       f"{path}.box_center")
            kwargs["box_radii"] = tuple(spec["box_radii"])
        if "interior_hint" in spec:
            kwargs["interior_hint"] = ex.point_from_pairs(
                spec["interior_hint"], f"{path}.interior_hint")
        return cls(f, spec.get("level", 0.0), n, **kwargs)


def _norm(v, metric):
    """Norm in a metric the entry points have already checked."""
    if metric == EUCLIDEAN:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def _bisect_level(f: ex.Expr, level, z_in, z_out, outside: bool = False):
    """Point on the segment [z_in, z_out] with |f - level| <= _LEVEL_TOL.

    With ``outside`` the returned point additionally satisfies f >= level
    (it is the outer bracket endpoint), so it never re-enters the open set;
    every outer endpoint but z_out is a midpoint, tested when evaluated.
    """
    lo, hi = 0.0, 1.0
    seg = z_out - z_in
    if outside:
        z_hi = z_in + hi * seg
        if 0 <= ex.evaluate(f, z_hi).real - level <= _LEVEL_TOL:
            return z_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = z_in + mid * seg
        v = ex.evaluate(f, z).real - level
        on_level = 0 <= v <= _LEVEL_TOL if outside else abs(v) <= _LEVEL_TOL
        if on_level:
            return z
        if v < 0:
            lo = mid
        else:
            hi = mid
    return z_in + (hi if outside else 0.5 * (lo + hi)) * seg


@lru_cache(maxsize=64)
def _cached_boundary_points(d):
    return np.array([s.point for s in boundary_sample(d, 512, 0).samples])


@dataclass(frozen=True)
class Intersection(Domain, variant="intersection"):
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("Intersection needs at least one member")
        n = self.members[0].dimension
        if any(m.dimension != n for m in self.members):
            raise ValueError("Intersection members must share dimension")

    @property
    def dimension(self):
        return self.members[0].dimension

    def contains(self, zz):
        # as all() would: no member is asked once every row is outside
        inside = True
        for m in self.members:
            inside = np.logical_and(inside, m.contains(zz))
            if not np.any(inside):
                break
        return inside

    def bounding_polydisc(self) -> Polydisc:
        boxes = []
        for m in self.members:
            try:
                boxes.append(m.bounding_polydisc())
            except LevikitError:
                continue
        if not boxes:
            raise LevikitError("Intersection has no bounded member to sample from")
        return min(boxes, key=lambda b: float(np.prod(b.radii)))

    def interior_distance(self, zz, metric):
        return reduce(np.minimum, (m.interior_distance(zz, metric) for m in self.members))

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension,
                "members": [m.to_dict() for m in self.members]}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(tuple(domain_from_dict(m, f"{path}.members[{i}]")
                         for i, m in enumerate(spec["members"])))


@dataclass(frozen=True)
class WholeSpace(Domain, variant="whole_space"):
    dimension: int

    def contains(self, zz):
        return np.full(zz.shape[:-1], True)

    def interior_sample(self, count, rng):
        n = self.dimension
        return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))

    def interior_distance(self, zz, metric):
        return np.full(zz.shape[:-1], math.inf)

    def approach_paths(self, count, rng, steps, metric):
        """Outward rays (1 + k) u, k < steps, at infinite distance."""
        return [[((1.0 + k) * u, math.inf) for k in range(steps)]
                for u in (unit_vector(rng, self.dimension) for _ in range(count))]

    def point_paths(self, count, seed, steps):
        """No boundary for float points to round onto: the outward rays."""
        return self.approach_paths(count, np.random.default_rng(seed), steps, None)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(int(spec["dimension"]))


# ---------------------------------------------------------------------------
# entry points: normalize the point once, then call the variant

def _metric(d, metric):
    """The metric asked for, or the variant's natural one for None."""
    if metric is None:
        return d.natural_metric
    if metric not in (EUCLIDEAN, LINFTY):
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    return metric


def contains(d, z) -> bool:
    """Exact membership per variant; all inequalities are strict (open sets)."""
    return bool(d.contains(ex.as_point(z, d.dimension)))


def interior_sample(d, count: int, seed: int) -> np.ndarray:
    """Seeded interior points, shape (count, n)."""
    return interior_sample_rng(d, count, np.random.default_rng(seed))


def interior_sample_rng(d, count: int, rng: np.random.Generator) -> np.ndarray:
    """Interior points drawn from an existing generator."""
    return d.interior_sample(count, rng)


def boundary_sample(d, count: int, seed: int) -> BoundarySamples:
    """Seeded points on the boundary, accurate to ~1e-8 per variant.

    Supported variants: Ball and Polydisc (analytic), ReinhardtUnion (exposed
    member faces) and Sublevel with a bounding box (bisection along random
    rays from an interior point).
    """
    return d.boundary_sample(count, np.random.default_rng(seed))


def approach_parameters(steps: int) -> list:
    """The path parameters t = 10^-k, k < steps, of the exhaustion probe."""
    return [10.0 ** (-k) for k in range(steps)]


def approach_paths(d, count: int, seed: int, steps: int, metric: str | None = None):
    """Seeded exact paths for the exhaustion probe, ``steps`` (point, distance)
    pairs each with d in closed form: to the boundary at ``approach_parameters``,
    or outward rays at infinite distance.  A variant without them gives its
    ``point_paths``."""
    paths = d.approach_paths(count, np.random.default_rng(seed), steps, _metric(d, metric))
    return d.point_paths(count, seed, steps) if paths is None else paths


def distance_to_boundary(d, z, metric: str | None = None) -> float:
    """Distance from an interior point to the boundary in the chosen metric."""
    return float(distances_to_boundary(d, ex.as_point(z, d.dimension)[None], metric)[0])


def distances_to_boundary(d, rows, metric: str | None = None) -> np.ndarray:
    """``distance_to_boundary`` of each row of an (m, n) array, as one array
    call on the closed-form variants; PointOutsideDomain if any row is outside."""
    zz = np.asarray(rows, dtype=complex)
    if zz.ndim != 2 or zz.shape[1] != d.dimension:
        raise ValueError(f"expected rows of dimension {d.dimension}, got shape {zz.shape}")
    metric = _metric(d, metric)
    inside = d.contains(zz)
    if not inside.all():
        raise PointOutsideDomain(f"{tuple(zz[np.argmin(inside)])} is not inside the domain")
    return d.interior_distance(zz, metric)


def signed_distance(d, z, metric: str | None = None) -> float:
    """Negative inside the closure, positive outside, ~0 on the boundary."""
    zz = ex.as_point(z, d.dimension)
    metric = _metric(d, metric)
    if d.contains(zz):
        return -float(d.interior_distance(zz, metric))
    return d.exterior_distance(zz, metric)


def domain_from_dict(spec: dict, path: str = "domain"):
    """Build a domain from its config form; ``dimension`` must match the data."""
    variant = spec.get("variant")
    cls = _VARIANTS.get(str(variant))
    if cls is None:
        raise LevikitError(f"{path}.variant: unknown variant {variant!r}")
    d = cls.from_dict(spec, path)
    declared = spec.get("dimension", d.dimension)
    if declared != d.dimension:
        raise LevikitError(f"{path}.dimension: declared {declared!r}, but the "
                           f"domain data has {d.dimension} coordinates")
    return d


def hartogs_figure() -> ReinhardtUnion:
    """The standard non-log-convex Reinhardt example in C^2."""
    e = math.e
    return ReinhardtUnion((Polydisc((0, 0), (e, e * e)),
                           Polydisc((0, 0), (e * e, e))))
