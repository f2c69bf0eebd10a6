"""Declarative domain descriptions with membership, sampling and distances.

Each variant is one class that owns its geometry; ``Domain`` holds the
shared defaults.  The module functions are the entry points: they normalize
the point once, lift it to one row and resolve the metric, then call the
variant's methods.

Every distance-consuming operation takes a ``metric`` parameter
("euclidean" or "linfty", complex-modulus max norm); passing None selects
the variant's natural metric: Euclidean for balls and sublevel sets, L-infinity
for polydiscs and Reinhardt unions.  Mixing metrics silently is the likeliest
correctness bug in this problem family, hence the explicit parameter.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce, wraps

import numpy as np

from . import calculus as lc
from . import expr as ex
from .errors import (ConfigError, LevikitError, PointOutsideDomain, SamplingExhausted,
                     UnsupportedMetric)
from .modulus import ModulusGeometry
from .norms import EUCLIDEAN, LINFTY, norm, row_norms
from .sampling import block_values, disc_points, disc_points_at, rejection_sample, unit_vector

_LEVEL_TOL = 1e-10
# rejection-sampling candidates drawn and tested at once per missing point;
# about 4 are needed per point of the Hartogs figure, so 8 mostly take one round
_CANDIDATE_BLOCK = 8


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
    names it and registers it for ``domain_from_dict``.  ``contains`` and
    ``interior_distance`` take rows only: an (m, n) complex array, answered
    with one value per row.  ``exterior_distance`` takes one point, a 1-d
    array from ``ex.as_point``.  The entry points ``contains``,
    ``distance_to_boundary`` and ``signed_distance`` lift a point to one
    row; code here that tests one point calls ``contains(d, z)``."""

    def __init_subclass__(cls, variant: str, natural_metric: str = EUCLIDEAN):
        super().__init_subclass__()
        cls.variant = variant
        cls.natural_metric = natural_metric
        _VARIANTS[variant] = cls

    def bounding_polydisc(self) -> Polydisc:
        """A polydisc containing the domain, used for rejection sampling."""
        raise LevikitError(f"no bounding region for {type(self).__name__}")

    def interior_sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection sampling from the bounding polydisc, shape (count, n),
        within 1000 candidates per point.  Each round draws
        ``_CANDIDATE_BLOCK`` candidates per missing point and one ``contains``
        call tests them all; when it raises a LevikitError, each candidate
        is tested alone and one that raises is rejected.  Points, budget
        and final state are those of one draw and test per candidate: when
        the last round ran past the count-th sample, the generator is set
        back to its state on entry and redraws the used candidates, which
        keeps a buffered 32-bit half."""
        box = self.bounding_polydisc()
        n, budget = self.dimension, 1000 * max(count, 1)
        start = rng.bit_generator.state
        got, drawn = [], 0
        while len(got) < count:
            if drawn == budget:
                raise SamplingExhausted(f"interior sampling of {type(self).__name__} failed",
                                        len(got) / budget)
            size = min(_CANDIDATE_BLOCK * (count - len(got)), budget - drawn)
            z = np.asarray(box.center) + disc_points_at(rng.uniform(size=(size, n, 2)),
                                                        box.radii)
            try:
                inside = self.contains(z)
            except LevikitError:
                inside = [bool(v and v[0]) for v in block_values(self.contains, z[:, None])]
            hits = np.flatnonzero(inside)[:count - len(got)]
            got.extend(z[hits])
            drawn += size
        if count and hits[-1] + 1 < size:
            rng.bit_generator.state = start
            rng.uniform(size=(drawn - size + hits[-1] + 1, n, 2))
        return np.array(got).reshape(count, n)

    def boundary_sample(self, count: int, rng: np.random.Generator) -> BoundarySamples:
        raise LevikitError(f"boundary sampling not supported for {type(self).__name__}")

    def point_paths(self, count: int, seed: int, steps: int) -> list:
        """The exhaustion probe's paths, one (k, n) array each: the segments
        from seeded boundary samples to one interior anchor at the
        ``approach_parameters`` t, kept where one ``contains`` call on the
        path's rows finds them inside."""
        anchor = interior_sample(self, 1, seed)[0]
        t = np.array(approach_parameters(steps))[:, None]
        paths = []
        for s in boundary_sample(self, count, seed + 1):
            b = np.asarray(s.point)
            zz = b + t * (anchor - b)
            paths.append(zz[self.contains(zz)])
        return paths

    def exterior_distance(self, zz, metric) -> float:
        raise LevikitError(f"exterior distance not available for {type(self).__name__}")

    def defining_expr(self, face: int | None = None) -> ex.Expr:
        """A defining function: global, or for one face where faces exist."""
        raise LevikitError(f"no global defining function for {type(self).__name__}")


def _once(method):
    """A method of no arguments whose first value is kept on the instance:
    the frozen variants build their bounding polydisc and programs once."""
    name = f"_{method.__name__}_value"

    @wraps(method)
    def cached(self):
        try:
            return self.__dict__[name]
        except KeyError:
            value = self.__dict__[name] = method(self)
            return value
    return cached


def _nudge_outside(d, z, center, part):
    """Scale ``z[part] - center[part]`` outward by ulps until membership fails.

    Analytic boundary points round to either side of the surface; samples
    are contractually outside the open set, so push across when needed.
    """
    for _ in range(8):
        if not contains(d, z):
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

    def contains(self, zz):
        return row_norms(zz - np.asarray(self.center), EUCLIDEAN) < self.radius

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

    def interior_distance(self, zz, metric):
        gaps = zz - np.asarray(self.center)
        if metric == EUCLIDEAN:
            return self.radius - row_norms(gaps, EUCLIDEAN)
        return _ball_interior_linfty(np.abs(gaps), self.radius)

    def exterior_distance(self, zz, metric) -> float:
        if metric == EUCLIDEAN:
            return norm(zz - np.asarray(self.center), EUCLIDEAN) - self.radius
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


def _ball_interior_linfty(a_gaps, radius):
    # per row of gaps a, the largest t with the closed polydisc of radius t
    # inside the ball: n t^2 + 2 t sum(a) + (sum(a^2) - r^2) = 0, positive root
    n = a_gaps.shape[-1]
    s1 = np.sum(a_gaps, axis=-1)
    s2 = np.sum(a_gaps ** 2, axis=-1)
    return (-s1 + np.sqrt(s1 * s1 - n * (s2 - radius * radius))) / n


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
        # for finite moduli fl(r - m) > 0 exactly when m < r; a NaN or
        # infinite modulus is outside both ways
        return self.gap_moduli(np.abs(zz - np.asarray(self.center))) > 0

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

    def interior_distance(self, zz, metric):
        # for interior points the Euclidean and L-infinity gaps coincide:
        # only the binding face coordinate needs to move
        return self.gap_moduli(np.abs(zz - np.asarray(self.center)))

    def gap_moduli(self, moduli):
        """``interior_distance`` from the moduli |z - center| of the points,
        folded over the columns: a min along short rows is slow."""
        return reduce(np.minimum, [r - m for r, m in zip(self.radii, moduli.T)])

    def exterior_distance(self, zz, metric) -> float:
        over = np.maximum(np.abs(zz - np.asarray(self.center))
                          - np.asarray(self.radii), 0.0)
        if metric == EUCLIDEAN:
            return norm(over, EUCLIDEAN)
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
        return self._gap(np.abs(zz)) > 0

    def _gap(self, moduli):
        # the largest member gap: a member that misses a row has a gap <= 0;
        # members are centred at 0, so |z| is each member's |z - c|, bit for bit
        return reduce(np.maximum, (m.gap_moduli(moduli) for m in self.members))

    @_once
    def bounding_polydisc(self) -> Polydisc:
        return Polydisc((0,) * self.dimension,
                        np.max([m.radii for m in self.members], axis=0))

    def boundary_sample(self, count, rng):
        """Seeded face points of the members that no member contains."""
        def draw():
            owner = self.members[int(rng.integers(len(self.members)))]
            j = int(rng.integers(self.dimension))
            b = disc_points(rng, owner.radii)
            b[j] = owner.radii[j] * np.exp(2j * np.pi * rng.uniform())
            if contains(self, b):
                return None
            outward = np.zeros(self.dimension, dtype=complex)
            outward[j] = b[j] / abs(b[j])
            return BoundarySample(tuple(b), tuple(outward), f"face-{j + 1}", j)

        samples = rejection_sample(draw, count, 500 * count,
                                   "no exposed Reinhardt face points found")[0]
        return BoundarySamples(tuple(samples))

    def interior_distance(self, zz, metric):
        """Distance from each row to the boundary.  D is Reinhardt, so it is
        the distance from the moduli s = |z| to the complement's modulus
        image (Jarnicki & Pflug 2008, ch. 1), the union of the orthants
        t >= c over its minimal corners c (``_corners``): the least norm of
        (c - s)+.  Under linfty that is the largest member gap, ``_gap``.
        Under euclidean each corner's norm is a fold of np.hypot, exact
        where one coordinate binds, so a one-member union keeps the
        polydisc's bits; at a re-entrant corner the largest member gap is
        only a lower bound."""
        moduli = np.abs(zz)
        if metric == LINFTY:
            return self._gap(moduli)
        return reduce(np.minimum, (
            reduce(np.hypot, (np.maximum(c - m, 0.0) for c, m in zip(corner, moduli.T) if c))
            for corner in self._corners()))

    @_once
    def _corners(self):
        """The minimal corners c of the complement's modulus image: t >= 0
        is outside every member exactly when t >= c for one of them.  Built
        member by member from the corner 0: a corner outside the member
        stays, any other branches into one corner per coordinate, raised to
        the member's radius there; corners dominated by another are dropped."""
        corners = {(0.0,) * self.dimension}
        for m in self.members:
            grown = set()
            for c in corners:
                if any(a >= r for a, r in zip(c, m.radii)):
                    grown.add(c)
                else:
                    grown.update(c[:j] + (r,) + c[j + 1:] for j, r in enumerate(m.radii))
            corners = {c for c in grown
                       if not any(o != c and all(map(operator.le, o, c)) for o in grown)}
        return sorted(corners)

    def exterior_distance(self, zz, metric) -> float:
        return min(m.exterior_distance(zz, metric) for m in self.members)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension,
                "members": [{"radii": list(m.radii)} for m in self.members]}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(tuple(Polydisc((0,) * len(m["radii"]), tuple(m["radii"]))
                         for m in spec["members"]))


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

    def contains(self, zz):
        return ex.row_values(self._value_program(), zz)[:, 0].real < self.level

    @_once
    def _value_program(self):
        return ex.program((self.expr,))

    @_once
    def _gradient_program(self):
        return ex.program(lc._grad_trees(self.expr, self.dimension))

    @_once
    def bounding_polydisc(self) -> Polydisc:
        if self.box_center is None:
            raise LevikitError("Sublevel domain needs a bounding box for sampling")
        return Polydisc(self.box_center, self.box_radii)

    def _interior_point(self, rng) -> np.ndarray:
        if self.interior_hint is not None:
            z0 = np.asarray(self.interior_hint)
            if contains(self, z0):
                return z0
        return self.interior_sample(1, rng)[0]

    def boundary_sample(self, count, rng):
        """Bisection along random rays from an interior point z0.

        Rays are drawn in rounds, each of as many rays as samples are still
        missing (within the budget of 100 rays per sample), one unit vector
        per ray in draw order.  A round runs as row calls of the compiled
        programs (``expr.program``): the march doubles the step
        from 1e-3 * t_max 10 times, so its last probe is at 0.512 * t_max,
        and skips a ray that crosses no level there or meets a point where
        f raises a LevikitError; ``_bisect_rows`` then brackets every
        crossing ray's level point from outside in lockstep, and one
        gradient call gives the outward normals.  Samples, skipped rays and
        errors are those of one ray at a time: of the rays whose bisection
        or gradient raises, the first in draw order raises.
        """
        z0 = self._interior_point(rng)
        box = self.bounding_polydisc()
        t_max = 2.0 * float(np.sum(box.radii)) + norm(z0 - box.center, EUCLIDEAN)
        samples, drawn, budget = [], 0, 100 * count
        while len(samples) < count:
            if drawn == budget:
                raise SamplingExhausted("sublevel boundary sampling failed",
                                        len(samples) / budget)
            rays = min(count - len(samples), budget - drawn)
            u = np.array([unit_vector(rng, self.dimension) for _ in range(rays)])
            drawn += rays
            samples += [s for s in self._ray_samples(z0, u, t_max) if s is not None]
        return BoundarySamples(tuple(samples), drawn - len(samples))

    def _ray_samples(self, z0, u, t_max) -> list:
        """Per ray from z0 along a row of ``u``, its BoundarySample, or None
        for a skipped ray; raises the first error in ray order."""
        value = self._value_program()
        # f - level < 0 at z0: a crossing is a value of the other sign
        ends, crossed, errors = _march_rows(value, self.level, z0, u, 1e-3 * t_max, -1.0, 10)
        rays = np.flatnonzero(crossed)
        points, errs = _bisect_rows(value, self.level, z0, ends[rays] - z0)
        errors.update((int(rays[i]), err) for i, err in errs.items())
        ok = np.flatnonzero([j not in errs for j in range(len(rays))])
        kept, g, gn = self._gradients(points[ok], errors, rays[ok])
        if errors:
            raise errors[min(errors)]
        samples = [None] * len(u)
        for j, g_j, gn_j in zip(ok[kept].tolist(), g, gn.tolist()):
            samples[rays[j]] = BoundarySample(tuple(points[j]), tuple(g_j / gn_j)
                                              if gn_j > 1e-12 else None, "level-set")
        return samples

    def interior_distance(self, zz, metric):
        """Distance from each row to the level set {f = level}.

        When f depends on z only through the moduli |z_j| (``ex.moduli_only``),
        the distance is exact: d(z) = dist(|z|, Γ) in the same metric, with
        Γ = {s >= 0 : f(s) = level}, since aligning the phases of a boundary
        point with those of z keeps it on the boundary and moves it no
        farther (Jarnicki & Pflug, First Steps in Several Complex Variables:
        Reinhardt Domains, EMS 2008, ch. 1).  Γ is meshed once per domain,
        on the first call, and each row's nearest mesh points are refined by
        Newton's method on the contact conditions of the metric (``modulus``).

        Every other expression keeps the sampled path: the nearest of 512
        seeded boundary samples, or a closer foot point of the Euclidean
        search that starts from each of the row's 3 nearest, measured in
        ``metric``.  The search runs every (row, start) pair of the call as
        one lockstep batch (``_foot_points``).  That is an upper bound on d,
        and badly undersampled level-set branches can be missed.
        """
        if self._moduli_only():
            return self._modulus_geometry().distances(zz, metric == EUCLIDEAN)
        return self._sampled_distance(zz, metric)

    def _sampled_distance(self, zz, metric):
        pts = _cached_boundary_points(self)
        nearest = [row_norms(z - pts, metric) for z in zz]
        best = np.array([np.min(d) for d in nearest])
        starts = np.array([np.argsort(d)[:3] for d in nearest], dtype=int).reshape(-1, 3)
        z = np.repeat(zz, 3, axis=0)
        feet = row_norms(z - self._foot_points(z, pts[starts.ravel()]), metric)
        for d in feet.reshape(-1, 3).T:
            best = np.where(d < best, d, best)   # min(best, d), which keeps best for a NaN d
        return best

    def _foot_points(self, z, b):
        """Per row pair of ``z`` and ``b``, b slid along the level set toward
        z: up to 12 steps along the tangential part of z - b, each to the
        first of the scales 1, 1/2, ..., 1/32 whose reprojection comes closer
        to z by more than 1e-15.  The pairs run in lockstep as row calls,
        each with the bits of its search alone; the first that raises raises."""
        b, errors, live = b.copy(), {}, np.arange(len(z))
        best = row_norms(z - b)
        for _ in range(12):
            if not live.size:
                break
            kept, g, gn = self._gradients(b[live], errors, live)
            steep = ~(gn < 1e-12)
            live, ghat = live[kept[steep]], g[steep] / gn[steep, None]
            diff = z[live] - b[live]
            # one np.dot per pair: np.vecdot differs in signed zeros at n = 1
            along = np.array(list(map(np.dot, diff, ghat.conj())), dtype=complex)
            tang = diff - along.real[:, None] * ghat
            # fmax is Python's max(1.0, best), which keeps 1.0 for a NaN best
            moving = ~(row_norms(tang) <= 1e-12 * np.fmax(best[live], 1.0))
            live, tang, moved = live[moving], tang[moving], [live[:0]]
            for k in range(6):
                if not live.size:
                    break
                i, c = self._reproject_rows(b[live] + 0.5 ** k * tang, errors, live)
                dist = row_norms(z[live[i]] - c)
                closer = dist < best[live[i]] - 1e-15
                won = live[i[closer]]
                b[won], best[won] = c[closer], dist[closer]
                moved.append(won)
                stays = np.array([p not in errors for p in live.tolist()], dtype=bool)
                stays[i[closer]] = False
                live, tang = live[stays], tang[stays]
            live = np.concatenate(moved)
        if errors:
            raise errors[min(errors)]
        return b

    def _reproject_rows(self, c, errors, pairs):
        """(indexes, points) of the rows of ``c`` that reach the level set: a
        row with |f - level| <= _LEVEL_TOL stays, any other marches along the
        gradient from |f - level| / |grad f| across it and bisects back.  A
        row's error goes to the dict ``errors`` under its entry of ``pairs``."""
        value = self._value_program()
        values, failed = _rows(value, c, errors, pairs)
        v = values[:, 0].real - self.level
        near = np.abs(v) <= _LEVEL_TOL
        on, off = np.flatnonzero((failed < 0) & near), np.flatnonzero((failed < 0) & ~near)
        kept, g, gn = self._gradients(c[off], errors, pairs[off])
        steep = ~(gn < 1e-12)
        off, g, gn = off[kept[steep]], g[steep], gn[steep]
        ends, crossed, errs = _march_rows(value, self.level, c[off],
                                          -np.sign(v[off])[:, None] * (g / gn[:, None]),
                                          np.abs(v[off]) / gn, v[off], 60)
        errors.update((int(pairs[off[i]]), err) for i, err in errs.items())
        off, ends = off[crossed], ends[crossed]
        below = (v[off] < 0)[:, None]
        z_in, z_out = np.where(below, c[off], ends), np.where(below, ends, c[off])
        points, errs = _bisect_rows(value, self.level, z_in, z_out - z_in, outside=False)
        errors.update((int(pairs[off[i]]), err) for i, err in errs.items())
        reached = np.flatnonzero([j not in errs for j in range(len(off))])
        return np.concatenate([on, off[reached]]), np.concatenate([c[on], points[reached]])

    def _gradients(self, zz, errors, pairs):
        """(indexes, conj(grad f), |grad f|) of the rows of ``zz`` where the
        gradient has a value; the others' errors go to ``errors``."""
        g, failed = _rows(self._gradient_program(), zz, errors, pairs)
        kept = np.flatnonzero(failed < 0)
        g = np.conj(g[kept])
        return kept, g, row_norms(g)

    @_once
    def _moduli_only(self):
        return ex.moduli_only(self.expr)

    @_once
    def _modulus_geometry(self) -> ModulusGeometry:
        box = self.bounding_polydisc()
        return ModulusGeometry(self.expr, self.level,
                               [abs(c) + r for c, r in zip(box.center, box.radii)])

    def exterior_distance(self, zz, metric) -> float:
        return float(self.interior_distance(zz[None], metric)[0])

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
        d = cls(f, spec.get("level", 0.0), n, **kwargs)
        if d.interior_hint is not None:
            gap = ex.evaluate(f, d.interior_hint).real - d.level
            if not gap < 0:
                raise ConfigError(f"{path}.interior_hint: f - level is {gap!r} "
                                  f"there, not below 0")
        return d


def _rows(prog, rows, errors, keys):
    """The program ``prog`` at ``rows``: (values, failed), with its error
    at each flagged row i entered under ``keys[i]``."""
    values, failed = prog(rows)
    errors.update((int(keys[i]), err) for i, err in ex.row_errors(prog, rows, failed).items())
    return values, failed


def _ray_points(z, t, directions):
    """The rows ``z + complex(t, 0.0) * d`` for the rows d of ``directions``,
    ``z`` and ``t`` (a column) shared or one per row: CPython's complex
    product and sum on the real and imaginary parts."""
    re, im = directions.real, directions.imag
    out = np.empty(np.broadcast_shapes(np.shape(t), directions.shape), dtype=complex)
    out.real = z.real + (t * re - 0.0 * im)
    out.imag = z.imag + (t * im + 0.0 * re)
    return out


def _march_rows(value, level, z, dirs, s, sign, steps):
    """Per row d of ``dirs``, the first point z + s d, s doubling ``steps``
    times, where f - level changes sign against ``sign`` (f - level at z, or
    its sign), with ``z``, ``s`` and ``sign`` shared or one per row and
    ``value`` the program of f: (ends (k, n), crossed (k,), errors by row).
    One row call per step over the rows still open; a LevikitError of f ends
    a row uncrossed, any other exception ends it as its error."""
    k = len(dirs)
    z, sign = np.broadcast_to(z, dirs.shape), np.broadcast_to(sign, (k,))
    s = np.broadcast_to(s, (k,))
    ends, crossed, errors = np.empty_like(dirs), np.zeros(k, dtype=bool), {}
    open_ = np.arange(k)
    for _ in range(steps):
        if not open_.size:
            break
        probe = _ray_points(z[open_], s[open_, None], dirs[open_])
        values, failed = value(probe)
        for i, err in ex.row_errors(value, probe, failed).items():
            if not isinstance(err, LevikitError):
                errors[int(open_[i])] = err
        hit = (failed < 0) & ((values[:, 0].real - level) * sign[open_] <= 0)
        ends[open_[hit]] = probe[hit]
        crossed[open_[hit]] = True
        open_ = open_[(failed < 0) & ~hit]
        s = s * 2.0
    return ends, crossed, errors


def _bisect_rows(value, level, z_in, seg, outside=True):
    """For each row s of ``seg``, a level-set point on [z_in, z_in + s] by
    bisection (``z_in`` shared or one per row), and the exceptions of the
    program ``value`` of f by row: (points (k, n), errors).  One
    row call per step over the rows still open.  Boundary sampling's rule
    (``outside``) tests the far end first, then up to 200 midpoints, accepts
    0 <= f - level <= _LEVEL_TOL, so its point never re-enters the open set,
    and falls back to z_in + hi s.  The foot-point search's rule tests 200
    midpoints, accepts |f - level| <= _LEVEL_TOL and falls back to the
    midpoint."""
    k, floor = len(seg), 0.0 if outside else -_LEVEL_TOL
    z_in = np.broadcast_to(z_in, seg.shape)
    points, errors = np.empty_like(seg), {}
    lo, hi = np.zeros(k), np.ones(k)
    open_ = np.arange(k)
    for step in range(201 if outside else 200):
        if not open_.size:
            break
        far = outside and step == 0
        t = hi[open_] if far else 0.5 * (lo[open_] + hi[open_])
        z = _ray_points(z_in[open_], t[:, None], seg[open_])
        values, failed = _rows(value, z, errors, open_)
        v = values[:, 0].real - level
        on_level = (failed < 0) & (floor <= v) & (v <= _LEVEL_TOL)
        points[open_[on_level]] = z[on_level]
        if not far:
            below = v < 0
            lo[open_] = np.where(below, t, lo[open_])
            hi[open_] = np.where(below, hi[open_], t)
        open_ = open_[(failed < 0) & ~on_level]
    t = hi[open_] if outside else 0.5 * (lo[open_] + hi[open_])
    points[open_] = _ray_points(z_in[open_], t[:, None], seg[open_])
    return points, errors


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

    @_once
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

    def point_paths(self, count, seed, steps):
        """Outward rays u / sqrt(t) for seeded unit vectors u, so that
        |z|^2 = 1/t runs over the decades of the bounded variants' paths."""
        rng = np.random.default_rng(seed)
        root_t = np.sqrt(approach_parameters(steps))[:, None]
        return [unit_vector(rng, self.dimension) / root_t for _ in range(count)]

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dimension": self.dimension}

    @classmethod
    def from_dict(cls, spec, path):
        return cls(int(spec["dimension"]))


# ---------------------------------------------------------------------------
# entry points: normalize the point once, lift it to a row, call the variant

def _metric(d, metric):
    """The metric asked for, or the variant's natural one for None."""
    if metric is None:
        return d.natural_metric
    if metric not in (EUCLIDEAN, LINFTY):
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    return metric


def contains(d, z) -> bool:
    """Exact membership per variant; all inequalities are strict (open sets)."""
    return bool(d.contains(ex.as_point(z, d.dimension)[None])[0])


def interior_sample(d, count: int, seed: int) -> np.ndarray:
    """Seeded interior points, shape (count, n)."""
    return d.interior_sample(count, np.random.default_rng(seed))


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
    row = ex.as_point(z, d.dimension)[None]
    metric = _metric(d, metric)
    if d.contains(row)[0]:
        return -float(d.interior_distance(row, metric)[0])
    return d.exterior_distance(row[0], metric)


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
