"""Exhaustion functions and boundary blow-up checks.

The canonical exhaustion of a domain with non-empty boundary is
|z|^2 - ln d(z, boundary); with empty boundary the |z|^2 part alone already
has compact sublevel sets.  Blow-up along finitely many witnessed approach
sequences stands in for the untestable limit statement.

Approach sequences are exact radial paths: the boundary distance along a
path is evaluated from the path parameter in closed form, because the naive
r - |z| subtraction stalls at machine epsilon long before the recorded
values cross the blow-up thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains as dom
from . import expr as ex
from .errors import LevikitError, SamplingExhausted
from .sampling import disc_points, unit_vector

BLOWUP_RISE = 10.0
BLOWUP_FLOOR = 50.0
NORM_SQUARED = "norm-squared"
CANONICAL = "norm-squared-minus-log-distance"


def sequence_passed(first: float, final: float, increasing: bool) -> bool:
    """Blow-up rule for one sequence: it ends above
    max(first + BLOWUP_RISE, BLOWUP_FLOOR) and is increasing over its tail."""
    return final > first + BLOWUP_RISE and final > BLOWUP_FLOOR and increasing


def _norm_squared(z) -> float:
    return float(np.linalg.norm(np.asarray(z, dtype=complex)) ** 2)


def build_exhaustion(domain, metric: str | None = None):
    """Callable z -> |z|^2 - ln d(z, boundary) (|z|^2 when there is no boundary).

    Defined and finite on the whole domain; raises PointOutsideDomain when
    misused on exterior points.  The canonical construction uses the
    Euclidean distance unless another metric is requested.
    """
    if isinstance(domain, dom.WholeSpace):
        return _norm_squared
    if metric is None:
        metric = dom.EUCLIDEAN

    def f(z):
        zz = np.asarray(z, dtype=complex)
        return _norm_squared(zz) - math.log(
            dom.distance_to_boundary(domain, zz, metric))

    return f


@dataclass(frozen=True)
class ExhaustionProbe:
    function_id: str
    domain_dict: dict
    sequences: tuple           # tuple of point tuples, one per approach path
    values: tuple              # recorded function values along each path


@dataclass(frozen=True)
class BlowupCheck:
    passed: bool
    per_sequence: tuple        # (first, final, eventually_increasing) triples


# ---------------------------------------------------------------------------
# exact radial approach paths with stable parametric distances

def _ball_paths(d: dom.Ball, count, seed):
    center = np.asarray(d.center)
    paths = []
    for s in dom.boundary_sample(d, count, seed).samples:
        u = np.asarray(s.point) - center
        u = u / np.linalg.norm(u)

        def path(t, u=u):
            return center + (1.0 - t) * d.radius * u

        def dist(t):
            return d.radius * t

        paths.append((path, dist))
    return paths


def _polydisc_paths(d: dom.Polydisc, count, seed):
    center = np.asarray(d.center)
    radii = np.asarray(d.radii)
    paths = []
    for s in dom.boundary_sample(d, count, seed).samples:
        j = s.face_index
        b = np.asarray(s.point)
        offsets = b - center
        phase = offsets[j] / abs(offsets[j])
        other = [float(radii[k] - abs(offsets[k]))
                 for k in range(d.dimension) if k != j]
        gap_other = min(other) if other else math.inf

        def path(t, b=b, j=j, phase=phase):
            z = b.copy()
            z[j] = center[j] + (1.0 - t) * radii[j] * phase
            return z

        def dist(t, j=j, gap_other=gap_other):
            return min(radii[j] * t, gap_other)

        paths.append((path, dist))
    return paths


def _reinhardt_paths(d: dom.ReinhardtUnion, count, seed):
    """Paths to exposed member faces, scaling the binding coordinate only."""
    rng = np.random.default_rng(seed)
    n = d.dimension
    paths = []
    attempts = 0
    while len(paths) < count:
        attempts += 1
        if attempts > 500 * count:
            raise SamplingExhausted("no exposed Reinhardt face points found",
                                    len(paths) / attempts)
        m_idx = int(rng.integers(len(d.members)))
        owner = d.members[m_idx]
        j = int(rng.integers(n))
        b = disc_points(rng, owner.radii)
        b[j] = owner.radii[j] * np.exp(2j * np.pi * rng.uniform())
        if any(dom.contains(m, b) for m in d.members):
            continue          # face point covered by another member: not on the boundary
        moduli = np.abs(b)
        face_r = owner.radii[j]
        phase = b[j] / abs(b[j])

        def path(t, b=b, j=j, face_r=face_r, phase=phase):
            z = b.copy()
            z[j] = (1.0 - t) * face_r * phase
            return z

        def dist(t, moduli=moduli, j=j, face_r=face_r):
            best = 0.0
            for member in d.members:
                gaps = []
                inside = True
                for k in range(n):
                    if k == j:
                        g = (member.radii[k] - face_r) + t * face_r
                    else:
                        g = member.radii[k] - moduli[k]
                    if g <= 0:
                        inside = False
                        break
                    gaps.append(g)
                if inside:
                    best = max(best, min(gaps))
            return best

        paths.append((path, dist))
    return paths


def _approach_paths(domain, count, seed):
    if isinstance(domain, dom.Ball):
        return _ball_paths(domain, count, seed)
    if isinstance(domain, dom.Polydisc):
        return _polydisc_paths(domain, count, seed)
    if isinstance(domain, dom.ReinhardtUnion):
        return _reinhardt_paths(domain, count, seed)
    return None


def _resolve_point_function(domain, function, metric):
    if function == NORM_SQUARED:
        return _norm_squared
    if function == CANONICAL:
        return build_exhaustion(domain, metric)
    if isinstance(function, ex.Expr) or callable(function):
        return ex.as_real_function(function)
    raise LevikitError(f"unknown exhaustion function id {function!r}")


def make_probe(domain, function=CANONICAL, metric: str | None = None,
               sequences: int = 8, seed: int = 0,
               steps: int = 56) -> ExhaustionProbe:
    """Record function values along seeded approach sequences.

    Boundary paths use the exact radial parametrization t = 10^-k with the
    closed-form distance d(t); boundaryless domains get radially outward
    paths instead.  User expressions are evaluated at the recorded float
    points directly.
    """
    fid = function if isinstance(function, str) else (
        ex.to_text(function) if isinstance(function, ex.Expr) else "user-callable")
    seqs = []
    vals = []

    if isinstance(domain, dom.WholeSpace):
        fn = _resolve_point_function(domain, function, metric)
        rng = np.random.default_rng(seed)
        for _ in range(sequences):
            u = unit_vector(rng, domain.dimension)
            pts = [(1.0 + k) * u for k in range(steps)]
            seqs.append(tuple(tuple(complex(c) for c in p) for p in pts))
            vals.append(tuple(float(fn(p)) for p in pts))
        return ExhaustionProbe(fid, domain.to_dict(), tuple(seqs), tuple(vals))

    paths = _approach_paths(domain, sequences, seed)
    ts = [10.0 ** (-k) for k in range(steps)]
    if paths is not None and function in (NORM_SQUARED, CANONICAL):
        for path, dist in paths:
            pts = [path(t) for t in ts]
            values = [_norm_squared(p) for p in pts]
            if function == CANONICAL:
                values = [v - math.log(dist(t)) for v, t in zip(values, ts)]
            seqs.append(tuple(tuple(complex(c) for c in p) for p in pts))
            vals.append(tuple(values))
        return ExhaustionProbe(fid, domain.to_dict(), tuple(seqs), tuple(vals))

    # generic fallback: float-point evaluation, resolution-limited
    fn = _resolve_point_function(domain, function, metric)
    anchor = dom.interior_sample(domain, 1, seed)[0]
    boundary = dom.boundary_sample(domain, sequences, seed + 1)
    for s in boundary.samples:
        b = np.asarray(s.point)
        pts = []
        values = []
        for t in ts:
            z = b + t * (anchor - b)
            if not dom.contains(domain, z):
                continue
            pts.append(tuple(complex(c) for c in z))
            values.append(float(fn(z)))
        seqs.append(tuple(pts))
        vals.append(tuple(values))
    return ExhaustionProbe(fid, domain.to_dict(), tuple(seqs), tuple(vals))


def exhaustion_blowup_check(probe: ExhaustionProbe) -> BlowupCheck:
    """Pass iff every sequence has 3 or more values and passes sequence_passed."""
    per = []
    ok = True
    for values in probe.values:
        if len(values) < 3:
            per.append((math.nan, math.nan, False))
            ok = False
            continue
        first, final = values[0], values[-1]
        tail = values[-5:]
        increasing = all(b > a for a, b in zip(tail, tail[1:]))
        per.append((first, final, increasing))
        ok = ok and sequence_passed(first, final, increasing)
    return BlowupCheck(ok, tuple(per))
