"""Exact distances to the boundary of a Reinhardt sublevel domain.

When f depends on z only through the moduli |z_j| (``expr.moduli_only``),
the distance from z to {f = level} is dist(|z|, Γ) in the same metric, with
Γ = {s >= 0 : f(s) = level}: |z_j - w_j| >= ||z_j| - |w_j||, with equality
when the phases agree, and giving w the phases of z keeps it on the level
set (M. Jarnicki & P. Pflug, First Steps in Several Complex Variables:
Reinhardt Domains, EMS 2008, ch. 1; R. M. Range 1986, ch. II §1).

``ModulusGeometry`` meshes Γ once and answers each row by Newton's method on
the contact conditions of the metric, started from the row's nearest mesh
points.  f and its derivatives at moduli s are the compiled programs at the
real point s, which is exact for ``abs2`` and ``abs``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from . import calculus as lc
from . import expr as ex
from .errors import LevikitError

# the mesh: at most _RAYS (n - 1)^2 rays in C^n, each sampled in _RAY_STEPS
# steps; each mesh point is compared with its _NEIGHBOURS (n - 1) nearest,
# and the rows with the mesh _ROW_CHUNK at a time
_RAYS = 128
_RAY_STEPS = 32
_NEIGHBOURS = 4
_ROW_CHUNK = 16
_NEWTON_STEPS = 12
_PIN = "pin"


class ModulusGeometry:
    """Γ of {f < level}, meshed by every crossing of fixed rays of R^n_{>=0}
    from 0 to the box of moduli [0, top_j]: a sign change of f - level
    between two of ``_RAY_STEPS`` steps of a ray is solved by
    ``_bracketed_root``, and a step with an end where f has no value is
    skipped.  Keeps the mesh points, each one's nearest others and the
    spacing: the largest distance from a point to the farthest of those,
    or a ray step where that is more."""

    def __init__(self, f: ex.Expr, level: float, top):
        self.f, self.level = f, level
        self._value = value = ex.program((f,))

        def at(t, u):
            return value([complex(t * x, 0.0) for x in u])[0].real - level

        def at_or_none(t, u):
            try:
                return at(t, u)
            except LevikitError:
                return None

        points, reaches = [], []
        for u in _directions(len(top)):
            reach = min(m / x for m, x in zip(top, u) if x > 0)
            reaches.append(reach)
            ts = [reach * i / _RAY_STEPS for i in range(_RAY_STEPS + 1)]
            # None where f has no value: a pole at t = 0 or on an axis
            vs = [at_or_none(t, u) for t in ts]
            for lo, hi, v_lo, v_hi in zip(ts, ts[1:], vs, vs[1:]):
                if v_lo is not None and v_hi is not None and (v_lo < 0) != (v_hi < 0):
                    try:
                        t = _bracketed_root(lambda t: at(t, u), lo, hi, v_lo, v_hi)
                        v = at(t, u)
                    except LevikitError:
                        v = None
                    # a sign change across a pole, or where f cannot be
                    # evaluated, is no root
                    if v is None or not abs(v) <= 1e-10 * max(1.0, abs(v_lo), abs(v_hi)):
                        raise self._error(f"the level crossing on the ray {u} "
                                          f"did not converge")
                    points.append([t * x for x in u])
        if not points:
            raise self._error("no level crossing in the bounding polydisc")
        self.points = np.array(points)
        # one point is its own neighbour; the spacing is at least a ray step
        k = max(min(_NEIGHBOURS * (len(top) - 1), len(points) - 1), 1)
        self.spacing = max(reaches) / _RAY_STEPS
        rows = np.arange(len(points))
        neighbours = []
        for start in range(0, len(points), _ROW_CHUNK):
            gaps = self._gaps(self.points[start:start + _ROW_CHUNK], True)
            gaps[rows[:len(gaps)], rows[start:start + len(gaps)]] = np.inf
            neighbours.append(np.argsort(gaps, axis=1, kind="stable")[:, :k])
            far = gaps[rows[:len(gaps)], neighbours[-1][:, -1]]
            self.spacing = max(self.spacing, float(far[np.isfinite(far)].max(initial=0.0)))
        self.neighbours = np.concatenate(neighbours)

    def _error(self, message):
        return LevikitError(f"sublevel domain {ex.to_text(self.f)} < {self.level!r}: "
                            f"{message}")

    def distances(self, zz, euclidean: bool) -> np.ndarray:
        """dist(|z|, Γ) for each row of zz, Euclidean or L-infinity.  Each
        mesh point that is no farther than its neighbours and within the
        spacing of the nearest is refined by ``_contact_point`` under each
        of its ``_contact_modes``.  A row's value is the least over the
        points reached, so it depends on that row alone; LevikitError when
        none reaches the nearest mesh point's distance."""
        moduli = [[abs(x) for x in row] for row in zz.tolist()]
        out = np.empty(len(moduli))
        for start in range(0, len(moduli), _ROW_CHUNK):
            part = moduli[start:start + _ROW_CHUNK]
            for i, (bound, picks) in enumerate(self._candidates(np.array(part), euclidean),
                                               start):
                s = moduli[i]
                best = math.inf
                for c in self.points[picks].tolist():
                    for modes in self._contact_modes(c, s, euclidean):
                        p = self._contact_point(s, c, modes, 4.0 * self.spacing)
                        if p is not None:
                            gaps = [y - abs(x) for x, y in zip(p, s)]
                            best = min(best, math.sqrt(sum(g * g for g in gaps))
                                       if euclidean else max(map(abs, gaps)))
                if not best <= bound + 1e-12 * (bound + max(s)):
                    raise self._error(f"the modulus-space refinement of row {i} "
                                      f"did not converge")
                out[i] = best
        return out

    def _candidates(self, moduli, euclidean):
        """Per row of moduli: its distance to the nearest mesh point, and the
        mesh points no farther than any of their neighbours and than that
        distance plus the spacing, nearest first.  Elementwise operations
        only, so a row's answer does not depend on the others."""
        dist = self._gaps(moduli, euclidean)
        best = dist.min(axis=1)
        keep = (dist <= dist[:, self.neighbours].min(axis=2)) & (
            dist <= best[:, None] + self.spacing)
        for row, b, mask in zip(dist, best, keep):
            picks = np.flatnonzero(mask)
            yield float(b), picks[np.argsort(row[picks], kind="stable")]

    def _gaps(self, moduli, euclidean):
        """The distances from each row of moduli to each mesh point."""
        gaps = [np.abs(moduli[:, j, None] - self.points[None, :, j])
                for j in range(moduli.shape[1])]
        if euclidean:
            return np.sqrt(reduce(np.add, (g * g for g in gaps)))
        return reduce(np.maximum, gaps)

    def _contact_modes(self, c, s, euclidean):
        """The contact conditions to refine the mesh point c under, one
        entry per coordinate, in every combination.  _PIN keeps it at 0 (a
        face of the orthant, where ``abs`` has a kink), offered where c_j is
        0, and not on every coordinate; in L-infinity also where s_j is no
        more than the distance from s to c, so that the cube can reach the
        face, since where φ is flat to higher order in p_j at 0 (|z_j|^4)
        Newton on ∂φ/∂p_j = 0 creeps to the face without converging.
        Otherwise: None, the Euclidean foot point; in L-infinity 0, free, or
        σ_j = ±1, on the face s_j + σ_j t of the cube, and at least one
        coordinate on a face.  At a contact the active σ_j g_j share one
        sign, + from inside D and - from outside, so σ_j is that sign times
        sign(g_j) at c; both signs where g_j may change sign within about a
        mesh spacing of c or f has no value at s, and -1 where c_j is 0 (the
        face that reaches 0 from s_j >= 0)."""
        if euclidean:
            options = [(None, _PIN) if not x else (None,) for x in c]
        else:
            _, g, hess = self._derivatives(c, [j for j, x in enumerate(c) if x])
            try:
                side = 1.0 if self._value([complex(x, 0.0) for x in s])[0].real < self.level \
                    else -1.0
            except LevikitError:
                # f has no value at s (a pole on an axis): either side
                side = None
            gap = max(abs(x - y) for x, y in zip(c, s))
            options = [(0.0, -1.0, _PIN) if not x else
                       ((0.0, 1.0, -1.0) if side is None
                        or abs(w) <= 2 * self.spacing * sum(map(abs, h))
                        else (0.0, side * math.copysign(1.0, w)))
                       + ((_PIN,) if y <= gap else ())
                       for x, y, w, h in zip(c, s, g, hess)]
        return [m for m in itertools.product(*options)
                if any(x is not _PIN and (euclidean or x) for x in m)]

    def _contact_point(self, s, c, modes, reach):
        """A point of {φ = level}, φ = f at moduli, that meets the contact
        conditions ``modes`` with the moduli s, by Newton's method from the
        mesh point c; None when it does not converge or a step is longer
        than ``reach`` (the conditions hold nowhere near c).  Per coordinate:
        None, the Euclidean Lagrange condition p_j - s_j + μ ∂φ/∂p_j = 0;
        σ = ±1, p_j = s_j + σ t, and 0, ∂φ/∂p_j = 0, the contact with the
        L-infinity cube of half-width t; _PIN, p_j = 0."""
        n = len(s)
        free = [j for j in range(n) if modes[j] is not _PIN]
        # a free coordinate starts off the face, where abs has a derivative
        p = [0.0 if m is _PIN else x or 1e-4 * reach for m, x in zip(modes, c)]
        lam = None if modes[free[0]] is None else max(
            (abs(x - y) for m, x, y in zip(modes, c, s) if m is not _PIN and m), default=0.0)
        for _ in range(_NEWTON_STEPS):
            try:
                phi, g, hess = self._derivatives(p, free)
            except LevikitError:
                return None
            if lam is None:
                gg = sum(x * x for x in g)
                lam = sum((y - x) * w for x, y, w in zip(p, s, g)) / gg if gg else 0.0
            jac, res = [], []
            for j, mode in enumerate(modes):
                unit = [float(j == k) for k in range(n)]
                if mode is _PIN:
                    jac.append(unit + [0.0])
                    res.append(p[j])
                elif mode is None:
                    jac.append([e + lam * h for e, h in zip(unit, hess[j])] + [g[j]])
                    res.append(p[j] - s[j] + lam * g[j])
                elif mode:
                    jac.append(unit + [-mode])
                    res.append(p[j] - s[j] - mode * lam)
                else:
                    jac.append(hess[j] + [0.0])
                    res.append(g[j])
            jac.append(g + [0.0])
            res.append(phi)
            scale = max(map(abs, p + s))
            try:
                step = np.linalg.solve(jac, res).tolist()
            except np.linalg.LinAlgError:
                # singular at a solution: s is a centre of curvature of Γ
                return p if max(map(abs, res)) <= 1e-14 * max(scale, 1.0) else None
            p = [x - d for x, d in zip(p, step)]
            lam -= step[n]
            size = max(map(abs, step[:n]))
            if not size <= reach:
                return None
            if size <= 1e-12 * scale:
                return p
        return None

    def _derivatives(self, p, free):
        """φ - level, ∇φ and the Hessian of φ at the real point p: ∂φ/∂s_j =
        2 Re ∂f/∂z_j and ∂²φ/∂s_j∂s_k = 2 Re(∂²f/∂z_j∂z_k + ∂²f/∂z_j∂z̄_k)
        for j, k in ``free``, and 0 elsewhere."""
        n, m = len(p), len(free)
        v = _program(self.f, n, tuple(free))([complex(x, 0.0) for x in p])
        g = [0.0] * n
        hess = [[0.0] * n for _ in range(n)]
        for a, j in enumerate(free):
            g[j] = 2.0 * v[1 + a].real
            for b, k in enumerate(free):
                i = 1 + m + a * m + b
                hess[j][k] = 2.0 * (v[i].real + v[i + m * m].real)
        return v[0].real - self.level, g, hess


@lru_cache(maxsize=None)
def _program(f, n, free):
    """f, then ∂f/∂z_j, ∂²f/∂z_j∂z_k and ∂²f/∂z_j∂z̄_k for j, k in ``free``.
    Where a coordinate is pinned to 0, ``abs`` of it has no derivative, and
    the others' derivatives do not divide by it."""
    pairs = [j * n + k for j in free for k in free]
    unmixed, mixed = (lc._second_trees(f, n, m) for m in (False, True))
    return ex.program((f, *(lc._grad_trees(f, n)[j] for j in free),
                       *(unmixed[i] for i in pairs), *(mixed[i] for i in pairs)))


def _directions(n):
    """Unit vectors through the points k / m of the simplex in R^n_{>=0},
    k a vector of non-negative integers summing to m, for the largest m
    that gives at most _RAYS (n - 1)^2 of them; the axes are among them."""
    def lattice(n, m):
        if n == 1:
            return [(m,)]
        return [(k, *rest) for k in range(m + 1) for rest in lattice(n - 1, m - k)]

    m = 1
    while m < _RAYS and math.comb(m + n, n - 1) <= _RAYS * (n - 1) ** 2:
        m += 1
    return [[k / math.sqrt(sum(x * x for x in ks)) for k in ks] for ks in lattice(n, m)]


def _bracketed_root(value, lo, hi, v_lo, v_hi):
    """A root of ``value`` in [lo, hi], where its values v_lo and v_hi have
    opposite signs, by the Illinois variant of regula falsi (the end kept
    twice running has its value halved): the middle of the bracket once it
    is a few ulps wide, or after 100 steps."""
    kept = None
    for _ in range(100):
        if hi - lo <= 4e-16 * hi:
            break
        t = (lo * v_hi - hi * v_lo) / (v_hi - v_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        v = value(t)
        if v == 0:
            return t
        if (v < 0) == (v_lo < 0):
            lo, v_lo = t, v
            if kept == "hi":
                v_hi *= 0.5
            kept = "hi"
        else:
            hi, v_hi = t, v
            if kept == "lo":
                v_lo *= 0.5
            kept = "lo"
    return 0.5 * (lo + hi)
