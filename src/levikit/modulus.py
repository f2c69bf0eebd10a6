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
real rows s, exact for ``abs2`` and ``abs``.  Each search runs in lockstep, one
program call per step; the error raised is the first of a row-by-row search.
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
    between two of ``_RAY_STEPS`` steps of a ray is solved by ``_roots``,
    and a step with an end where f has no value is skipped.  Keeps the mesh
    points, each one's nearest others and the spacing: the largest distance
    from a point to the farthest of those, or a ray step if that is more."""

    def __init__(self, f: ex.Expr, level: float, top):
        self.f, self.level, self._value = f, level, ex.program((f,))
        n = len(top)
        dirs = np.array(_directions(n))
        reaches = [min(m / x for m, x in zip(top, u) if x > 0) for u in dirs.tolist()]
        ts = np.array([[reach * i / _RAY_STEPS for i in range(_RAY_STEPS + 1)]
                       for reach in reaches])
        # f - level at every step of every ray; no value where f has none,
        # such as a pole at t = 0 or on an axis
        vs, ok, failures = _run(self._value, (ts[:, :, None] * dirs[:, None, :]).reshape(-1, n))
        vs, ok = vs[:, 0].reshape(ts.shape) - level, ok.reshape(ts.shape)
        # each ray's steps come before its brackets
        errors = {(i // ts.shape[1], 0, i % ts.shape[1]): err for i, err in failures.items()}
        rays, steps = np.nonzero(ok[:, :-1] & ok[:, 1:] & ((vs[:, :-1] < 0) != (vs[:, 1:] < 0)))
        t, failures = self._roots(dirs[rays], ts[rays, steps], ts[rays, steps + 1],
                                  vs[rays, steps], vs[rays, steps + 1])
        errors.update(((int(rays[b]), 1, b), err) for b, err in failures.items())
        if errors:
            raise errors[min(errors)]
        if not rays.size:
            raise self._error("no level crossing in the bounding polydisc")
        self.points = t[:, None] * dirs[rays]
        # one point is its own neighbour; the spacing is at least a ray step
        k = max(min(_NEIGHBOURS * (n - 1), len(self.points) - 1), 1)
        self.spacing = max(reaches) / _RAY_STEPS
        rows = np.arange(len(self.points))
        neighbours = []
        for start in range(0, len(self.points), _ROW_CHUNK):
            gaps = self._gaps(self.points[start:start + _ROW_CHUNK], True)
            gaps[rows[:len(gaps)], rows[start:start + len(gaps)]] = np.inf
            neighbours.append(np.argsort(gaps, axis=1, kind="stable")[:, :k])
            far = gaps[rows[:len(gaps)], neighbours[-1][:, -1]]
            self.spacing = max(self.spacing, float(far[np.isfinite(far)].max(initial=0.0)))
        self.neighbours = np.concatenate(neighbours)

    def _error(self, message):
        return LevikitError(f"sublevel domain {ex.to_text(self.f)} < {self.level!r}: {message}")

    def _roots(self, u, a, b, fa, fb):
        """A root of f - level in each bracket [a, b] of the ray u, where its
        values fa and fb differ in sign, by the Illinois variant of regula
        falsi (the end kept twice running has its value halved): the middle
        of a bracket a few ulps wide, or after 100 steps.  A sign change
        across a pole, or where f has no value, is no root.  (roots, errors)"""
        t, failed, scale = np.empty(len(u)), {}, _py_max([1.0, np.abs(fa), np.abs(fb)])
        i, kept = np.arange(len(u)), np.zeros(len(u))   # kept: 1 the upper end, -1 the lower
        with np.errstate(all="ignore"):
            for _ in range(100):
                narrow = b - a <= 4e-16 * b
                t[i[narrow]] = 0.5 * (a[narrow] + b[narrow])
                i, a, b, fa, fb, kept = (y[~narrow] for y in (i, a, b, fa, fb, kept))
                if not i.size:
                    break
                x = (a * fb - b * fa) / (fb - fa)
                t[i] = x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
                v, ok, errors = _run(self._value, x[:, None] * u[i])
                v = v[:, 0] - self.level
                failed.update((int(i[j]), errors.get(j)) for j in np.flatnonzero(~ok).tolist())
                left = (v < 0) == (fa < 0)
                halve = kept == np.where(left, 1, -1)
                fa, fb = (np.where(left, v, np.where(halve, fa * 0.5, fa)),
                          np.where(left, np.where(halve, fb * 0.5, fb), v))
                a, b, kept = np.where(left, x, a), np.where(left, b, x), np.where(left, 1, -1)
                i, a, b, fa, fb, kept = (y[ok & (v != 0)] for y in (i, a, b, fa, fb, kept))
            t[i] = 0.5 * (a + b)
            v, ok, errors = _run(self._value, t[:, None] * u)
            bad = ~ok | ~(np.abs(v[:, 0] - self.level) <= 1e-10 * scale)
        for j in np.flatnonzero(bad).tolist():
            failed.setdefault(j, errors.get(j))
        return t, {j: err or self._error(f"the level crossing on the ray {u[j].tolist()} "
                                         f"did not converge") for j, err in failed.items()}

    def distances(self, zz, euclidean: bool) -> np.ndarray:
        """dist(|z|, Γ) for each row of zz, Euclidean or L-infinity.  Each
        mesh point that is no farther than its neighbours and within the
        spacing of the nearest is refined by ``_contact_points`` under each
        of its ``_contact_modes``, all in one batch: a row's value is the
        least reached, LevikitError if none reaches the nearest point's."""
        moduli = np.hypot(zz.real, zz.imag)
        m, n = moduli.shape
        bounds, pairs = [], []      # per pair: its row, and its mesh point's rank and index
        for start in range(0, m, _ROW_CHUNK):
            for i, (bound, picks) in enumerate(
                    self._candidates(moduli[start:start + _ROW_CHUNK], euclidean), start):
                bounds.append(bound)
                pairs += [(i, rank, pick) for rank, pick in enumerate(picks.tolist())]
        rows, ranks, picks = np.array(pairs, dtype=int).reshape(-1, 3).T
        s, c = moduli[rows], self.points[picks]
        # errors keyed by their place in a row-by-row search: per row, per mesh
        # point its derivatives (0), f at s (1), its systems (2); the row (inf)
        errors, ok = {}, np.ones(len(c), dtype=bool)
        g = hess = sides = [None] * len(c)
        if not euclidean:
            _, g, hess, ok, failures = self._derivatives(c, c != 0, every=True)
            errors.update(((rows[q], ranks[q], 0), err) for q, err in failures.items())
            g, hess = g.tolist(), hess.tolist()
            value, known, failures = _run(self._value, s)
            errors.update(((rows[q], ranks[q], 1), err) for q, err in failures.items())
            # where f has no value at s (a pole on an axis): either side
            sides = [(1.0 if v < self.level else -1.0) if k else None
                     for v, k in zip(value[:, 0].tolist(), known.tolist())]
        triples = [(q, modes) for q, args in enumerate(zip(c.tolist(), s.tolist(), sides, g, hess))
                   if ok[q] for modes in self._contact_modes(*args, euclidean)]
        qs = np.array([q for q, _ in triples], dtype=int)
        p, found, failures = self._contact_points(s[qs], c[qs], [modes for _, modes in triples],
                                                  4.0 * self.spacing)
        errors.update(((rows[qs[t]], ranks[qs[t]], 2, t), err) for t, err in failures.items())
        gaps = (s[qs] - np.abs(p)).T
        dist = np.sqrt(_py_sum(gaps * gaps)) if euclidean else _py_max(np.abs(gaps))
        best = [math.inf] * m
        for i, d in zip(rows[qs[found]].tolist(), dist[found].tolist()):
            best[i] = min(best[i], d)
        for i, (b, bound, row) in enumerate(zip(best, bounds, moduli.tolist())):
            if not b <= bound + 1e-12 * (bound + max(row)):
                errors[i, math.inf] = self._error(f"the modulus-space refinement of row {i} "
                                                  f"did not converge")
        if errors:
            raise errors[min(errors)]
        return np.array(best)

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

    def _contact_modes(self, c, s, side, g, hess, euclidean):
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
        sign, + from inside D and - from outside (``side``), so σ_j is that
        sign times sign(g_j) at c (g, hess: ∇φ and its Hessian at c); both
        signs where g_j may change sign within about a mesh spacing of c or
        f has no value at s, and -1 where c_j is 0 (the face that reaches 0
        from s_j >= 0)."""
        if euclidean:
            options = [(None, _PIN) if not x else (None,) for x in c]
        else:
            gap = max(abs(x - y) for x, y in zip(c, s))
            options = [(0.0, -1.0, _PIN) if not x else
                       ((0.0, 1.0, -1.0) if side is None
                        or abs(w) <= 2 * self.spacing * _py_sum(map(abs, h))
                        else (0.0, side * math.copysign(1.0, w)))
                       + ((_PIN,) if y <= gap else ())
                       for x, y, w, h in zip(c, s, g, hess)]
        return [m for m in itertools.product(*options)
                if any(x is not _PIN and (euclidean or x) for x in m)]

    def _contact_points(self, s, c, modes, reach):
        """Per row: a point of {φ = level}, φ = f at moduli, that meets the
        contact conditions ``modes`` with the moduli s, by Newton's method
        from the mesh point c; not found where φ has no value, it does not
        converge or a step is longer than ``reach``.  Per coordinate: None,
        the Euclidean Lagrange condition p_j - s_j + μ ∂φ/∂p_j = 0; σ = ±1,
        p_j = s_j + σ t, and 0, ∂φ/∂p_j = 0, the contact with the L-infinity
        cube of half-width t; _PIN, p_j = 0.  One ``_derivatives`` call and
        one stacked solve per step.  (points, found, errors)"""
        k, n = s.shape
        code = np.array([[math.nan if x is None else math.inf if x is _PIN else x for x in row]
                         for row in modes], dtype=float).reshape(k, n)
        pin, lagrange, flat = np.isinf(code), np.isnan(code), code == 0
        sigma = np.nan_to_num(code, posinf=0.0)     # σ on a face, else 0
        # a free coordinate starts off the face, where abs has a derivative
        p = np.where(pin, 0.0, np.where(c != 0, c, 1e-4 * reach))
        # t starts at the largest |c_j - s_j| on a face
        lam = _py_max(np.where(sigma != 0, np.abs(c - s), -math.inf).T)
        found, errors, i, eye = np.zeros(k, dtype=bool), {}, np.arange(k), np.eye(n)
        for step in range(_NEWTON_STEPS):
            if not i.size:
                break
            phi, g, hess, ok, failures = self._derivatives(p[i], ~pin[i])
            errors.update((int(i[j]), err) for j, err in failures.items())
            i, phi, g, hess = i[ok], phi[ok], g[ok], hess[ok]
            pp, ss, lm, sg, ln, fl = p[i], s[i], lam[i], sigma[i], lagrange[i], flat[i]
            with np.errstate(all="ignore"):
                if step == 0 and lagrange.any():
                    gg = _py_sum((g * g).T)
                    lm = np.where(gg != 0, _py_sum(((ss - pp) * g).T) / gg, 0.0)
                jac = np.zeros((len(i), n + 1, n + 1))
                jac[:, :n, :n] = np.where(fl[:, :, None], hess, np.where(
                    ln[:, :, None], eye + lm[:, None, None] * hess, eye))
                jac[:, :n, n] = np.where(ln, g, 0.0 - sg)
                jac[:, n, :n] = g
                res = np.column_stack([np.where(pin[i], pp, np.where(
                    ln, pp - ss + lm[:, None] * g, np.where(fl, g, pp - ss - sg * lm[:, None]))),
                    phi])
                scale = _py_max([*np.abs(pp).T, *np.abs(ss).T])
                singular = np.zeros(len(i), dtype=bool)
                try:
                    delta = np.linalg.solve(jac, res[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    # each system alone, as the stack gives one solve's bits
                    delta = np.zeros(res.shape)
                    for j, (a, b) in enumerate(zip(jac, res)):
                        try:
                            delta[j] = np.linalg.solve(a, b)
                        except np.linalg.LinAlgError:
                            singular[j] = True
                # singular at a solution: s is a centre of curvature of Γ
                found[i[singular & (_py_max(np.abs(res).T)
                                    <= 1e-14 * np.where(1.0 > scale, 1.0, scale))]] = True
                p[i] = np.where(singular[:, None], pp, pp - delta[:, :n])
                lam[i] = lm - delta[:, n]
                size = _py_max(np.abs(delta[:, :n]).T)
                near = ~singular & (size <= reach)
            found[i[near & (size <= 1e-12 * scale)]] = True
            i = i[near & ~(size <= 1e-12 * scale)]
        return p, found, errors

    def _derivatives(self, pp, free, every=False):
        """φ - level, ∇φ and the Hessian of φ at the real rows pp: ∂φ/∂s_j =
        2 Re ∂f/∂z_j and ∂²φ/∂s_j∂s_k = 2 Re(∂²f/∂z_j∂z_k + ∂²f/∂z_j∂z̄_k)
        for j, k free in the row's mask ``free``, else 0, by one ``_program``
        call per pattern of free coordinates; then ``_run``'s rows and errors."""
        k, n = pp.shape
        phi, g, hess = np.empty(k), np.zeros((k, n)), np.zeros((k, n, n))
        ok, errors, code = np.ones(k, dtype=bool), {}, free @ (1 << np.arange(n))
        # not np.unique: its first call imports numpy.ma, ~10 ms in a cold run
        for pattern in sorted(set(code.tolist())):
            rows = np.flatnonzero(code == pattern)
            js = [j for j in range(n) if pattern >> j & 1]
            m = len(js)
            v, ok[rows], failures = _run(_program(self.f, n, tuple(js)), pp[rows], every)
            phi[rows] = v[:, 0] - self.level
            g[np.ix_(rows, js)] = 2.0 * v[:, 1:1 + m]
            hess[np.ix_(rows, js, js)] = 2.0 * (v[:, 1 + m:1 + m + m * m]
                                               + v[:, 1 + m + m * m:]).reshape(-1, m, m)
            errors.update((int(rows[i]), err) for i, err in failures.items())
        return phi, g, hess, ok, errors


def _run(prog, pp, every=False):
    """``prog`` at the real rows pp: its values' real parts, the rows that
    have them, and the others' errors (``every`` one, or no LevikitError)."""
    zz = pp.astype(complex)
    values, failed = prog(zz)
    errors = ex.row_errors(prog, zz, failed)
    return values.real, failed < 0, {i: err for i, err in errors.items()
                                     if every or not isinstance(err, LevikitError)}


def _py_sum(columns):
    """Python 3.11's sum of the columns: left to right from 0.0."""
    return reduce(np.add, columns, 0.0)


def _py_max(columns):
    """Python's max of the columns: the first, replaced by each larger one."""
    return reduce(lambda top, x: np.where(x > top, x, top), columns)


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
