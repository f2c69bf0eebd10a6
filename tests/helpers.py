"""Shared oracles and utilities for the test suite."""

import math

import numpy as np

from levikit import calculus as lc
from levikit import classify as cl
from levikit import domains as dom
from levikit import expr as ex
from levikit import hulls, norms
from levikit.errors import DegenerateGradient, EvalDomainError, LevikitError
from levikit.sampling import _SHORTEST, disc_points, rejection_sample, unit_vector


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
    batches: for each query the family is redrawn, its offsets as
    ``uniform(-B, B)`` forms them from ``random()`` draws d, -B + (2B) * d
    (which stays defined where 2B overflows), K is projected on it again,
    and sup_K |A| is the direct maximum over K.  Kept as the oracle the
    batch must match bit for bit."""
    pts = np.asarray(k_set, dtype=float)
    xx = np.asarray(x, dtype=float)
    bound = 2.0 * max(float(np.max(np.abs(pts))), float(np.max(np.abs(xx))), 1e-12)
    if not math.isfinite(bound):
        raise LevikitError(f"affine offset bound 2*max|coordinate| is {bound}, "
                           f"not finite")
    ss_u, ss_b = np.random.SeedSequence(seed).spawn(2)
    raw = np.random.default_rng(ss_u).standard_normal((functionals, pts.shape[1]))
    dirs = raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-300)
    with np.errstate(over="ignore", invalid="ignore"):
        offs = -bound + (2.0 * bound) * np.random.default_rng(ss_b).random(functionals)
        values = np.abs(dirs @ xx + offs)
        norms = np.max(np.abs(pts @ dirs.T + offs), axis=0)
    return hulls._membership([tuple(float(v) for v in xx)], values[None], norms[None],
                             tol, lambda _, i: {"kind": "affine",
                                                "direction": tuple(dirs[i].tolist()),
                                                "offset": float(offs[i])})[0]


def polynomial_membership_oracle(k_set, z, degree, count=0, seed=0, tol=1e-9):
    """The per-query polynomial test that ``hulls.polynomial_hull_membership``
    batches: sup_K |p| of every candidate is computed again for each
    query.  Kept as the oracle the batch must match bit for bit."""
    pts = np.asarray(k_set, dtype=complex)
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
    return hulls._membership([query], values[None], norms[None], tol, lambda _, i: {
        "kind": "polynomial", "exponents": [list(e) for e in candidates[i][0]],
        "coefficients": [[c.real, c.imag] for c in map(complex, candidates[i][1])]})[0]


def interior_sample_oracle(region, count, rng):
    """``Domain.interior_sample`` with one candidate drawn and tested per
    turn of the rejection loop, which the block draws replace: the points
    and the generator's state afterwards must match bit for bit.  Variants
    with their own sampler use it."""
    if type(region).interior_sample is not dom.Domain.interior_sample:
        return region.interior_sample(count, rng)
    box = region.bounding_polydisc()
    center = np.asarray(box.center)

    def draw():
        z = center + disc_points(rng, box.radii)
        try:
            return z if region.contains(z[None])[0] else None
        except LevikitError:
            return None

    samples, _ = rejection_sample(
        draw, count, 1000 * max(count, 1),
        f"interior sampling of {type(region).__name__} failed")
    return np.array(samples)


def ball_oracle(ball, z, metric):
    """(membership, interior distance) of one point of a ball, from the
    one-point formulas the ball's row methods replace: ``np.linalg.norm``
    of the offset, and in L-infinity the positive root of
    n t^2 + 2 t sum(a) + (sum(a^2) - r^2) = 0 over the moduli a of the
    offset, taken with ``math.sqrt``.  The distance is None outside."""
    gaps = np.asarray(z) - np.asarray(ball.center)
    norm = float(np.linalg.norm(gaps))
    if not norm < ball.radius:
        return False, None
    if metric == dom.EUCLIDEAN:
        return True, ball.radius - norm
    a = np.abs(gaps)
    n = a.shape[0]
    s1 = float(np.sum(a))
    s2 = float(np.sum(a ** 2))
    disc = s1 * s1 - n * (s2 - ball.radius * ball.radius)
    return True, (-s1 + math.sqrt(disc)) / n


# the regions the chunked circle probe is checked on against its oracle
PROBE_REGIONS = {
    "ball": dom.Ball((0, 0), 1.0),
    "polydisc": dom.Polydisc((0, 0.5j), (1, 2)),
    "hartogs": dom.hartogs_figure(),
    "ball-and-polydisc": dom.Intersection((dom.Ball((0, 0), 1.0),
                                           dom.Polydisc((0.3, 0), (0.9, 0.8)))),
    "whole-space": dom.WholeSpace(2),
}


def probe_draws_oracle(region, trials, seed):
    """Per trial of the circle probe its (centre, direction, log-radius),
    one draw at a time: chunk c of ``classify._TRIAL_CHUNK`` trials draws
    from ``default_rng((seed, c))`` the one-candidate interior sample of
    every centre, then two n-draws per direction (the stream of
    ``unit_vector``), each too-short draw drawn again by ``unit_vector``
    after the others, then one log-uniform per trial."""
    n = region.dimension
    lo, hi = (math.log(r) for r in cl.RADII_RANGE)
    out = []
    for chunk, start in enumerate(range(0, trials, cl._TRIAL_CHUNK)):
        count = min(cl._TRIAL_CHUNK, trials - start)
        rng = np.random.default_rng((seed, chunk))
        centers = interior_sample_oracle(region, count, rng).reshape(count, n)
        draws = [rng.standard_normal(2 * n) for _ in range(count)]
        directions = [d[:n] + 1j * d[n:] for d in draws]
        directions = [v / norms.norm(v) if norms.norm(v) > _SHORTEST else None
                      for v in directions]
        directions = [unit_vector(rng, n) if v is None else v for v in directions]
        out += zip(centers, directions, [rng.uniform(lo, hi) for _ in range(count)])
    return out


def circle_probe_oracle(func, region, trials, seed, quadrature=cl.DEFAULT_QUADRATURE,
                        tol=1e-9, metric=None):
    """``classify.psh_test_circle_average`` one trial at a time, which the
    chunked probe replaces: the draws of ``probe_draws_oracle``, then per
    trial one distance call for the centre and one row call for the
    centre and its circle, each trial skipped on its own LevikitError.
    Kept as the oracle the chunks must match field for field.  An
    expression runs one walk (``walk_evaluate``) per point, so the oracle
    also holds the program that the probe runs to the walk's values and
    errors."""
    if isinstance(func, ex.Expr):
        def rows(zz):
            return [walk_evaluate(func, z).real for z in zz]
    else:
        rows = ex.real_rows(func)
    outcomes = []
    for a, delta, log_t in probe_draws_oracle(region, trials, seed):
        try:
            local = dom.distance_to_boundary(region, a, metric)
        except LevikitError:
            outcomes.append(None)
            continue
        if not math.isfinite(local):
            local = 1.0
        r = local * math.exp(log_t)
        if r >= local:
            outcomes.append(None)
            continue
        angles = 2.0 * np.pi * np.arange(quadrature) / quadrature
        circle = a + (delta * r) * np.exp(1j * angles)[:, None]
        try:
            center_val, *values = rows(np.vstack([a, circle]))
        except LevikitError:
            outcomes.append(None)
            continue
        total = 0.0
        for value in values:
            total += value
        deficit = center_val - total / quadrature
        if center_val <= cl.NEG_INF_CUTOFF:
            outcomes.append(None)
        elif deficit > tol:
            outcomes.append(cl.PshViolation(tuple(a), tuple(delta), float(r),
                                            float(deficit)))
        else:
            outcomes.append(True)
    return cl._psh_verdict("CircleAverage", outcomes)


# The sublevel foot-point search one point at a time, as it ran before its
# pairs became one lockstep batch of row calls: numpy points, one walk
# (``walk_evaluate``) per value, one ``calculus.complex_gradient`` per gradient
# and ``np.linalg.norm``.  Kept as the oracles that ``Sublevel._foot_points``,
# ``_reproject_rows``, ``_sampled_distance``, ``domains._march_rows`` and
# ``domains._bisect_rows`` must match bit for bit.

def bisect_level_oracle(f, level, z_in, z_out, outside=False):
    lo, hi = 0.0, 1.0
    seg = z_out - z_in
    if outside:
        z_hi = z_in + hi * seg
        if 0 <= walk_evaluate(f, z_hi).real - level <= dom._LEVEL_TOL:
            return z_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = z_in + mid * seg
        v = walk_evaluate(f, z).real - level
        on_level = 0 <= v <= dom._LEVEL_TOL if outside else abs(v) <= dom._LEVEL_TOL
        if on_level:
            return z
        if v < 0:
            lo = mid
        else:
            hi = mid
    return z_in + (hi if outside else 0.5 * (lo + hi)) * seg


def _gradient_oracle(d, b):
    return np.conj(lc.complex_gradient(d.expr, b))


def march_oracle(d, z, direction, s, v, steps):
    for _ in range(steps):
        probe = z + s * direction
        try:
            vp = walk_evaluate(d.expr, probe).real - d.level
        except LevikitError:
            return None
        if vp * v <= 0:
            return probe
        s *= 2.0
    return None


def reproject_oracle(d, c):
    v = walk_evaluate(d.expr, c).real - d.level
    if abs(v) <= dom._LEVEL_TOL:
        return c
    g = _gradient_oracle(d, c)
    gn = np.linalg.norm(g)
    if gn < 1e-12:
        return None
    probe = march_oracle(d, c, -np.sign(v) * (g / gn), abs(v) / gn, v, 60)
    if probe is None:
        return None
    inside_pt, outside_pt = (c, probe) if v < 0 else (probe, c)
    return bisect_level_oracle(d.expr, d.level, inside_pt, outside_pt)


def _metric_norm(v, metric):
    if metric == dom.EUCLIDEAN:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def foot_point_oracle(d, z, b0):
    b = np.asarray(b0)
    best = float(np.linalg.norm(z - b))
    for _ in range(12):
        g = _gradient_oracle(d, b)
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
            candidate = reproject_oracle(d, b + scale * tang)
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


def sampled_distance_oracle(d, zz, metric):
    """``d._sampled_distance(zz, metric)`` one row and one start at a time:
    the nearest cached boundary point, then ``min`` with the foot point of
    each of the 3 nearest, in ``np.argsort`` order."""
    pts = dom._cached_boundary_points(d)
    out = []
    for z in zz:
        dists = np.array([_metric_norm(z - b, metric) for b in pts])
        best = float(np.min(dists))
        for idx in np.argsort(dists)[:3]:
            best = min(best, _metric_norm(z - foot_point_oracle(d, z, pts[idx]), metric))
        out.append(best)
    return out


# Sublevel boundary sampling and classification one ray and one point at a
# time, as they ran before the row programs batched them: the scalar
# programs on lists of Python complex.  Kept as the oracles that
# ``Sublevel.boundary_sample`` and ``classify.classify_points`` must match
# bit for bit, errors included.

def cpython_step(z, t, direction):
    """The point list ``z + t * direction`` for a real ``t`` as CPython forms
    it on lists of Python complex: ``t`` is made complex first."""
    t = complex(t, 0.0)
    return [a + t * s for a, s in zip(z, direction)]


def march_on_lists_oracle(value, level, z, direction, s, v, steps):
    """``march_oracle`` on lists of Python complex, with ``value`` giving the
    list of f's values at a point; an error other than a LevikitError
    propagates."""
    for _ in range(steps):
        probe = cpython_step(z, s, direction)
        try:
            vp = value(probe)[0].real - level
        except LevikitError:
            return None
        if vp * v <= 0:
            return probe
        s *= 2.0
    return None


def bisect_outside_oracle(value, level, z_in, z_out):
    """The outer bracket point of the level set on [z_in, z_out], lists of
    Python complex, by bisection with ``value`` as in ``march_on_lists_oracle``."""
    lo, hi = 0.0, 1.0
    seg = [b - a for a, b in zip(z_in, z_out)]
    z_hi = cpython_step(z_in, hi, seg)
    if 0 <= value(z_hi)[0].real - level <= dom._LEVEL_TOL:
        return np.array(z_hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = cpython_step(z_in, mid, seg)
        v = value(z)[0].real - level
        if 0 <= v <= dom._LEVEL_TOL:
            return np.array(z)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return np.array(cpython_step(z_in, hi, seg))


def boundary_sample_oracle(d, count, rng):
    """``d.boundary_sample(count, rng)`` for a Sublevel ``d``, one ray per
    draw of the rejection loop, f evaluated by the walk one point at a time."""

    def value(z):
        return [walk_evaluate(d.expr, z)]

    z0 = d._interior_point(rng)
    box = d.bounding_polydisc()
    t_max = 2.0 * float(np.sum(box.radii)) + float(np.linalg.norm(z0 - box.center))
    start = z0.tolist()

    def draw():
        u = unit_vector(rng, d.dimension)
        z_out = march_on_lists_oracle(value, d.level, start, u.tolist(), 1e-3 * t_max,
                                      -1.0, 10)
        if z_out is None:
            return None
        z = bisect_outside_oracle(value, d.level, start, z_out)
        g = _gradient_oracle(d, z)
        gn = np.linalg.norm(g)
        outward = tuple(g / gn) if gn > 1e-12 else None
        return dom.BoundarySample(tuple(z), outward, "level-set")

    samples, skipped_rays = rejection_sample(draw, count, 100 * count,
                                             "sublevel boundary sampling failed")
    return dom.BoundarySamples(tuple(samples), skipped_rays)


def psh_spectral_oracle(f, region, grid, seed, tol=1e-9):
    """``classify.psh_test_spectral`` one point at a time."""
    outcomes = []
    for z in dom.interior_sample(region, grid, seed):
        try:
            h = lc.levi_matrix(f, z)
        except LevikitError:
            outcomes.append(None)
            continue
        eigs, vecs = np.linalg.eigh(h)
        outcomes.append(cl.PshViolation(tuple(z), tuple(vecs[:, 0]), None, float(-eigs[0]))
                        if eigs[0] < -tol else True)
    return cl._psh_verdict("LeviSpectral", outcomes)


class GivenDraws:
    """A generator stand-in for ``unit_vector``: its ``standard_normal``
    draws are the given rows, so a test picks each ray's direction
    (re + i im) / |re + i im| from two of them."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def standard_normal(self, n):
        return np.array(next(self._draws), dtype=float)


# {f < 0} in C^2 with a pole on the line z1 = 0, where f has no value, and a
# ray from the hint (0.5 + 0.5i, 0) along (-1 - i, 1 + i) / 2 that meets the
# pole exactly: at t = 1, where the march's first probe lies when the box
# radii are 250 (t_max = 1000), or at the first midpoint of the bisection to
# the probe at t = 2 when they are 500
POLE_EXPR = "abs2(z1) + abs2(z2) + 0.01/abs2(z1) - 1"
POLE_HINT = (0.5 + 0.5j, 0j)
POLE_RAY = ([-1.0, 1.0], [-1.0, 1.0])


def pole_domain(radius):
    return dom.Sublevel(ex.parse(POLE_EXPR, 2), 0.0, 2, box_center=POLE_HINT,
                        box_radii=(radius, radius), interior_hint=POLE_HINT)


def classify_point_oracle(f, a, tol_grad=None, tol_eig=None):
    """One boundary point's verdict from the scalar calculus functions."""
    aa = ex.as_point(a)
    if tol_grad is None:
        tol_grad = lc.default_gradient_tol(aa)
    try:
        basis, gnorm = lc.tangent_basis(f, aa, tol=tol_grad)
    except DegenerateGradient:
        return cl.PointVerdict(tuple(aa), 0.0, (), cl.DEGENERATE, math.nan,
                               tol_eig if tol_eig is not None else math.nan, tol_grad)
    levi = lc.levi_matrix(f, aa)
    restricted = basis @ levi @ basis.conj().T
    if tol_eig is None:
        tol_eig = float(cl.default_eig_tol(levi))
    if restricted.shape[0] == 0:
        return cl.PointVerdict(tuple(aa), gnorm, (), cl.STRICTLY_PSEUDOCONVEX,
                               math.inf, tol_eig, tol_grad)
    eigs = np.linalg.eigvalsh(restricted)
    return cl.PointVerdict(tuple(aa), gnorm, tuple(float(v) for v in eigs),
                           cl.verdict_from_spectrum(eigs, tol_eig), float(eigs[0]),
                           tol_eig, tol_grad)


def classify_domain_oracle(d, samples, seed, tol_grad=None, tol_eig=None):
    """The verdicts of ``classify.classify_domain``, one sample at a time."""
    return [classify_point_oracle(d.defining_expr(s.face_index), s.point, tol_grad, tol_eig)
            for s in dom.boundary_sample(d, samples, seed).samples]


# Reinhardt sublevel distances in C^2 by a one-dimensional search over
# Γ = {s >= 0 : f(s) = level}.  Γ is parametrised by the angle of the ray
# from 0 in the modulus plane, and f at moduli is a numpy walk over the tree
# at real points, NaN where f has no value (a pole, ln of a non-positive
# number).  A dense scan of rays gives Γ's crossings, each solved by
# bisection; the nearest one is refined by zooming in on the angle, each
# angle's radius the crossing nearest the last best radius.  Needs numpy only.

def _tree_values(e, s):
    """Re e at the real point s (a pair of arrays), NaN where e has no value."""
    k = e.kind
    if k == "const":
        return np.asarray(e.value, dtype=complex)
    if k == "var":
        return s[e.index - 1].astype(complex)
    a, *rest = (_tree_values(c, s) for c in e.children)
    if k == "add":
        return a + rest[0]
    if k == "sub":
        return a - rest[0]
    if k == "mul":
        return a * rest[0]
    if k == "div":
        return a / np.where(rest[0] == 0, np.nan, rest[0])
    if k == "neg":
        return -a
    if k == "pow":
        return a ** e.exponent
    if k in ("abs", "abs2"):
        return np.abs(a) ** (1 if k == "abs" else 2) + 0j
    if k == "ln":
        return np.log(np.where(a.real > 0, a.real, np.nan)) + 0j
    if k == "exp":
        return np.exp(a)
    if k in ("re", "im", "conj"):
        return {"re": a.real + 0j, "im": a.imag + 0j, "conj": np.conj(a)}[k]
    raise ValueError(f"unknown node kind {k!r}")


def _on_rays(d):
    """f - level at radius r along the angle t, arrays broadcast."""
    def f(r, t):
        with np.errstate(all="ignore"):
            v = _tree_values(d.expr, (r * np.cos(t), r * np.sin(t))).real - d.level
        return np.where(np.isfinite(v), v, np.nan)
    return f


def _ray_roots(f, t, lo, hi):
    """The crossing of f(., t) in each bracket [lo, hi], by bisection."""
    v_lo = f(lo, t)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        v = f(mid, t)
        left = (v < 0) != (v_lo < 0)
        lo, hi, v_lo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, v_lo, v)
    return 0.5 * (lo + hi)


_MODULUS_ORACLES = {}


def modulus_distance_oracle(d, z, metric, rays=1001, steps=200, angles=65):
    """dist(|z|, Γ) for a Reinhardt sublevel domain in C^2 with a bounding
    box, in the metric asked for."""
    f = _on_rays(d)
    reach = math.hypot(*(abs(c) + r for c, r in zip(d.box_center, d.box_radii)))
    if d not in _MODULUS_ORACLES:
        t = np.linspace(0.0, math.pi / 2, rays)[:, None]
        r = np.linspace(0.0, reach, steps + 1)[None, :]
        v = f(r, t) * np.ones((rays, 1))
        i, k = np.nonzero((v[:, :-1] < 0) != (v[:, 1:] < 0)
                          & np.isfinite(v[:, :-1]) & np.isfinite(v[:, 1:]))
        _MODULUS_ORACLES[d] = (t[i, 0], _ray_roots(f, t[i, 0], r[0, k], r[0, k + 1]))
    ts, rs = _MODULUS_ORACLES[d]
    s = np.abs(np.asarray(z, dtype=complex))

    def gaps(t, r):
        diff = np.abs(np.stack([r * np.cos(t), r * np.sin(t)]) - s[:, None])
        return np.hypot(*diff) if metric == dom.EUCLIDEAN else diff.max(axis=0)

    best = int(np.argmin(gaps(ts, rs)))
    t0, r0 = ts[best], rs[best]
    lo, hi = max(0.0, t0 - math.pi / 2 / (rays - 1)), min(math.pi / 2, t0 + math.pi / 2 / (rays - 1))
    width = 2 * reach / steps
    while hi - lo > 1e-13:
        t = np.linspace(lo, hi, angles)
        # each angle's crossing nearest r0, from a fine scan about it
        r = np.maximum(r0 + width * np.linspace(-1.0, 1.0, 65), 0.0)
        v = f(r[None, :], t[:, None])
        change = (v[:, :-1] < 0) != (v[:, 1:] < 0)
        change &= np.isfinite(v[:, :-1]) & np.isfinite(v[:, 1:])
        near = np.where(change, np.abs(r[:-1] - r0), np.inf).argmin(axis=1)
        found = change[np.arange(angles), near]
        radius = _ray_roots(f, t, r[near], r[near + 1])
        g = np.where(found, gaps(t, radius), np.inf)
        i = int(np.argmin(g))
        r0 = radius[i]
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, angles - 1)]
    return float(g[i])


# the one-point formulas of the disc classes that one AffineDisc replaced,
# at a parameter w taken from a numpy parameter array

def affine_point(center, direction, radius, w):
    """w -> center + direction * radius * w."""
    return (np.asarray(center, dtype=complex)
            + np.asarray(direction, dtype=complex) * (radius * w))


def hartogs_point(r, j, dimension, w):
    """w -> (r + 1/j, w, 0, ..., 0)."""
    z = np.zeros(dimension, dtype=complex)
    z[0] = r + 1.0 / j
    z[1] = w
    return z


def exp_twisted_point(center, dir_primary, dir_secondary, r, t, g_coefficients, w):
    """w -> a + dir1 * r * w + dir2 * t * exp(g(r w)) with polynomial g."""
    u = r * w
    g = sum(complex(c) * u ** k for k, c in enumerate(g_coefficients))
    return (np.asarray(center, dtype=complex)
            + np.asarray(dir_primary, dtype=complex) * (r * w)
            + np.asarray(dir_secondary, dtype=complex) * (t * np.exp(g)))
