"""Levi/strict pseudoconvexity and plurisubharmonicity classification.

Point verdicts come from the spectrum of the Levi form restricted to the
complex tangent space.  Function tests run either spectrally (minimum Levi
eigenvalue over sample points) or through the sub-mean-value criterion on
seeded circles; reports label the latter "sub-mean-value criterion" since
it is the classical consequence of subharmonicity, not its definition.

Everything is one-sided: a stored witness is a re-checkable certificate of
failure, while "consistent" verdicts only say the sampled family found no
obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus as lc
from . import domains as dom
from . import expr as ex
from .errors import DegenerateGradient, LevikitError
from .norms import row_norms
from .sampling import block_values, deterministic_map, unit_vectors

STRICTLY_PSEUDOCONVEX = "StrictlyPseudoconvex"
LEVI_ONLY = "LeviPseudoconvexOnly"
NOT_LEVI = "NotLeviPseudoconvex"
DEGENERATE = "DegenerateGradient"

# weakest first; a domain verdict is the weakest sampled point verdict
VERDICT_ORDER = (NOT_LEVI, DEGENERATE, LEVI_ONLY, STRICTLY_PSEUDOCONVEX)

RADII_RANGE = (1e-3, 0.3)  # circle radii, as fractions of the boundary distance
DEFAULT_QUADRATURE = 64
NEG_INF_CUTOFF = -1e12


@dataclass(frozen=True)
class PointVerdict:
    point: tuple
    gradient_norm: float
    eigenvalues: tuple          # restricted Levi spectrum, sorted ascending
    verdict: str
    min_eigenvalue: float       # +inf for n = 1 (empty tangent space)
    tol_eig: float
    tol_grad: float


@dataclass(frozen=True)
class DomainClassification:
    verdicts: tuple
    counts: dict
    domain_verdict: str
    boundary: tuple             # the classified BoundarySample objects, in order


@dataclass(frozen=True)
class PshViolation:
    point: tuple
    direction: tuple
    radius: float               # None in spectral mode
    deficit: float


@dataclass(frozen=True)
class PshVerdict:
    mode: str                   # "LeviSpectral" | "CircleAverage"
    verdict: str                # "ConsistentWithPsh" | "NotPsh"
    violations: tuple
    tested: int
    skipped: int


@dataclass(frozen=True)
class LogDistanceReport:
    conclusion: str             # "ConsistentWithPseudoconvex" | "NotPseudoconvex"
    metric: str
    inner: PshVerdict


def default_eig_tol(h: np.ndarray):
    """1e-6 * (1 + ||h||_2) for a matrix h, or for each of an (..., n, n) stack."""
    return 1e-6 * (1.0 + np.linalg.norm(h, 2, axis=(-2, -1)))


def verdict_from_spectrum(eigenvalues, tol_eig: float) -> str:
    """Three-way verdict; an empty spectrum (n = 1) is vacuously strict."""
    if len(eigenvalues) == 0:
        return STRICTLY_PSEUDOCONVEX
    lo = min(eigenvalues)
    if lo > tol_eig:
        return STRICTLY_PSEUDOCONVEX
    if lo < -tol_eig:
        return NOT_LEVI
    return LEVI_ONLY


def classify_point(f: ex.Expr, a, tol_grad: float | None = None,
                   tol_eig: float | None = None) -> PointVerdict:
    """Classify one boundary point of {f < 0} by its restricted Levi spectrum."""
    return classify_points([f], [a], [tol_grad], [tol_eig])[0]


def _default_eig_tols(levi) -> list:
    """``default_eig_tol`` of each matrix of a stack, from one call on the
    stack; where that raises LinAlgError (the norm of a NaN matrix), one
    call per matrix, and the error in place of each one that raises it."""
    try:
        return list(default_eig_tol(levi))
    except np.linalg.LinAlgError:
        out = []
        for h in levi:
            try:
                out.append(default_eig_tol(h))
            except np.linalg.LinAlgError as err:
                out.append(err)
        return out


def classify_points(fs, points, tol_grads, tol_eigs) -> list:
    """The PointVerdict of each boundary point ``points[i]`` of
    {fs[i] < 0}, with the tolerances ``tol_grads[i]`` and ``tol_eigs[i]``
    (None: the point's default).

    The points of one expression make one gradient and one Levi row call
    (``calculus.complex_gradients``, ``levi_matrices``); Gram-Schmidt runs
    per point, and the restricted Levi forms ``basis @ H @ basis^H``, the
    norms of the default tolerance and the spectra are each one stacked
    call.  Per point the checks keep their order: a gradient error raises;
    a degenerate gradient gives DegenerateGradient, without a Levi matrix;
    a Levi error or a non-Hermitian matrix raises.  Of the points that
    raise, the first raises.
    """
    if not len(points):
        return []
    zz = np.array(points, dtype=complex)
    n = zz.shape[1]
    tol_grads = [lc.default_gradient_tol(z) if tol is None else tol
                 for z, tol in zip(zz, tol_grads)]
    out = [None] * len(zz)       # per point its verdict, or its error
    for f in dict.fromkeys(fs):
        group = [i for i, g in enumerate(fs) if g is f]
        grads, errors = lc.complex_gradients(f, zz[group])
        gnorms = row_norms(grads).tolist()
        bases = {}
        for i, grad, gnorm, err in zip(group, grads, gnorms, errors):
            if err is not None:
                out[i] = err
                continue
            try:
                bases[i] = (lc.basis_from_gradient(grad, gnorm, tol_grads[i], zz[i]), gnorm)
            except DegenerateGradient:
                tol_eig = math.nan if tol_eigs[i] is None else tol_eigs[i]
                out[i] = PointVerdict(tuple(zz[i]), 0.0, (), DEGENERATE, math.nan,
                                      tol_eig, tol_grads[i])
        if not bases:
            continue
        levi, errors = lc.levi_matrices(f, zz[list(bases)])
        for i, err in zip(bases, errors):
            out[i] = err
        index = [i for i, err in zip(bases, errors) if err is None]
        levi = levi[[err is None for err in errors]]
        basis = np.array([bases[i][0] for i in index]).reshape(len(index), n - 1, n)
        restricted = basis @ levi @ basis.conj().transpose(0, 2, 1)
        defaults = (_default_eig_tols(levi)
                    if any(tol_eigs[i] is None for i in index) else index)
        spectra = np.linalg.eigvalsh(restricted) if n > 1 else [()] * len(index)
        for i, default, eigs in zip(index, defaults, spectra):
            tol_eig = tol_eigs[i]
            if tol_eig is None:
                tol_eig = default if isinstance(default, Exception) else float(default)
            out[i] = tol_eig if isinstance(tol_eig, Exception) else _point_verdict(
                zz[i], bases[i][1], eigs, tol_eig, tol_grads[i])
    for v in out:
        if isinstance(v, Exception):
            raise v
    return out


def _point_verdict(z, gnorm, eigs, tol_eig, tol_grad) -> PointVerdict:
    if len(eigs) == 0:
        return PointVerdict(tuple(z), gnorm, (), STRICTLY_PSEUDOCONVEX, math.inf,
                            tol_eig, tol_grad)
    return PointVerdict(tuple(z), gnorm, tuple(float(v) for v in eigs),
                        verdict_from_spectrum(eigs, tol_eig), float(eigs[0]),
                        tol_eig, tol_grad)


def classify_domain(d, samples: int, seed: int, tol_grad: float | None = None,
                    tol_eig: float | None = None) -> DomainClassification:
    """Classify seeded boundary samples; aggregate is the weakest verdict."""
    bset = dom.boundary_sample(d, samples, seed)
    m = len(bset.samples)
    verdicts = classify_points([d.defining_expr(s.face_index) for s in bset.samples],
                               [s.point for s in bset.samples], [tol_grad] * m,
                               [tol_eig] * m)
    counts = {name: 0 for name in VERDICT_ORDER}
    for v in verdicts:
        counts[v.verdict] += 1
    overall = next(name for name in VERDICT_ORDER if counts[name] > 0)
    return DomainClassification(tuple(verdicts), counts, overall, bset.samples)


# ---------------------------------------------------------------------------
# plurisubharmonicity tests

def _psh_verdict(mode: str, outcomes) -> PshVerdict:
    """The verdict of a psh test from one outcome per item: a PshViolation,
    True for an item that passed, or None for a skipped one."""
    violations = tuple(o for o in outcomes if isinstance(o, PshViolation))
    skipped = sum(o is None for o in outcomes)
    verdict = "NotPsh" if violations else "ConsistentWithPsh"
    return PshVerdict(mode, verdict, violations, len(outcomes) - skipped, skipped)


def psh_test_spectral(f: ex.Expr, region, grid: int, seed: int,
                      tol: float = 1e-9) -> PshVerdict:
    """Minimum Levi eigenvalue over seeded interior points of the region.

    One Levi row call (``calculus.levi_matrices``) covers every point and one
    stacked ``eigh`` every spectrum; a point whose Levi matrix raises a
    LevikitError is skipped, and of the points that raise anything else,
    the first raises."""
    points = dom.interior_sample(region, grid, seed)
    levi, errors = lc.levi_matrices(f, points)
    for err in errors:
        if err is not None and not isinstance(err, LevikitError):
            raise err
    kept = [err is None for err in errors]
    spectra = zip(*np.linalg.eigh(levi[kept]))
    outcomes = []
    for z, err in zip(points, errors):
        if err is not None:
            outcomes.append(None)
            continue
        eigs, vecs = next(spectra)
        outcomes.append(PshViolation(tuple(z), tuple(vecs[:, 0]), None, float(-eigs[0]))
                        if eigs[0] < -tol else True)
    return _psh_verdict("LeviSpectral", outcomes)


def _unit_roots(quadrature: int) -> np.ndarray:
    """The quadrature's points e^(2 pi i k/m) of the unit circle, as a column."""
    angles = 2.0 * np.pi * np.arange(quadrature) / quadrature
    return np.exp(1j * angles)[:, None]


def _circle_rows(a, direction, radius, roots) -> np.ndarray:
    """Per trial, the centre a, then the circle points a + direction*r*root:
    (k, 1 + m, n) from centres and directions (k, n) and radii (k,)."""
    a = a[:, None]
    return np.concatenate((a, a + (direction * radius[:, None])[:, None] * roots), axis=1)


def _center_and_mean(values):
    """(f(a), the mean of f on the circle) from the values of f on the rows
    of ``_circle_rows``."""
    center, *values = values
    total = 0.0
    # left to right: np.sum and, from Python 3.12, sum() round differently
    for value in values:
        total += value
    return center, total / len(values)


def circle_average_deficit(func, a, direction, radius: float,
                           quadrature: int = DEFAULT_QUADRATURE) -> float:
    """f(a) minus the m-point average of f on the circle a + direction*r*e^it."""
    a = ex.as_point(a)
    direction = ex.as_point(direction, a.shape[0])
    rows = _circle_rows(a[None], direction[None], np.array([radius]), _unit_roots(quadrature))[0]
    center, mean = _center_and_mean(ex.real_rows(func)(rows))
    return center - mean


def _passes_in_floats(center_dists, blocks, tol) -> list:
    """Per block of circle distances (None where its call raised), whether
    its -ln d trial passes on float arithmetic alone: its float deficit
    c + sum(ln d_k)/m (c = -ln of the centre's distance by ``math.log``,
    ``np.log`` and a numpy sum for the circle) is finite and at most
    ``tol - delta``.  See ``psh_test_circle_average`` for delta."""
    live = [j for j, block in enumerate(blocks) if block is not None]
    passes = [False] * len(blocks)
    if not live:
        return passes
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.array([blocks[j] for j in live]))
        m = logs.shape[1]
        center = np.array([-math.log(center_dists[j]) for j in live])
        deficit = center + logs.sum(axis=1) / m
        delta = (m + 8) * 2.0 ** -50 * (np.abs(center) + np.abs(logs).sum(axis=1) / m)
        ok = np.isfinite(deficit) & (deficit <= tol - delta)
    for j, settled in zip(live, ok.tolist()):
        passes[j] = settled
    return passes


# trials per chunk, on which the draws depend: enough to make the row calls
# few, few enough that a chunk's arrays stay small (3000-trial Hartogs probe,
# peak RSS 40.8 MB with 32-trial chunks, 41.9 MB with 128, 70 MB with one)
_TRIAL_CHUNK = 32


def psh_test_circle_average(func, region, trials: int, seed: int,
                            quadrature: int = DEFAULT_QUADRATURE,
                            tol: float = 1e-9,
                            metric: str | None = None) -> PshVerdict:
    """Sub-mean-value probe on seeded (center, direction, radius) triples.

    Radii are log-uniform over ``RADII_RANGE`` times the local boundary
    distance, so every tested closed disc stays inside the region.  Samples
    where the function drops below the -inf cutoff or errors are skipped
    and counted.  Each centre and circle is evaluated once: point functions
    are deterministic, and ``verify`` re-checks every stored violation.

    Trials run in chunks of ``_TRIAL_CHUNK``, the report's ``trial_chunk``.
    Chunk c draws from one generator, ``default_rng((seed, c))``: every
    centre (one ``region.interior_sample`` call), then every direction (one
    ``unit_vectors`` call), then every log-radius (one ``uniform`` call).
    Per chunk, one call of ``distances_to_boundary`` gives the centres'
    distances, and one call of the function's row form (``expr.real_rows``)
    covers one array of every kept trial's centre and circle.  A
    LevikitError in either call skips only the trials that raise it
    (``block_values``); other exceptions propagate.

    For ``neg_log_distance`` of this region and metric, a centre's value is
    -ln of its distance, and one ``distances_to_boundary`` call covers the
    circles only.  A float filter then settles the ordinary trials in one
    array pass: a trial passes at once when its float deficit F (``np.log``
    and a numpy sum, beside the exact centre value c = -``math.log`` of its
    distance) is finite and ``F <= tol - delta``, with

        delta = (m + 8) * 2^-50 * (|c| + sum_k |ln d_k| / m)

    for the m circle distances d_k.  Every other trial runs the exact path on
    the same distances: ``math.log`` per value, the left-to-right mean, the
    -inf cutoff and the violation record, so every witness and every skip
    comes from the exact arithmetic.  With u = 2^-53 and A = sum |ln d_k| / m,
    the exact deficit E differs from F by at most

        (2m + 6) u A + 2 u |c|  <=  (m + 3) * 2^-52 * (|c| + A):

    the two logs of each d_k differ by at most 2 ulp (4 u |ln d_k|, pinned by
    a test on numpy 2.4.6), either summation order errs by at most
    (m - 1) u sum |ln d_k|, and the divisions by m and the subtractions from
    c round once each.  delta is more than 4 times that bound, and a float
    F <= fl(tol - delta) then gives E <= tol: a filtered trial is never a
    violation the exact path would have stored.
    """
    rows = ex.real_rows(func)
    roots = _unit_roots(quadrature)
    of_center = getattr(func, "neg_log_of", None) == (region, metric)
    log_lo, log_hi = (math.log(r) for r in RADII_RANGE)

    def distances(zz):
        return dom.distances_to_boundary(region, zz, metric)

    def chunk_outcomes(c):
        k = min(_TRIAL_CHUNK, trials - c * _TRIAL_CHUNK)
        rng = np.random.default_rng((seed, c))
        centers = region.interior_sample(k, rng)
        deltas = unit_vectors(rng, k, region.dimension)
        log_ts = rng.uniform(log_lo, log_hi, size=k).tolist()
        outcomes = [None] * k
        kept = []
        for i, dist in enumerate(block_values(distances, centers[:, None])):
            if dist is None:
                continue
            local = dist[0] if math.isfinite(dist[0]) else 1.0
            r = local * math.exp(log_ts[i])
            if r < local:
                kept.append((i, r, dist[0]))
        if not kept:
            return outcomes
        index, radii, dists = (list(c) for c in zip(*kept))
        circles = _circle_rows(centers[index], deltas[index], np.array(radii), roots)
        if of_center:
            circles = np.ascontiguousarray(circles[:, 1:])  # frees the full array
            blocks = block_values(distances, circles)
            passes = _passes_in_floats(dists, blocks, tol)
        else:
            blocks = block_values(rows, circles)
            passes = [False] * len(blocks)
        for i, r, dist, values, passed in zip(index, radii, dists, blocks, passes):
            if values is None:
                continue
            if passed:
                outcomes[i] = True
                continue
            if of_center:
                values = [-math.log(dist), *(-math.log(d) for d in values.tolist())]
            center_val, mean = _center_and_mean(values)
            if center_val <= NEG_INF_CUTOFF:
                continue
            deficit = center_val - mean
            outcomes[i] = (PshViolation(tuple(centers[i]), tuple(deltas[i]), float(r),
                                        float(deficit)) if deficit > tol else True)
        return outcomes

    chunks = deterministic_map(chunk_outcomes, range(math.ceil(trials / _TRIAL_CHUNK)))
    return _psh_verdict("CircleAverage", [o for part in chunks for o in part])


def neg_log_distance(region, metric: str):
    """The point function z -> -ln d(z, boundary) in the given metric, with
    a row form that asks for all the rows' distances at once."""
    def point(z):
        return -math.log(dom.distance_to_boundary(region, z, metric))

    def rows(zz):
        return [-math.log(d) for d in
                dom.distances_to_boundary(region, zz, metric).tolist()]

    point.rows = rows
    point.neg_log_of = (region, metric)
    return point


def log_distance_probe(region, metric: str | None = None, trials: int = 1000,
                       seed: int = 0, tol: float = 1e-9) -> LogDistanceReport:
    """Pseudoconvexity evidence: test -ln d(z, boundary) for plurisubharmonicity."""
    if metric is None:
        metric = region.natural_metric
    inner = psh_test_circle_average(neg_log_distance(region, metric), region,
                                    trials, seed, tol=tol, metric=metric)
    conclusion = ("NotPseudoconvex" if inner.verdict == "NotPsh"
                  else "ConsistentWithPseudoconvex")
    return LogDistanceReport(conclusion, metric, inner)

