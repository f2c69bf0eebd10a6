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
from .sampling import block_values, deterministic_map, spawn_rngs, unit_vector

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
    samples: int
    seed: int
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


def default_eig_tol(h: np.ndarray) -> float:
    return 1e-6 * (1.0 + float(np.linalg.norm(h, 2)))


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
    aa = ex.as_point(a)
    if tol_grad is None:
        tol_grad = lc.default_gradient_tol(aa)
    try:
        basis, gnorm = lc.tangent_basis(f, aa, tol=tol_grad)
    except DegenerateGradient:
        return PointVerdict(tuple(aa), 0.0, (), DEGENERATE, math.nan,
                            tol_eig if tol_eig is not None else math.nan, tol_grad)
    levi = lc.levi_matrix(f, aa)
    # the Levi form written in the tangent basis
    restricted = basis @ levi @ basis.conj().T
    if tol_eig is None:
        tol_eig = default_eig_tol(levi)
    if restricted.shape[0] == 0:
        return PointVerdict(tuple(aa), gnorm, (),
                            STRICTLY_PSEUDOCONVEX, math.inf, tol_eig, tol_grad)
    eigs = np.linalg.eigvalsh(restricted)
    verdict = verdict_from_spectrum(eigs, tol_eig)
    return PointVerdict(tuple(aa), gnorm,
                        tuple(float(v) for v in eigs), verdict,
                        float(eigs[0]), tol_eig, tol_grad)


def classify_domain(d, samples: int, seed: int, tol_grad: float | None = None,
                    tol_eig: float | None = None) -> DomainClassification:
    """Classify seeded boundary samples; aggregate is the weakest verdict."""
    bset = dom.boundary_sample(d, samples, seed)

    def work(sample):
        f = d.defining_expr(sample.face_index)
        return classify_point(f, sample.point, tol_grad=tol_grad, tol_eig=tol_eig)

    verdicts = deterministic_map(work, bset.samples)
    counts = {name: 0 for name in VERDICT_ORDER}
    for v in verdicts:
        counts[v.verdict] += 1
    overall = next(name for name in VERDICT_ORDER if counts[name] > 0)
    return DomainClassification(tuple(verdicts), counts, overall, samples, seed,
                                bset.samples)


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
    """Minimum Levi eigenvalue over seeded interior points of the region."""
    points = dom.interior_sample(region, grid, seed)

    def work(z):
        try:
            h = lc.levi_matrix(f, z)
        except LevikitError:
            return None
        eigs, vecs = np.linalg.eigh(h)
        if eigs[0] < -tol:
            return PshViolation(tuple(z), tuple(vecs[:, 0]), None, float(-eigs[0]))
        return True

    return _psh_verdict("LeviSpectral", deterministic_map(work, points))


def _rows(func):
    """The row form of a point function, an (m, n) array to its m values:
    its own ``rows`` attribute if it has one, else one call per row."""
    return getattr(func, "rows", None) or (lambda zz: [func(z) for z in zz])


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
    center, mean = _center_and_mean(_rows(ex.as_real_function(func))(rows))
    return center - mean


# trials per chunk: enough to make the row calls few, few enough that a
# chunk's arrays stay small (3000-trial Hartogs probe, fresh interpreter: peak
# RSS 40.8 MB with 32-trial chunks, 41.9 MB with 128, 70 MB with one chunk)
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

    Trials run in chunks of ``_TRIAL_CHUNK``; each draws its centre,
    direction and log-radius from its own generator, in that order.  Per
    chunk, one rejection loop draws every centre (``dom.interior_points``,
    bit for bit what each generator alone would draw), one call of
    ``distances_to_boundary`` gives their distances, and one call of the
    point function's row form covers one array of every kept trial's centre
    and circle.  A LevikitError in either call skips only the trials that
    raise it (``block_values``); other exceptions propagate.  For
    ``neg_log_distance`` of this region and metric, a centre's value is -ln
    of its distance, and the row call covers the circles only.
    """
    rows = _rows(ex.as_real_function(func))
    roots = _unit_roots(quadrature)
    of_center = getattr(func, "neg_log_of", None) == (region, metric)
    log_lo, log_hi = (math.log(r) for r in RADII_RANGE)

    def distances(zz):
        return dom.distances_to_boundary(region, zz, metric).tolist()

    def chunk_outcomes(rngs):
        centers = dom.interior_points(region, rngs)
        deltas = np.array([unit_vector(rng, region.dimension) for rng in rngs])
        log_ts = [rng.uniform(log_lo, log_hi) for rng in rngs]
        outcomes = [None] * len(rngs)
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
        for i, r, dist, values in zip(index, radii, dists, block_values(rows, circles)):
            if values is None:
                continue
            if of_center:
                values = [-math.log(dist), *values]
            center_val, mean = _center_and_mean(values)
            if center_val <= NEG_INF_CUTOFF:
                continue
            deficit = center_val - mean
            outcomes[i] = (PshViolation(tuple(centers[i]), tuple(deltas[i]), float(r),
                                        float(deficit)) if deficit > tol else True)
        return outcomes

    rngs = spawn_rngs(seed, trials)
    chunks = [rngs[i:i + _TRIAL_CHUNK] for i in range(0, trials, _TRIAL_CHUNK)]
    return _psh_verdict("CircleAverage",
                        [o for part in deterministic_map(chunk_outcomes, chunks)
                         for o in part])


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

