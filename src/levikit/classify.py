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
from .sampling import deterministic_map, spawn_rngs, unit_vector

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
class StrictPshVerdict:
    verdict: str                # "StrictConsistent" | "NotStrict"
    min_eigenvalue: float
    witness: tuple
    tested: int


@dataclass(frozen=True)
class LogDistanceReport:
    conclusion: str             # "ConsistentWithPseudoconvex" | "NotPseudoconvex"
    metric: str
    inner: PshVerdict


@dataclass(frozen=True)
class ConvexityVerdict:
    point: tuple
    eigenvalues: tuple          # restricted real Hessian spectrum
    verdict: str                # "ConvexCertified" | "NotConvexCertified" | DEGENERATE
    min_eigenvalue: float


@dataclass(frozen=True)
class LeviLemmaEstimate:
    c: float
    ok: bool
    witness: tuple              # (point, direction) of tangential negativity, or None
    tested: int


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
        basis = lc.tangent_basis(f, aa, tol=tol_grad)
    except DegenerateGradient:
        return PointVerdict(tuple(aa), 0.0, (), DEGENERATE, math.nan,
                            tol_eig if tol_eig is not None else math.nan, tol_grad)
    levi = lc.levi_matrix(f, aa)
    restricted = lc.restricted_levi_matrix(levi, basis)
    if tol_eig is None:
        tol_eig = default_eig_tol(levi.entries)
    if restricted.shape[0] == 0:
        return PointVerdict(tuple(aa), basis.gradient_norm, (),
                            STRICTLY_PSEUDOCONVEX, math.inf, tol_eig, tol_grad)
    eigs = np.linalg.eigvalsh(restricted)
    verdict = verdict_from_spectrum(eigs, tol_eig)
    return PointVerdict(tuple(aa), basis.gradient_norm,
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


def convexity_point_check(f: ex.Expr, a, tol: float = 1e-9) -> ConvexityVerdict:
    """Real-Hessian analogue: spectrum restricted to the real tangent hyperplane."""
    aa = ex.as_point(a)
    g = lc.real_gradient(f, aa)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= lc.default_gradient_tol(aa):
        return ConvexityVerdict(tuple(aa), (), DEGENERATE, math.nan)
    vmat = np.array(lc.orthonormal_complement(g / gnorm, range(g.shape[0])))
    hess = lc.real_hessian_matrix(f, aa)
    restricted = vmat @ hess @ vmat.T
    eigs = np.linalg.eigvalsh(restricted)
    verdict = "ConvexCertified" if eigs[0] >= -tol else "NotConvexCertified"
    return ConvexityVerdict(tuple(aa), tuple(float(v) for v in eigs),
                            verdict, float(eigs[0]))


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
        eigs, vecs = np.linalg.eigh(h.entries)
        if eigs[0] < -tol:
            return PshViolation(tuple(z), tuple(vecs[:, 0]), None, float(-eigs[0]))
        return True

    return _psh_verdict("LeviSpectral", deterministic_map(work, points))


def _rows(func):
    """The row form of a point function, an (m, n) array to its m values:
    its own ``rows`` attribute if it has one, else one call per row."""
    return getattr(func, "rows", None) or (lambda zz: [func(z) for z in zz])


def _center_and_circle_mean(func, a, direction, radius: float, quadrature: int):
    """(f(a), the m-point average of f on the circle a + direction*r*e^it),
    from one call of the point function's row form on a and the m points."""
    a = ex.as_point(a)
    direction = ex.as_point(direction, a.shape[0])
    angles = 2.0 * np.pi * np.arange(quadrature) / quadrature
    circle = a + (direction * radius) * np.exp(1j * angles)[:, None]
    center, *values = _rows(func)(np.vstack([a, circle]))
    total = 0.0
    # left to right: np.sum and, from Python 3.12, sum() round differently
    for value in values:
        total += value
    return center, total / quadrature


def circle_average_deficit(func, a, direction, radius: float,
                           quadrature: int = DEFAULT_QUADRATURE) -> float:
    """f(a) minus the m-point average of f on the circle a + direction*r*e^it."""
    center, mean = _center_and_circle_mean(ex.as_real_function(func), a,
                                           direction, radius, quadrature)
    return center - mean


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
    """
    fcall = ex.as_real_function(func)
    rngs = spawn_rngs(seed, trials)
    lo, hi = RADII_RANGE

    def work(rng):
        centers = dom.interior_sample_rng(region, 1, rng)
        a = centers[0]
        delta = unit_vector(rng, region.dimension)
        try:
            local = dom.distance_to_boundary(region, a, metric)
        except LevikitError:
            return None
        if not math.isfinite(local):
            local = 1.0
        r = local * math.exp(rng.uniform(math.log(lo), math.log(hi)))
        if r >= local:
            return None
        try:
            center_val, mean = _center_and_circle_mean(fcall, a, delta, r, quadrature)
        except LevikitError:
            return None
        if center_val <= NEG_INF_CUTOFF:
            return None
        deficit = center_val - mean
        if deficit > tol:
            return PshViolation(tuple(a), tuple(delta), float(r), float(deficit))
        return True

    return _psh_verdict("CircleAverage", deterministic_map(work, rngs))


def neg_log_distance(region, metric: str):
    """The point function z -> -ln d(z, boundary) in the given metric, with
    a row form that asks for all the rows' distances at once."""
    def point(z):
        return -math.log(dom.distance_to_boundary(region, z, metric))

    def rows(zz):
        return [-math.log(d) for d in
                dom.distances_to_boundary(region, zz, metric).tolist()]

    point.rows = rows
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


def strict_psh_test(f: ex.Expr, region, grid: int, seed: int,
                    tol: float = 1e-9) -> StrictPshVerdict:
    """Strict positivity of the Levi spectrum at every sampled point."""
    points = dom.interior_sample(region, grid, seed)

    def work(z):
        try:
            eigs = lc.levi_matrix(f, z).eigenvalues()
        except LevikitError:
            return None
        return (float(eigs[0]), tuple(z))

    results = [r for r in deterministic_map(work, points) if r is not None]
    if not results:
        raise LevikitError("no evaluable sample points in the region")
    min_eig, witness = min(results, key=lambda r: r[0])
    verdict = "StrictConsistent" if min_eig > tol else "NotStrict"
    return StrictPshVerdict(verdict, min_eig, witness, len(results))


def levilemma_diagnostic(f: ex.Expr, region, samples: int, seed: int,
                         tol: float = 1e-10) -> LeviLemmaEstimate:
    """Empirical smallest c with form(delta) >= -c |delta| |<delta, conj grad>|.

    Tests raw random directions and their tangential projections at seeded
    interior points; reports failure when a tangential direction carries a
    negative form value (no finite c fits).
    """
    points = dom.interior_sample(region, samples, seed)
    rngs = spawn_rngs(seed + 1, len(points))
    c = 0.0
    tested = 0
    for z, rng in zip(points, rngs):
        try:
            h = lc.levi_matrix(f, z).entries
            grad = lc.complex_gradient(f, z).components
        except LevikitError:
            continue
        delta = unit_vector(rng, region.dimension)
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-12:
            continue
        w = grad.conj() / gnorm
        tangential = delta - lc.herm(delta, w) * w
        for direction in (delta, tangential):
            dn = np.linalg.norm(direction)
            if dn < 1e-12:
                continue
            form = float(np.real(direction @ h @ direction.conj()))
            tested += 1
            if form >= 0:
                continue
            proj = abs(np.dot(direction, grad))
            if proj <= 1e-10 * gnorm * dn:
                return LeviLemmaEstimate(math.inf, False,
                                         (tuple(z), tuple(direction)), tested)
            c = max(c, -form / (dn * proj))
    return LeviLemmaEstimate(c, True, None, tested)
