"""Logarithmic images of complete Reinhardt domains and log-convexity tests.

For a finite union of polydiscs centered at 0, x lies in the log image iff
some member dominates e^x componentwise, so the image is a union of orthants
{x < a_k}, a_k = ln r_k.  The domain is a domain of holomorphy iff that
union is convex (Jarnicki & Pflug, *First Steps in SCV: Reinhardt Domains*,
2008), which holds iff one member contains all the others: the closure of a
convex union is a convex polyhedron with axis-parallel facets only, so an
orthant, and its corner is a member's.  Otherwise two image points whose
midpoint lies outside the image are a witness against holomorphy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import ReinhardtUnion

WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class LogConvexityWitness:
    p: tuple
    q: tuple
    midpoint: tuple
    p_defect: float           # negative: strictly inside the image
    q_defect: float
    midpoint_defect: float    # positive: strictly outside the image


@dataclass(frozen=True)
class ReinhardtReport:
    # DomainOfHolomorphy, NotDomainOfHolomorphy or NoObstructionFound
    conclusion: str
    reason: str
    witness: LogConvexityWitness   # None unless NotDomainOfHolomorphy


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
    if not log_image_defect(d, midpoint) > WITNESS_TOL:
        return "midpoint defect does not re-check"
    if not log_image_membership(d, p):
        return "endpoint p left the log image"
    if not log_image_membership(d, q):
        return "endpoint q left the log image"
    if max(abs(m - 0.5 * (a + b)) for m, a, b in zip(midpoint, p, q)) > 1e-12:
        return "midpoint is not the midpoint of p and q"
    return None


def _widest_gap(a: np.ndarray) -> tuple:
    """(p, q) across the widest gap.  From a maximal corner a_l toward a
    corner a_k not below it, s(t) = a_l + t (a_k - a_l) meets no closed
    orthant for 0 < t < t1, its first covered point.  With mu the defect of
    s(t1 / 2), p = a_l - mu/2 and q = s(t1) - mu/2 have midpoint defect mu/2.
    """
    # a zero-width gap at a corner: witness_failure rejects it
    best, p, q = 0.0, a[0], a[0]
    for corner in a:
        gap = a - corner
        if np.any(np.all(gap >= 0, axis=1) & np.any(gap > 0, axis=1)):
            continue                      # member l lies inside another
        for d in gap:
            if np.all(d <= 0):
                continue                  # member k lies inside member l
            # s(t) <= a_m exactly for t in [lo_m, hi_m], and never when a
            # coordinate with d_j = 0 already exceeds a_mj
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = gap / d
            lo = np.max(np.where(d < 0, ratio, 0.0), axis=1)
            hi = np.min(np.where(d > 0, ratio, np.inf), axis=1)
            covered = (lo <= hi) & np.all((d != 0) | (gap >= 0), axis=1)
            t1 = np.min(lo[covered & (lo > 0)])
            margin = np.min(np.max(corner + 0.5 * t1 * d - a, axis=1))
            if margin > best:
                best, p, q = margin, corner, corner + t1 * d
    return p - 0.5 * best, q - 0.5 * best


def log_convexity_test(d: ReinhardtUnion) -> ReinhardtReport:
    """Whether the union is a domain of holomorphy, exactly: yes when a
    member contains all others, no with the widest-gap midpoint witness."""
    a = _log_radii(d)
    for i, corner in enumerate(a):
        if np.all(a <= corner):
            return ReinhardtReport(
                "DomainOfHolomorphy",
                f"the union equals member {i} (radii {d.members[i].radii}), "
                f"a polydisc", None)
    p, q = _widest_gap(a)
    mid = 0.5 * (p + q)
    if witness_failure(d, p, q, mid) is not None:
        return ReinhardtReport(
            "NoObstructionFound",
            f"no member contains all others, but every gap in the logarithmic "
            f"image is narrower than the witness tolerance {WITNESS_TOL:g}", None)
    return ReinhardtReport(
        "NotDomainOfHolomorphy",
        "complete Reinhardt domain with non-convex logarithmic image",
        LogConvexityWitness(tuple(float(v) for v in p), tuple(float(v) for v in q),
                            tuple(float(v) for v in mid), log_image_defect(d, p),
                            log_image_defect(d, q), log_image_defect(d, mid)))
