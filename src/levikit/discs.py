"""Holomorphic disc families, maximum-principle checks, continuity probes.

A disc maps the closed unit disc into C^n, holomorphically on the interior.
The continuity probe evaluates a j-indexed family: when every disc and every
disc boundary stays inside the domain and the limit boundary does too, but
the limit disc escapes, the escaping sample point certifies a continuity-
principle violation (so the domain cannot be a domain of holomorphy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains as dom
from . import expr as ex
from .errors import FamilyLeavesDomain, LevikitError
from .sampling import disc_points

J_LIMIT = 10 ** 6
# default family indices j
J_VALUES = range(2, 21)
# keep random interior samples off the rim so the equispaced boundary grid
# always dominates them for smooth integrands
INTERIOR_RADIUS_CAP = 0.98


@dataclass(frozen=True)
class AffineDisc:
    center: tuple
    direction: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", dom._as_ctuple(self.center))
        object.__setattr__(self, "direction", dom._as_ctuple(self.direction))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self):
        return len(self.center)

    def at(self, w: complex) -> np.ndarray:
        return np.asarray(self.center) + np.asarray(self.direction) * (self.radius * w)

    def describe(self) -> str:
        return f"affine(radius={self.radius})"


@dataclass(frozen=True)
class HartogsDisc:
    """w -> (r + 1/j, w, 0, ..., 0); the j-th disc of the compact-complement family."""

    r: float
    j: int
    dimension: int = 2

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("family index j must be >= 1")
        if self.dimension < 2:
            raise ValueError("needs at least two complex variables")

    def at(self, w: complex) -> np.ndarray:
        z = np.zeros(self.dimension, dtype=complex)
        z[0] = self.r + 1.0 / self.j
        z[1] = w
        return z

    def describe(self) -> str:
        return f"hartogs(r={self.r}, j={self.j})"


@dataclass(frozen=True)
class ExpTwistedDisc:
    """w -> a + dir1 * r * w + dir2 * t * exp(g(r w)) with polynomial g."""

    center: tuple
    dir_primary: tuple
    dir_secondary: tuple
    r: float
    t: float
    g_coefficients: tuple      # g(u) = sum_k c_k u^k

    def __post_init__(self):
        object.__setattr__(self, "center", dom._as_ctuple(self.center))
        object.__setattr__(self, "dir_primary", dom._as_ctuple(self.dir_primary))
        object.__setattr__(self, "dir_secondary", dom._as_ctuple(self.dir_secondary))
        object.__setattr__(self, "g_coefficients",
                           tuple(complex(c) for c in self.g_coefficients))

    @property
    def dimension(self):
        return len(self.center)

    def at(self, w: complex) -> np.ndarray:
        u = self.r * w
        g = sum(c * u ** k for k, c in enumerate(self.g_coefficients))
        return (np.asarray(self.center)
                + np.asarray(self.dir_primary) * (self.r * w)
                + np.asarray(self.dir_secondary) * (self.t * np.exp(g)))

    def describe(self) -> str:
        return f"exp_twisted(r={self.r}, t={self.t})"


def boundary_parameters(count: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / count)


def interior_parameters(count: int, seed: int,
                        radius_cap: float = INTERIOR_RADIUS_CAP) -> np.ndarray:
    """Seeded interior parameters; w = 0 is always the first entry."""
    rng = np.random.default_rng(seed)
    return np.concatenate(([0j], disc_points(rng, [radius_cap] * (count - 1))))


@dataclass(frozen=True)
class MaxPrincipleResult:
    passed: bool
    interior_max: float
    boundary_max: float
    margin: float              # boundary_max - interior_max
    skipped: int


def disc_max_principle_check(func, disc, interior: int = 256,
                             boundary: int = 128, seed: int = 0,
                             tol: float = 1e-9) -> MaxPrincipleResult:
    """Pass iff the sampled interior max stays below the boundary max + tol.
    A sample where ``func`` raises a LevikitError or is NaN is skipped."""
    func = ex.as_real_function(func)
    skipped = 0

    def sample_max(params):
        nonlocal skipped
        best = -math.inf
        for w in params:
            try:
                v = func(disc.at(w))
            except LevikitError:
                v = math.nan
            if math.isnan(v):
                skipped += 1
            elif v > best:
                best = v
        return best

    inner = sample_max(interior_parameters(interior, seed))
    outer = sample_max(boundary_parameters(boundary))
    margin = outer - inner
    return MaxPrincipleResult(inner <= outer + tol, inner, outer, margin, skipped)


# ---------------------------------------------------------------------------
# continuity principle probe

@dataclass(frozen=True)
class IndexCheck:
    j: int
    image_inside: bool
    boundary_inside: bool


@dataclass(frozen=True)
class DiscReport:
    family_id: str
    per_index: tuple
    limit_boundary_inside: bool
    limit_points: tuple        # sampled limit-disc points (first few)
    violation: bool
    witness: tuple             # limit point failing membership, or None


def hartogs_family(r: float, dimension: int = 2, j_values=J_VALUES):
    """(j, disc) pairs of the discs (r + 1/j, w, 0, ...) plus their
    closed-form limit disc."""
    family = [(j, HartogsDisc(r, j, dimension)) for j in j_values]
    center = [0j] * dimension
    center[0] = complex(r)
    direction = [0j] * dimension
    direction[1] = 1.0 + 0j
    limit = AffineDisc(tuple(center), tuple(direction), 1.0)
    return family, limit


def affine_sweep_family(from_center, to_center, direction, radius: float,
                        j_values=J_VALUES):
    """(j, disc) pairs of affine discs whose centers march from one anchor
    toward another; the limit disc sits at the target anchor."""
    start = np.asarray(from_center, dtype=complex)
    target = np.asarray(to_center, dtype=complex)
    family = [(j, AffineDisc(tuple(start + (1.0 - 1.0 / j) * (target - start)),
                             direction, radius)) for j in j_values]
    limit = AffineDisc(tuple(target), direction, radius)
    return family, limit


def exp_twisted_family(center, dir_primary, dir_secondary, r: float,
                       g_coefficients, j_values=J_VALUES):
    """(j, disc) pairs of exp-twisted discs with twist amplitude
    t_j = 1 - 1/j; the limit has t = 1."""
    coeffs = tuple(complex(c) for c in g_coefficients)
    family = [(j, ExpTwistedDisc(center, dir_primary, dir_secondary, r,
                                 1.0 - 1.0 / j, coeffs)) for j in j_values]
    limit = ExpTwistedDisc(center, dir_primary, dir_secondary, r, 1.0, coeffs)
    return family, limit


def continuity_probe(domain, family, limit_disc, interior: int = 256,
                     boundary: int = 128, seed: int = 0) -> DiscReport:
    """Check a disc family against the continuity principle on a domain.

    ``family`` is a sequence of (j, disc) pairs, as the family builders
    return it, and ``limit_disc`` is its limit.

    Raises FamilyLeavesDomain when any indexed disc (image or boundary)
    leaves the domain: the probe is then inapplicable.  A violation is
    reported only when every indexed disc and the limit boundary stay
    inside but some sampled limit point escapes; that point re-checks as a
    strict membership failure.
    """
    inner_params = interior_parameters(interior, seed, radius_cap=0.999)
    outer_params = boundary_parameters(boundary)

    per_index = []
    for j, disc in family:
        image_ok = all(dom.contains(domain, disc.at(w)) for w in inner_params)
        boundary_ok = all(dom.contains(domain, disc.at(w)) for w in outer_params)
        per_index.append(IndexCheck(int(j), image_ok, boundary_ok))
        if not (image_ok and boundary_ok):
            raise FamilyLeavesDomain(
                f"disc {disc.describe()} (j={j}) leaves the domain; "
                "the continuity probe does not apply")

    family_id = family[0][1].describe() if family else "empty"
    limit_boundary_inside = all(dom.contains(domain, limit_disc.at(w))
                                for w in outer_params)
    limit_points = tuple(tuple(complex(c) for c in limit_disc.at(w))
                         for w in inner_params[:8])
    if not limit_boundary_inside:
        return DiscReport(family_id, tuple(per_index), False, limit_points,
                          False, None)

    witness = None
    for w in inner_params:
        pt = limit_disc.at(w)
        if not dom.contains(domain, pt):
            witness = tuple(complex(c) for c in pt)
            break
    return DiscReport(family_id, tuple(per_index), True, limit_points,
                      witness is not None, witness)
