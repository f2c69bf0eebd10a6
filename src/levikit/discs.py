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
from .errors import FamilyLeavesDomain
from .sampling import block_values, disc_points

J_LIMIT = 10 ** 6
# default family indices j
J_VALUES = range(2, 21)
# keep random interior samples off the rim so the equispaced boundary grid
# always dominates them for smooth integrands
INTERIOR_RADIUS_CAP = 0.98


@dataclass(frozen=True)
class AffineDisc:
    """w -> center + direction * radius * w, plus twist * t * exp(g(radius w))
    when a twist is given, with g(u) = sum_k g_coefficients[k] u^k.  Its
    ``label`` is what ``describe`` returns (``affine(radius=...)`` if None)."""

    center: tuple
    direction: tuple
    radius: float
    twist: tuple | None = None
    t: float = 1.0
    g_coefficients: tuple = ()
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", dom._as_ctuple(self.center))
        object.__setattr__(self, "direction", dom._as_ctuple(self.direction))
        object.__setattr__(self, "radius", float(self.radius))
        if self.twist is not None:
            object.__setattr__(self, "twist", dom._as_ctuple(self.twist))
        object.__setattr__(self, "g_coefficients",
                           tuple(complex(c) for c in self.g_coefficients))

    @property
    def dimension(self):
        return len(self.center)

    def at(self, w) -> np.ndarray:
        """The disc's point at a parameter w, or for an array of parameters
        one row per parameter.  Each vector multiplies its parameter factor
        from the left, as in the one-point formula: numpy's complex product
        uses fused multiply-add, which is not symmetric in its operands."""
        u = self.radius * np.asarray(w)
        z = np.asarray(self.center) + np.asarray(self.direction) * u[..., None]
        if self.twist is None:
            return z
        # g per parameter, summed on numpy scalars as the one-point formula was
        g = np.array([sum(c * v ** k for k, c in enumerate(self.g_coefficients))
                      for v in np.ravel(u)], dtype=complex).reshape(np.shape(u))
        return z + np.asarray(self.twist) * (self.t * np.exp(g))[..., None]

    def describe(self) -> str:
        return self.label or f"affine(radius={self.radius})"


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
    A sample where ``func`` raises a LevikitError or is NaN is skipped.
    Each parameter set's points are one call of the function's row form
    (``expr.real_rows``); where it raises one, each point runs alone
    (``block_values``)."""
    rows = ex.real_rows(func)
    skipped = 0

    def sample_max(params):
        nonlocal skipped
        best = -math.inf
        for values in block_values(rows, disc.at(params)[:, None]):
            v = math.nan if values is None else values[0]
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
    """(j, disc) pairs of the discs w -> (r + 1/j, w, 0, ...) plus their
    closed-form limit disc (r, w, 0, ...)."""
    if dimension < 2:
        raise ValueError("needs at least two complex variables")
    direction = (0, 1) + (0,) * (dimension - 2)

    def disc(first, label=None):
        return AffineDisc((first,) + (0,) * (dimension - 1), direction, 1.0, label=label)

    return [(j, disc(r + 1.0 / j, f"hartogs(r={r}, j={j})")) for j in j_values], disc(r)


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
    """(j, disc) pairs of the discs w -> center + dir_primary r w +
    dir_secondary t_j exp(g(r w)), with twist amplitude t_j = 1 - 1/j; the
    limit has t = 1."""
    def disc(t):
        return AffineDisc(center, dir_primary, r, dir_secondary, t, g_coefficients,
                          f"exp_twisted(r={r}, t={t})")

    return [(j, disc(1.0 - 1.0 / j)) for j in j_values], disc(1.0)


def _membership(domain, disc, *param_sets) -> list:
    """Per parameter set, whether each point ``disc.at(w)`` is in the domain,
    from one ``contains`` call on the (m, n) array of the points of all sets;
    a None per set where building or testing them raises."""
    params = np.concatenate(param_sets)
    try:
        inside = domain.contains(disc.at(params).reshape(len(params), domain.dimension))
    except Exception:
        return [None] * len(param_sets)
    return np.split(np.asarray(inside, dtype=bool),
                    np.cumsum([len(p) for p in param_sets])[:-1])


def _first_outside(domain, disc, params, inside):
    """The index of the first w in ``params`` whose point ``disc.at(w)`` is
    not in the domain, or None: from ``inside`` (``_membership``), or where
    that is None from ``dom.contains`` one point at a time, so that the
    first False or error in parameter order decides."""
    if inside is None:
        return next((i for i, z in enumerate(disc.at(params))
                     if not dom.contains(domain, z)), None)
    return None if inside.all() else int(np.argmin(inside))


def continuity_probe(domain, family, limit_disc, interior: int = 256,
                     boundary: int = 128, seed: int = 0) -> DiscReport:
    """Check a disc family against the continuity principle on a domain.

    ``family`` is a sequence of (j, disc) pairs, as the family builders
    return it, and ``limit_disc`` is its limit.

    Raises FamilyLeavesDomain when any indexed disc (image or boundary)
    leaves the domain: the probe is then inapplicable.  A violation is
    reported only when every indexed disc and the limit boundary stay
    inside but some sampled limit point escapes; that point re-checks as a
    strict membership failure.  Each disc's points (image and boundary, or
    the limit's boundary and image) are one ``contains`` call
    (``_membership``); each check reads the first point outside in
    parameter order, as a loop over ``dom.contains`` would.
    """
    inner_params = interior_parameters(interior, seed, radius_cap=0.999)
    outer_params = boundary_parameters(boundary)

    per_index = []
    for j, disc in family:
        image, rim = _membership(domain, disc, inner_params, outer_params)
        image_ok = _first_outside(domain, disc, inner_params, image) is None
        boundary_ok = _first_outside(domain, disc, outer_params, rim) is None
        per_index.append(IndexCheck(int(j), image_ok, boundary_ok))
        if not (image_ok and boundary_ok):
            raise FamilyLeavesDomain(
                f"disc {disc.describe()} (j={j}) leaves the domain; "
                "the continuity probe does not apply")

    family_id = family[0][1].describe() if family else "empty"
    rim, image = _membership(domain, limit_disc, outer_params, inner_params)
    limit_boundary_inside = _first_outside(domain, limit_disc, outer_params, rim) is None
    limit_points = tuple(tuple(complex(c) for c in z) for z in limit_disc.at(inner_params[:8]))
    if not limit_boundary_inside:
        return DiscReport(family_id, tuple(per_index), False, limit_points,
                          False, None)

    i = _first_outside(domain, limit_disc, inner_params, image)
    witness = None if i is None else tuple(complex(c) for c in limit_disc.at(inner_params[i]))
    return DiscReport(family_id, tuple(per_index), True, limit_points,
                      witness is not None, witness)
