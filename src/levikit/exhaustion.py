"""Exhaustion functions and boundary blow-up checks.

The canonical exhaustion of a domain with non-empty boundary is
|z|^2 - ln d(z, boundary); with empty boundary the |z|^2 part alone already
has compact sublevel sets.  Blow-up along finitely many witnessed approach
sequences stands in for the untestable limit statement.

Every function runs along the domain's point paths (``Domain.point_paths``):
float points on segments from seeded boundary samples to one interior anchor,
at t = 10^-k and kept where inside, or outward rays on the whole space.  One
``distances_to_boundary`` call gives the distances of the points of all
paths, and with them the approach measure A = -ln d (ln |z|^2 where d is
infinite).  A sequence passes when, over its last ``TAIL`` points, the
function is strictly increasing and rises by at least half of A's rise,
which must span at least two decades of d.  Only the tail counts: float
points stop near the boundary at a distance the domain's geometry sets, and
a bounded function may still rise over the first decades of a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains as dom
from . import expr as ex
from .errors import EvalDomainError, LevikitError

TAIL = 5
MIN_APPROACH = 2.0 * math.log(10.0)
NORM_SQUARED = "norm-squared"
CANONICAL = "norm-squared-minus-log-distance"


def sequence_passed(rise: float, approach: float, increasing: bool) -> bool:
    """Blow-up rule for one sequence, from its tail: the function is strictly
    increasing there, A = -ln d rises by ``approach`` >= MIN_APPROACH, and
    the function by ``rise`` >= approach / 2.  NaN fields fail.

    The rule asks for growth of at least half of -ln d over the tail, which
    suffices for blow-up but is not necessary: c * phi exhausts a domain
    whenever phi does, yet 0.4 * -ln(1 - |z|^2) fails on the ball."""
    return increasing and approach >= MIN_APPROACH and rise >= approach / 2


def _norm_squared(zz) -> np.ndarray:
    """|z|^2 of each row."""
    return (zz.real ** 2 + zz.imag ** 2).sum(axis=1)


def _canonical(zz, dists) -> np.ndarray:
    """|z|^2 - ln d of each row, or |z|^2 where the distance is infinite."""
    norm2 = _norm_squared(zz)
    return np.where(np.isinf(dists), norm2, norm2 - np.log(dists))


def _approach(zz, dists) -> np.ndarray:
    """A = -ln d of each row, or ln |z|^2 where the distance is infinite."""
    return np.where(np.isinf(dists), np.log(_norm_squared(zz)), -np.log(dists))


def build_exhaustion(domain, metric: str | None = None):
    """Callable z -> |z|^2 - ln d(z, boundary) (|z|^2 when there is no boundary).

    Defined and finite on the whole domain; raises PointOutsideDomain when
    misused on exterior points.  The distance is taken in the domain's
    natural metric unless another is requested; for interior points of
    polydiscs and Reinhardt unions the Euclidean and L-infinity distances
    coincide, so the default is Euclidean wherever they differ.  Its ``rows``
    attribute takes an (m, n) array and asks for all the rows' distances in
    one call; the point form is the row form on one row.  A distance that
    rounds to 0 at an inside point has no -ln d and raises EvalDomainError
    in both forms, which the circle probe counts as a skipped trial.
    """
    def rows(zz):
        zz = np.asarray(zz, dtype=complex)
        dists = dom.distances_to_boundary(domain, zz, metric)
        if not dists.all():
            raise EvalDomainError("-ln of a distance of 0 to the boundary")
        return _canonical(zz, dists)

    def f(z):
        return float(rows(ex.as_point(z, domain.dimension)[None])[0])

    f.rows = rows
    return f


@dataclass(frozen=True)
class ExhaustionProbe:
    function_id: str
    sequences: tuple           # tuple of point tuples, one per approach path
    values: tuple              # recorded function values along each path
    approach: tuple            # A = -ln d (ln |z|^2 at infinite d) along each path


@dataclass(frozen=True)
class BlowupCheck:
    passed: bool
    # (first, final, eventually_increasing, tail rise, tail approach) per sequence
    per_sequence: tuple


def make_probe(domain, function=CANONICAL, metric: str | None = None,
               sequences: int = 8, seed: int = 0,
               steps: int = 56) -> ExhaustionProbe:
    """Record function values and A along seeded approach sequences.

    Every function runs along the domain's point paths; the distances of
    all their points, in ``metric``, come from one ``distances_to_boundary``
    call, and a path keeps its points of positive distance.  The paths hold
    only points that ``contains`` accepted, and the distances take each row
    alone, so that call raises what the first failing path raises alone.
    The canonical function takes its -ln d from them, and the others are
    evaluated at the same points, one row call per path
    (``expr.real_rows``), which raises the first failing point's error.
    """
    fid = function if isinstance(function, str) else (
        ex.to_text(function) if isinstance(function, ex.Expr) else "user-callable")
    if function not in (NORM_SQUARED, CANONICAL) and not (
            isinstance(function, ex.Expr) or callable(function)):
        raise LevikitError(f"unknown exhaustion function id {function!r}")
    paths = domain.point_paths(sequences, seed, steps)
    flat = dom.distances_to_boundary(domain, np.concatenate(paths), metric)
    seqs, vals, approach = [], [], []
    for zz, dists in zip(paths, np.split(flat, np.cumsum([len(zz) for zz in paths])[:-1])):
        # a point whose distance rounds to 0 (the L-infinity gap of a ball
        # within about 1e-15 of its sphere) has no -ln d and is dropped
        zz, dists = zz[dists > 0], dists[dists > 0]
        seqs.append(tuple(tuple(complex(c) for c in z) for z in zz))
        if function == CANONICAL:
            values = _canonical(zz, dists).tolist()
        elif function == NORM_SQUARED:
            values = _norm_squared(zz).tolist()
        else:
            values = [float(v) for v in ex.real_rows(function)(zz)]
        vals.append(tuple(values))
        approach.append(tuple(_approach(zz, dists).tolist()))
    return ExhaustionProbe(fid, tuple(seqs), tuple(vals), tuple(approach))


def exhaustion_blowup_check(probe: ExhaustionProbe) -> BlowupCheck:
    """Pass iff every sequence has ``TAIL`` or more values and passes
    ``sequence_passed`` on its last ``TAIL``."""
    per = []
    for values, approach in zip(probe.values, probe.approach):
        if len(values) < TAIL:
            per.append((math.nan, math.nan, False, math.nan, math.nan))
            continue
        tail = values[-TAIL:]
        increasing = all(b > a for a, b in zip(tail, tail[1:]))
        per.append((values[0], values[-1], increasing, tail[-1] - tail[0],
                    approach[-1] - approach[-TAIL]))
    return BlowupCheck(all(sequence_passed(rise, approach, increasing)
                           for _, _, increasing, rise, approach in per), tuple(per))
