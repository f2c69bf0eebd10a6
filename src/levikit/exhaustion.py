"""Exhaustion functions and boundary blow-up checks.

The canonical exhaustion of a domain with non-empty boundary is
|z|^2 - ln d(z, boundary); with empty boundary the |z|^2 part alone already
has compact sublevel sets.  Blow-up along finitely many witnessed approach
sequences stands in for the untestable limit statement.

Approach sequences are the domain's exact paths: the boundary distance along
a path is evaluated from the path parameter in closed form, because the
naive r - |z| subtraction stalls at machine epsilon long before the recorded
values cross the blow-up thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains as dom
from . import expr as ex
from .errors import LevikitError

BLOWUP_RISE = 10.0
BLOWUP_FLOOR = 50.0
NORM_SQUARED = "norm-squared"
CANONICAL = "norm-squared-minus-log-distance"


def sequence_passed(first: float, final: float, increasing: bool) -> bool:
    """Blow-up rule for one sequence: it ends above
    max(first + BLOWUP_RISE, BLOWUP_FLOOR) and is increasing over its tail."""
    return final > first + BLOWUP_RISE and final > BLOWUP_FLOOR and increasing


def _norm_squared(z) -> float:
    return float(np.linalg.norm(np.asarray(z, dtype=complex)) ** 2)


def _canonical(z, distance) -> float:
    """|z|^2 - ln d, or |z|^2 at infinite distance."""
    if math.isinf(distance):
        return _norm_squared(z)
    return _norm_squared(z) - math.log(distance)


def build_exhaustion(domain, metric: str | None = None):
    """Callable z -> |z|^2 - ln d(z, boundary) (|z|^2 when there is no boundary).

    Defined and finite on the whole domain; raises PointOutsideDomain when
    misused on exterior points.  The distance is taken in the domain's
    natural metric unless another is requested; for interior points of
    polydiscs and Reinhardt unions the Euclidean and L-infinity distances
    coincide, so the default is Euclidean wherever they differ.
    """
    def f(z):
        zz = np.asarray(z, dtype=complex)
        return _canonical(zz, dom.distance_to_boundary(domain, zz, metric))

    return f


@dataclass(frozen=True)
class ExhaustionProbe:
    function_id: str
    domain_dict: dict
    sequences: tuple           # tuple of point tuples, one per approach path
    values: tuple              # recorded function values along each path


@dataclass(frozen=True)
class BlowupCheck:
    passed: bool
    per_sequence: tuple        # (first, final, eventually_increasing) triples


def _resolve_point_function(domain, function, metric):
    if function == NORM_SQUARED:
        return _norm_squared
    if function == CANONICAL:
        return build_exhaustion(domain, metric)
    if isinstance(function, ex.Expr) or callable(function):
        return ex.as_real_function(function)
    raise LevikitError(f"unknown exhaustion function id {function!r}")


def make_probe(domain, function=CANONICAL, metric: str | None = None,
               sequences: int = 8, seed: int = 0,
               steps: int = 56) -> ExhaustionProbe:
    """Record function values along seeded approach sequences.

    The built-in functions run along the domain's exact paths
    (``domains.approach_paths``) with the closed-form distance d(t), or
    along its point paths where it has none.  Other functions are evaluated
    at the float points of the point paths (``Domain.point_paths``), since
    the float points of an exact path round onto the boundary it approaches.
    """
    fid = function if isinstance(function, str) else (
        ex.to_text(function) if isinstance(function, ex.Expr) else "user-callable")
    fn = _resolve_point_function(domain, function, metric)
    if function in (NORM_SQUARED, CANONICAL):
        paths = dom.approach_paths(domain, sequences, seed, steps, metric)
    else:
        paths = domain.point_paths(sequences, seed, steps)
    seqs = []
    vals = []
    for path in paths:
        seqs.append(tuple(tuple(complex(c) for c in z) for z, _ in path))
        vals.append(tuple(_canonical(z, d) if function == CANONICAL and d is not None
                          else float(fn(z)) for z, d in path))
    return ExhaustionProbe(fid, domain.to_dict(), tuple(seqs), tuple(vals))


def exhaustion_blowup_check(probe: ExhaustionProbe) -> BlowupCheck:
    """Pass iff every sequence has 3 or more values and passes sequence_passed."""
    per = []
    ok = True
    for values in probe.values:
        if len(values) < 3:
            per.append((math.nan, math.nan, False))
            ok = False
            continue
        first, final = values[0], values[-1]
        tail = values[-5:]
        increasing = all(b > a for a, b in zip(tail, tail[1:]))
        per.append((first, final, increasing))
        ok = ok and sequence_passed(first, final, increasing)
    return BlowupCheck(ok, tuple(per))
