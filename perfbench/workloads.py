"""The benchmark's workloads: seeded config generation and known answers.

Each workload is one levikit CLI command on one config generated from the
benchmark's ``--seed``; levikit only ever sees the generated config.  The
workloads were chosen so that each stresses a different set of layers:

hartogs-logdist
    ``log-distance-probe`` on the shipped ``configs/hartogs_log_distance.yaml``
    (Reinhardt union) at 3000 trials with ``workers: 1``.  Closed-form domain
    geometry plus the circle-average loop: per run about 200k
    ``distance_to_boundary``, 940k ``contains`` and 1.1M ``as_point`` calls
    and no expression evaluation.  It is the only workload that also runs
    the thread pool: one more repetition with ``workers: 2`` must give the
    same records, and its time over the timed ones is the per-layer
    ``sampling.pool_time_ratio``, which a keep-or-delete decision on the
    pool reads.  The timed repetitions run one worker because with two (on
    a 2-vCPU VM) repetitions of one input differed by up to 20%, rescaled:
    GIL hand-offs between vCPUs wait on the host's scheduler, which the
    speed probe on one thread cannot see.  Two workers were also slower
    (wall 14.8-17.7 s against 12.1-12.8 s for one).
quartic-logdist
    ``log-distance-probe`` on the convex sublevel domain
    ``abs2(z1)^2 + abs2(z2)^2 - 1 < 0``.  The sampled sublevel-distance path:
    the 512-point boundary cache built by bisection, then foot-point
    refinement, i.e. many scalar ``evaluate`` calls on a small tree, cached
    ``wirtinger`` lookups and ``np.linalg.norm`` calls.  Closed-form
    geometry is idle.  The cost of a trial depends on its seeded centre
    (the foot-point refinement takes more or fewer steps), so one 8-trial
    config per run let the seed alone move the run time by ~14%
    (quartiles over 8 seeds).  A run therefore draws ``QUARTIC_INPUTS``
    configs of ``QUARTIC_TRIALS`` trials and runs each in turn: 24
    distinct trials per run.
psh-sum-classify
    ``classify`` (200 samples) on the C^3 sublevel domain
    ``|z|^2 + sum_k |P_k(z)|^2 - 1 < 0`` with four seeded random holomorphic
    polynomials of five monomials of degree 1..3.  The only workload where
    large-tree ``evaluate``, derivative-tree construction, ``calculus``
    (Levi matrices, tangent bases) and eigen-solves all matter.
hull-affine
    ``hull`` with ``kind: affine`` and 500 functionals on 100 seeded Gaussian
    points in R^2 and 5000 seeded queries (the shape of acceptance
    criterion 10).  Exercises ``hulls`` and ``report`` (thousands of records
    and certificates) with ``expr``, ``domains`` and ``calculus`` idle; the
    only workload where YAML config loading dominates set-up.

Every known answer is exact, not statistical, except the Hartogs witness:
the domain is not pseudoconvex, but whether the probe finds a violation
depends on the trial count (see ``HARTOGS_TRIALS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

SHIPPED_HARTOGS = "configs/hartogs_log_distance.yaml"
# The shipped config's 1000 trials miss the witness on about 1 seed in 20
# (2 of 40 seeds found no violation); 3000 found at least 4 on each of
# 24 seeds, so the known answer holds on every seed.
HARTOGS_TRIALS = 3000

QUARTIC = "abs2(z1)^2 + abs2(z2)^2 - 1"
QUARTIC_INPUTS = 6
QUARTIC_TRIALS = 4

# |z|^2 + sum_k |P_k|^2 - 1: the Levi matrix is I + sum_k dP_k dP_k^*, at
# least the identity, so every boundary point is strictly pseudoconvex.
PSH_DIMENSION = 3
PSH_POLYNOMIALS = 4
# exponents of the five monomials of each P_k: degrees 1, 2, 2, 3, 3
PSH_PATTERNS = ((1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (1, 1, 1))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # (seed, repository root, smoke, input index) -> config mapping
    make_config: Callable[[int, object, bool, int], dict]
    # (report, config) -> known-answer failures, empty when correct
    check: Callable[[dict, dict], list]
    # also run once with workers: 2 and require equal records
    worker_gate: bool = False
    # distinct configs a run draws from its seed and runs in turn
    inputs: int = 1


def _rng(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Independent stream per workload and input, so adding one never
    shifts another."""
    return np.random.default_rng([seed, sum(name.encode()), index])


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _records(report: dict, prefix: str) -> list:
    return [r for r in report["records"] if r["key"].startswith(prefix)]


def _record(report: dict, key: str) -> dict:
    found = [r for r in report["records"] if r["key"] == key]
    return found[0] if found else {}


# ---------------------------------------------------------------------------
# hartogs-logdist

def hartogs_config(seed, root, smoke, index=0):
    with open(root / SHIPPED_HARTOGS, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["seed"] = _config_seed(_rng(seed, "hartogs-logdist"))
    cfg["workers"] = 1
    cfg["trials"] = 300 if smoke else HARTOGS_TRIALS
    return cfg


def _logdist_check(report, conclusion, want_violations):
    failures = []
    got = _record(report, "conclusion").get("conclusion")
    if got != conclusion:
        failures.append(f"conclusion {got!r}, expected {conclusion!r}")
    violations = _record(report, "aggregate").get("violations")
    if violations is None or (violations > 0) != want_violations:
        failures.append(f"{violations} violations, expected "
                        f"{'at least one' if want_violations else 'none'}")
    return failures


def hartogs_check(report, cfg):
    return _logdist_check(report, "NotPseudoconvex", want_violations=True)


# ---------------------------------------------------------------------------
# quartic-logdist

def quartic_config(seed, root, smoke, index=0):
    origin = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "domain": {"variant": "sublevel", "dimension": 2,
                   "expression": QUARTIC, "level": 0.0,
                   "box_center": origin, "box_radii": [1.0, 1.0],
                   "interior_hint": origin},
        "trials": 2 if smoke else QUARTIC_TRIALS,
        "seed": _config_seed(_rng(seed, "quartic-logdist", index)),
    }


def quartic_check(report, cfg):
    # the domain is convex: any witness is a false certificate
    return _logdist_check(report, "ConsistentWithPseudoconvex",
                          want_violations=False)


# ---------------------------------------------------------------------------
# psh-sum-classify

def psh_sum_expression(rng: np.random.Generator) -> str:
    """|z|^2 + sum_k |P_k|^2 - 1 with seeded monomials and coefficients.

    Every P_k has one monomial of each exponent pattern in ``PSH_PATTERNS``
    on randomly permuted variables, so all seeds give trees of one size
    and the run time depends on the seed only through the geometry.
    """
    terms = [f"abs2(z{j})" for j in range(1, PSH_DIMENSION + 1)]
    for _ in range(PSH_POLYNOMIALS):
        monomials = []
        for pattern in PSH_PATTERNS:
            exponents = rng.permutation(pattern)
            re_c, im_c = rng.uniform(-1.0, 1.0, size=2)
            factors = "*".join(f"z{j + 1}" if p == 1 else f"z{j + 1}^{p}"
                               for j, p in enumerate(exponents) if p)
            monomials.append(f"({re_c:.4f}{im_c:+.4f}*i)*{factors}")
        terms.append(f"abs2({' + '.join(monomials)})")
    return " + ".join(terms) + " - 1"


def psh_sum_config(seed, root, smoke, index=0):
    rng = _rng(seed, "psh-sum-classify")
    origin = [[0.0, 0.0]] * PSH_DIMENSION
    return {
        "domain": {"variant": "sublevel", "dimension": PSH_DIMENSION,
                   "expression": psh_sum_expression(rng), "level": 0.0,
                   # the domain lies in the unit ball: |z|^2 < 1
                   "box_center": origin, "box_radii": [1.0] * PSH_DIMENSION,
                   "interior_hint": origin},
        "samples": 12 if smoke else 200,
        "seed": _config_seed(rng),
    }


def psh_sum_check(report, cfg):
    failures = []
    points = _records(report, "point-")
    if len(points) != cfg["samples"]:
        failures.append(f"{len(points)} point records, expected {cfg['samples']}")
    bad = [r["key"] for r in points if r["verdict"] != "StrictlyPseudoconvex"]
    if bad:
        failures.append(f"{len(bad)} points not StrictlyPseudoconvex, "
                        f"first {bad[0]}")
    overall = _record(report, "aggregate").get("domain_verdict")
    if overall != "StrictlyPseudoconvex":
        failures.append(f"domain verdict {overall!r}")
    return failures


# ---------------------------------------------------------------------------
# hull-affine

def hull_config(seed, root, smoke, index=0):
    rng = _rng(seed, "hull-affine")
    points = rng.standard_normal((100, 2))
    queries = 2.0 * rng.standard_normal((200 if smoke else 5000, 2))
    return {"kind": "affine", "points": points.tolist(),
            "queries": queries.tolist(), "functionals": 500,
            "seed": _config_seed(rng)}


def hull_check(report, cfg):
    # criterion 10's oracle: no Outside verdict for a query inside the
    # exact hull
    from levikit import hulls

    hull = hulls.convex_hull_2d(np.asarray(cfg["points"], dtype=float))
    queries = _records(report, "query-")
    failures = []
    if len(queries) != len(cfg["queries"]):
        failures.append(f"{len(queries)} query records, expected "
                        f"{len(cfg['queries'])}")
    false_outside = [r["key"] for r in queries if r["verdict"] == "Outside"
                     and hulls.polygon_contains(hull, r["query"], tol=1e-12)]
    if false_outside:
        failures.append(f"{len(false_outside)} queries inside the exact hull "
                        f"reported Outside, first {false_outside[0]}")
    return failures


WORKLOADS = {w.name: w for w in (
    Workload("hartogs-logdist", "log-distance-probe", hartogs_config,
             hartogs_check, worker_gate=True),
    Workload("quartic-logdist", "log-distance-probe", quartic_config,
             quartic_check, inputs=QUARTIC_INPUTS),
    Workload("psh-sum-classify", "classify", psh_sum_config, psh_sum_check),
    Workload("hull-affine", "hull", hull_config, hull_check),
)}
