"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance below is pinned by the build contract, nothing is calibrated at
runtime.
"""

import math
import time

import numpy as np

from levikit import classify as cl
from levikit import calculus as lc
from levikit import discs
from levikit import domains as dom
from levikit import expr as ex
from levikit import hulls
from levikit import reinhardt as rh
from levikit import report as rep
from levikit.cli import run_command
from levikit.corpus import CORPUS, holomorphic_polynomials
from levikit.selftest import run_selftest


def _report(num, name, passed, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_ball_strict_pseudoconvexity():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for n in (2, 3):
        ball = dom.Ball((0,) * n, 1.0)
        result = cl.classify_domain(ball, 200, seed=0)
        for pv in result.verdicts:
            ok = ok and pv.verdict == cl.STRICTLY_PSEUDOCONVEX
            for eig in pv.eigenvalues:
                worst = max(worst, abs(eig - 1.0))
        ok = ok and worst <= 1e-6
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    _report(1, "ball strictly pseudoconvex in C^2 and C^3", ok,
            f"max |eig - 1| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_polydisc_levi_only():
    start = time.perf_counter()
    result = cl.classify_domain(dom.Polydisc((0, 0), (1, 1)), 200, seed=0)
    worst = max(abs(pv.min_eigenvalue) for pv in result.verdicts)
    ok = (all(pv.verdict == cl.LEVI_ONLY for pv in result.verdicts)
          and worst <= 1e-6)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    _report(2, "polydisc faces Levi pseudoconvex only", ok,
            f"max |tangential eig| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_hartogs_log_convexity_witness():
    start = time.perf_counter()
    hf = dom.hartogs_figure()
    result = rh.log_convexity_test(hf)
    elapsed = time.perf_counter() - start
    w = result.witness
    ok = w is not None
    if ok:
        ok = (rh.log_image_membership(hf, w.p)
              and rh.log_image_membership(hf, w.q)
              and not rh.log_image_membership(hf, w.midpoint)
              and w.midpoint_defect > 1e-9)
    ok = ok and elapsed < 1.0
    _report(3, "Hartogs figure log-convexity witness", ok,
            f"defect = {w.midpoint_defect:.3f}, {elapsed:.2f}s" if w else "no witness")


def test_criterion_04_log_distance_dichotomy():
    start = time.perf_counter()
    ball = cl.log_distance_probe(dom.Ball((0, 0), 1.0), trials=1000, seed=0,
                                 tol=1e-9)
    poly = cl.log_distance_probe(dom.Polydisc((0, 0), (1, 1)), trials=1000,
                                 seed=0, tol=1e-9)
    hartogs = cl.log_distance_probe(dom.hartogs_figure(), trials=1000, seed=0,
                                    tol=1e-9)
    elapsed = time.perf_counter() - start
    ok = (not ball.inner.violations and not poly.inner.violations
          and ball.conclusion == "ConsistentWithPseudoconvex"
          and poly.conclusion == "ConsistentWithPseudoconvex"
          and hartogs.conclusion == "NotPseudoconvex"
          and any(v.deficit > 1e-3 for v in hartogs.inner.violations)
          and elapsed < 30.0)
    deficit = max((v.deficit for v in hartogs.inner.violations), default=0.0)
    _report(4, "-ln d plurisubharmonic iff pseudoconvex", ok,
            f"hartogs deficit = {deficit:.3f}, {elapsed:.1f}s")


def test_criterion_05_derivative_correctness():
    result = run_selftest(points_per_expr=50, seed=0, tolerance=1e-6)
    ok = result.passed and len(result.checks) >= 20
    _report(5, "symbolic derivatives match finite differences", ok,
            f"max rel err = {result.max_rel_error:.2e} over "
            f"{len(result.checks)} expressions x 50 points")


def test_criterion_06_taylor_decomposition():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for sample in dom.boundary_sample(dom.Ball((0, 0), 1.0), 25, seed=1):
        for _ in range(8):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            parts = lc.taylor_decompose(f, sample.point, z)
            worst = max(worst, abs(parts.remainder))
    ok = worst <= 1e-12

    cubic = ex.parse("re(z1)^3", 1)
    delta = np.array([0.8 + 0.6j])
    ratios = []
    h = 1e-1
    while h >= 1e-4:
        parts = lc.taylor_decompose(cubic, [0.0], list(h * delta))
        ratios.append(abs(parts.remainder) / h ** 2)
        h /= 2
    drops = [a / b for a, b in zip(ratios, ratios[1:])]
    ok = ok and all(d >= 1.8 for d in drops)
    _report(6, "second-order decomposition exact/quadratic", ok,
            f"ball remainder = {worst:.1e}, min ratio drop = {min(drops):.2f}")


def test_criterion_07_levi_polynomial_negativity():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    rng = np.random.default_rng(7)
    ok = True
    worst = -math.inf
    for sample in dom.boundary_sample(dom.Ball((0, 0), 1.0), 50, seed=2):
        a = np.asarray(sample.point)
        g = lc.levi_polynomial(f, a)
        count = 0
        while count < 200:
            offs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            offs *= 0.5 * rng.uniform() ** 0.25 / np.linalg.norm(offs)
            z = a + offs
            if np.linalg.norm(z) > 1.0 or np.linalg.norm(z - a) == 0.0:
                continue
            count += 1
            val = ex.evaluate(g, z).real
            worst = max(worst, val)
            ok = ok and val < 0
    _report(7, "peak polynomial negative on the domain side", ok,
            f"max Re g = {worst:.2e} over 50 x 200 points")


def test_criterion_08_continuity_principle_witness():
    complement = dom.Sublevel(ex.parse("1 - abs2(z1) - abs2(z2)", 2), 0.0, 2)
    family, limit = discs.hartogs_family(1.0, 2)
    violated = discs.continuity_probe(complement, family, limit_disc=limit)
    ok = (violated.violation and violated.witness == (1 + 0j, 0j)
          and not dom.contains(complement, violated.witness))
    clean = discs.continuity_probe(dom.Ball((0, 0), 2.0), family,
                                   limit_disc=limit)
    ok = ok and not clean.violation
    _report(8, "compact-complement continuity violation at (1, 0)", ok,
            f"witness = {violated.witness}")


def test_criterion_09_disc_maximum_principle():
    rng = np.random.default_rng(11)
    polys = holomorphic_polynomials(25, 2, degree=4, seed=3)
    bounded_below = holomorphic_polynomials(25, 2, degree=4, seed=4,
                                            lower_bound=0.5)
    functions = ([(lambda z, h=h: abs(ex.evaluate(h, z))) for h in polys]
                 + [(lambda z, h=h: -math.log(abs(ex.evaluate(h, z))))
                    for h in bounded_below])
    # disc images stay inside the polydisc of radius 1.8, where the seeded
    # ln-case polynomials are bounded away from zero by construction
    disc_list = []
    for k in range(20):
        center = [1.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                  for _ in range(2)]
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        disc_list.append(discs.AffineDisc(tuple(center), tuple(direction),
                                          0.5 * rng.uniform(0.5, 1.0)))
    ok = True
    worst = -math.inf
    for func in functions:
        for k, disc in enumerate(disc_list):
            res = discs.disc_max_principle_check(func, disc, seed=k,
                                                 tol=1e-9)
            worst = max(worst, res.interior_max - res.boundary_max)
            ok = ok and res.passed
    _report(9, "disc maximum principle for |h| and -ln|h|", ok,
            f"max interior excess = {worst:.2e} over 50 functions x 20 discs")


def test_criterion_10_hull_cross_validation():
    rng = np.random.default_rng(5)
    false_outside = 0
    outside_far = 0
    outside_missed = 0
    start = time.perf_counter()
    for trial in range(20):
        pts = rng.standard_normal((100, 2))
        hull = hulls.convex_hull_2d(pts)
        queries = 2.0 * rng.standard_normal((1000, 2))
        results = hulls.affine_hull_membership(pts, queries, functionals=500,
                                               seed=trial)
        for q, res in zip(queries, results):
            inside_exact = hulls.polygon_contains(hull, q, tol=1e-12)
            if inside_exact and res.verdict == "Outside":
                false_outside += 1
            elif not inside_exact and hulls.distance_to_polygon(hull, q) >= 0.1:
                outside_far += 1
                if res.verdict != "Outside":
                    outside_missed += 1
    elapsed = time.perf_counter() - start
    rate = outside_missed / max(outside_far, 1)
    ok = false_outside == 0 and rate <= 0.05
    _report(10, "affine membership vs exact 2D hull", ok,
            f"0 false Outside required, got {false_outside}; "
            f"false-Inside rate = {rate:.3%} of {outside_far}, {elapsed:.1f}s")


def test_criterion_11_determinism():
    classify_cfg = {
        "domain": {"variant": "ball", "dimension": 2,
                   "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0},
        "samples": 100, "seed": 0,
    }
    a, _ = run_command("classify", dict(classify_cfg))
    b, _ = run_command("classify", dict(classify_cfg))
    ok = rep.canonical_bytes(a) == rep.canonical_bytes(b)

    serial, _ = run_command("classify", dict(classify_cfg, workers=1))
    parallel, _ = run_command("classify", dict(classify_cfg, workers=8))
    ok = ok and serial["records"] == parallel["records"]

    probe_cfg = {
        "domain": {"variant": "polydisc", "dimension": 2,
                   "center": [[0.0, 0.0], [0.0, 0.0]], "radii": [1.0, 1.0]},
        "trials": 200, "seed": 0,
    }
    c, _ = run_command("log-distance-probe", dict(probe_cfg, workers=1))
    d, _ = run_command("log-distance-probe", dict(probe_cfg, workers=8))
    ok = ok and c["records"] == d["records"] and c["summary"] == d["summary"]
    _report(11, "byte-identical reports, worker-count invariant", ok)
