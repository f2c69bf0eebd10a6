"""Levi classification and plurisubharmonicity test coverage."""

import math

import numpy as np
import pytest

from levikit import calculus as lc
from levikit import classify as cl
from levikit import discs
from levikit import domains as dom
from levikit import expr as ex
from levikit.errors import LevikitError, PointOutsideDomain
from levikit.sampling import spawn_rngs, unit_vector

from helpers import compose_with_matrix, random_unitary

BALL2 = dom.Ball((0, 0), 1.0)
POLY2 = dom.Polydisc((0, 0), (1, 1))
BALL_F = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
FACE_F = ex.parse("abs2(z1) - 1", 2)
SADDLE_F = ex.parse("abs2(z1) - abs2(z2)", 2)


def test_classify_point_on_sphere_is_strict():
    pv = cl.classify_point(BALL_F, [1, 0])
    assert pv.verdict == cl.STRICTLY_PSEUDOCONVEX
    assert pv.eigenvalues == (1.0,)


def test_classify_point_on_polydisc_face_is_levi_only():
    pv = cl.classify_point(FACE_F, [1, 0.5])
    assert pv.verdict == cl.LEVI_ONLY
    assert pv.eigenvalues == (0.0,)


def test_classify_point_saddle_is_not_levi():
    pv = cl.classify_point(SADDLE_F, [1, 0])
    assert pv.verdict == cl.NOT_LEVI
    assert pv.eigenvalues == (-1.0,)


def test_classify_point_builds_one_levi_matrix(monkeypatch):
    real = lc.levi_matrix
    calls = []

    def counting(f, z):
        calls.append(z)
        return real(f, z)

    monkeypatch.setattr(lc, "levi_matrix", counting)
    pv = cl.classify_point(SADDLE_F, [1, 0])
    assert pv.verdict == cl.NOT_LEVI
    assert len(calls) == 1


def test_classify_point_degenerate_gradient():
    pv = cl.classify_point(ex.parse("abs2(z1)", 2), [0, 0.5])
    assert pv.verdict == cl.DEGENERATE


def test_classify_point_dimension_one_is_vacuously_strict():
    pv = cl.classify_point(ex.parse("abs2(z1) - 1", 1), [1.0])
    assert pv.verdict == cl.STRICTLY_PSEUDOCONVEX
    assert pv.eigenvalues == ()
    assert math.isinf(pv.min_eigenvalue)


def test_classify_ball_domain():
    result = cl.classify_domain(BALL2, 200, seed=0)
    assert result.domain_verdict == cl.STRICTLY_PSEUDOCONVEX
    assert result.counts[cl.STRICTLY_PSEUDOCONVEX] == 200
    for pv in result.verdicts:
        assert pv.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)


def test_classify_polydisc_domain():
    result = cl.classify_domain(POLY2, 200, seed=0)
    assert result.domain_verdict == cl.LEVI_ONLY
    assert result.counts[cl.LEVI_ONLY] == 200


def test_classify_sublevel_mixture_finds_not_levi_points():
    f = ex.parse("abs2(z1) - abs2(z2) + abs2(z2)^2 - 0.1", 2)
    d = dom.Sublevel(f, 0.0, 2, box_center=(0, 0), box_radii=(1.0, 1.2),
                     interior_hint=(0, 0))
    result = cl.classify_domain(d, 120, seed=3)
    assert result.counts[cl.NOT_LEVI] > 0
    assert result.domain_verdict == cl.NOT_LEVI
    # stored witnesses re-check
    for pv in result.verdicts:
        if pv.verdict == cl.NOT_LEVI:
            fresh = cl.classify_point(f, pv.point, tol_grad=pv.tol_grad,
                                      tol_eig=pv.tol_eig)
            assert fresh.verdict == cl.NOT_LEVI
            break


def test_verdict_invariant_under_scaling():
    two_f = ex.const(2) * BALL_F
    two_face = ex.const(2) * FACE_F
    samples = dom.boundary_sample(BALL2, 25, seed=8).samples
    faces = dom.boundary_sample(POLY2, 25, seed=9).samples
    for s in samples:
        a = cl.classify_point(BALL_F, s.point)
        b = cl.classify_point(two_f, s.point)
        assert a.verdict == b.verdict
        assert np.allclose(2 * np.array(a.eigenvalues), b.eigenvalues,
                           atol=1e-10)
    for s in faces:
        f = POLY2.defining_expr(s.face_index)
        a = cl.classify_point(f, s.point)
        b = cl.classify_point(ex.const(2) * f, s.point)
        assert a.verdict == b.verdict
        assert np.allclose(2 * np.array(a.eigenvalues), b.eigenvalues,
                           atol=1e-10)


def test_verdict_invariant_under_unitary_rotation():
    rng = np.random.default_rng(1)
    a = np.array([0.6, 0.8j])
    base = cl.classify_point(BALL_F, a)
    for _ in range(10):
        v = random_unitary(rng, 2)
        fv = compose_with_matrix(BALL_F, v)
        rotated = cl.classify_point(fv, np.linalg.solve(v, a))
        assert rotated.verdict == base.verdict
        assert np.allclose(sorted(rotated.eigenvalues),
                           sorted(base.eigenvalues), atol=1e-8)


def test_convexity_point_check_on_sphere():
    res = cl.convexity_point_check(BALL_F, [1, 0])
    assert res.verdict == "ConvexCertified"
    assert len(res.eigenvalues) == 3
    assert res.min_eigenvalue == pytest.approx(2.0, abs=1e-9)


def test_convexity_point_check_saddle():
    f = ex.parse("re(z1)^2 - im(z1)^2 + abs2(z2) - 1", 2)
    a = [1.0, 0.5]       # f(a) = 1 + 0.25 - 1 > 0: still a level point of f - 0.25
    g = ex.sub(f, ex.const(ex.evaluate(f, a).real))
    res = cl.convexity_point_check(g, a)
    assert res.verdict == "NotConvexCertified"
    assert res.min_eigenvalue < -1e-6


def test_convexity_point_check_polydisc_face():
    res = cl.convexity_point_check(FACE_F, [1, 0.5])
    assert res.verdict == "ConvexCertified"
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-9)


def test_psh_spectral_norm_squared():
    res = cl.psh_test_spectral(ex.parse("abs2(z1) + abs2(z2)", 2), BALL2,
                               grid=50, seed=0)
    assert res.verdict == "ConsistentWithPsh"
    assert res.mode == "LeviSpectral"


def test_psh_spectral_negative_norm_squared():
    res = cl.psh_test_spectral(ex.parse("-(abs2(z1) + abs2(z2))", 2), BALL2,
                               grid=50, seed=0)
    assert res.verdict == "NotPsh"
    assert all(v.deficit == pytest.approx(1.0) for v in res.violations)


def test_psh_spectral_pluriharmonic_on_annulus():
    region = dom.Ball((2,), 1.0)       # stays away from z1 = 0
    res = cl.psh_test_spectral(ex.parse("-ln(abs(z1))", 1), region,
                               grid=50, seed=0)
    assert res.verdict == "ConsistentWithPsh"


def test_psh_spectral_counts_its_skipped_points():
    # ln(re(z1)) is undefined at the 24 of 40 points with re(z1) <= 0
    res = cl.psh_test_spectral(ex.parse("ln(re(z1))*abs2(z2)", 2),
                               dom.Ball((0, 0), 1.0), 40, 0)
    assert (res.verdict, res.tested, res.skipped, len(res.violations)) == (
        "NotPsh", 16, 24, 16)


def test_circle_average_norm_squared():
    res = cl.psh_test_circle_average(ex.parse("abs2(z1) + abs2(z2)", 2),
                                     BALL2, trials=100, seed=0)
    assert res.verdict == "ConsistentWithPsh"
    res2 = cl.psh_test_circle_average(ex.parse("-(abs2(z1) + abs2(z2))", 2),
                                      BALL2, trials=100, seed=0)
    assert res2.verdict == "NotPsh"
    for v in res2.violations:
        assert v.deficit == pytest.approx(v.radius ** 2, rel=1e-6)


def test_circle_average_evaluates_each_trial_once():
    # one centre value and one circle of 64 points per tested trial; a
    # violation is stored as computed, not evaluated again
    calls = []

    def f(z):
        calls.append(1)
        return -float(np.sum(np.abs(z) ** 2))

    res = cl.psh_test_circle_average(f, BALL2, trials=20, seed=0)
    assert res.tested == 20 and res.violations
    assert len(calls) == 20 * (1 + cl.DEFAULT_QUADRATURE) == 1300
    for v in res.violations:
        assert v.deficit == cl.circle_average_deficit(f, v.point, v.direction,
                                                      v.radius)


def test_log_distance_probe_ball_and_polydisc_consistent():
    for region in (BALL2, POLY2):
        rep = cl.log_distance_probe(region, trials=300, seed=0)
        assert rep.conclusion == "ConsistentWithPseudoconvex"
        assert not rep.inner.violations


def test_log_distance_probe_hartogs_not_pseudoconvex():
    rep = cl.log_distance_probe(dom.hartogs_figure(), trials=1000, seed=0)
    assert rep.conclusion == "NotPseudoconvex"
    v = rep.inner.violations[0]
    # the stored witness re-checks through the public deficit entry point
    hf = dom.hartogs_figure()
    deficit = cl.circle_average_deficit(
        lambda z: -math.log(dom.distance_to_boundary(hf, z, rep.metric)),
        v.point, v.direction, v.radius)
    assert deficit > 1e-9
    assert deficit == pytest.approx(v.deficit, rel=1e-12)


def test_strict_psh_classifications():
    assert cl.strict_psh_test(ex.parse("abs2(z1) + abs2(z2)", 2), BALL2,
                              grid=40, seed=0).verdict == "StrictConsistent"
    res = cl.strict_psh_test(ex.parse("re(z1)^2", 2), BALL2, grid=40, seed=0)
    assert res.verdict == "NotStrict"
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    res2 = cl.strict_psh_test(ex.parse("-ln(abs(z1))", 1), dom.Ball((2,), 1.0),
                              grid=40, seed=0)
    assert res2.verdict == "NotStrict"


def test_levilemma_diagnostic():
    res = cl.levilemma_diagnostic(BALL_F, BALL2, samples=40, seed=0)
    assert res.ok and res.c == 0.0
    face = cl.levilemma_diagnostic(FACE_F, POLY2, samples=40, seed=0)
    assert face.ok and face.c == 0.0
    f = ex.parse("abs2(z1) - abs2(z2) + abs2(z2)^2 - 0.1", 2)
    region = dom.Sublevel(f, 0.0, 2, box_center=(0, 0), box_radii=(1.0, 1.2),
                          interior_hint=(0, 0))
    bad = cl.levilemma_diagnostic(f, region, samples=60, seed=1)
    assert not bad.ok and bad.witness is not None


def test_spectral_and_circle_average_never_disagree():
    cases = [("abs2(z1) + abs2(z2)", False),
             ("abs2(z1)^2 + abs2(z2)", False),
             ("re(z1)", False),
             ("-(abs2(z1) + abs2(z2))", True),
             ("re(z1)^2 - im(z1)^2 - abs2(z2)", True)]
    for text, expect_violation in cases:
        f = ex.parse(text, 2)
        spectral = cl.psh_test_spectral(f, BALL2, grid=80, seed=5)
        circle = cl.psh_test_circle_average(f, BALL2, trials=120, seed=5)
        assert (spectral.verdict == "NotPsh") == expect_violation
        assert (circle.verdict == "NotPsh") == expect_violation


def test_circle_average_pass_implies_disc_max_principle():
    f = ex.parse("abs2(z1)^2 + abs2(z2) + re(z1*z2)", 2)
    res = cl.psh_test_circle_average(f, BALL2, trials=100, seed=2)
    assert res.verdict == "ConsistentWithPsh"
    rng = np.random.default_rng(3)
    for _ in range(20):
        center = dom.interior_sample(BALL2, 1, int(rng.integers(1 << 30)))[0]
        local = dom.distance_to_boundary(BALL2, center)
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        disc = discs.AffineDisc(tuple(center), tuple(direction),
                                0.8 * local)
        check = discs.disc_max_principle_check(f, disc, seed=4)
        assert check.passed


def test_neg_inf_samples_are_skipped():
    def f(z):
        u = abs(z[0])
        return -1e15 if u < 0.5 else float(u)

    res = cl.psh_test_circle_average(f, dom.Ball((0,), 1.0), trials=60, seed=0)
    assert res.skipped > 0


# the -ln d probe evaluates each circle with one array call

def _point_loop_deficit(f, a, direction, r, quadrature):
    # one point at a time, summed left to right
    total = 0.0
    for t in 2.0 * np.pi * np.arange(quadrature) / quadrature:
        total += f(a + direction * r * np.exp(1j * t))
    return f(a) - total / quadrature


@pytest.mark.parametrize("region, metric", [
    (dom.hartogs_figure(), dom.LINFTY), (dom.hartogs_figure(), dom.EUCLIDEAN),
    (dom.Polydisc((0, 0.5j), (1, 2)), dom.LINFTY),
    (dom.Intersection((BALL2, dom.Polydisc((0.3, 0), (0.9, 0.8)))), dom.EUCLIDEAN),
    (dom.Ball((0.2, 0, 0), 1.5), dom.LINFTY)])
def test_batched_circle_deficit_equals_the_point_loop(region, metric):
    f = cl.neg_log_distance(region, metric)
    rng = np.random.default_rng(11)
    for a in dom.interior_sample_rng(region, 10, rng):
        direction = unit_vector(rng, region.dimension)
        r = 0.9 * dom.distance_to_boundary(region, a, metric)
        for quadrature in (64, 8):
            expected = _point_loop_deficit(f, a, direction, r, quadrature)
            assert cl.circle_average_deficit(f, a, direction, r, quadrature) == expected
            assert cl.circle_average_deficit(lambda z: f(z), a, direction, r,
                                             quadrature) == expected


def test_circle_that_crosses_the_boundary_skips_its_trial():
    region = dom.Polydisc((0, 0), (1, 1))
    small = dom.Polydisc((0, 0), (0.8, 0.8))
    res = cl.psh_test_circle_average(cl.neg_log_distance(small, dom.LINFTY), region,
                                     trials=200, seed=3, metric=dom.LINFTY)
    # the same trials, one point at a time
    centre_out = crossing = 0
    for rng in spawn_rngs(3, 200):
        a = dom.interior_sample_rng(region, 1, rng)[0]
        direction = unit_vector(rng, 2)
        local = dom.distance_to_boundary(region, a, dom.LINFTY)
        r = local * math.exp(rng.uniform(*map(math.log, cl.RADII_RANGE)))
        circle = [a + direction * r * np.exp(1j * t) for t in
                  2.0 * np.pi * np.arange(cl.DEFAULT_QUADRATURE) / cl.DEFAULT_QUADRATURE]
        if not dom.contains(small, a):
            centre_out += 1
        elif not all(dom.contains(small, z) for z in circle):
            crossing += 1
    assert crossing > 0
    assert res.skipped == centre_out + crossing
    assert res.tested == 200 - res.skipped
    with pytest.raises(PointOutsideDomain):
        cl.circle_average_deficit(cl.neg_log_distance(small, dom.LINFTY),
                                  [0.7, 0], [1, 0], 0.2)


def test_hartogs_trial_asks_each_member_for_two_distances(monkeypatch):
    # the local distance, and one array call for the centre and its circle
    real = dom.Polydisc.interior_distance
    calls = []

    def counting(self, zz, metric):
        calls.append(zz.shape)
        return real(self, zz, metric)

    monkeypatch.setattr(dom.Polydisc, "interior_distance", counting)
    rep = cl.log_distance_probe(dom.hartogs_figure(), trials=20, seed=0)
    assert rep.inner.tested == 20
    assert len(calls) == 20 * 2 * 2
    assert calls.count((1, 2)) == 20 * 2
    assert calls.count((cl.DEFAULT_QUADRATURE + 1, 2)) == 20 * 2


def test_classify_on_reinhardt_union_needs_a_defining_function():
    with pytest.raises(LevikitError, match="no global defining function for "
                                           "ReinhardtUnion"):
        cl.classify_domain(dom.hartogs_figure(), 4, 0)
