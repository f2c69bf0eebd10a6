"""Levi classification and plurisubharmonicity test coverage."""

import math

import numpy as np
import pytest

from levikit import calculus as lc
from levikit import classify as cl
from levikit import discs
from levikit import domains as dom
from levikit import expr as ex
from levikit.errors import LevikitError, PointOutsideDomain, SamplingExhausted
from levikit.sampling import unit_vector

from helpers import (PROBE_REGIONS, circle_probe_oracle, classify_domain_oracle,
                     classify_point_oracle, compose_with_matrix, pole_domain,
                     probe_draws_oracle, psh_spectral_oracle, random_unitary)

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
    real = lc.levi_matrices
    calls = []

    def counting(f, zz):
        calls.append(len(zz))
        return real(f, zz)

    monkeypatch.setattr(lc, "levi_matrices", counting)
    pv = cl.classify_point(SADDLE_F, [1, 0])
    assert pv.verdict == cl.NOT_LEVI
    assert calls == [1]


def test_classify_point_degenerate_gradient():
    pv = cl.classify_point(ex.parse("abs2(z1)", 2), [0, 0.5])
    assert pv.verdict == cl.DEGENERATE


def test_classify_point_dimension_one_is_vacuously_strict():
    pv = cl.classify_point(ex.parse("abs2(z1) - 1", 1), [1.0])
    assert pv.verdict == cl.STRICTLY_PSEUDOCONVEX
    assert pv.eigenvalues == ()
    assert math.isinf(pv.min_eigenvalue)


def _verdicts(classify, *args):
    """Every verdict's fields by repr (exact for floats, NaN included), or
    the error's class and message."""
    try:
        return [repr(v) for v in classify(*args)]
    except LevikitError as err:
        return type(err).__name__, str(err)


def _batched_domain(d, samples, seed, tol_grad=None, tol_eig=None):
    return cl.classify_domain(d, samples, seed, tol_grad, tol_eig).verdicts


UNIT_DISC = dom.Sublevel(ex.parse("abs2(z1) - 1", 1), 0.0, 1, box_center=(0,),
                         box_radii=(1,), interior_hint=(0.95,))
MIXTURE = dom.Sublevel(ex.parse("abs2(z1) - abs2(z2) + abs2(z2)^2 - 0.1", 2), 0.0, 2,
                       box_center=(0, 0), box_radii=(1.0, 1.2), interior_hint=(0, 0))


@pytest.mark.parametrize("d, samples, seed, tol_grad, tol_eig", [
    (UNIT_DISC, 60, 0, None, None),             # n = 1, skipped rays
    (pole_domain(1.0), 40, 1, None, None),
    (POLY2, 40, 2, None, None),                 # one group per face
    (dom.Polydisc((0.5, -1j), (1.0, 0.7)), 30, 3, 1e-8, 0),
    (MIXTURE, 40, 3, None, 1e-3),
    (BALL2, 20, 4, None, None),
], ids=["unit-disc", "pole", "polydisc", "polydisc-tolerances", "mixture", "ball"])
def test_classify_domain_equals_the_per_point_oracle(d, samples, seed, tol_grad, tol_eig):
    got = _verdicts(_batched_domain, d, samples, seed, tol_grad, tol_eig)
    assert got == _verdicts(classify_domain_oracle, d, samples, seed, tol_grad, tol_eig)
    assert len(got) == samples


def _points_oracle(fs, points, tol_grads, tol_eigs):
    return [classify_point_oracle(*args) for args in zip(fs, points, tol_grads, tol_eigs)]


def test_classify_points_with_a_degenerate_gradient_equals_the_oracle():
    # the origin has no tangent space; its Levi matrix is never asked for
    f = ex.parse("abs2(z1)^2 + abs2(z2) - 1", 2)
    points = [(1, 0), (0, 0), (0.6, 0.8j), (0, 0), (0.3, 0.95)]
    args = ([f] * 5, points, [None] * 5, [None, 1e-6, None, None, 0.5])
    got = _verdicts(cl.classify_points, *args)
    assert got == _verdicts(_points_oracle, *args)
    assert [v.verdict for v in cl.classify_points(*args)].count(cl.DEGENERATE) == 2


def test_classify_points_raises_the_first_error_in_point_order():
    # the gradient of 0.01/abs2(z1) has no value on z1 = 0; the Levi matrix
    # of re(z1) * ... is not Hermitian
    pole = ex.parse("abs2(z1) + abs2(z2) + 0.01/abs2(z1) - 1", 2)
    skew = ex.parse("abs2(z1) + abs2(z2) + i*re(z1)*im(z2) - 1", 2)
    for fs, points in [([BALL_F, pole, skew], [(1, 0), (0, 0.5), (0.6, 0.8)]),
                       ([BALL_F, skew, pole], [(1, 0), (0.6, 0.8), (0, 0.5)]),
                       ([pole, BALL_F, pole], [(0.5, 0.5), (0, 1), (0, 0.25)])]:
        args = (fs, points, [None] * 3, [None] * 3)
        got = _verdicts(cl.classify_points, *args)
        assert got == _verdicts(_points_oracle, *args)
        assert isinstance(got, tuple)


def test_default_eig_tols_keep_each_matrixs_error_in_place():
    # the norm of a NaN matrix raises LinAlgError for the whole stack; each
    # matrix then runs alone, and the error stands in for its tolerance
    first, second = cl._default_eig_tols(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
    assert first == 2e-06
    assert type(second) is np.linalg.LinAlgError


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


@pytest.mark.parametrize("text", [
    "ln(re(z1))*abs2(z2)",                      # skips the points with re(z1) <= 0
    "abs2(z1) - abs2(z2)",
    "abs2(z1) + i*re(z1)*im(z2)",               # not Hermitian anywhere: all skipped
    "abs2(z1)^2 - re(z1^2*z2) + exp(re(z2))",
])
def test_psh_spectral_equals_the_per_point_oracle(text):
    f = ex.parse(text, 2)
    got = cl.psh_test_spectral(f, BALL2, 40, 3)
    assert repr(got) == repr(psh_spectral_oracle(f, BALL2, 40, 3))


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
    # and bit for bit through the row form that verify uses, although the
    # probe computed each deficit inside a chunk's row call
    f = cl.neg_log_distance(hf, rep.metric)
    for v in rep.inner.violations:
        assert cl.circle_average_deficit(f, v.point, v.direction, v.radius) == v.deficit


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
    for a in region.interior_sample(10, rng):
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
    for a, direction, log_t in probe_draws_oracle(region, 200, 3):
        local = dom.distance_to_boundary(region, a, dom.LINFTY)
        r = local * math.exp(log_t)
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


def test_hartogs_chunk_asks_for_two_distance_arrays(monkeypatch):
    # per chunk: one array call for the centres' distances, one for every
    # circle point of the chunk (a centre's -ln d is -ln of its distance
    # from the first call); the float filter and the exact path both read
    # the second call's array, so there is no third
    real = dom.ReinhardtUnion.interior_distance
    calls = []

    def counting(self, zz, metric):
        calls.append(zz.shape)
        return real(self, zz, metric)

    monkeypatch.setattr(dom.ReinhardtUnion, "interior_distance", counting)
    trials = cl._TRIAL_CHUNK + 5
    rep = cl.log_distance_probe(dom.hartogs_figure(), trials=trials, seed=0)
    assert rep.inner.tested == trials
    rows = cl.DEFAULT_QUADRATURE
    assert calls == [(cl._TRIAL_CHUNK, 2), (cl._TRIAL_CHUNK * rows, 2), (5, 2), (5 * rows, 2)]


def test_classify_on_reinhardt_union_needs_a_defining_function():
    with pytest.raises(LevikitError, match="no global defining function for "
                                           "ReinhardtUnion"):
        cl.classify_domain(dom.hartogs_figure(), 4, 0)


# the chunked probe against the per-trial oracle, floats compared by repr

SPHERE2 = dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) - 1", 2), 0.0, 2,
                       (0, 0), (1.5, 1.5), (0, 0))
CHUNK_SIZES = (1, cl._TRIAL_CHUNK - 1, cl._TRIAL_CHUNK, cl._TRIAL_CHUNK + 1)
# SPHERE2 takes the modulus path; its circles have 8 points to keep it quick
BAND_REGIONS = {**{name: (region, cl.DEFAULT_QUADRATURE)
                   for name, region in PROBE_REGIONS.items()},
                "sphere-sublevel": (SPHERE2, 8)}


def _filter_delta(region, metric, v, quadrature):
    """The float filter's delta for the trial of the violation v."""
    rows = cl._circle_rows(np.array([v.point]), np.array([v.direction]),
                           np.array([v.radius]), cl._unit_roots(quadrature))[0]
    center, *dists = dom.distances_to_boundary(region, rows, metric).tolist()
    spread = sum(abs(math.log(d)) for d in dists) / quadrature
    return (quadrature + 8) * 2.0 ** -50 * (abs(math.log(center)) + spread)


def _band_tols(f, region, trials, seed, metric, quadrature):
    """tol values at the filter's edges, from the oracle's own deficits: the
    middle tested trial's exact deficit x, its float neighbours, x - delta,
    and a negative tol below every deficit, which makes each a violation."""
    every = circle_probe_oracle(f, region, trials, seed, quadrature, tol=-math.inf,
                                metric=metric).violations
    if not every:
        return [-1.0]
    v = every[len(every) // 2]
    x = v.deficit
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
            x - _filter_delta(region, metric, v, quadrature),
            min(0.0, *(w.deficit for w in every)) - 1.0]


@pytest.mark.parametrize("trials", CHUNK_SIZES)
@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
@pytest.mark.parametrize("name", sorted(BAND_REGIONS))
def test_chunked_log_distance_probe_equals_the_per_trial_oracle(name, metric, trials):
    # at the default tol, and at tols where the float filter must hand the
    # middle trial (or every trial) to the exact path
    region, quadrature = BAND_REGIONS[name]
    f = cl.neg_log_distance(region, metric)
    for seed in (0, 7):
        tols = [1e-9] + (_band_tols(f, region, trials, seed, metric, quadrature)
                         if seed == 0 else [])
        for tol in tols:
            got = cl.psh_test_circle_average(f, region, trials, seed, quadrature, tol,
                                             metric)
            expected = circle_probe_oracle(f, region, trials, seed, quadrature, tol,
                                           metric)
            assert repr(got) == repr(expected)
        if len(tols) > 2:
            assert got.tested and len(got.violations) == got.tested


def test_a_zero_circle_distance_is_left_to_the_exact_path(monkeypatch):
    # np.log(0) = -inf makes the float deficit -inf, which the filter must
    # not pass: math.log(0) on the exact path raises, as it did before
    real = dom.Polydisc.interior_distance

    def one_zero(self, zz, metric):
        d = real(self, zz, metric)
        if len(zz) > 3:          # the circles' call, not the centres'
            d[5] = 0.0
        return d

    monkeypatch.setattr(dom.Polydisc, "interior_distance", one_zero)
    with pytest.raises(ValueError, match="math domain error"):
        cl.log_distance_probe(POLY2, trials=3, seed=0)


def test_np_log_is_within_two_ulp_of_math_log():
    # the float filter's delta assumes it (4 u |ln d| per log)
    d = np.exp(np.random.default_rng(0).uniform(math.log(1e-8), math.log(1e3), 10 ** 6))
    exact = np.array([math.log(x) for x in d.tolist()])
    assert np.all(np.abs(np.log(d) - exact) <= 2 * np.spacing(np.abs(exact)))


@pytest.mark.parametrize("trials", CHUNK_SIZES + (300,))
@pytest.mark.parametrize("text", ["-ln(re(z1) + 0.5)", "re(z1)^2 - abs2(z2)"])
def test_chunked_probe_of_an_expression_equals_the_per_trial_oracle(text, trials):
    # the first raises (ln of a non-positive argument) where Re z1 <= -0.5,
    # and 36 of the 300 trials of seed 0 are skipped; the second is not psh
    f = ex.parse(text, 2)
    got = cl.psh_test_circle_average(f, BALL2, trials, 0)
    assert repr(got) == repr(circle_probe_oracle(f, BALL2, trials, 0))
    if trials == 300:
        assert (got.tested, got.skipped, bool(got.violations)) == (
            (264, 36, False) if text.startswith("-ln") else (300, 0, True))


def test_chunked_probe_on_a_sublevel_domain_equals_the_per_trial_oracle():
    # sampled distances: circles near the level set can leave the domain
    for metric in (dom.EUCLIDEAN, dom.LINFTY):
        f = cl.neg_log_distance(SPHERE2, metric)
        got = cl.psh_test_circle_average(f, SPHERE2, 3, 1, quadrature=8, metric=metric)
        assert repr(got) == repr(circle_probe_oracle(f, SPHERE2, 3, 1, quadrature=8,
                                                     metric=metric))


def test_chunked_probe_lets_other_errors_escape():
    def f(z):
        if abs(z[0]) > 0.9:
            raise ValueError("not a LevikitError")
        return 0.0

    with pytest.raises(ValueError, match="not a LevikitError"):
        cl.psh_test_circle_average(f, BALL2, 200, 0)
    empty = dom.Sublevel(ex.parse("abs2(z1) + 1", 1), 0.0, 1, box_center=(0,),
                         box_radii=(2,))
    with pytest.raises(SamplingExhausted, match="interior sampling of Sublevel"):
        cl.psh_test_circle_average(lambda z: 0.0, empty, 3, 0)


def test_probe_raises_the_oracles_exhaustion_inside_a_chunk():
    # about 1 in 1,000 candidates falls in this thin union, so a chunk's
    # budget of 1,000 candidates per centre runs out on some seeds: of the
    # two chunks (32 trials and 1), none on seeds 0-2, the first on seed 4
    # and the second on seed 3
    thin = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1.0, 0.0224)),
                               dom.Polydisc((0, 0), (0.0224, 1.0))))
    f = cl.neg_log_distance(thin, dom.LINFTY)
    trials = cl._TRIAL_CHUNK + 1
    raised = set()
    for seed in range(5):
        try:
            expected = circle_probe_oracle(f, thin, trials, seed, metric=dom.LINFTY)
        except SamplingExhausted as err:
            with pytest.raises(SamplingExhausted) as got:
                cl.psh_test_circle_average(f, thin, trials, seed, metric=dom.LINFTY)
            assert str(got.value) == str(err)
            raised.add(seed)
        else:
            got = cl.psh_test_circle_average(f, thin, trials, seed, metric=dom.LINFTY)
            assert repr(got) == repr(expected)
    assert raised == {3, 4}


# parts of both signed zeros and of either sign; nonzero parts stay above
# 1e-100, so no product in a circle point underflows to zero, where numpy's
# fused multiply-add kernels keep a sign that its baseline kernel does not
CIRCLE_PARTS = [0.0, -0.0, 1e-100, -1e-100, 0.3, -0.7, 1.25, -2.5]


def _hex_rows(rows):
    return [[(x.real.hex(), x.imag.hex()) for x in row] for row in rows.tolist()]


def test_stacked_circle_rows_equal_one_trial_at_a_time():
    rng = np.random.default_rng(5)
    roots = cl._unit_roots(cl.DEFAULT_QUADRATURE)
    for n in (1, 2, 3):
        k = 40
        parts = rng.choice(CIRCLE_PARTS, size=(2, k, n, 2))
        a, direction = parts[..., 0] + 1j * parts[..., 1]
        radii = np.exp(rng.uniform(math.log(1e-4), math.log(5.0), size=k))
        got = cl._circle_rows(a, direction, radii, roots)
        assert got.shape == (k, 1 + cl.DEFAULT_QUADRATURE, n)
        for i in range(k):
            one = cl._circle_rows(a[i:i + 1], direction[i:i + 1], radii[i:i + 1], roots)[0]
            # the circle as it was built before the chunk's rows were stacked
            before = np.vstack([a[i], a[i] + (direction[i] * float(radii[i])) * roots])
            assert _hex_rows(got[i]) == _hex_rows(one) == _hex_rows(before)


def test_log_distance_probe_gives_the_known_answers_over_seeds():
    # the benchmark's Hartogs config (3000 trials) finds a violation on each
    # of seeds 0-9 (2 to 8 of them); the ball and the polydisc are
    # pseudoconvex, so a violation there would be a false certificate
    hartogs = dom.hartogs_figure()
    for seed in range(10):
        assert cl.log_distance_probe(hartogs, trials=3000, seed=seed).inner.violations
    for region in (BALL2, POLY2):
        for seed in range(5):
            assert not cl.log_distance_probe(region, trials=3000, seed=seed).inner.violations


def test_stored_hartogs_violations_pass_verify():
    from levikit import report as rep
    from levikit.cli import run_command
    # 2000 trials find a violation on 19 of seeds 0-19 (300 found one on 10)
    report, code = run_command("log-distance-probe", {
        "domain": dom.hartogs_figure().to_dict(), "trials": 2000, "seed": 3})
    violations = [r for r in report["records"] if r["key"].startswith("violation")]
    assert code == 2 and violations
    assert rep.verify_report(report).passed
    # verify's deficit is the stored one, bit for bit
    f = cl.neg_log_distance(dom.hartogs_figure(), report["config"]["metric"])
    for record in violations:
        assert cl.circle_average_deficit(
            f, rep._record_vector(record, "point"), rep._record_vector(record, "direction"),
            record["radius"]) == record["deficit"]
