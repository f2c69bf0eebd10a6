"""Convex hull, affine membership and polynomial membership tests."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levikit import hulls
from levikit.errors import LevikitError

from helpers import (affine_membership_oracle, brute_force_extreme_points,
                     polynomial_membership_oracle)


def test_hull_of_square_plus_center():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    hull = hulls.convex_hull_2d(pts)
    assert len(hull) == 4
    assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    # counterclockwise orientation: positive signed area
    area = sum(hull[i][0] * hull[(i + 1) % 4][1]
               - hull[(i + 1) % 4][0] * hull[i][1] for i in range(4))
    assert area > 0


def test_hull_of_collinear_points():
    hull = hulls.convex_hull_2d([[0, 0], [1, 1], [2, 2]])
    assert set(hull) == {(0, 0), (2, 2)}
    assert hulls.convex_hull_2d([[3, 4]]) == [(3, 4)]


def test_hull_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 2))
    hull = set(hulls.convex_hull_2d(pts))
    oracle = brute_force_extreme_points(pts)
    assert hull == oracle


def test_affine_membership_inside_and_outside():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    inside, outside = hulls.affine_hull_membership(square, [[0.5, 0.5], [2, 0]])
    assert inside.verdict == "Inside"
    assert outside.verdict == "Outside"
    cert = outside.certificate
    u = np.asarray(cert["direction"])
    value = abs(u @ np.array([2.0, 0.0]) + cert["offset"])
    norm_k = max(abs(u @ p + cert["offset"]) for p in square)
    assert value > norm_k + 1e-9


def test_affine_membership_cross_validation():
    # smaller version of the acceptance criterion
    rng = np.random.default_rng(1)
    for trial in range(3):
        pts = rng.standard_normal((60, 2))
        hull = hulls.convex_hull_2d(pts)
        false_outside = 0
        outside_missed = 0
        outside_far = 0
        queries = 1.6 * rng.standard_normal((200, 2))
        results = hulls.affine_hull_membership(pts, queries, functionals=500,
                                               seed=trial)
        for q, res in zip(queries, results):
            exact_inside = hulls.polygon_contains(hull, q, tol=1e-12)
            if exact_inside and res.verdict == "Outside":
                false_outside += 1
            if not exact_inside and hulls.distance_to_polygon(hull, q) >= 0.1:
                outside_far += 1
                if res.verdict != "Outside":
                    outside_missed += 1
        assert false_outside == 0
        assert outside_missed <= 0.05 * max(outside_far, 1)


def test_affine_membership_monotone_in_functional_count():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 2))
    queries = 2.0 * rng.standard_normal((50, 2))
    for small, large in zip(
            hulls.affine_hull_membership(pts, queries, functionals=100, seed=9),
            hulls.affine_hull_membership(pts, queries, functionals=400, seed=9)):
        if small.verdict == "Outside":
            assert large.verdict == "Outside"
            assert large.best_margin >= small.best_margin - 1e-15


def test_affine_membership_idempotent_under_certified_inside_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 2))
    candidates = rng.standard_normal((100, 2))
    inside_points = [q for q, res in zip(
        candidates, hulls.affine_hull_membership(pts, candidates, seed=4))
        if res.verdict == "Inside"]
    augmented = np.vstack([pts, inside_points])
    queries = 1.5 * rng.standard_normal((100, 2))
    for a, b in zip(hulls.affine_hull_membership(pts, queries, seed=4),
                    hulls.affine_hull_membership(augmented, queries, seed=4)):
        assert a.verdict == b.verdict
        assert a.best_margin == pytest.approx(b.best_margin, abs=1e-14)


def test_polynomial_membership_circle():
    circle = [[np.exp(2j * np.pi * k / 64)] for k in range(64)]
    for degree in (1, 3, 8):
        res, = hulls.polynomial_hull_membership(circle, [[0]], degree)
        assert res.verdict == "Inside"   # maximum modulus forces |p(0)| <= 1
    out, = hulls.polynomial_hull_membership(circle, [[2]], 8)
    assert out.verdict == "Outside"
    # the identity map already separates at degree 1
    ident, = hulls.polynomial_hull_membership(circle, [[2]], 1)
    assert ident.verdict == "Outside"
    assert ident.certificate["exponents"] == [[1]]


def test_polynomial_membership_distinguished_boundary_of_polydisc():
    torus = [[np.exp(2j * np.pi * j / 24), np.exp(2j * np.pi * k / 24)]
             for j in range(24) for k in range(24)]
    res, = hulls.polynomial_hull_membership(torus, [[0.5, 0.5]], 8)
    assert res.verdict == "Inside"
    out, = hulls.polynomial_hull_membership(torus, [[0, 5]], 1)
    assert out.verdict == "Outside"
    # separated by the second coordinate function
    assert out.certificate["exponents"] == [[0, 1]]


def test_polynomial_membership_with_random_family_keeps_soundness():
    circle = [[np.exp(2j * np.pi * k / 64)] for k in range(64)]
    res, = hulls.polynomial_hull_membership(circle, [[0.2 + 0.1j]], 6,
                                            count=40, seed=5)
    assert res.verdict == "Inside"


def test_outside_certificates_reverify_with_margin():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    queries = [3.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
               for _ in range(20)]
    for q, res in zip(queries, hulls.polynomial_hull_membership(
            pts, queries, 4, count=10, seed=7)):
        if res.verdict == "Outside":
            cert = res.certificate
            coeffs = [complex(c[0], c[1]) for c in cert["coefficients"]]
            exps = [tuple(e) for e in cert["exponents"]]
            value = abs(hulls._eval_poly(exps, coeffs, q.reshape(1, -1))[0])
            norm_k = float(np.max(np.abs(
                hulls._eval_poly(exps, coeffs, pts))))
            assert value > norm_k + 1e-9


def test_hull_boundedness_check():
    circle = [[np.exp(2j * np.pi * k / 32)] for k in range(32)]
    bound = hulls.hull_boundedness_check(circle)
    assert bound.bound == pytest.approx(1.0, abs=1e-12)
    more = circle + [[3.0]]
    assert hulls.hull_boundedness_check(more).bound >= bound.bound


def test_load_point_set(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# comment\n1.0,0.0,0.0,1.0\n0.5,-0.5,2.0,0.0\n",
                    encoding="utf-8")
    pts = hulls.load_point_set(path, 2, is_complex=True)
    assert pts.shape == (2, 2) and pts.dtype == complex
    assert pts[0][1] == 1j
    real = tmp_path / "real.txt"
    real.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    rpts = hulls.load_point_set(real, 2, is_complex=False)
    assert rpts.shape == (2, 2) and rpts.dtype == float


def test_first_of_tied_polynomial_candidates_is_the_certificate():
    # z2 and z1 (in monomial order) both reach |p(z)| = 2 against sup_K = 0
    res, = hulls.polynomial_hull_membership([[0, 0]], [[2, 2]], 1)
    assert res.verdict == "Outside" and res.best_margin == 2.0
    assert res.certificate["exponents"] == [[0, 1]]


@pytest.mark.parametrize("member", [
    lambda: hulls.affine_hull_membership(
        [[0, 0], [1, 0], [0, 1]], [[math.nan, 0.0]]),
    lambda: hulls.polynomial_hull_membership(
        [[0, 0], [1, 0]], [[complex(math.nan, 0.0), 0]], 1),
], ids=["affine", "polynomial"])
def test_nan_margin_is_an_error_in_both_families(member):
    with pytest.raises(LevikitError, match="margin is NaN"):
        member()


@pytest.mark.parametrize("points, query, degree, named", [
    # z1^2 at 1e200 overflows
    ([[0, 0], [1, 0]], [1e200, 0], 2,
     r"margin is inf: \|f\(x\)\| is inf and sup_K \|f\| is 1.0 for tested function 4"),
    # finite parts whose modulus is above the float range
    ([[0, 0], [1, 0]], [complex(1.5e308, 1.5e308), 0], 1,
     r"margin is inf: \|f\(x\)\| is inf and sup_K \|f\| is 1.0 for tested function 1"),
], ids=["power", "modulus"])
def test_overflowing_polynomial_is_an_error_not_a_certificate(points, query, degree, named):
    # the non-finite size is named, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LevikitError, match=named):
            hulls.polynomial_hull_membership(points, [query], degree)


def _same_bits(batched, oracle):
    """Field for field, floats by their bits: the repr of a float is its
    shortest round trip, so equal reprs are equal bits (signed zeros too)."""
    assert len(batched) == len(oracle)
    for got, want in zip(batched, oracle):
        for field in ("query", "verdict", "certificate", "tested", "best_margin"):
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field


def _hull_queries(rng, pts, count):
    """Queries inside K (convex combinations), beyond max|K| (each with its
    own offset bound), points of K themselves, near the origin, and one
    repeat; complex where K is."""
    k, n = pts.shape

    def gauss(rows):
        z = rng.standard_normal((rows, n))
        return z + 1j * rng.standard_normal((rows, n)) if pts.dtype == complex else z

    far = gauss(count)
    far *= (1.5 + 3.0 * rng.random((count, 1))) * np.max(np.abs(pts)) / np.max(
        np.abs(far), axis=1, keepdims=True)
    rows = np.vstack([rng.dirichlet(np.ones(k), size=count) @ pts, far,
                      pts[rng.integers(0, k, size=count)], 0.5 * gauss(count)])
    rows = rows[rng.permutation(len(rows))]
    return np.vstack([rows, rows[:1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.integers(1, 300), st.sampled_from([0.0, 1e-9, 1e-3]),
       st.sampled_from([1e-6, 1.0, 1e3]))
def test_batched_affine_membership_matches_the_per_query_oracle(k, n, seed,
                                                               functionals, tol,
                                                               scale):
    rng = np.random.default_rng(seed)
    pset = scale * rng.standard_normal((k, n))
    queries = _hull_queries(rng, pset, 4)
    batched = hulls.affine_hull_membership(pset, queries, functionals, seed, tol)
    _same_bits(batched, [affine_membership_oracle(pset, q, functionals, seed, tol)
                         for q in queries])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.integers(1, 3), st.integers(0, 4))
def test_batched_polynomial_membership_matches_the_per_query_oracle(k, n, seed,
                                                                   degree, count):
    rng = np.random.default_rng(seed)
    pset = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    queries = _hull_queries(rng, pset, 2)
    batched = hulls.polynomial_hull_membership(pset, queries, degree, count, seed)
    _same_bits(batched, [polynomial_membership_oracle(pset, q, degree, count, seed)
                         for q in queries])


@pytest.mark.parametrize("count", [63, 64, 65, 129])
def test_affine_membership_matches_the_oracle_across_query_chunks(count):
    # one short chunk, one full, one spilling by a query, two full and one more
    rng = np.random.default_rng(count)
    pset = rng.standard_normal((30, 3))
    queries = 1.5 * rng.standard_normal((count, 3))
    batched = hulls.affine_hull_membership(pset, queries, 200, count)
    assert {r.verdict for r in batched} == {"Inside", "Outside"}
    _same_bits(batched, [affine_membership_oracle(pset, q, 200, count)
                         for q in queries])


def _first_oracle_error(pset, queries):
    for q in queries:
        try:
            affine_membership_oracle(pset, q)
        except LevikitError as err:
            return str(err)
    raise AssertionError("no query fails")


@pytest.mark.parametrize("first, second", [("nan", "overflow"), ("overflow", "nan")])
def test_first_failing_query_of_a_chunk_raises(first, second):
    # both bad queries sit in the second chunk, behind good ones
    bad = {"nan": [math.nan, 0.5], "overflow": [0.5, 1e308]}
    queries = [[0.2, 0.3]] * 70 + [bad[first]] + [[3.0, 3.0]] * 5 + [bad[second]]
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    expected = _first_oracle_error(square, queries)
    assert ("NaN" in expected) == (first == "nan")
    with pytest.raises(LevikitError, match=f"^{re.escape(expected)}$"):
        hulls.affine_hull_membership(square, queries)


@pytest.mark.parametrize("query, named", [
    # 2 * 9e307 is above the float range
    ([-9e307, 0.0], r"offset bound 2\*max\|coordinate\| is inf, not finite"),
    # B = 1.2e308 is finite, the offset range 2B is not
    ([6e307, 0.0], "margin is NaN"),
], ids=["bound", "range"])
def test_overflowing_offsets_are_an_error_without_a_warning(query, named):
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LevikitError, match=named):
            hulls.affine_hull_membership(square, [[0.5, 0.5], query])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(1e-12, 1e300, allow_nan=False, allow_infinity=False))
def test_offsets_from_draws_equal_uniform_bit_for_bit(seed, bound):
    _, draws = hulls.affine_functionals(seed, 200, 2)
    ss_b = np.random.SeedSequence(seed).spawn(2)[1]
    uniform = np.random.default_rng(ss_b).uniform(-bound, bound, size=200)
    assert np.array_equal((-bound + (2.0 * bound) * draws).view(np.int64),
                          uniform.view(np.int64))


def test_no_queries_give_no_results():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert hulls.affine_hull_membership(square, np.empty((0, 2))) == []
    assert hulls.polynomial_hull_membership([[1, 0]], [], 2) == []
