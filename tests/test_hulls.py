"""Convex hull, affine membership and polynomial membership tests."""

import math

import numpy as np
import pytest

from levikit import hulls
from levikit.errors import LevikitError

from helpers import brute_force_extreme_points


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
    square = hulls.real_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    inside = hulls.affine_hull_membership(square, [0.5, 0.5])
    assert inside.verdict == "Inside"
    outside = hulls.affine_hull_membership(square, [2, 0])
    assert outside.verdict == "Outside"
    cert = outside.certificate
    u = np.asarray(cert["direction"])
    value = abs(u @ np.array([2.0, 0.0]) + cert["offset"])
    norm_k = max(abs(u @ p + cert["offset"]) for p in square.points)
    assert value > norm_k + 1e-9


def test_affine_membership_cross_validation():
    # smaller version of the acceptance criterion
    rng = np.random.default_rng(1)
    for trial in range(3):
        pts = rng.standard_normal((60, 2))
        pset = hulls.real_points(pts)
        hull = hulls.convex_hull_2d(pts)
        false_outside = 0
        outside_missed = 0
        outside_far = 0
        for _ in range(200):
            q = 1.6 * rng.standard_normal(2)
            res = hulls.affine_hull_membership(pset, q, functionals=500,
                                               seed=trial)
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
    pts = hulls.real_points(rng.standard_normal((40, 2)))
    queries = [2.0 * rng.standard_normal(2) for _ in range(50)]
    for q in queries:
        small = hulls.affine_hull_membership(pts, q, functionals=100, seed=9)
        large = hulls.affine_hull_membership(pts, q, functionals=400, seed=9)
        if small.verdict == "Outside":
            assert large.verdict == "Outside"
            assert large.best_margin >= small.best_margin - 1e-15


def test_affine_membership_idempotent_under_certified_inside_points():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((50, 2))
    pset = hulls.real_points(pts)
    inside_points = []
    for _ in range(100):
        q = rng.standard_normal(2)
        if hulls.affine_hull_membership(pset, q, seed=4).verdict == "Inside":
            inside_points.append(q)
    augmented = hulls.real_points(np.vstack([pts, inside_points]))
    for _ in range(100):
        q = 1.5 * rng.standard_normal(2)
        a = hulls.affine_hull_membership(pset, q, seed=4)
        b = hulls.affine_hull_membership(augmented, q, seed=4)
        assert a.verdict == b.verdict
        assert a.best_margin == pytest.approx(b.best_margin, abs=1e-14)


def test_polynomial_membership_circle():
    circle = hulls.complex_points(
        [[np.exp(2j * np.pi * k / 64)] for k in range(64)])
    for degree in (1, 3, 8):
        res = hulls.polynomial_hull_membership(circle, [0], degree)
        assert res.verdict == "Inside"   # maximum modulus forces |p(0)| <= 1
    out = hulls.polynomial_hull_membership(circle, [2], 8)
    assert out.verdict == "Outside"
    # the identity map already separates at degree 1
    ident = hulls.polynomial_hull_membership(circle, [2], 1)
    assert ident.verdict == "Outside"
    assert ident.certificate["exponents"] == [[1]]


def test_polynomial_membership_distinguished_boundary_of_polydisc():
    torus = hulls.complex_points(
        [[np.exp(2j * np.pi * j / 24), np.exp(2j * np.pi * k / 24)]
         for j in range(24) for k in range(24)])
    res = hulls.polynomial_hull_membership(torus, [0.5, 0.5], 8)
    assert res.verdict == "Inside"
    out = hulls.polynomial_hull_membership(torus, [0, 5], 1)
    assert out.verdict == "Outside"
    # separated by the second coordinate function
    assert out.certificate["exponents"] == [[0, 1]]


def test_polynomial_membership_with_random_family_keeps_soundness():
    circle = hulls.complex_points(
        [[np.exp(2j * np.pi * k / 64)] for k in range(64)])
    res = hulls.polynomial_hull_membership(circle, [0.2 + 0.1j], 6,
                                           count=40, seed=5)
    assert res.verdict == "Inside"


def test_outside_certificates_reverify_with_margin():
    rng = np.random.default_rng(6)
    pts = hulls.complex_points(rng.standard_normal((30, 2))
                               + 1j * rng.standard_normal((30, 2)))
    for _ in range(20):
        q = 3.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        res = hulls.polynomial_hull_membership(pts, q, 4, count=10, seed=7)
        if res.verdict == "Outside":
            cert = res.certificate
            coeffs = [complex(c[0], c[1]) for c in cert["coefficients"]]
            exps = [tuple(e) for e in cert["exponents"]]
            value = abs(hulls._eval_poly(exps, coeffs, q.reshape(1, -1))[0])
            norm_k = float(np.max(np.abs(
                hulls._eval_poly(exps, coeffs, pts.points))))
            assert value > norm_k + 1e-9


def test_hull_boundedness_check():
    circle = hulls.complex_points(
        [[np.exp(2j * np.pi * k / 32)] for k in range(32)])
    bound = hulls.hull_boundedness_check(circle)
    assert bound.bound == pytest.approx(1.0, abs=1e-12)
    more = hulls.complex_points(
        [[np.exp(2j * np.pi * k / 32)] for k in range(32)] + [[3.0]])
    assert hulls.hull_boundedness_check(more).bound >= bound.bound


def test_load_point_set(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# comment\n1.0,0.0,0.0,1.0\n0.5,-0.5,2.0,0.0\n",
                    encoding="utf-8")
    pset = hulls.load_point_set(path, 2, is_complex=True)
    assert pset.points.shape == (2, 2)
    assert pset.points[0][1] == 1j
    real = tmp_path / "real.txt"
    real.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    rset = hulls.load_point_set(real, 2, is_complex=False)
    assert rset.points.shape == (2, 2) and not rset.is_complex


def test_first_of_tied_polynomial_candidates_is_the_certificate():
    # z2 and z1 (in monomial order) both reach |p(z)| = 2 against sup_K = 0
    res = hulls.polynomial_hull_membership(hulls.complex_points([[0, 0]]),
                                           [2, 2], 1)
    assert res.verdict == "Outside" and res.best_margin == 2.0
    assert res.certificate["exponents"] == [[0, 1]]


@pytest.mark.parametrize("member", [
    lambda: hulls.affine_hull_membership(
        hulls.real_points([[0, 0], [1, 0], [0, 1]]), [math.nan, 0.0]),
    lambda: hulls.polynomial_hull_membership(
        hulls.complex_points([[0, 0], [1, 0]]), [complex(math.nan, 0.0), 0], 1),
], ids=["affine", "polynomial"])
def test_nan_margin_is_an_error_in_both_families(member):
    with pytest.raises(LevikitError, match="margin is NaN"):
        member()

