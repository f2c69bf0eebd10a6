"""Logarithmic image and log-convexity tests."""

import json
import math

import numpy as np
import pytest

from levikit import classify as cl
from levikit import domains as dom
from levikit import reinhardt as rh
from levikit import report as rep
from levikit.cli import run_command

HF = dom.hartogs_figure()


def test_log_image_membership_examples():
    assert rh.log_image_membership(HF, [0.9, 1.9])
    assert not rh.log_image_membership(HF, [1.4, 1.4])
    assert rh.log_image_membership(HF, [-10, -10])


def test_spec_witness_triple_checks_by_membership():
    assert rh.log_image_membership(HF, [0.9, 1.9])
    assert rh.log_image_membership(HF, [1.9, 0.9])
    assert not rh.log_image_membership(HF, [1.4, 1.4])


def test_hartogs_witness_is_the_corners_shifted_inward():
    w = rh.log_convexity_test(HF).witness
    assert w.p == pytest.approx((0.75, 1.75), abs=1e-12)
    assert w.q == pytest.approx((1.75, 0.75), abs=1e-12)
    assert w.midpoint == pytest.approx((1.25, 1.25), abs=1e-12)
    assert w.midpoint_defect == pytest.approx(0.25, abs=1e-12)
    assert w.p_defect == w.q_defect == pytest.approx(-0.25, abs=1e-12)
    assert rh.witness_failure(HF, w.p, w.q, w.midpoint) is None


def test_single_polydisc_is_convex_so_far():
    mono = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1, 1)),))
    report = rh.log_convexity_test(mono)
    assert report.conclusion == "DomainOfHolomorphy"
    assert "member 0" in report.reason and report.witness is None


def test_nested_union_is_convex_so_far():
    nested = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1, 1)),
                                 dom.Polydisc((0, 0), (2, 2)),
                                 dom.Polydisc((0, 0), (2, 0.5))))
    report = rh.log_convexity_test(nested)
    assert report.conclusion == "DomainOfHolomorphy" and report.witness is None
    assert "member 1 (radii (2.0, 2.0))" in report.reason


def test_ball_shaped_union_is_a_staircase():
    # polydiscs inscribed under the unit sphere, r1^2 + r2^2 = 1: the ball's
    # log image is convex, but the union's is a staircase with notches
    # between neighbouring corners
    members = []
    for t in np.linspace(0.05, np.pi / 2 - 0.05, 24):
        members.append(dom.Polydisc((0, 0), (math.cos(t), math.sin(t))))
    union = dom.ReinhardtUnion(tuple(members))
    report = rh.log_convexity_test(union)
    assert report.conclusion == "NotDomainOfHolomorphy"
    w = report.witness
    assert rh.witness_failure(union, w.p, w.q, w.midpoint) is None
    assert w.midpoint_defect == pytest.approx(0.016, abs=1e-3)


def test_hartogs_report_concludes_not_domain_of_holomorphy():
    report = rh.log_convexity_test(HF)
    assert report.conclusion == "NotDomainOfHolomorphy"
    assert report.witness is not None
    assert "logarithmic image" in report.reason


def test_tied_coordinate_keeps_an_unreachable_member_off_the_segment():
    # on the segment from (2, 0, 1) to (0, 2, 1) the third coordinate stays
    # 1, above the third member's 0.5, so that member covers no point of it
    # even where its other two bounds meet (t = 1/2); the first covered
    # point is the far corner
    corners = [(2.0, 0.0, 1.0), (0.0, 2.0, 1.0), (1.0, 1.0, 0.5)]
    union = dom.ReinhardtUnion(tuple(
        dom.Polydisc((0, 0, 0), tuple(math.exp(v) for v in c)) for c in corners))
    w = rh.log_convexity_test(union).witness
    assert rh.witness_failure(union, w.p, w.q, w.midpoint) is None
    assert w.midpoint == pytest.approx((0.75, 0.75, 0.75), abs=1e-12)
    assert w.midpoint_defect == pytest.approx(0.25, abs=1e-12)


def test_gap_narrower_than_the_tolerance_finds_no_obstruction():
    # corners (0, 1e-10) and (1e-10, 0): the notch is 5e-11 deep
    eps = math.exp(1e-10)
    union = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1.0, eps)),
                                dom.Polydisc((0, 0), (eps, 1.0))))
    report = rh.log_convexity_test(union)
    assert report.conclusion == "NoObstructionFound" and report.witness is None
    assert "narrower than the witness tolerance" in report.reason


def test_monotonicity_of_log_image_under_added_member():
    base = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1, 2)),))
    bigger = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1, 2)),
                                 dom.Polydisc((0, 0), (3, 0.5)),))
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(-8, 2, size=2)
        if rh.log_image_membership(base, x):
            assert rh.log_image_membership(bigger, x)


def test_scaling_covariance():
    rng = np.random.default_rng(11)
    for t in (0.5, 2.0, 7.5):
        scaled = dom.ReinhardtUnion(tuple(
            dom.Polydisc((0, 0), tuple(t * r for r in m.radii))
            for m in HF.members))
        shift = math.log(t)
        for _ in range(50):
            x = rng.uniform(-6, 2, size=2)
            lhs = rh.log_image_defect(HF, x)
            rhs = rh.log_image_defect(scaled, x + shift)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_thin_union_far_from_the_corners_has_a_witness():
    # each member is thin where the other is wide: the corners (2, -30) and
    # (-30, 2) bound a notch that reaches 16 below them on the diagonal
    thin = dom.ReinhardtUnion((
        dom.Polydisc((0, 0), (math.exp(2.0), math.exp(-30.0))),
        dom.Polydisc((0, 0), (math.exp(-30.0), math.exp(2.0)))))
    w = rh.log_convexity_test(thin).witness
    assert rh.witness_failure(thin, w.p, w.q, w.midpoint) is None
    assert w.midpoint == pytest.approx((-22.0, -22.0), abs=1e-12)
    assert w.midpoint_defect == pytest.approx(8.0, abs=1e-12)


# brute-force oracle: random unions, half of them with radii on a coarse
# grid so that ties and containments occur

GRID_RADII = (0.5, 1.0, 1.5, 2.0, 3.0)


def _random_union_spec(rng, i):
    n = int(rng.integers(1, 4))
    k = int(rng.integers(1, 7))
    if i % 2:
        radii = rng.choice(GRID_RADII, size=(k, n))
    else:
        radii = np.exp(rng.uniform(-2.0, 2.0, size=(k, n)))
    return {"variant": "reinhardt_union", "dimension": n,
            "members": [{"radii": [float(r) for r in row]} for row in radii]}


def _uncovered_on_some_segment(d):
    """A dense t-grid on every segment between two member corners: True
    when some grid point lies outside every closed member orthant."""
    a = np.log(np.array([m.radii for m in d.members]))
    t = np.linspace(0.0, 1.0, 401)[:, None]
    for corner in a:
        for other in a:
            points = corner + t * (other - corner)
            defects = np.min(np.max(points[:, None, :] - a[None], axis=2), axis=1)
            if np.any(defects > rh.WITNESS_TOL):
                return True
    return False


def test_exact_pass_agrees_with_dense_segment_grid():
    rng = np.random.default_rng(2024)
    convex, witnessed = [], 0
    for i in range(1000):
        spec = _random_union_spec(rng, i)
        d = dom.domain_from_dict(spec)
        result = rh.log_convexity_test(d)
        convex_union = result.conclusion == "DomainOfHolomorphy"
        assert convex_union != _uncovered_on_some_segment(d), spec
        report, code = run_command("reinhardt", {"domain": spec})
        verified = rep.verify_report(json.loads(rep.report_bytes(report)))
        if not convex_union:
            w = result.witness
            assert rh.witness_failure(d, w.p, w.q, w.midpoint) is None, spec
            assert code == 2 and verified.passed and verified.checked == 1
            witnessed += 1
        else:
            assert code == 0 and verified.checked == 0
            convex.append(d)
    # both answers are well represented
    assert len(convex) > 300 and witnessed > 300
    # a domain of holomorphy is pseudoconvex: its -ln d probe finds nothing
    for d in convex:
        probe = cl.log_distance_probe(d, trials=8, seed=0)
        assert not probe.inner.violations
