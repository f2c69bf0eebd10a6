"""Domain membership, sampling and distance tests."""

import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levikit import domains as dom
from levikit import expr as ex
from levikit import modulus, norms
from levikit.errors import (LevikitError, PointOutsideDomain, SamplingExhausted,
                            UnsupportedMetric)

from helpers import (POLE_HINT, POLE_RAY, PROBE_REGIONS, GivenDraws, ball_oracle,
                     bisect_level_oracle, boundary_sample_oracle, cpython_step,
                     foot_point_oracle, interior_sample_oracle, march_oracle,
                     modulus_distance_oracle, pole_domain, reproject_oracle,
                     sampled_distance_oracle)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
import generate  # noqa: E402

E = math.e


def test_ball_membership():
    b = dom.Ball((0, 0), 1.0)
    assert dom.contains(b, [0.5, 0])
    assert not dom.contains(b, [1.0, 0])  # open set


def test_polydisc_membership_boundary_excluded():
    p = dom.Polydisc((0, 0), (1, 1))
    assert not dom.contains(p, [1, 0])
    assert dom.contains(p, [0.999, 0.999j])


def test_hartogs_membership_excludes_middle_zone():
    hf = dom.hartogs_figure()
    z = [E ** 1.5, E ** 1.4 * np.exp(0.3j)]
    assert not dom.contains(hf, z)              # both moduli exceed e
    assert dom.contains(hf, [E ** 1.5, 1.0])    # member 2
    assert dom.contains(hf, [1.0, E ** 1.5])    # member 1


def test_ball_boundary_samples_on_sphere():
    b = dom.Ball((0, 0), 1.0)
    for s in dom.boundary_sample(b, 4, seed=0):
        assert abs(np.linalg.norm(np.asarray(s.point)) - 1.0) <= 1e-8


def test_polydisc_boundary_samples_sit_on_faces():
    p = dom.Polydisc((0, 0), (1, 2))
    for s in dom.boundary_sample(p, 100, seed=1):
        gaps = [abs(abs(s.point[0]) - 1.0), abs(abs(s.point[1]) - 2.0)]
        assert min(gaps) <= 1e-8
        assert gaps[s.face_index] <= 1e-12


def test_sublevel_boundary_samples_hit_level_set():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    d = dom.Sublevel(f, 0.0, 2, box_center=(0, 0), box_radii=(1.5, 1.5),
                     interior_hint=(0, 0))
    samples = dom.boundary_sample(d, 25, seed=2)
    for s in samples:
        val = ex.evaluate(f, s.point).real
        assert abs(val) <= 1e-10
        # analytic oracle: the level set is the unit sphere
        assert abs(np.linalg.norm(np.asarray(s.point)) - 1.0) <= 1e-9


def test_outside_bisection_evaluates_each_point_once():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    program = ex.program((f,))
    points = []

    def recording(zz):
        points.extend(map(tuple, zz))
        return program(zz)

    recording.checks = program.checks
    segs = np.array([[1.5 + 0j, 0.5j], [0.3j, -1.2 + 0j], [1.1 + 0j, 0j]])
    z, errors = dom._bisect_rows(recording, 0.0, np.zeros(2, dtype=complex), segs)
    assert errors == {}
    assert len(points) > 6
    assert len(set(points)) == len(points)
    for row in z:
        assert 0 <= ex.evaluate(f, row).real <= 1e-10


def test_sublevel_no_interior_point():
    f = ex.parse("abs2(z1) + 1", 1)   # always >= 1, never < 0
    d = dom.Sublevel(f, 0.0, 1, box_center=(0,), box_radii=(2,))
    with pytest.raises(SamplingExhausted, match="interior sampling of Sublevel"):
        dom.boundary_sample(d, 4, seed=0)


def test_ball_distances():
    b = dom.Ball((0, 0), 1.0)
    assert dom.distance_to_boundary(b, [0, 0]) == pytest.approx(1.0)
    assert dom.signed_distance(b, [0, 0]) == pytest.approx(-1.0)
    assert dom.signed_distance(b, [2, 0]) == pytest.approx(1.0)
    for s in dom.boundary_sample(b, 10, seed=3):
        assert abs(dom.signed_distance(b, s.point)) <= 1e-8


def test_point_outside_raises():
    b = dom.Ball((0, 0), 1.0)
    with pytest.raises(PointOutsideDomain):
        dom.distance_to_boundary(b, [2, 0])
    # the dimension is checked first, then the metric, then membership
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        dom.distance_to_boundary(b, [5, 5, 5], "taxicab")
    with pytest.raises(UnsupportedMetric):
        dom.distance_to_boundary(b, [5, 5], "taxicab")
    with pytest.raises(PointOutsideDomain) as err:
        dom.distance_to_boundary(b, [5, 0.5j])
    assert str(err.value) == f"{tuple(ex.as_point([5, 0.5j]))} is not inside the domain"


def test_reinhardt_boundary_samples_are_exposed_face_points():
    hf = dom.hartogs_figure()
    samples = dom.boundary_sample(hf, 60, seed=3)
    assert len(samples) == 60
    for s in samples:
        z = np.asarray(s.point)
        j = s.face_index
        assert s.source == f"face-{j + 1}"
        assert not dom.contains(hf, z)
        assert dom.contains(hf, z - 1e-9 * np.asarray(s.outward))
        assert any(abs(abs(z[j]) - m.radii[j]) <= 1e-12 * m.radii[j]
                   and abs(z[1 - j]) < m.radii[1 - j] for m in hf.members)


def test_reinhardt_face_sampling_tests_each_point_once(monkeypatch):
    tested = []
    monkeypatch.setattr(dom.ReinhardtUnion, "contains",
                        lambda self, zz: tested.append(zz) or np.full(len(zz), True))
    with pytest.raises(SamplingExhausted, match="no exposed Reinhardt face points"):
        dom.boundary_sample(dom.hartogs_figure(), 2, seed=0)
    assert len(tested) == 1000
    assert all(zz.shape == (1, 2) for zz in tested)


def test_polydisc_distance_matches_face_sampling_oracle():
    p = dom.Polydisc((0, 0), (1, 2))
    z = np.array([0.0, 1.0])
    d = dom.distance_to_boundary(p, z, dom.LINFTY)
    assert d == pytest.approx(1.0)
    # brute force over dense face samples
    rng = np.random.default_rng(0)
    best = math.inf
    for _ in range(20000):
        face = rng.integers(2)
        w = np.array([r * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                      for r in (1, 2)])
        w[face] = (1, 2)[face] * np.exp(2j * np.pi * rng.uniform())
        best = min(best, np.max(np.abs(w - z)))
    assert d <= best + 1e-6 and best <= d + 0.05


def test_hartogs_distance_member_formula():
    hf = dom.hartogs_figure()
    assert dom.distance_to_boundary(hf, [1, 1]) == pytest.approx(E - 1)
    # member formula agrees with rejection-based containment radius here:
    # every point of the open L-infinity ball of that radius stays inside
    z = np.array([1.0, 1.0])
    d = dom.distance_to_boundary(hf, z)
    rng = np.random.default_rng(4)
    for _ in range(3000):
        offs = np.array([(d - 1e-9) * math.sqrt(rng.uniform())
                         * np.exp(2j * np.pi * rng.uniform()) for _ in range(2)])
        assert dom.contains(hf, z + offs)


def test_hartogs_distance_tests_each_member_once(monkeypatch):
    real = dom.Polydisc.contains
    tested = []

    def counting(self, zz):
        tested.append(id(self))
        return real(self, zz)

    monkeypatch.setattr(dom.Polydisc, "contains", counting)
    hf = dom.hartogs_figure()
    for z, expected in (([1, 1], E - 1), ([E ** 1.5, 1.0], E - 1),
                        ([1.0, E ** 1.5], E - 1)):
        tested.clear()
        assert dom.distance_to_boundary(hf, z) == pytest.approx(expected)
        assert len(set(tested)) == len(tested)


def test_ball_linfty_distance_interior_and_exterior():
    b = dom.Ball((0, 0), 1.0)
    z = np.array([0.3 + 0.1j, -0.2j])
    d = dom.distance_to_boundary(b, z, dom.LINFTY)
    # the polydisc of that radius around z must just fit inside the ball
    gaps = np.abs(z)
    assert math.sqrt(np.sum((gaps + d) ** 2)) == pytest.approx(1.0)
    zo = np.array([1.5, 0.5j])
    do = dom.signed_distance(b, zo, dom.LINFTY)
    assert do > 0
    nearest = math.sqrt(np.sum(np.maximum(np.abs(zo) - do, 0) ** 2))
    assert nearest == pytest.approx(1.0, abs=1e-9)


def test_distance_is_one_lipschitz():
    b = dom.Ball((0.5, -0.25j), 2.0)
    pts = dom.interior_sample(b, 200, seed=5)
    for z, w in zip(pts[::2], pts[1::2]):
        dz = dom.distance_to_boundary(b, z)
        dw = dom.distance_to_boundary(b, w)
        assert abs(dz - dw) <= np.linalg.norm(z - w) + 1e-9


def test_boundary_samples_fail_membership_but_inward_nudge_is_inside():
    for d in (dom.Ball((0, 0), 1.0), dom.Polydisc((0, 0), (1, 2))):
        for s in dom.boundary_sample(d, 50, seed=6):
            assert not dom.contains(d, s.point)
            nudged = np.asarray(s.point) - 1e-4 * np.asarray(s.outward)
            assert dom.contains(d, nudged)


def test_metric_ordering():
    domains = [dom.Ball((0, 0), 1.0), dom.Polydisc((0, 0), (1, 2)),
               dom.hartogs_figure()]
    for d in domains:
        n = d.dimension
        pts = dom.interior_sample(d, 50, seed=7)
        for z in pts:
            dinf = dom.distance_to_boundary(d, z, dom.LINFTY)
            deuc = dom.distance_to_boundary(d, z, dom.EUCLIDEAN)
            assert dinf <= deuc + 1e-9
            assert deuc <= math.sqrt(2 * n) * dinf + 1e-9


def test_intersection_and_whole_space():
    lens = dom.Intersection((dom.Ball((0, 0), 1.0),
                             dom.Ball((0.5, 0), 1.0)))
    assert dom.contains(lens, [0.25, 0])
    assert not dom.contains(lens, [-0.5, 0])
    d = dom.distance_to_boundary(lens, [0.25, 0])
    assert d == pytest.approx(min(1 - 0.25, 1 - 0.25))
    with pytest.raises(LevikitError, match="exterior distance not available"):
        dom.signed_distance(lens, [5, 5])
    ws = dom.WholeSpace(2)
    assert dom.contains(ws, [1e6, 1e6])
    assert dom.distance_to_boundary(ws, [0, 0]) == math.inf


@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
def test_intersection_exterior_distance_is_not_a_metric_error(metric):
    lens = dom.Intersection((dom.Ball((0, 0), 1.0), dom.Polydisc((0, 0), (1, 1))))
    with pytest.raises(LevikitError) as err:
        dom.signed_distance(lens, [5, 5], metric)
    assert type(err.value) is LevikitError
    assert str(err.value) == "exterior distance not available for Intersection"


def test_sublevel_distance_resolution():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    d = dom.Sublevel(f, 0.0, 2, box_center=(0, 0), box_radii=(1.5, 1.5),
                     interior_hint=(0, 0))
    val = dom.distance_to_boundary(d, [0, 0])
    assert val == pytest.approx(1.0, abs=5e-3)
    sd = dom.signed_distance(d, [1.5, 0])
    assert sd == pytest.approx(0.5, abs=5e-3)


def test_domain_dict_round_trip():
    examples = [
        dom.Ball((0.5, -0.25j), 2.0),
        dom.Polydisc((0, 1j), (1, 2)),
        dom.hartogs_figure(),
        dom.Sublevel(ex.parse("abs2(z1) - 1", 1), 0.0, 1,
                     box_center=(0,), box_radii=(2,), interior_hint=(0,)),
        dom.Intersection((dom.Ball((0,), 1.0), dom.Ball((0.5,), 1.0))),
        dom.WholeSpace(3),
    ]
    for d in examples:
        assert dom.domain_from_dict(d.to_dict()) == d


def test_reinhardt_union_validation():
    with pytest.raises(ValueError, match="centered at 0"):
        dom.ReinhardtUnion((dom.Polydisc((1, 0), (1, 1)),))
    with pytest.raises(ValueError, match="share dimension"):
        dom.ReinhardtUnion((dom.Polydisc((0, 0), (1, 1)),
                            dom.Polydisc((0,), (1,))))


@pytest.mark.parametrize("spec", [
    {"variant": "ball", "dimension": 3, "center": [[0.0, 0.0]] * 2,
     "radius": 1.0},
    {"variant": "polydisc", "dimension": 3, "center": [[0.0, 0.0]] * 2,
     "radii": [1.0, 1.0]},
    {"variant": "reinhardt_union", "dimension": 3,
     "members": [{"radii": [1.0, 2.0]}, {"radii": [2.0, 1.0]}]},
    {"variant": "intersection", "dimension": 1,
     "members": [{"variant": "ball", "center": [[0.0, 0.0]] * 2,
                  "radius": 1.0}]},
])
def test_declared_dimension_must_match_domain_data(spec):
    with pytest.raises(LevikitError, match=r"domain\.dimension"):
        dom.domain_from_dict(spec)


def test_sublevel_box_must_have_the_declared_dimension():
    f = ex.parse("abs2(z1) - 1", 2)
    with pytest.raises(ValueError, match="one entry per dimension"):
        dom.Sublevel(f, 0.0, 2, box_center=(0, 0, 0), box_radii=(1, 1, 1))


def test_unsupported_operations_name_the_variant():
    ws = dom.WholeSpace(2)
    with pytest.raises(LevikitError, match="boundary sampling not supported "
                                           "for WholeSpace"):
        dom.boundary_sample(ws, 3, seed=0)
    with pytest.raises(LevikitError, match="no global defining function "
                                           "for Polydisc"):
        dom.Polydisc((0, 0), (1, 1)).defining_expr()


# batched geometry: an (m, n) array gets the same bits as one point at a time

def _near_boundary(d, z, center, steps=60):
    """The points of the ray from ``center`` through ``z`` that bisection
    pushes furthest out while they stay inside, and furthest in while they
    stay outside: within ~1e-15 of a face, on either side."""
    lo, hi = 1.0, 1.0
    while dom.contains(d, center + hi * (z - center)):
        hi *= 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if dom.contains(d, center + mid * (z - center)):
            lo = mid
        else:
            hi = mid
    return center + lo * (z - center), center + hi * (z - center)


BATCHED = {
    "polydisc": dom.Polydisc((0.1j, -0.2), (1.0, 2.0)),
    "hartogs": dom.hartogs_figure(),
    "intersection": dom.Intersection((dom.Ball((0, 0), 1.0),
                                      dom.Polydisc((0.3, 0), (0.9, 0.8)))),
    "ball-c2": dom.Ball((0.2, -0.1j), 1.5),
    "ball-c3": dom.Ball((0.2, 0, -0.1j), 1.5),
    **{f"ball-c{n}": dom.Ball([0.2, -0.1j, 0.05 + 0.3j, 0, -0.4, 0.1j, 0.3, -0.2j][:n],
                              0.75 + 0.25 * n) for n in (1, 4, 5, 6, 7, 8)},
}


@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batched_distances_equal_per_row_distances(name, metric):
    d = BATCHED[name]
    center = np.asarray(d.bounding_polydisc().center)
    inner = dom.interior_sample(d, 40, 7)
    near, outside = zip(*(_near_boundary(d, z, center) for z in inner[:20]))
    rows = np.vstack([inner, near])
    per_row = [dom.distance_to_boundary(d, z, metric) for z in rows]
    assert min(per_row[40:]) < 1e-12
    batched = dom.distances_to_boundary(d, rows, metric).tolist()
    assert batched == per_row
    assert d.contains(rows).tolist() == [True] * len(rows)
    assert d.contains(np.array(outside)).tolist() == [False] * len(outside)
    if isinstance(d, dom.Ball):
        # both sides above run the ball's row methods: compare with the
        # one-point formulas as well, bit for bit
        both = np.vstack([rows, outside])
        expected = [ball_oracle(d, z, metric) for z in both]
        assert d.contains(both).tolist() == [inside for inside, _ in expected]
        assert [v.hex() for v in batched] == [dist.hex() for _, dist in expected[:60]]


@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
def test_batched_distances_on_whole_space_and_sublevel(metric):
    rows = dom.interior_sample(dom.Polydisc((0, 0), (0.6, 0.6)), 3, 0)
    sphere = dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) - 1", 2), 0.0, 2,
                          (0, 0), (1.5, 1.5), (0, 0))
    for d in (dom.WholeSpace(2), sphere,
              dom.Intersection((dom.WholeSpace(2), dom.hartogs_figure()))):
        per_row = [dom.distance_to_boundary(d, z, metric) for z in rows]
        assert dom.distances_to_boundary(d, rows, metric).tolist() == per_row


def test_batched_distances_raise_when_any_row_is_outside():
    hf = dom.hartogs_figure()
    rows = np.array([[1.0, 1.0], [E ** 1.5, E ** 1.5], [0.5, 0.5]])
    with pytest.raises(PointOutsideDomain, match=str(E ** 1.5)):
        dom.distances_to_boundary(hf, rows)
    assert dom.distances_to_boundary(hf, rows[[0, 2]]).tolist() == [E - 1, E - 0.5]
    with pytest.raises(ValueError):
        dom.distances_to_boundary(hf, rows[0])


@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
@pytest.mark.parametrize("n", range(1, 7))
def test_row_norms_equal_the_per_row_norm_bit_for_bit(n, metric):
    # the sublevel distance takes its nearest of 512 cached boundary points
    # from one array call; each row must keep the one-row norm's bits
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((512, n)) + 1j * rng.standard_normal((512, n))
    for _ in range(20):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows = norms.row_norms(z - pts, metric)
        assert [v.hex() for v in rows.tolist()] == [
            norms.norm(z - b, metric).hex() for b in pts]


# block-drawn rejection sampling against one candidate per draw

SAMPLED = {
    "polydisc": dom.Polydisc((0.5, -0.25j), (1.0, 0.7)),
    "hartogs": dom.hartogs_figure(),
    "intersection": dom.Intersection((dom.Ball((0, 0), 1.0),
                                      dom.Polydisc((0.3, 0), (0.9, 0.8)))),
    "sphere-sublevel": dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) - 1", 2), 0.0, 2,
                                    (0, 0), (1.5, 1.5)),
    # f raises (ln of a non-positive argument) where Re z1 <= -0.8: those
    # candidates are rejected, not the blocks they were drawn in
    "sublevel-raising": dom.Sublevel(ex.parse("abs2(z1) - 1 + 0.1*ln(re(z1) + 0.8)", 1),
                                     0.0, 1, (0,), (1.0,)),
}


# a probe chunk draws 32 centres, and a short last chunk fewer
@pytest.mark.parametrize("count", [1, 3, 8, 9, 31, 32, 33, 40])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_block_draws_equal_one_candidate_per_draw(name, count):
    d = SAMPLED[name]
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            # a buffered 32-bit half stays buffered
            assert rng.integers(7) == ref.integers(7)
        got = d.interior_sample(count, rng)
        assert got.tobytes() == interior_sample_oracle(d, count, ref).tobytes()
        assert rng.integers(1 << 20) == ref.integers(1 << 20)
        assert rng.random() == ref.random()


class _OneRowAtATime:
    """``region`` whose ``contains`` raises a LevikitError on more than one
    row, so ``Domain.interior_sample`` tests each candidate alone."""

    def __init__(self, region):
        self.region, self.dimension = region, region.dimension
        self.bounding_polydisc = region.bounding_polydisc

    def contains(self, zz):
        if len(zz) > 1:
            raise LevikitError("one row at a time")
        return self.region.contains(zz)


@pytest.mark.parametrize("count", [1, 5, 33])
@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_one_contains_call_per_round_equals_one_call_per_candidate(name, count):
    d = SAMPLED[name]
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = d.interior_sample(count, rng)
        want = dom.Domain.interior_sample(_OneRowAtATime(d), count, ref)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    if name == "polydisc":
        # its box is itself, so the round's first count of 8 * count
        # candidates are the points: the generator is set back past the rest
        skipped = np.random.default_rng(2)
        skipped.uniform(size=(count, 2, 2))
        assert rng.bit_generator.state == skipped.bit_generator.state


def test_block_draws_reject_only_the_raising_rows(monkeypatch):
    d = SAMPLED["sublevel-raising"]
    raising = 0
    for z in dom.Polydisc((0,), (1.0,)).interior_sample(400, np.random.default_rng(0)):
        try:
            d.contains(z[None])
        except LevikitError:
            raising += 1
    assert raising > 20
    real = dom.Sublevel.contains
    raised = []

    def recording(self, zz):
        try:
            return real(self, zz)
        except LevikitError:
            raised.append(len(zz))
            raise

    monkeypatch.setattr(dom.Sublevel, "contains", recording)
    points = dom.interior_sample(d, 400, 0)
    # the first round's one call raised, and so did its raising candidates alone
    assert raised.count(1) > 1 and max(raised) == 400 * dom._CANDIDATE_BLOCK
    monkeypatch.setattr(dom.Sublevel, "contains", real)
    assert points.tobytes() == interior_sample_oracle(
        d, 400, np.random.default_rng(0)).tobytes()
    assert np.all(points.real > -0.8)


def test_block_draws_report_the_acceptance_rate_of_one_candidate_per_draw():
    # about 1 in 5,000 candidates falls in this thin union, so the budget of
    # 5 points, 5,000 candidates, runs out on each of these seeds
    thin = dom.ReinhardtUnion((dom.Polydisc((0, 0), (1.0, 0.01)),
                               dom.Polydisc((0, 0), (0.01, 1.0))))
    rates = []
    for seed in range(6):
        with pytest.raises(SamplingExhausted) as got:
            dom.interior_sample(thin, 5, seed)
        with pytest.raises(SamplingExhausted) as expected:
            interior_sample_oracle(thin, 5, np.random.default_rng(seed))
        assert str(got.value) == str(expected.value)
        rates.append(got.value.acceptance_rate)
    assert len(set(rates)) > 1


# the variants with their own sampler too

MANY = {**{f"sampled-{k}": d for k, d in SAMPLED.items()},
        **{f"probe-{k}": d for k, d in PROBE_REGIONS.items()}}


@pytest.mark.parametrize("name", sorted(MANY))
def test_no_points_give_empty_rows(name):
    d = MANY[name]
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    assert d.interior_sample(0, rng).shape == (0, d.dimension)
    assert rng.random() == ref.random()


# the sublevel foot-point search as lockstep row calls against the numpy
# oracles of one point at a time, points compared by the hex form of every part

GOLDEN_SUBLEVELS = {name: dom.domain_from_dict(getattr(generate, name))
                    for name in ("SPHERE", "QUARTIC3", "MIXTURE", "PSH_SUM")}
# parts of both signed zeros, and of either sign on both sides of the level
# sets.  Nonzero parts stay above 1e-150, so no product in a step underflows
# to zero: there numpy's own bits depend on the CPU (see the test below).
PART = (st.sampled_from([0.0, -0.0]) | st.floats(1e-150, 1.6)
        | st.floats(-1.6, -1e-150))


def _hex(z):
    return None if z is None else [(complex(x).real.hex(), complex(x).imag.hex())
                                   for x in z]


@st.composite
def _domain_and_rows(draw, count):
    """A golden sublevel domain and ``count`` points of its dimension."""
    name = draw(st.sampled_from(sorted(GOLDEN_SUBLEVELS)))
    d = GOLDEN_SUBLEVELS[name]
    parts = st.lists(PART, min_size=2 * d.dimension, max_size=2 * d.dimension)
    rows = [draw(parts) for _ in range(count)]
    return d, [np.array([complex(re, im) for re, im in zip(p[::2], p[1::2])])
               for p in rows]


@settings(max_examples=60, deadline=None)
@given(_domain_and_rows(4), st.booleans(), st.floats(1e-3, 2.0))
def test_sublevel_row_steps_equal_the_numpy_oracles(case, outside, s):
    # each step on two rows at once, the second row's ends swapped
    d, (a, b, c, e) = case
    value = d._value_program()
    z_in, seg = np.array([a, b]), np.array([b - a, a - b])
    got, errors = dom._bisect_rows(value, d.level, z_in, seg, outside)
    assert errors == {}
    assert [_hex(p) for p in got] == [
        _hex(bisect_level_oracle(d.expr, d.level, a, b, outside)),
        _hex(bisect_level_oracle(d.expr, d.level, b, a, outside))]
    for v in (-1.0, 1.0):
        ends, crossed, errors = dom._march_rows(value, d.level, z_in, np.array([c, e]),
                                                np.array([s, 2 * s]), v, 10)
        assert errors == {}
        assert [_hex(p) if hit else None for p, hit in zip(ends, crossed)] == [
            _hex(march_oracle(d, a, c, s, v, 10)), _hex(march_oracle(d, b, e, 2 * s, v, 10))]
    errors = {}
    i, points = d._reproject_rows(z_in, errors, np.arange(2))
    assert errors == {}
    got = [None, None]
    for j, p in zip(i.tolist(), points):
        got[j] = _hex(p)
    assert got == [_hex(reproject_oracle(d, a)), _hex(reproject_oracle(d, b))]


@settings(max_examples=30, deadline=None)
@given(_domain_and_rows(3), st.lists(st.integers(0, 511), min_size=3, max_size=3))
def test_sublevel_foot_points_equal_the_numpy_oracle(case, starts):
    # three pairs in one lockstep batch, each against its own search
    d, zs = case
    b0 = dom._cached_boundary_points(d)[starts]
    got = d._foot_points(np.array(zs), b0)
    assert [_hex(p) for p in got] == [_hex(foot_point_oracle(d, z, b))
                                      for z, b in zip(zs, b0)]


@pytest.mark.parametrize("name", sorted(GOLDEN_SUBLEVELS))
@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
def test_sampled_distance_equals_the_per_pair_oracle(name, metric):
    d = GOLDEN_SUBLEVELS[name]
    rows = dom.interior_sample(d, 5, 17)
    got = d._sampled_distance(rows, metric)
    want = sampled_distance_oracle(d, rows, metric)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    if name == "PSH_SUM":
        assert d.interior_distance(rows, metric).tobytes() == got.tobytes()
    assert d._sampled_distance(rows[:0], metric).shape == (0,)


def test_a_march_that_meets_the_pole_ends_uncrossed_without_an_error():
    # the first row's first probe is z1 = 0, where f raises a LevikitError;
    # the march of the second row crosses the level set there
    d = pole_domain(250.0)
    z0 = np.array(POLE_HINT)
    u = np.array([[-0.5 - 0.5j, 0.5 + 0.5j], [0.6, 0.8j]])
    ends, crossed, errors = dom._march_rows(d._value_program(), d.level, z0, u, 1.0, -1.0, 4)
    assert errors == {} and crossed.tolist() == [False, True]
    assert march_oracle(d, z0, u[0], 1.0, -1.0, 4) is None
    assert _hex(ends[1]) == _hex(march_oracle(d, z0, u[1], 1.0, -1.0, 4))


def test_the_first_failing_pair_raises_its_error():
    # f has no value where z1 = 0: a search that starts there raises from
    # its first gradient; of the failing pairs, the first in order raises
    d = pole_domain(1.0)
    z = np.array([[0.5 + 0.5j, 0.1], [0.4j, 0.3], [0.3, -0.2j]])
    for b in ([[0.9, 0.1], [0, 0.25], [0, 0.5j]], [[0.9, 0.1], [0, 0.5j], [0, 0.25]]):
        b = np.array(b, dtype=complex)
        with pytest.raises(LevikitError) as batched:
            d._foot_points(z, b)
        assert foot_point_oracle(d, z[0], b[0]) is not None
        with pytest.raises(LevikitError) as oracle:
            foot_point_oracle(d, z[1], b[1])
        assert str(batched.value) == str(oracle.value)
        assert repr(tuple(b[1].tolist())) in str(batched.value)


def _sampled(sample_with, d, count, rng):
    """What boundary sampling gives: every sample's bits and the skipped
    rays, or the error's class and message."""
    try:
        got = sample_with(d, count, rng)
    except LevikitError as err:
        return type(err).__name__, str(err)
    return got.skipped_rays, [(_hex(s.point), _hex(s.outward), s.source)
                              for s in got.samples]


def _batched(d, count, rng):
    return d.boundary_sample(count, rng)


# the unit disc from 0.95: rays that leave it toward the far side cross its
# circle beyond the march's last probe at 0.512 * t_max and are skipped
UNIT_DISC = dom.Sublevel(ex.parse("abs2(z1) - 1", 1), 0.0, 1, box_center=(0,),
                         box_radii=(1,), interior_hint=(0.95,))


@pytest.mark.parametrize("name, d, count, seed", [
    ("unit disc", UNIT_DISC, 200, 0),
    ("pole", pole_domain(1.0), 60, 1),
    *[(name, d, 40, seed) for name, d in sorted(GOLDEN_SUBLEVELS.items())
      for seed in (0, 3)],
])
def test_boundary_sample_equals_the_per_ray_oracle(name, d, count, seed):
    got = _sampled(_batched, d, count, np.random.default_rng(seed))
    assert got == _sampled(boundary_sample_oracle, d, count, np.random.default_rng(seed))
    if name == "unit disc":
        assert got[0] > 50


def test_a_ray_whose_march_meets_the_pole_is_skipped():
    rng = np.random.default_rng(4)
    draws = [rng.standard_normal(2) for _ in range(6)]
    draws[2:2] = POLE_RAY
    got = _sampled(_batched, pole_domain(250.0), 3, GivenDraws(draws))
    assert got == _sampled(boundary_sample_oracle, pole_domain(250.0), 3, GivenDraws(draws))
    assert got[0] == 1


@pytest.mark.parametrize("z2_sign", [1.0, -1.0])
def test_the_first_ray_whose_bisection_raises_raises(z2_sign):
    # two rays meet the pole at their first midpoint, one on each side of
    # z2 = 0; the error names the point of the one drawn first
    rng = np.random.default_rng(5)
    other = ([-1.0, -1.0], [-1.0, -1.0])
    pole_rays = [*POLE_RAY, *other] if z2_sign > 0 else [*other, *POLE_RAY]
    draws = [rng.standard_normal(2), rng.standard_normal(2), *pole_rays]
    got = _sampled(_batched, pole_domain(500.0), 3, GivenDraws(draws))
    assert got == _sampled(boundary_sample_oracle, pole_domain(500.0), 3, GivenDraws(draws))
    assert got[0] == "EvalDomainError" and "division by zero" in got[1]
    assert f"{complex(0.5 * z2_sign, 0.5 * z2_sign)!r}" in got[1]


def test_sampling_exhaustion_matches_the_per_ray_oracle():
    # every level crossing lies beyond the last probe of the march
    d = dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) - 1", 2), 0.0, 2, box_center=(0, 0),
                     box_radii=(0.25, 0.25), interior_hint=(0, 0))
    got = _sampled(_batched, d, 3, np.random.default_rng(0))
    assert got == _sampled(boundary_sample_oracle, d, 3, np.random.default_rng(0))
    assert got == ("SamplingExhausted",
                   "sublevel boundary sampling failed (acceptance rate 0)")


@given(st.lists(st.tuples(PART, PART, PART, PART), min_size=1, max_size=8),
       st.just(0.0) | st.floats(1e-100, 2.0))
def test_ray_points_are_cpython_and_numpy_float_times_complex(parts, t):
    z = np.array([complex(a, b) for a, b, _, _ in parts])
    direction = np.array([complex(c, e) for _, _, c, e in parts])
    (got,) = dom._ray_points(z, t, direction[None])
    assert _hex(got) == _hex(cpython_step(z.tolist(), t, direction.tolist()))
    assert _hex(got) == _hex(z + t * direction)
    # one point per row and one t per row, as the foot-point search forms them
    rows = dom._ray_points(np.array([z, -z]), np.array([[t], [2 * t]]),
                           np.array([direction, direction]))
    assert [_hex(p) for p in rows] == [_hex(z + t * direction),
                                       _hex(-z + (2 * t) * direction)]


def test_ray_points_where_a_product_underflows_are_cpython_on_every_cpu():
    # t * s_re underflows to -0 here.  CPython, numpy scalars and numpy's
    # baseline array kernel then subtract 0 * s_im = -0 and give +0; numpy's
    # fused multiply-add kernels (x86-64-v3 and later) round the exact sum
    # once and give -0, so a numpy complex product keeps the -0 on such CPUs
    # only, and ``_ray_points`` forms the parts as CPython does
    ((z,),) = dom._ray_points(np.array([complex(-0.0, 0.0)]), 1e-200,
                              np.array([[complex(-1e-200, -0.0)]]))
    assert (z.real.hex(), z.imag.hex()) == ("0x0.0p+0", "0x0.0p+0")
    assert _hex([z]) == _hex(cpython_step([complex(-0.0, 0.0)], 1e-200,
                                          [complex(-1e-200, -0.0)]))


@pytest.mark.parametrize("n", range(1, 9))
def test_norm_is_numpy_norm_bit_for_bit(n):
    # complex, and real as in Polydisc.exterior_distance; every caller passes
    # a contiguous array (the real part of a complex one is a strided view)
    rng = np.random.default_rng(n)
    for scale in (1e-160, 1e-3, 1.0, 1e150):
        for _ in range(200):
            w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for v in (w, w.real.copy()):
                assert norms.norm(v, dom.EUCLIDEAN).hex() == float(np.linalg.norm(v)).hex()


# Reinhardt sublevel distances in modulus space, against the one-dimensional
# oracle over Γ, the sampled path they replaced and boundary points of D

C05 = {**generate.QUARTIC, "expression": "abs2(z1)^2 + abs2(z2)^2 - 0.5*abs2(z1)*abs2(z2) - 1",
       "box_radii": [3.5, 3.5]}
REINHARDT_SUBLEVELS = {name: dom.domain_from_dict(spec) for name, spec in (
    ("SPHERE", generate.SPHERE), ("QUARTIC", generate.QUARTIC),
    ("MIXTURE", generate.MIXTURE), ("C05", C05), ("QUARTIC3", generate.QUARTIC3))}
METRICS = (dom.EUCLIDEAN, dom.LINFTY)


def _box_rows(d, count, seed, scale=0.8):
    """Seeded rows in the bounding polydisc scaled by ``scale``, inside D or not."""
    rng = np.random.default_rng(seed)
    return np.asarray(d.box_center) + scale * dom.disc_points_at(
        rng.uniform(size=(count, len(d.box_radii), 2)), d.box_radii)


def test_only_moduli_only_sublevel_domains_leave_the_sampled_path():
    assert all(d._moduli_only() for d in REINHARDT_SUBLEVELS.values())
    assert not GOLDEN_SUBLEVELS["PSH_SUM"]._moduli_only()


@pytest.mark.parametrize("name", ["SPHERE", "QUARTIC", "MIXTURE", "C05"])
@pytest.mark.parametrize("metric", METRICS)
def test_modulus_distance_matches_the_oracle_over_gamma(name, metric):
    d = REINHARDT_SUBLEVELS[name]
    rows = np.vstack([dom.interior_sample(d, 6, 11), _box_rows(d, 4, 12)])
    got = d.interior_distance(rows, metric)
    want = [modulus_distance_oracle(d, z, metric) for z in rows]
    assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_the_row_where_the_sampled_distance_was_1_6_percent_too_large():
    d = REINHARDT_SUBLEVELS["QUARTIC"]
    z = np.array([[0.11153 - 0.49210j, -0.28788 + 0.40084j]])
    got = float(d.interior_distance(z, dom.EUCLIDEAN)[0])
    assert got == pytest.approx(modulus_distance_oracle(d, z[0], dom.EUCLIDEAN), rel=1e-9)
    # the aligned-phase point of the search that found it, on D's boundary
    # up to its printed digits
    w = np.array([0.21296 - 0.93962j, -0.35580 + 0.49540j])
    assert got < float(np.linalg.norm(z[0] - w)) < 0.4735
    assert float(d._sampled_distance(z, dom.EUCLIDEAN)[0]) > 1.016 * got


def test_quartic_distances_at_the_origin():
    d = REINHARDT_SUBLEVELS["QUARTIC"]
    origin = np.zeros((1, 2), dtype=complex)
    assert d.interior_distance(origin, dom.EUCLIDEAN)[0] == pytest.approx(1.0, rel=1e-12)
    assert d.interior_distance(origin, dom.LINFTY)[0] == pytest.approx(2 ** -0.25, rel=1e-12)


_BOUNDARY = {}


def _boundary_points(name):
    if name not in _BOUNDARY:
        d = REINHARDT_SUBLEVELS[name]
        _BOUNDARY[name] = np.array([s.point for s in dom.boundary_sample(d, 64, 5)])
    return _BOUNDARY[name]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(REINHARDT_SUBLEVELS)), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 63), st.sampled_from(METRICS))
# |z| = (1.3226, 0.0286, 0.4975) and (0.2000, 1.4071, 1.3436): the L-infinity
# contact has p_2 = 0, then p_1 = 0, where ∂φ/∂p_j = 4 p_j^3 is flat, and
# only pinning p_j to the face converges
@example(name="QUARTIC3", seed=498, k=0, metric=dom.LINFTY)
@example(name="QUARTIC3", seed=184, k=0, metric=dom.LINFTY)
def test_modulus_distance_is_at_most_that_of_boundary_points(name, seed, k, metric):
    d = REINHARDT_SUBLEVELS[name]
    z = _box_rows(d, 1, seed, scale=1.0)[0]
    w = _boundary_points(name)[k]
    # the same moduli with the phases of z is a boundary point too
    phases = np.where(z == 0, 1, z / np.where(z == 0, 1, np.abs(z)))
    got = d.interior_distance(z[None], metric)[0]
    # a boundary sample has 0 <= f - level <= 1e-10, so it may lie that
    # far outside Γ
    for point in (w, np.abs(w) * phases):
        assert got <= norms.norm(z - point, metric) + 1e-8


def test_linfty_quartic_distances_are_at_most_those_of_aligned_boundary_points():
    # the sampled path, which minimised the Euclidean distance, failed this
    # on every row
    d = REINHARDT_SUBLEVELS["QUARTIC"]
    rows = dom.interior_sample(d, 64, 0)
    moduli = np.abs(np.array([s.point for s in dom.boundary_sample(d, 256, 1)]))
    got = d.interior_distance(rows, dom.LINFTY)
    aligned = np.abs(np.abs(rows)[:, None, :] - moduli[None]).max(axis=2).min(axis=1)
    assert np.all(got <= aligned + 1e-8)


@pytest.mark.parametrize("metric", METRICS)
def test_quartic_c3_distances_are_at_most_the_sampled_ones(metric):
    d = REINHARDT_SUBLEVELS["QUARTIC3"]
    rows = dom.interior_sample(d, 6, 3)
    assert np.all(d.interior_distance(rows, metric)
                  <= d._sampled_distance(rows, metric) * (1 + 1e-9))


@pytest.mark.parametrize("name", ["QUARTIC", "MIXTURE", "QUARTIC3"])
@pytest.mark.parametrize("metric", METRICS)
def test_a_row_alone_equals_the_row_in_a_batch(name, metric):
    d = REINHARDT_SUBLEVELS[name]
    rows = _box_rows(d, 2 * modulus._ROW_CHUNK + 3, 21)
    batch = d.interior_distance(rows, metric)
    order = np.random.default_rng(0).permutation(len(rows))
    assert d.interior_distance(rows[order], metric).tobytes() == batch[order].tobytes()
    for i in (0, modulus._ROW_CHUNK, len(rows) - 1):
        assert d.interior_distance(rows[i:i + 1], metric).tobytes() == batch[i:i + 1].tobytes()


def test_gamma_is_built_on_the_first_distance_call_only():
    d = dom.domain_from_dict(generate.QUARTIC)
    assert dom.contains(d, [0.1, 0.2])
    assert "__modulus_geometry_value" not in vars(d)
    dom.distance_to_boundary(d, [0.1, 0.2])
    geometry = vars(d)["__modulus_geometry_value"]
    dom.distance_to_boundary(d, [0.3, 0.2], dom.LINFTY)
    assert d._modulus_geometry() is geometry


def test_a_domain_without_a_box_raises_as_before():
    d = dom.domain_from_dict(generate.COMPLEMENT)
    with pytest.raises(LevikitError, match="needs a bounding box"):
        dom.distance_to_boundary(d, [1.0, 1.0])


def test_a_refinement_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(modulus, "_NEWTON_STEPS", 1)
    d = dom.domain_from_dict(generate.QUARTIC)
    with pytest.raises(LevikitError, match=re.escape(
            "sublevel domain (abs2(z1))^2 + (abs2(z2))^2 - 1 < 0.0: "
            "the modulus-space refinement of row 1 did not converge")):
        d.interior_distance(np.array([[0.0, 0.0], [0.3, 0.1j]]), dom.EUCLIDEAN)


def test_distance_calls_take_their_program_calls_per_step_not_per_row(monkeypatch):
    # 3 rows and 40 (the 3 among them) take the same number of program
    # calls; every solve is one stacked call of a Newton step, none singular
    d = REINHARDT_SUBLEVELS["QUARTIC"]
    d._modulus_geometry()
    rows = dom.interior_sample(d, 40, 0)
    calls, shapes = [], []
    run, solve = modulus._run, np.linalg.solve
    monkeypatch.setattr(modulus, "_run", lambda prog, pp, every=False: calls.append(len(pp))
                        or run(prog, pp, every))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(np.shape(a)) or solve(a, b))
    counts = []
    for zz, metric in ((rows[:3], dom.EUCLIDEAN), (rows, dom.EUCLIDEAN), (rows, dom.LINFTY)):
        calls.clear()
        shapes.clear()
        d.interior_distance(zz, metric)
        assert len(shapes) <= modulus._NEWTON_STEPS and all(len(s) == 3 for s in shapes)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_a_singular_newton_system_is_solved_alone(monkeypatch):
    # at the centre of the ball's Γ each Euclidean system is singular where
    # Newton starts: that step's stacked solve raises, every system of the
    # step is solved alone, the singular ones keep their start (on Γ, so
    # the distance is 1), and the other rows keep the bits they have alone
    d = dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) - 1", 2), 0.0, 2,
                     box_center=(0, 0), box_radii=(1.5, 1.5))
    rows = np.array([[0.3, 0.2j], [0, 0], [0.1 - 0.5j, 0.4]])
    alone = [d.interior_distance(rows[i:i + 1], dom.EUCLIDEAN).tobytes() for i in (0, 2)]
    shapes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(np.shape(a)) or solve(a, b))
    got = d.interior_distance(rows, dom.EUCLIDEAN)
    stacked = [s for s in shapes if len(s) == 3]
    assert len(shapes) - len(stacked) == stacked[0][0] > 3
    assert got[1] == pytest.approx(1.0, rel=1e-12)
    assert [got[i:i + 1].tobytes() for i in (0, 2)] == alone


def test_a_sign_change_at_a_pole_is_no_level_crossing():
    d = dom.Sublevel(ex.parse("1 / (abs2(z1) + abs2(z2) - 0.3)", 2), 0.0, 2,
                     box_center=(0, 0), box_radii=(1.0, 1.0))
    with pytest.raises(LevikitError, match="level crossing on the ray .* did not converge"):
        dom.distance_to_boundary(d, [0.1, 0.1])


@pytest.mark.parametrize("metric", METRICS)
def test_a_pole_on_an_axis_leaves_the_mesh_and_the_rows_alone(metric):
    # f has no value where z1 = 0: on the z2 axis, at the origin that every
    # ray starts from, and at the moduli of the last two rows
    d = dom.Sublevel(ex.parse("abs2(z1) + abs2(z2) + 0.01/abs2(z1) - 1", 2), 0.0, 2,
                     box_center=(0, 0), box_radii=(1.5, 1.5))
    rows = np.vstack([dom.interior_sample(d, 6, 1), _box_rows(d, 6, 2),
                      [[0, 0.5j], [0, 0]]])
    got = d.interior_distance(rows, metric)
    want = [modulus_distance_oracle(d, z, metric) for z in rows]
    assert got == pytest.approx(want, rel=1e-9, abs=0)
    assert np.all(got <= d._sampled_distance(rows, metric) * (1 + 1e-9))


def test_kinks_of_abs_on_the_axes_are_reached():
    # Γ is the segment s1 + s2 = 1 for the first domain; for the second,
    # s2 = 0.5 + s1, whose nearest point to s = (0, 0.3) is its end (0, 0.5)
    diamond = dom.Sublevel(ex.parse("abs(z1) + abs(z2) - 1", 2), 0.0, 2,
                           box_center=(0, 0), box_radii=(1.5, 1.5))
    z = np.array([[1.375, 0.38j]])
    assert diamond.interior_distance(z, dom.EUCLIDEAN)[0] == pytest.approx(
        0.755 / math.sqrt(2), rel=1e-12)
    assert diamond.interior_distance(z, dom.LINFTY)[0] == pytest.approx(0.755 / 2, rel=1e-12)
    valley = dom.Sublevel(ex.parse("abs(z2) - abs(z1) - 0.5", 2), 0.0, 2,
                          box_center=(0, 0), box_radii=(1.0, 1.0))
    z = np.array([[0.0, 0.3]])
    assert valley.interior_distance(z, dom.EUCLIDEAN)[0] == pytest.approx(0.2, rel=1e-12)
    assert valley.interior_distance(z, dom.LINFTY)[0] == pytest.approx(0.2, rel=1e-12)


# polydisc and Reinhardt-union geometry as column folds, against the row
# reductions they replaced; floats compared by repr, so NaN rows count

SPECIALS = (math.nan, complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, -math.inf,
            complex(0.0, -math.inf), complex(math.inf, math.nan))


def _reduced_polydisc(p, zz):
    """``Polydisc``'s (contains, interior_distance) as reductions along the rows."""
    moduli = np.abs(zz - np.asarray(p.center))
    radii = np.asarray(p.radii)
    return (moduli < radii).all(axis=-1), (radii - moduli).min(axis=-1)


def _reduced_union(u, zz):
    inside, gaps = zip(*(_reduced_polydisc(m, zz) for m in u.members))
    return np.logical_or.reduce(inside), np.maximum.reduce(gaps)


def _fold_rows(center, radii, rng):
    """Rows about ``center``: random ones out to 1.2 times the largest
    radius, rows exactly on each face |z_j - c_j| = r_j, rows at 0.999 of
    each radii tuple (inside its member, often outside the others), and
    rows with a NaN or infinite coordinate."""
    c = np.asarray(center, dtype=complex)
    n = len(c)
    big = 1.2 * np.max(radii, axis=0)
    rows = [c + big * np.sqrt(rng.uniform(size=(40, n))) * np.exp(2j * np.pi * rng.uniform(size=(40, n)))]
    for r in radii:
        for j in range(n):
            for phase in (1, -1, 1j, -1j):
                z = c + 0.5 * np.asarray(r) * rng.uniform(size=n)
                z[j] = c[j] + phase * r[j]
                rows.append(z[None])
        rows.append((c + 0.999 * np.asarray(r))[None])
    for v in SPECIALS:
        for j in range(n):
            z = c.copy()
            z[j] = v
            rows.append(z[None])
    return np.vstack(rows)


def _repr(values):
    return [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("n", range(1, 5))
def test_polydisc_folds_equal_the_row_reductions(n):
    rng = np.random.default_rng(n)
    # a dyadic centre and radii keep |z - c| = r exact on the face rows
    for center in ((0,) * n, (0.5, -0.25j, 0.125 + 0.5j, -1.0)[:n]):
        p = dom.Polydisc(center, (1.0, 0.75, 2.0, 0.5)[:n])
        zz = _fold_rows(center, [p.radii], rng)
        inside, gaps = _reduced_polydisc(p, zz)
        assert p.contains(zz).tolist() == inside.tolist()
        for metric in METRICS:
            assert _repr(p.interior_distance(zz, metric)) == _repr(gaps)
        assert not inside.all() and inside.any()
        assert np.any(gaps == 0) and np.isnan(gaps).any() and np.isinf(gaps).any()


@pytest.mark.parametrize("members", range(1, 4))
@pytest.mark.parametrize("n", range(1, 5))
def test_union_folds_equal_the_row_reductions(n, members):
    rng = np.random.default_rng(10 * n + members)
    radii = [tuple(float(v) for v in rng.choice([0.25, 0.5, 1.0, 1.5, 2.0], n))
             for _ in range(members)]
    u = dom.ReinhardtUnion(tuple(dom.Polydisc((0,) * n, r) for r in radii))
    zz = _fold_rows((0,) * n, radii, rng)
    inside, gaps = _reduced_union(u, zz)
    assert u.contains(zz).tolist() == inside.tolist()
    assert _repr(u.interior_distance(zz, dom.LINFTY)) == _repr(gaps)
    if members == 1:
        assert _repr(u.interior_distance(zz[inside], dom.EUCLIDEAN)) == _repr(gaps[inside])


def test_union_fold_rows_include_rows_in_one_member_only():
    u = dom.hartogs_figure()
    zz = _fold_rows((0, 0), [m.radii for m in u.members], np.random.default_rng(0))
    owners = sum(m.contains(zz).astype(int) for m in u.members)
    assert (owners == 1).any() and (owners == 2).any() and (owners == 0).any()


@st.composite
def _union_and_rows(draw):
    n = draw(st.integers(1, 4))
    radius = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, math.e, math.e ** 2])
    radii = draw(st.lists(st.tuples(*[radius] * n), min_size=1, max_size=3))
    u = dom.ReinhardtUnion(tuple(dom.Polydisc((0,) * n, r) for r in radii))
    box = u.bounding_polydisc().radii
    # moduli up to each bounding radius, faces included, on exact phases
    # or random ones
    share = st.sampled_from([0.0, 0.5, 0.999, 1.0]) | st.floats(0.0, 1.0)
    phase = st.sampled_from([1, -1, 1j, -1j]) | st.floats(0.0, 2 * math.pi).map(
        lambda t: complex(math.cos(t), math.sin(t)))
    rows = draw(st.lists(st.tuples(*[st.tuples(share, phase)] * n), min_size=1, max_size=6))
    zz = np.array([[s * b * w for (s, w), b in zip(row, box)] for row in rows], dtype=complex)
    return u, zz


@settings(max_examples=80, deadline=None)
@given(_union_and_rows())
def test_contains_is_a_positive_linfty_distance(case):
    u, zz = case
    for d in (u, *u.members):
        assert d.contains(zz).tolist() == (d.interior_distance(zz, dom.LINFTY) > 0).tolist()


@pytest.mark.parametrize("n", range(1, 5))
def test_linfty_row_norms_equal_the_per_row_norm_with_nan_and_inf(n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
    for i, v in enumerate(SPECIALS):
        rows[i, i % n] = v
    rows[len(SPECIALS), :] = math.nan
    for zz in (rows, rows.real.copy()):
        assert _repr(norms.row_norms(zz, dom.LINFTY)) == [
            repr(norms.norm(z, dom.LINFTY)) for z in zz]


# the Euclidean distance of a Reinhardt union, against its boundary in
# modulus space

def test_hartogs_euclidean_distance_at_the_re_entrant_corner():
    hf = dom.hartogs_figure()
    z = [E - 0.1, (E - 0.1) * 1j]
    assert dom.distance_to_boundary(hf, z, dom.EUCLIDEAN) == pytest.approx(
        0.1 * math.sqrt(2), rel=1e-12)
    assert dom.distance_to_boundary(hf, z, dom.LINFTY) == pytest.approx(0.1, rel=1e-12)


def _staircase(u, h):
    """Points at spacing about h on the boundary of the modulus image of
    the 2-d union ``u``: each member's faces t_j = r_j, minus the points
    that another member contains."""
    pts = []
    for m in u.members:
        for j in (0, 1):
            t = np.empty((int(m.radii[1 - j] / h) + 2, 2))
            t[:, j] = m.radii[j]
            t[:, 1 - j] = np.linspace(0.0, m.radii[1 - j], len(t))
            pts.append(t)
    pts = np.vstack(pts)
    return pts[~u.contains(pts.astype(complex))], h


UNIONS2 = {
    "hartogs": dom.hartogs_figure(),
    "three-steps": dom.ReinhardtUnion(tuple(dom.Polydisc((0, 0), r) for r in
                                            ((2.0, 0.5), (1.0, 1.0), (0.4, 2.5)))),
    "nested": dom.ReinhardtUnion((dom.Polydisc((0, 0), (1.0, 1.0)),
                                  dom.Polydisc((0, 0), (0.5, 0.75)))),
}


@pytest.mark.parametrize("name", sorted(UNIONS2))
def test_union_euclidean_distance_is_the_distance_to_the_staircase(name):
    u = UNIONS2[name]
    boundary, h = _staircase(u, 1e-3)
    rows = dom.interior_sample(u, 300, 3)
    got = u.interior_distance(rows, dom.EUCLIDEAN)
    moduli = np.abs(rows)
    brute = np.array([np.min(np.hypot(*(boundary - s).T)) for s in moduli])
    assert np.all(got <= brute * (1 + 1e-12)) and np.all(brute <= got + h)
    lower = u.interior_distance(rows, dom.LINFTY)
    assert np.all(got >= lower)
    if name != "nested":
        assert np.any(got > lower * (1 + 1e-6))


@pytest.mark.parametrize("n", range(1, 5))
def test_union_corners_are_the_minimal_points_outside_every_member(n):
    # every corner is outside every member, and lowering any coordinate of
    # it (to 0, or just below its value) lands in some member
    rng = np.random.default_rng(n)
    u = dom.ReinhardtUnion(tuple(dom.Polydisc((0,) * n, rng.choice([0.5, 1.0, 2.0], n))
                                 for _ in range(3)))
    corners = np.array(u._corners(), dtype=complex)
    assert not u.contains(corners).any()
    for j in range(n):
        lowered = corners.copy()
        lowered[:, j] = np.where(lowered[:, j] == 0, 0, lowered[:, j] * (1 - 1e-12))
        assert u.contains(lowered[corners[:, j] != 0]).all()
