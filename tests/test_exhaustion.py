"""Exhaustion function construction and blow-up checks."""

import math

import numpy as np
import pytest

from levikit import classify as cl
from levikit import domains as dom
from levikit import exhaustion as exh
from levikit import expr as ex
from levikit.errors import EvalDomainError, PointOutsideDomain
from levikit.sampling import block_values

BALL = dom.Ball((0, 0), 1.0)


def test_canonical_exhaustion_values():
    f = exh.build_exhaustion(BALL)
    assert f([0, 0]) == pytest.approx(0.0)          # -ln 1
    near = f([1 - 1e-6, 0])
    assert near == pytest.approx(1 + math.log(1e6), rel=1e-3)
    with pytest.raises(PointOutsideDomain):
        f([2, 0])


def test_whole_space_exhaustion_is_norm_squared():
    f = exh.build_exhaustion(dom.WholeSpace(2))
    assert f([1, 2j]) == pytest.approx(5.0)


def test_blowup_passes_on_ball():
    probe = exh.make_probe(BALL, sequences=6, seed=0)
    check = exh.exhaustion_blowup_check(probe)
    assert check.passed
    for _, _, increasing, rise, approach in check.per_sequence:
        assert increasing and approach >= 2 * math.log(10) and rise >= approach / 2


def test_probe_sequences_are_monotone_in_parameter():
    probe = exh.make_probe(BALL, sequences=4, seed=1)
    for seq in probe.sequences:
        dists = [1.0 - np.linalg.norm(np.asarray(p)) for p in seq[1:6]]
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_sublevel_compactness_proxy():
    # sampled sublevel sets of the canonical exhaustion stay compact:
    # f <= r forces distance >= e^-r and the points stay inside the ball
    f = exh.build_exhaustion(BALL)
    pts = dom.interior_sample(BALL, 400, seed=2)
    for r in (1.0, 5.0, 10.0):
        sub = [z for z in pts if f(z) <= r]
        assert sub, f"no sampled points with f <= {r}"
        for z in sub:
            d = dom.distance_to_boundary(BALL, z)
            assert d >= math.exp(-r) * (1 - 1e-9)
            assert np.linalg.norm(z) <= 1.0


def test_canonical_exhaustion_is_psh_on_ball_but_not_on_hartogs():
    fb = exh.build_exhaustion(BALL)
    res = cl.psh_test_circle_average(fb, BALL, trials=250, seed=0)
    assert res.verdict == "ConsistentWithPsh"

    hf = dom.hartogs_figure()
    fh = exh.build_exhaustion(hf, metric=dom.LINFTY)
    res2 = cl.psh_test_circle_average(fh, hf, trials=1500, seed=0)
    assert res2.verdict == "NotPsh"
    v = res2.violations[0]
    deficit = cl.circle_average_deficit(fh, v.point, v.direction, v.radius)
    assert deficit > 1e-9


def test_user_expression_probe():
    probe = exh.make_probe(BALL, function=ex.parse("abs2(z1) + abs2(z2)", 2),
                           sequences=3, seed=0, steps=12)
    assert not exh.exhaustion_blowup_check(probe).passed


BALL3 = dom.Ball((0.2, -0.1j, 0.3 + 0.1j), 1.5)


def test_ball_linfty_probe_matches_build_exhaustion():
    for d in (BALL, BALL3):
        probe = exh.make_probe(d, metric=dom.LINFTY, sequences=4, seed=0, steps=7)
        f = exh.build_exhaustion(d, dom.LINFTY)
        for seq, values in zip(probe.sequences, probe.values):
            assert [v.hex() for v in values] == [f(z).hex() for z in seq]


def test_user_expression_runs_on_the_segment_path_of_a_reinhardt_union():
    hf = dom.hartogs_figure()
    probe = exh.make_probe(hf, function=ex.parse("abs2(z1)", 2), sequences=3,
                           seed=0, steps=20)
    assert len(probe.sequences) == 3
    for seq, values in zip(probe.sequences, probe.values):
        assert seq and all(dom.contains(hf, z) for z in seq)
        assert values == pytest.approx([abs(z[0]) ** 2 for z in seq], rel=1e-15)


def test_user_expression_on_whole_space_runs_along_the_rays():
    ws = dom.WholeSpace(2)
    probe = exh.make_probe(ws, function=ex.parse("abs2(z1) + abs2(z2)", 2),
                           sequences=2, seed=0, steps=5)
    assert probe.sequences == exh.make_probe(ws, sequences=2, seed=0, steps=5).sequences
    for values, approach in zip(probe.values, probe.approach):
        assert values == pytest.approx([10.0 ** k for k in range(5)], rel=1e-14)
        assert approach == pytest.approx([k * math.log(10) for k in range(5)], abs=1e-14)


def test_every_function_samples_the_boundary_once(monkeypatch):
    hf = dom.hartogs_figure()
    calls = []
    sample = dom.ReinhardtUnion.boundary_sample

    def counted(self, count, rng):
        calls.append(count)
        return sample(self, count, rng)

    monkeypatch.setattr(dom.ReinhardtUnion, "boundary_sample", counted)
    for function in (ex.parse("abs2(z1)", 2), exh.NORM_SQUARED, exh.CANONICAL):
        exh.make_probe(hf, function=function, sequences=4, seed=0)
        assert calls == [4]
        calls.clear()


PSH_SUM = {"variant": "sublevel", "dimension": 2,
           "expression": "abs2(z1) + abs2(z2) + abs2(z1*z2 + 0.5*z1^2) - 1",
           "level": 0.0, "box_center": [[0.0, 0.0], [0.0, 0.0]], "box_radii": [1.0, 1.0],
           "interior_hint": [[0.0, 0.0], [0.0, 0.0]]}


def test_canonical_exhaustion_on_point_paths_takes_one_distance_call(monkeypatch):
    # a sublevel domain that is not Reinhardt has sampled distances, whose
    # foot-point search runs a batch per call: the points of all paths go
    # in one
    d = dom.domain_from_dict(PSH_SUM)
    want = exh.build_exhaustion(d)
    paths = d.point_paths(4, 2, 12)
    calls = []
    batch = dom.distances_to_boundary

    def counted(domain, rows, metric=None):
        calls.append(len(rows))
        return batch(domain, rows, metric)

    monkeypatch.setattr(dom, "distances_to_boundary", counted)
    monkeypatch.setattr(dom, "distance_to_boundary", None)   # no one-point call
    probe = exh.make_probe(d, sequences=4, seed=2, steps=12)
    assert calls == [sum(len(p) for p in paths)]
    monkeypatch.undo()
    assert probe.sequences == tuple(tuple(tuple(complex(c) for c in z) for z in p)
                                    for p in paths)
    assert [[v.hex() for v in values] for values in probe.values] == [
        [want(z).hex() for z in path] for path in paths]


QUARTIC3 = {"variant": "sublevel", "dimension": 3,
            "expression": "abs2(z1)^2 + abs2(z2)^2 + abs2(z3) - 1", "level": 0.0,
            "box_center": [[0.0, 0.0]] * 3, "box_radii": [1.5, 1.5, 1.5],
            "interior_hint": [[0.0, 0.0]] * 3}
POLYDISC = dom.Polydisc((0, 0), (1.0, 2.0))
DOMAINS = {"ball3": BALL3, "polydisc": POLYDISC, "hartogs": dom.hartogs_figure(),
           "psh-sum": dom.domain_from_dict(PSH_SUM),
           "quartic3": dom.domain_from_dict(QUARTIC3), "whole-space": dom.WholeSpace(2)}


@pytest.mark.parametrize("name, sequences, seed", [
    *((name, 4, 1) for name in sorted(DOMAINS)),
    ("hartogs", 8, 0), ("whole-space", 4, 0)])
def test_canonical_exhaustion_blows_up_on_every_variant(name, sequences, seed):
    probe = exh.make_probe(DOMAINS[name], sequences=sequences, seed=seed)
    assert exh.exhaustion_blowup_check(probe).passed


@pytest.mark.parametrize("metric", [dom.EUCLIDEAN, dom.LINFTY])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_one_distance_call_gives_each_paths_own_distances(name, metric):
    # make_probe takes the distances of all paths' points in one call; the
    # rows are independent, so each path gets the bits of its own call
    d = DOMAINS[name]
    paths = d.point_paths(4, 1, 56)
    own = [dom.distances_to_boundary(d, zz, metric) for zz in paths]
    joined = dom.distances_to_boundary(d, np.concatenate(paths), metric)
    assert joined.tobytes() == np.concatenate(own).tobytes()


def test_log_exhaustion_of_the_ball_blows_up():
    # -ln(1 - |z|^2) grows like -ln d over the tail of every path
    f = ex.parse("-ln(1 - abs2(z1) - abs2(z2))", 2)
    probe = exh.make_probe(BALL, function=f, sequences=4, seed=0)
    assert exh.exhaustion_blowup_check(probe).passed


def test_the_tail_rule_asks_for_half_the_growth_of_log_distance():
    # 0.4 * -ln(1 - |z|^2) exhausts the ball as well, but rises by only 0.4
    # of A over a tail: the rule is sufficient for blow-up, not necessary
    f = ex.parse("0.4 * -ln(1 - abs2(z1) - abs2(z2))", 2)
    check = exh.exhaustion_blowup_check(exh.make_probe(BALL, function=f, sequences=4, seed=0))
    assert not check.passed
    for _, _, increasing, rise, approach in check.per_sequence:
        assert increasing and approach >= exh.MIN_APPROACH
        # the last points lie within about 1e-15 of the sphere, where d and
        # 1 - |z|^2 keep few digits
        assert 0.35 * approach < rise < approach / 2


@pytest.mark.parametrize("domain, function, sequences", [
    (BALL, exh.NORM_SQUARED, 4), (BALL, exh.NORM_SQUARED, 6),
    (POLYDISC, exh.NORM_SQUARED, 4), (dom.hartogs_figure(), ex.parse("abs2(z1)", 2), 4)])
def test_bounded_functions_fail_on_every_sequence(domain, function, sequences):
    # abs2(z1) rises over the first decade of Hartogs paths that approach a
    # z2 face; the tail rule reads only the last points
    check = exh.exhaustion_blowup_check(
        exh.make_probe(domain, function=function, sequences=sequences, seed=0))
    assert not any(exh.sequence_passed(rise, approach, increasing)
                   for _, _, increasing, rise, approach in check.per_sequence)


@pytest.mark.parametrize("name", ["ball3", "hartogs", "psh-sum", "whole-space"])
def test_exhaustion_rows_equal_the_point_form_bit_for_bit(name):
    d = DOMAINS[name]
    f = exh.build_exhaustion(d)
    zz = dom.interior_sample(d, 8, seed=3)
    assert [v.hex() for v in f.rows(zz).tolist()] == [f(z).hex() for z in zz]
    for z, v in zip(zz, f.rows(zz)):
        dist = dom.distance_to_boundary(d, z)
        log = 0.0 if math.isinf(dist) else math.log(dist)
        assert v == pytest.approx(np.linalg.norm(z) ** 2 - log, rel=1e-14, abs=1e-14)


def test_a_zero_distance_raises_in_both_forms():
    # inside BALL3, within about 1e-15 of its sphere, where the L-infinity
    # interior distance of a ball rounds to 0
    z = np.array([0.28554751850311755 - 1.104775138691992j,
                  -0.23654605670523673 + 0.7143758083717062j,
                  0.11308686051502359 + 0.6177402815022714j])
    assert dom.contains(BALL3, z) and dom.distance_to_boundary(BALL3, z, dom.LINFTY) == 0.0
    f = exh.build_exhaustion(BALL3, dom.LINFTY)
    with pytest.raises(EvalDomainError):
        f(z)
    anchor = np.asarray(BALL3.center, dtype=complex)
    with pytest.raises(EvalDomainError):
        f.rows(np.array([anchor, z]))
    # the circle probe's block_values masks the block alone
    got = block_values(f.rows, np.array([[anchor], [z]]))
    assert got[1] is None and got[0].tolist() == [f(anchor)]


def test_circle_probe_takes_two_distance_calls_per_chunk(monkeypatch):
    # one for the centres, one for every circle point of the chunk
    calls = []
    batch = dom.distances_to_boundary

    def counted(domain, rows, metric=None):
        calls.append(len(rows))
        return batch(domain, rows, metric)

    monkeypatch.setattr(dom, "distances_to_boundary", counted)
    res = cl.psh_test_circle_average(exh.build_exhaustion(BALL), BALL, trials=64, seed=0)
    assert res.verdict == "ConsistentWithPsh"
    assert len(calls) == 4 and calls[0] == calls[2] == 32


def _point_paths_oracle(d, count, seed, steps):
    """``Domain.point_paths`` with one ``contains`` call per point."""
    anchor = dom.interior_sample(d, 1, seed)[0]
    paths = []
    for s in dom.boundary_sample(d, count, seed + 1):
        b = np.asarray(s.point)
        points = [b + t * (anchor - b) for t in dom.approach_parameters(steps)]
        paths.append([z for z in points if dom.contains(d, z)])
    return paths


def test_point_paths_take_one_contains_call_per_path(monkeypatch):
    d = dom.domain_from_dict(PSH_SUM)
    want = _point_paths_oracle(d, 4, 2, 12)
    calls = []
    contains = dom.Sublevel.contains
    monkeypatch.setattr(dom.Sublevel, "contains",
                        lambda self, zz: calls.append(len(zz)) or contains(self, zz))
    got = d.point_paths(4, 2, 12)
    assert calls[-4:] == [12] * 4
    assert [[z.tobytes() for z in path] for path in got] == [
        [z.tobytes() for z in path] for path in want]


def test_point_paths_raise_the_first_failing_points_error():
    # points of the second and third path where the value program fails:
    # row calls raise the second path's, as one call per point does
    d = dom.domain_from_dict(PSH_SUM)
    paths = _point_paths_oracle(d, 4, 2, 12)
    second, third = tuple(paths[1][3].tolist()), tuple(paths[2][1].tolist())
    value = d._value_program()

    def failing(zz):
        # the bad points fail a check of their own, whose error names the point
        values, failed = value(zz)
        return values, np.where([tuple(z) in (second, third) for z in zz.tolist()],
                                len(value.checks), failed)

    failing.checks = [*value.checks, ("division by zero", ex.var(1))]
    d.__dict__["__value_program_value"] = failing   # where _once keeps it
    for make in (_point_paths_oracle, type(d).point_paths):
        with pytest.raises(EvalDomainError, match="^division by zero") as err:
            make(d, 4, 2, 12)
        assert err.value.point == second
