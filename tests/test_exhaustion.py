"""Exhaustion function construction and blow-up checks."""

import math

import numpy as np
import pytest

from levikit import classify as cl
from levikit import domains as dom
from levikit import exhaustion as exh
from levikit import expr as ex
from levikit.errors import PointOutsideDomain

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
    for first, final, increasing in check.per_sequence:
        assert final > first + 10 and final > 50 and increasing


def test_blowup_fails_for_bounded_function_on_ball():
    probe = exh.make_probe(BALL, function=exh.NORM_SQUARED, sequences=6, seed=0)
    assert not exh.exhaustion_blowup_check(probe).passed


def test_blowup_passes_on_hartogs_figure():
    probe = exh.make_probe(dom.hartogs_figure(), sequences=8, seed=0)
    check = exh.exhaustion_blowup_check(probe)
    assert check.passed


def test_blowup_passes_on_whole_space():
    probe = exh.make_probe(dom.WholeSpace(2), sequences=4, seed=0)
    assert exh.exhaustion_blowup_check(probe).passed


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
    # the float distance at a recorded point loses digits like eps / t,
    # which the tolerance allows for; the probe's d(t) is in closed form
    for d in (BALL, BALL3):
        probe = exh.make_probe(d, metric=dom.LINFTY, sequences=4, seed=0, steps=7)
        f = exh.build_exhaustion(d, dom.LINFTY)
        for seq, values in zip(probe.sequences, probe.values):
            for k, (z, v) in enumerate(zip(seq, values)):
                assert v == pytest.approx(f(z), rel=1e-12 + 1e-16 * 10.0 ** k)


def test_ball_linfty_path_distance_is_exact_near_the_boundary():
    mp = pytest.importorskip("mpmath")
    center = np.asarray(BALL3.center)
    paths = dom.approach_paths(BALL3, 3, 0, 13, dom.LINFTY)
    for s, path in zip(dom.boundary_sample(BALL3, 3, 0), paths):
        u = np.asarray(s.point) - center
        u = u / np.linalg.norm(u)
        for k in (4, 8, 12):
            with mp.workdps(50):
                moduli = [abs(mp.mpc(x.real, x.imag)) for x in u]
                unit = mp.sqrt(sum(m * m for m in moduli))
                a = [(1 - mp.mpf(10.0 ** -k)) * BALL3.radius * m / unit for m in moduli]
                s1 = sum(a)
                s2 = sum(x * x for x in a)
                exact = (-s1 + mp.sqrt(s1 * s1 - 3 * (s2 - BALL3.radius ** 2))) / 3
            assert path[k][1] == pytest.approx(float(exact), rel=1e-13)


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
    for values in probe.values:
        assert values == pytest.approx([(1.0 + k) ** 2 for k in range(5)])


def test_user_expression_on_a_reinhardt_union_samples_the_faces_once(monkeypatch):
    hf = dom.hartogs_figure()
    calls = []
    sample = dom.ReinhardtUnion._exposed_faces

    def counted(self, count, rng):
        calls.append(count)
        return sample(self, count, rng)

    monkeypatch.setattr(dom.ReinhardtUnion, "_exposed_faces", counted)
    exh.make_probe(hf, function=ex.parse("abs2(z1)", 2), sequences=4, seed=0)
    assert calls == [4]
    calls.clear()
    exh.make_probe(hf, sequences=4, seed=0)
    assert calls == [4]
