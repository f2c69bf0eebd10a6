"""Holomorphic disc evaluation, maximum principle, continuity probes."""

import math

import numpy as np
import pytest

from levikit import discs
from levikit import domains as dom
from levikit import expr as ex
from levikit.corpus import holomorphic_polynomials
from levikit.errors import FamilyLeavesDomain

E = math.e


def test_affine_disc_eval():
    d = discs.AffineDisc((0, 0), (1, 0), 1.0)
    assert np.allclose(d.at(1j), [1j, 0])


def test_hartogs_disc_eval():
    d = discs.HartogsDisc(1.0, 2)
    assert np.allclose(d.at(0.5), [1.5, 0.5])


def test_exp_twisted_with_zero_amplitude_reduces_to_affine():
    twisted = discs.ExpTwistedDisc((0.5, 0.25j), (1, 0), (0, 1), 0.75, 0.0,
                                   (0.3, 0.2j, 0.1))
    affine = discs.AffineDisc((0.5, 0.25j), (1, 0), 0.75)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert np.allclose(twisted.at(w), affine.at(w))


def test_max_principle_for_norm_squared():
    f = ex.parse("abs2(z1) + abs2(z2)", 2)
    disc = discs.AffineDisc((0, 0), (1, 0), 1.0)
    res = discs.disc_max_principle_check(f, disc)
    assert res.passed
    assert res.margin > 0  # interior strictly below the boundary maximum


def test_max_principle_for_holomorphic_modulus():
    h = ex.parse("z1^2", 2)
    func = lambda z: abs(ex.evaluate(h, z))
    rng = np.random.default_rng(1)
    for k in range(10):
        center = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        disc = discs.AffineDisc(tuple(center), tuple(direction), 0.8)
        res = discs.disc_max_principle_check(func, disc, seed=k)
        assert res.passed


def test_max_principle_fails_for_superharmonic():
    f = ex.parse("-(abs2(z1) + abs2(z2))", 2)
    disc = discs.AffineDisc((0.2, 0.1), (1, 0), 0.5)
    res = discs.disc_max_principle_check(f, disc)
    assert not res.passed
    assert res.margin < 0


def test_max_principle_counts_nan_values_as_skipped():
    disc = discs.AffineDisc((0, 0), (1, 0), 1.0)
    res = discs.disc_max_principle_check(lambda z: math.nan, disc,
                                         interior=16, boundary=8)
    assert res.skipped == 16 + 8


def test_max_principle_margin_scales_linearly():
    f = ex.parse("abs2(z1) + re(z1*z2)", 2)
    disc = discs.AffineDisc((0.3, -0.2j), (0.6, 0.8), 0.7)
    m1 = discs.disc_max_principle_check(f, disc).margin
    m3 = discs.disc_max_principle_check(ex.const(3) * f, disc).margin
    assert abs(m3 - 3 * m1) <= 1e-12 * max(1.0, abs(m1))


def test_hartogs_family_monotone_and_limit_matches_closed_form():
    family, limit = discs.hartogs_family(1.0, 2, j_values=range(2, 12))
    firsts = [d.at(0)[0].real for _, d in family]
    assert all(a > b for a, b in zip(firsts, firsts[1:]))
    numeric_limit = discs.HartogsDisc(1.0, discs.J_LIMIT)
    for w in (0, 0.5, 1j):
        assert np.max(np.abs(numeric_limit.at(w) - limit.at(w))) <= 1e-6


def test_continuity_probe_compact_complement_violation():
    # C^2 minus the closed unit ball as a sublevel set of 1 - |z|^2
    comp = dom.Sublevel(ex.parse("1 - abs2(z1) - abs2(z2)", 2), 0.0, 2)
    family, limit = discs.hartogs_family(1.0, 2)
    rep = discs.continuity_probe(comp, family, limit_disc=limit)
    assert rep.violation
    assert rep.witness == (1 + 0j, 0j)
    assert not dom.contains(comp, rep.witness)   # strict re-check
    assert rep.limit_boundary_inside


def test_continuity_probe_labels_each_disc_by_its_family_index():
    rep = discs.continuity_probe(dom.Ball((0, 0), 3.0),
                                 *discs.hartogs_family(1.0, 2))
    assert rep.per_index[0].j == 2
    assert [chk.j for chk in rep.per_index] == list(discs.J_VALUES)


def test_continuity_probe_ball_of_radius_two_no_violation():
    family, limit = discs.hartogs_family(1.0, 2)
    rep = discs.continuity_probe(dom.Ball((0, 0), 2.0), family,
                                 limit_disc=limit)
    assert not rep.violation


def test_continuity_probe_family_leaving_domain_raises():
    family, limit = discs.hartogs_family(1.0, 2, j_values=[1, 2, 3])
    with pytest.raises(FamilyLeavesDomain):
        discs.continuity_probe(dom.Ball((0, 0), 2.0), family,
                               limit_disc=limit)


def _hartogs_exp_twisted_family():
    """Exp-twisted discs that sweep the reentrant zone of the Hartogs figure.

    The slice z1 = 3.2 + 1.2 w crosses |z1| = e inside the parameter disc;
    the twist amplitude follows a harmonic bump whose boundary data stays
    strictly below the slicewise distance cap ln d (2 inside the crossing
    arc, 1 outside) but whose interior values overshoot the cap near the
    crossing circle.  Every disc with t_j = 1 - 1/j <= 7/8 stays inside the
    domain, while the t = 1 limit exits where the overshoot beats the cap.
    """
    n_grid = 4096
    theta = 2 * np.pi * np.arange(n_grid) / n_grid
    indicator = (np.cos(theta) < -0.70).astype(float)
    half = int(0.10 / (2 * np.pi / n_grid))
    k = np.arange(-half, half + 1)
    kernel = 0.5 * (1 + np.cos(np.pi * k / half))
    kernel /= kernel.sum()
    padded = np.concatenate([indicator[-half:], indicator, indicator[:half]])
    bump = np.convolve(padded, kernel, mode="same")[half:-half]
    data = 0.95 + 0.2 * bump
    fourier = np.fft.fft(data) / n_grid
    degree = 64
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[0] = fourier[0]
    coeffs[1:] = 2 * fourier[1:degree + 1]
    return discs.exp_twisted_family((3.2, 0), (1.2, 0), (0, 1), 1.0,
                                    coeffs, j_values=range(2, 9))


def test_continuity_probe_hartogs_exp_twisted_violation():
    hf = dom.hartogs_figure()
    family, limit = _hartogs_exp_twisted_family()
    rep = discs.continuity_probe(hf, family, limit_disc=limit, seed=0)
    assert rep.violation
    assert rep.limit_boundary_inside
    assert not dom.contains(hf, rep.witness)
    w = np.asarray(rep.witness)
    assert abs(w[0]) >= E and abs(w[1]) >= E


def test_continuity_probe_affine_sweep_on_hartogs_finds_nothing():
    # affine discs cannot witness the violation here: the two parameter
    # regions where a coordinate modulus dips below e are genuine discs, and
    # two discs covering the unit circle cover the whole parameter disc
    hf = dom.hartogs_figure()
    family, limit = discs.affine_sweep_family(
        (1.0, 1.0), (2.0, 2.0), (0.4, -0.4), 1.0, j_values=range(2, 12))
    try:
        rep = discs.continuity_probe(hf, family, limit_disc=limit, seed=0)
        assert not rep.violation
    except FamilyLeavesDomain:
        pass   # sweep exits en route: equally conclusive of no witness


def test_continuity_probe_scaled_hartogs_family_inapplicable_when_boundary_exits():
    # target limit boundary outside the domain: probe reports no conclusion
    comp = dom.Sublevel(ex.parse("1 - abs2(z1) - abs2(z2)", 2), 0.0, 2)
    family, _ = discs.hartogs_family(1.0, 2)
    bad_limit = discs.AffineDisc((0.5, 0), (0, 1), 0.5)   # inside the ball
    rep = discs.continuity_probe(comp, family, limit_disc=bad_limit)
    assert not rep.violation
    assert not rep.limit_boundary_inside
