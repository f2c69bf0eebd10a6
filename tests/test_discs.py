"""Holomorphic disc evaluation, maximum principle, continuity probes."""

import math
from functools import partial

import numpy as np
import pytest

from levikit import discs
from levikit import domains as dom
from levikit import expr as ex
from levikit.corpus import holomorphic_polynomials
from levikit.errors import FamilyLeavesDomain, LevikitError

from helpers import affine_point, exp_twisted_point, hartogs_point

E = math.e


def test_affine_disc_eval():
    d = discs.AffineDisc((0, 0), (1, 0), 1.0)
    assert np.allclose(d.at(1j), [1j, 0])


def test_hartogs_disc_eval():
    (_, d), = discs.hartogs_family(1.0, 2, j_values=[2])[0]
    assert np.allclose(d.at(0.5), [1.5, 0.5])
    assert d.describe() == "hartogs(r=1.0, j=2)"


def test_exp_twisted_with_zero_amplitude_reduces_to_affine():
    (_, twisted), = discs.exp_twisted_family((0.5, 0.25j), (1, 0), (0, 1), 0.75,
                                             (0.3, 0.2j, 0.1), j_values=[1])[0]
    assert twisted.t == 0.0 and twisted.describe() == "exp_twisted(r=0.75, t=0.0)"
    affine = discs.AffineDisc((0.5, 0.25j), (1, 0), 0.75)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert np.allclose(twisted.at(w), affine.at(w))


# each disc maps a parameter array in one call, with the one-point bits

def _disc_cases():
    """(disc, the one-point formula of the class it replaces) for a Hartogs
    family, an affine sweep and an exp-twisted family whose g has degree 3,
    each with its limit disc."""
    family, limit = discs.hartogs_family(0.7, 3, j_values=[1, 2, 7])
    cases = [(f"hartogs-{j}", d, partial(hartogs_point, 0.7, j, 3)) for j, d in family]
    cases.append(("hartogs-limit", limit, partial(affine_point, (0.7, 0, 0), (0, 1, 0), 1.0)))
    v = (0.6 - 0.2j, 0.3 + 0.7j)
    family, limit = discs.affine_sweep_family((0.1, -0.2j), (0.9 + 0.3j, 0.4), v, 0.8,
                                              j_values=[2, 5])
    cases += [(f"sweep-{j}", d, partial(affine_point, d.center, v, 0.8))
              for j, d in [*family, ("limit", limit)]]
    a, b, c, g = (0.2, 0.1j), (0.6 + 0.1j, 0.3), (0.1j, 0.9 - 0.2j), (0.3, 0.2j, 0.1, -0.05j)
    family, limit = discs.exp_twisted_family(a, b, c, 0.8, g, j_values=[2, 5])
    twisted = partial(exp_twisted_point, a, b, c, 0.8)
    cases += [(f"exp-twisted-{j}", d, partial(twisted, 1.0 - 1.0 / j, g)) for j, d in family]
    cases.append(("exp-twisted-limit", limit, partial(twisted, 1.0, g)))
    return [pytest.param(d, f, id=name) for name, d, f in cases]


@pytest.mark.parametrize("disc, formula", _disc_cases())
def test_at_on_a_parameter_array_equals_the_one_point_formula(disc, formula):
    params = np.concatenate([discs.interior_parameters(40, 3),
                             discs.boundary_parameters(24)])
    got = disc.at(params)
    assert got.shape == (len(params), disc.dimension)
    assert got.tobytes() == np.array([formula(w) for w in params]).tobytes()
    assert disc.at(params[5]).tobytes() == got[5].tobytes()


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
    # ln(re(z1)) raises where Re z1 <= 0, on part of the disc: the row call
    # of each parameter set raises, and its points then run alone
    f = ex.parse("ln(re(z1)) + abs2(z2)", 2)
    disc = discs.AffineDisc((0.1, 0), (0.6, 0.8), 0.5)

    def sample_max(params):
        best, skipped = -math.inf, 0
        for w in params:
            try:
                v = ex.evaluate(f, disc.at(w)).real
            except LevikitError:
                v = math.nan
            if math.isnan(v):
                skipped += 1
            elif v > best:
                best = v
        return best, skipped

    inner, inner_skipped = sample_max(discs.interior_parameters(40, 3))
    outer, outer_skipped = sample_max(discs.boundary_parameters(24))
    res = discs.disc_max_principle_check(f, disc, interior=40, boundary=24, seed=3)
    assert 0 < inner_skipped < 40 and 0 < outer_skipped < 24
    assert (res.skipped, res.interior_max, res.boundary_max, res.passed) == (
        inner_skipped + outer_skipped, inner, outer, inner <= outer + 1e-9)


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
    (_, numeric_limit), = discs.hartogs_family(1.0, 2, j_values=[discs.J_LIMIT])[0]
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


# the continuity probe tests each disc with one contains call

def continuity_probe_oracle(domain, family, limit_disc, interior=256, boundary=128,
                            seed=0):
    """``discs.continuity_probe`` one point at a time, as it ran before each
    disc became one contains call: every membership loop stops at its first
    False or error."""
    inner = discs.interior_parameters(interior, seed, radius_cap=0.999)
    outer = discs.boundary_parameters(boundary)
    per_index = []
    for j, disc in family:
        image_ok = all(dom.contains(domain, disc.at(w)) for w in inner)
        boundary_ok = all(dom.contains(domain, disc.at(w)) for w in outer)
        per_index.append(discs.IndexCheck(int(j), image_ok, boundary_ok))
        if not (image_ok and boundary_ok):
            raise FamilyLeavesDomain(f"disc {disc.describe()} (j={j}) leaves the domain; "
                                     "the continuity probe does not apply")
    family_id = family[0][1].describe() if family else "empty"
    limit_points = tuple(tuple(complex(c) for c in limit_disc.at(w)) for w in inner[:8])
    if not all(dom.contains(domain, limit_disc.at(w)) for w in outer):
        return discs.DiscReport(family_id, tuple(per_index), False, limit_points, False,
                                None)
    witness = next((tuple(complex(c) for c in limit_disc.at(w)) for w in inner
                    if not dom.contains(domain, limit_disc.at(w))), None)
    return discs.DiscReport(family_id, tuple(per_index), True, limit_points,
                            witness is not None, witness)


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except LevikitError as err:
        return f"{type(err).__name__}: {err}"


COMPLEMENT = dom.Sublevel(ex.parse("1 - abs2(z1) - abs2(z2)", 2), 0.0, 2)


@pytest.mark.parametrize("domain, family", [
    (COMPLEMENT, discs.hartogs_family(1.0, 2)),
    (COMPLEMENT, (discs.hartogs_family(1.0, 2)[0], discs.AffineDisc((0.5, 0), (0, 1), 0.5))),
    (dom.Ball((0, 0), 2.0), discs.hartogs_family(1.0, 2)),
    (dom.Ball((0, 0), 2.0), discs.hartogs_family(1.0, 2, j_values=[1, 2, 3])),
    (dom.hartogs_figure(), _hartogs_exp_twisted_family()),
    (dom.hartogs_figure(), discs.affine_sweep_family((1.0, 1.0), (2.0, 2.0), (0.4, -0.4),
                                                     1.0, j_values=range(2, 12))),
    (dom.WholeSpace(2), discs.hartogs_family(0.5, 2, j_values=[])),
])
def test_continuity_probe_equals_the_per_point_oracle(domain, family, monkeypatch):
    cls = type(domain)
    real = cls.contains
    calls = []

    def counted(self, zz):
        calls.append(len(zz))
        return real(self, zz)

    got = _outcome(discs.continuity_probe, domain, *family, interior=40, boundary=24, seed=3)
    assert got == _outcome(continuity_probe_oracle, domain, *family, interior=40,
                           boundary=24, seed=3)
    # one call per indexed disc that is reached, and one for the limit disc
    monkeypatch.setattr(cls, "contains", counted)
    _outcome(discs.continuity_probe, domain, *family, interior=40, boundary=24, seed=3)
    assert set(calls) == {40 + 24}
    assert len(calls) <= len(family[0]) + 1
    if not got.startswith("FamilyLeavesDomain"):
        assert len(calls) == len(family[0]) + 1


def test_continuity_probe_keeps_the_order_of_falses_and_errors(monkeypatch):
    # points with Im z2 > 0.5 are outside and points with Im z2 < -0.5 raise:
    # each membership loop ends at whichever comes first in parameter order,
    # so the boundary circle (angles from 0 up) is outside before it raises
    real = dom.Ball.contains

    def partial(self, zz):
        if np.any(zz[:, 1].imag < -0.5):
            raise LevikitError("no membership below Im z2 = -0.5")
        return real(self, zz) & (zz[:, 1].imag <= 0.5)

    monkeypatch.setattr(dom.Ball, "contains", partial)
    for seed in range(6):
        for family in (discs.hartogs_family(0.5, 2, j_values=[2, 3]),
                       discs.hartogs_family(0.5, 2, j_values=[])):
            got = _outcome(discs.continuity_probe, dom.Ball((0, 0), 3.0), *family,
                           interior=12, boundary=16, seed=seed)
            assert got == _outcome(continuity_probe_oracle, dom.Ball((0, 0), 3.0), *family,
                                   interior=12, boundary=16, seed=seed)
