"""Gradient, Levi matrix, tangent basis and Taylor decomposition tests."""

import numpy as np
import pytest

from levikit import calculus as lc
from levikit import expr as ex
from levikit import fd
from levikit.errors import DegenerateGradient, NonHermitianLeviMatrix

from helpers import compose_with_matrix, random_unitary

BALL = ex.parse("abs2(z1 - 0.25) + abs2(z2 + 0.5*i) - 4", 2)
BALL_CENTER = np.array([0.25, -0.5j])


def test_gradient_of_ball_defining_function():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = lc.complex_gradient(BALL, z)
        assert np.allclose(g, np.conj(z - BALL_CENTER), atol=1e-12)


def test_gradient_of_re_is_constant_half():
    g = lc.complex_gradient(ex.parse("re(z1)", 2), [2j, 1])
    assert np.allclose(g, [0.5, 0.0])


def test_gradient_of_quartic_matches_finite_differences():
    f = ex.parse("abs2(z1)^2", 1)
    g = lc.complex_gradient(f, [2.0])
    assert g[0] == pytest.approx(16.0)  # 2 z zbar^2 at z = 2
    num = fd.wirtinger_fd(f, [2.0], 1, False)
    assert abs(g[0] - num) < 1e-6 * 16


def test_levi_matrix_of_norm_squared_is_identity():
    f = ex.parse("abs2(z1) + abs2(z2)", 2)
    h = lc.levi_matrix(f, [0.3 + 1j, -2])
    assert np.allclose(h, np.eye(2), atol=1e-14)


def test_levi_matrix_of_pluriharmonic_is_zero():
    h = lc.levi_matrix(ex.parse("re(z1)", 2), [1j, 2])
    assert np.allclose(h, 0)
    # -ln|g| for non-vanishing holomorphic g is pluriharmonic
    h2 = lc.levi_matrix(ex.parse("-ln(abs(z1))", 1), [2 + 1j])
    assert np.max(np.abs(h2)) <= 1e-8


def _hermitian_form(f, z, v):
    v = np.asarray(v, dtype=complex)
    return v @ lc.levi_matrix(f, z) @ v.conj()


def test_levi_matrix_hermitian_form_values():
    f = ex.parse("abs2(z1) + abs2(z2)", 2)
    assert _hermitian_form(f, [1, 1j], [3, 4]) == pytest.approx(25.0)
    assert _hermitian_form(f, [1, 1j], [0, 0]) == 0.0
    g = ex.parse("abs2(z1) - abs2(z2)", 2)
    val = _hermitian_form(g, [0.2, 0.4j], [0, 1])
    assert val == pytest.approx(-1.0)
    num = fd.wirtinger_fd(ex.wirtinger(g, 2, False), [0.2, 0.4j], 2, True)
    assert abs(val - num) < 1e-7


def test_levi_matrix_rejects_non_real_valued_functions():
    with pytest.raises(NonHermitianLeviMatrix):
        lc.levi_matrix(ex.parse("z1*abs2(z1)", 1), [1 + 2j])


def test_levi_and_unmixed_matrices_match_real_finite_differences():
    # independent oracle: second differences of f regarded as R^2 -> R;
    # at z = x + iy, f_{z zbar} = (f_xx + f_yy)/4 and
    # f_{zz} = (f_xx - f_yy)/4 - i f_xy/2
    f = ex.parse("exp(abs2(z1)) - 1 + re(z1^3)", 1)

    def freal(x, y):
        return ex.evaluate(f, [complex(x, y)]).real

    x0, y0 = 0.4, -0.3
    h = 1e-4
    fxx = (freal(x0 + h, y0) - 2 * freal(x0, y0) + freal(x0 - h, y0)) / h**2
    fyy = (freal(x0, y0 + h) - 2 * freal(x0, y0) + freal(x0, y0 - h)) / h**2
    fxy = (freal(x0 + h, y0 + h) - freal(x0 + h, y0 - h)
           - freal(x0 - h, y0 + h) + freal(x0 - h, y0 - h)) / (4 * h**2)
    z = [complex(x0, y0)]
    levi = lc.levi_matrix(f, z)[0, 0]
    unmixed = lc.unmixed_matrix(f, z)[0, 0]
    assert abs(levi - (fxx + fyy) / 4) <= 1e-6
    assert abs(unmixed - ((fxx - fyy) / 4 - 0.5j * fxy)) <= 1e-6


def test_tangent_basis_on_sphere():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    basis, _ = lc.tangent_basis(f, [1, 0])
    assert basis.shape == (1, 2)
    v = basis[0]
    assert abs(abs(v[1]) - 1.0) < 1e-12 and abs(v[0]) < 1e-12


def test_tangent_basis_on_polydisc_face_kills_first_coordinate():
    f = ex.parse("abs2(z1) - 1", 2)
    basis, _ = lc.tangent_basis(f, [1, 0.5])
    for v in basis:
        assert abs(v[0]) <= 1e-10


def test_tangent_basis_of_linear_function_spans_second_axis():
    # gradient of re(z1) is (1/2, 0); any unitary equivalent of (0, 1) is fine
    basis, gnorm = lc.tangent_basis(ex.parse("re(z1)", 2), [0, 0])
    assert basis.shape == (1, 2) and gnorm == 0.5
    v = basis[0]
    assert abs(abs(v[1]) - 1.0) <= 1e-12 and abs(v[0]) <= 1e-12


def test_tangent_basis_orthonormal_and_orthogonal_to_gradient():
    f = ex.parse("abs2(z1) + abs2(z2) + abs2(z3) - 2", 3)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = a / np.linalg.norm(a) * np.sqrt(2)
    vmat, _ = lc.tangent_basis(f, a)
    gram = vmat @ vmat.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    grad = lc.complex_gradient(f, a)
    w = grad.conj()
    for v in vmat:
        assert abs(np.vdot(w, v)) <= 1e-10


def test_degenerate_gradient_raises():
    with pytest.raises(DegenerateGradient):
        lc.tangent_basis(ex.parse("abs2(z1)", 1), [0.0])


def test_taylor_decompose_ball_is_exact():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    parts = lc.taylor_decompose(f, [1, 0], [1 + 1j, 1])
    assert abs(parts.remainder) <= 1e-12
    assert parts.total() == pytest.approx(ex.evaluate(f, [1 + 1j, 1]).real)


def test_taylor_decompose_at_base_point_degenerates():
    f = ex.parse("abs2(z1)^2 + re(z1)", 1)
    parts = lc.taylor_decompose(f, [0.5 + 0.5j], [0.5 + 0.5j])
    assert parts.linear == parts.lambda_part == parts.levi == 0.0
    assert parts.remainder == 0.0


def test_taylor_remainder_decays_quadratically_for_cubic():
    f = ex.parse("re(z1)^3", 1)
    delta = np.array([0.8 + 0.6j])
    ratios = []
    h = 1e-1
    while h >= 1e-4:
        parts = lc.taylor_decompose(f, [0.0], list(h * delta))
        ratios.append(abs(parts.remainder) / h**2)
        h /= 2
    for r0, r1 in zip(ratios, ratios[1:]):
        assert r0 / r1 >= 1.8


def test_levi_polynomial_on_ball():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    g = lc.levi_polynomial(f, [1, 0])
    # g(z) = 2(z1 - 1); holomorphic, vanishing at the base point
    assert abs(ex.evaluate(g, [1, 0])) <= 1e-14
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert ex.evaluate(g, z) == pytest.approx(2 * (z[0] - 1))
    # domain-side sign: Re g = |z|^2 - 1 - |z-a|^2 for the ball
    val = ex.evaluate(g, [0.9, 0.1]).real
    assert val == pytest.approx((0.81 + 0.01) - 1 - (0.01 + 0.01))
    assert val < 0


def test_levi_matrix_hermitian_on_corpus():
    from levikit.corpus import CORPUS, corpus_points
    for text, n, guard in CORPUS:
        f = ex.parse(text, n)
        points = corpus_points(guard, n, 3, seed=13)
        if any(ex.evaluate(f, z).imag != 0 for z in points):
            continue
        for z in points:
            h = lc.levi_matrix(f, z)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(h)))


def test_levi_matrix_hermitian_form_scales_with_the_direction():
    f = ex.parse("abs2(z1)^2 + abs2(z2)", 2)
    z = [0.5 + 0.2j, -0.3]
    delta = np.array([1 - 0.5j, 0.25j])
    base = _hermitian_form(f, z, delta)
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        scaled = _hermitian_form(f, z, c * delta)
        assert abs(scaled - abs(c) ** 2 * base) <= 1e-10 * max(1.0, abs(base))


def test_levi_matrix_additivity():
    f = ex.parse("abs2(z1)^2", 2)
    g = ex.parse("abs2(z2) + re(z1*z2)", 2)
    z = [0.4 - 0.1j, 0.2 + 0.3j]
    hf = lc.levi_matrix(f, z)
    hg = lc.levi_matrix(g, z)
    hsum = lc.levi_matrix(f + g, z)
    assert np.allclose(hsum, hf + hg, atol=1e-10)


def test_pluriharmonicity_of_log_modulus_corpus():
    holos = ["z1", "z1*z2 + 2", "exp(z1)", "z1^3 - i*z2 + 4"]
    rng = np.random.default_rng(9)
    for text in holos:
        g = ex.parse(text, 2)
        f = ex.neg(ex.ln(ex.abs_(g)))
        for _ in range(5):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if abs(ex.evaluate(g, z)) < 0.3:
                continue
            h = lc.levi_matrix(f, z)
            assert np.max(np.abs(h)) <= 1e-8


def test_levi_spectrum_invariant_under_unitary_composition():
    f = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    a = np.array([0.6, 0.8j])
    rng = np.random.default_rng(17)
    eigs = np.linalg.eigvalsh(lc.levi_matrix(f, a))
    for _ in range(5):
        v = random_unitary(rng, 2)
        fv = compose_with_matrix(f, v)
        a_back = np.linalg.solve(v, a)
        eigs_v = np.linalg.eigvalsh(lc.levi_matrix(fv, a_back))
        assert np.allclose(np.sort(eigs), np.sort(eigs_v), atol=1e-8)


def test_defining_function_independence_on_ball_examples():
    # two defining functions for the unit ball give the same verdict signs
    f1 = ex.parse("abs2(z1) + abs2(z2) - 1", 2)
    f2 = ex.parse("ln(abs2(z1) + abs2(z2) + 0.0001) - ln(1.0001)", 2)
    a = [1.0, 0.0]
    b1, _ = lc.tangent_basis(f1, a)
    b2, _ = lc.tangent_basis(f2, a)
    m1 = np.linalg.eigvalsh(b1 @ lc.levi_matrix(f1, a) @ b1.conj().T)
    m2 = np.linalg.eigvalsh(b2 @ lc.levi_matrix(f2, a) @ b2.conj().T)
    assert m1[0] > 0 and m2[0] > 0


def test_derivative_matrices_evaluate_their_trees_in_one_call(monkeypatch):
    calls = []
    evaluate = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda f, z: calls.append(f) or evaluate(f, z))
    f = ex.parse("abs2(z1)^2 + abs2(z2)^2 + abs2(z3) - 1", 3)
    z = [0.1, 0.2j, 0.3 - 0.1j]
    lc.levi_matrix(f, z)
    assert [len(trees) for trees in calls] == [9]
    calls.clear()
    lc.complex_gradient(f, z)
    assert [len(trees) for trees in calls] == [3]


def test_gradient_bits_do_not_depend_on_what_was_differentiated_before():
    # (-2.5+0j) == (-2.5-0j), but the two trees are two nodes with their own
    # derivatives; these are the bits of each in a fresh interpreter
    plus = ex.mul(ex.mul(ex.const(complex(-2.5, 0.0)), ex.var(1)), ex.var(2))
    minus = ex.mul(ex.mul(ex.const(complex(-2.5, -0.0)), ex.var(1)), ex.var(2))
    bits = []
    for f in (plus, minus):
        g = lc.complex_gradient(f, [0, 0.5 - 0.25j])[1]
        bits.append((g.real.hex(), g.imag.hex()))
    assert bits == [("-0x0.0p+0", "0x0.0p+0"), ("0x0.0p+0", "-0x0.0p+0")]
