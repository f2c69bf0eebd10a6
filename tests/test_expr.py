"""Parser, evaluator and Wirtinger engine tests."""

import copy
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import same_structure, walk_evaluate
from levikit import expr as ex
from levikit import fd
from levikit.corpus import CORPUS, corpus_points
from levikit.errors import EvalDomainError, ExprSyntaxError


def test_parse_sum_of_squares():
    f = ex.parse("abs2(z1) + abs2(z2)", 2)
    assert f.kind == "add"
    assert all(c.kind == "abs2" for c in f.children)
    assert ex.evaluate(f, [1, 1j]) == 2


@pytest.mark.parametrize("text, expected", [
    ("abs2(z1)^2 + abs2(z2)^2 - 1", True),
    ("abs(z1) * abs2(z2) - ln(1 + abs(z2))", True),
    ("abs2(conj(z1)) + 3", True),
    ("2.5", True),
    ("abs2(z1*z2)", False),
    ("abs2(z1) + abs2(z2) + abs2(z1*z2 + 0.5*z1^2) - 1", False),
    ("abs(z1 - 1)", False),
    ("abs2(z1) + re(z2)", False),
    ("abs2(abs(z1)) - abs(z2)^3", True),
])
def test_moduli_only_needs_every_variable_directly_under_abs2_or_abs(text, expected):
    assert ex.moduli_only(ex.parse(text, 2)) is expected


def test_parse_re_im_product():
    f = ex.parse("re(z1)*im(z2)", 2)
    assert f.kind == "mul"
    assert f.children[0].kind == "re"
    assert f.children[1].kind == "im"


def test_parse_unbalanced_paren_reports_end_of_input():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("ln(abs(z1)", 1)
    assert err.value.position == len("ln(abs(z1)")
    assert "')'" in str(err.value)


def test_parse_variable_out_of_range():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        ex.parse("abs2(z3)", 2)
    with pytest.raises(ExprSyntaxError, match="out of range"):
        ex.parse("z0", 1)


def test_parse_unknown_name_and_stray_token():
    with pytest.raises(ExprSyntaxError, match="unknown name"):
        ex.parse("foo(z1)", 1)
    with pytest.raises(ExprSyntaxError):
        ex.parse("z1 + ", 1)


def test_eval_re_of_point():
    f = ex.parse("re(z1)", 1)
    assert ex.evaluate(f, [3 + 4j]) == 3


def test_eval_ln_domain_error_carries_subexpression():
    f = ex.parse("ln(abs2(z1))", 1)
    with pytest.raises(EvalDomainError) as err:
        ex.evaluate(f, [0])
    assert "abs2(z1)" in str(err.value)


def test_eval_division_by_zero():
    f = ex.parse("1/(re(z1))", 1)
    with pytest.raises(EvalDomainError, match="division by zero"):
        ex.evaluate(f, [1j])


def test_pow_binds_to_the_whole_negated_atom():
    # grammar: factor := atom ('^' int)?, atom := '-' atom | ...
    f = ex.parse("-z1^2", 1)
    assert ex.evaluate(f, [2]) == 4  # (-z1)^2


def test_wirtinger_abs2_conjugated_is_identity():
    f = ex.parse("abs2(z1)", 1)
    d = ex.wirtinger(f, 1, True)
    assert d.kind == "var" and d.index == 1 and not d.conjugated
    d2 = ex.wirtinger(f, 1, False)
    assert d2.kind == "var" and d2.conjugated


def test_wirtinger_re_is_half():
    d = ex.wirtinger(ex.parse("re(z1)", 1), 1, False)
    assert d.kind == "const" and d.value == 0.5
    dim = ex.wirtinger(ex.parse("im(z1)", 1), 1, False)
    assert dim.kind == "const" and dim.value == -0.5j


def test_wirtinger_quartic_against_finite_differences():
    f = ex.parse("abs2(z1)^2", 1)
    d = ex.wirtinger(f, 1, True)
    assert ex.evaluate(d, [1]) == pytest.approx(2.0)
    num = fd.wirtinger_fd(f, [1.0], 1, True)
    assert abs(ex.evaluate(d, [1]) - num) < 1e-8


def test_conjugation_duality_on_corpus():
    # eval(d f/d z_j) == conj(eval(d conj(f)/d zbar_j)) at seeded points
    for text, n, guard in CORPUS:
        f = ex.parse(text, n)
        fbar = ex.conj(f)
        pts = corpus_points(guard, n, 50, seed=7)
        for j in range(1, n + 1):
            a = ex.wirtinger(f, j, False)
            b = ex.wirtinger(fbar, j, True)
            for z in pts:
                va = ex.evaluate(a, z)
                vb = ex.evaluate(b, z)
                assert abs(va - vb.conjugate()) <= 1e-12 * max(1.0, abs(va))


def test_finite_difference_agreement_sample():
    # full sweep lives in the acceptance suite; spot-check here
    for text, n, guard in CORPUS[:8]:
        f = ex.parse(text, n)
        for z in corpus_points(guard, n, 5, seed=3):
            for j in range(1, n + 1):
                sym = ex.evaluate(ex.wirtinger(f, j, False), z)
                num = fd.wirtinger_fd(f, z, j, False)
                assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym), abs(num))


def test_parser_round_trip_structural_equality():
    texts = [t for t, _, _ in CORPUS] + [
        "1 + 2*i - z1/(3 - im(z2))",
        "-(z1 - conj(z2))^3 * abs(z2)",
        "exp(re(z1*z2)) / (2 + abs2(z1))",
        "0.5e-3 * re(z1)^2 - i*z1*i",
    ]
    for text in texts:
        n = 3
        tree = ex.parse(text, n)
        assert ex.parse(ex.to_text(tree), n) == tree


def test_linearity_of_differentiation():
    f = ex.parse("abs2(z1)^2", 1)
    g = ex.parse("re(z1)^3", 1)
    alpha, beta = 2.5, -1.25
    combo = alpha * f + beta * g
    d_combo = ex.wirtinger(combo, 1, False)
    df = ex.wirtinger(f, 1, False)
    dg = ex.wirtinger(g, 1, False)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        lhs = ex.evaluate(d_combo, z)
        rhs = alpha * ex.evaluate(df, z) + beta * ex.evaluate(dg, z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_substitute_linear_form():
    f = ex.parse("abs2(z1)", 2)
    g = ex.substitute(f, {1: ex.parse("z1 + i*z2", 2)})
    z = [0.3 + 0.1j, -0.7 + 0.4j]
    expected = abs(z[0] + 1j * z[1]) ** 2
    assert ex.evaluate(g, z) == pytest.approx(expected)


def test_printer_handles_negative_and_complex_constants():
    for tree in [ex.const(-2.5) * ex.var(1),
                 ex.const(1.5 - 2.25j) + ex.var(1),
                 ex.neg(ex.var(1)) * ex.var(1),
                 ex.power(ex.neg(ex.var(1)), 3)]:
        # printed constants lose the sign of a zero part: -2.5 parses as (-2.5-0j)
        assert same_structure(ex.parse(ex.to_text(tree), 1), tree)


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                         (math.nan, "nan"), (complex(1, math.inf), "(1+inf*i)")])
def test_printer_names_a_non_finite_constant(value, text):
    assert ex.to_text(ex.const(value)) == text


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_domain_error_keeps_its_class_with_a_non_finite_constant(value):
    # ln(z1 - value^0) at z1 = 1: the message prints the failing
    # subexpression, constant included
    power = ex.Expr("pow", (ex.const(value),), exponent=0)
    f = ex.Expr("ln", (ex.Expr("sub", (ex.var(1), power)),))
    for call in (lambda: ex.evaluate(f, [1.0]), lambda: ex.real_rows(f)(np.ones((2, 1)))):
        with pytest.raises(EvalDomainError, match=re.escape(f"subexpression z1 - ({value!r})^0")):
            call()


def _random_tree(rng, depth, n):
    # built through the same smart constructors the parser uses, so folding
    # happens identically on both sides of the round trip
    if depth == 0 or rng.uniform() < 0.25:
        kind = rng.integers(3)
        if kind == 0:
            return ex.var(int(rng.integers(1, n + 1)))
        if kind == 1:
            return ex.const(round(rng.standard_normal(), 3))
        return ex.const(complex(round(rng.standard_normal(), 3),
                                round(rng.standard_normal(), 3)))
    pick = rng.integers(12)
    child = _random_tree(rng, depth - 1, n)
    if pick < 4:
        other = _random_tree(rng, depth - 1, n)
        op = (ex.add, ex.sub, ex.mul, ex.div)[pick]
        return op(child, other)
    if pick == 4:
        return ex.power(child, int(rng.integers(0, 4)))
    if pick == 5:
        return ex.neg(child)
    ctor = (ex.re_, ex.im_, ex.abs_, ex.abs2, ex.ln, ex.exp_)[pick - 6]
    return ctor(child)


def test_printer_round_trips_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        tree = _random_tree(rng, depth=int(rng.integers(1, 6)), n=3)
        text = ex.to_text(tree)
        assert same_structure(ex.parse(text, 3), tree), text


def test_printer_round_trip_preserves_conj_folding():
    # conj over a variable folds to a flagged leaf on both sides
    tree = ex.conj(ex.var(2)) * ex.var(1)
    text = ex.to_text(tree)
    assert text == "conj(z2)*z1"
    assert ex.parse(text, 2) == tree


def _one_pass(trees, z):
    """The values of several trees at z from one call of their program."""
    return ex.row_values(ex.program(tuple(trees)), ex.as_point(z)[None])[0].tolist()


def test_one_pass_over_trees_matches_one_tree_at_a_time():
    for idx, (text, n, guard) in enumerate(CORPUS):
        f = ex.parse(text, n)
        grads = [ex.wirtinger(f, j, c) for j in range(1, n + 1) for c in (False, True)]
        trees = [f, *grads, *(ex.wirtinger(g, k, c) for g in grads
                              for k in range(1, n + 1) for c in (False, True))]
        for z in corpus_points(guard, n, 3, idx):
            one_pass = _one_pass(trees, z)
            assert list(map(repr, one_pass)) == [repr(ex.evaluate(t, z)) for t in trees]


def test_one_pass_raises_at_the_first_failing_tree():
    trees = [ex.parse("abs2(z1)", 1), ex.parse("ln(re(z1))", 1)]
    with pytest.raises(EvalDomainError, match="ln of non-positive"):
        _one_pass(trees, [-1.0])


# ---------------------------------------------------------------------------
# compiled programs against the recursive walk, bit for bit

def _hex_parts(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _error_outcome(err):
    """An exception's class and message, and an EvalDomainError's
    subexpression and point."""
    if isinstance(err, EvalDomainError):
        return ("EvalDomainError", str(err), err.subexpression, repr(err.point))
    return (type(err).__name__, str(err))


def _outcome(evaluate, f, z):
    """Each value's real and imaginary bits, or what the evaluation raised."""
    try:
        got = evaluate(f, z)
    except Exception as err:    # noqa: BLE001 - compared by the caller
        return _error_outcome(err)
    return _hex_parts(got if isinstance(got, list) else [got])


_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e200, math.inf]
_UNARY = ("neg", "re", "im", "abs", "abs2", "conj", "ln", "exp")
_BINARY = ("add", "sub", "mul", "div")


@st.composite
def _forests(draw, exponents=st.integers(2, 7)):
    """1-3 roots over a pool of nodes built with ``Expr`` itself (no
    folding), every kind drawn; children come from the pool, so subtrees
    are shared, and constants equal by ``==`` but not in their bits, such
    as 0j and -0j, are distinct nodes."""
    pool = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("const", "var", "pow") + _UNARY + _BINARY)
                    if pool else st.sampled_from(("const", "var")))
        if kind == "const":
            node = ex.Expr("const", value=complex(draw(st.sampled_from(_PARTS)),
                                                  draw(st.sampled_from(_PARTS))))
        elif kind == "var":
            node = ex.Expr("var", index=draw(st.integers(1, 3)),
                           conjugated=draw(st.booleans()))
        elif kind == "pow":
            node = ex.Expr("pow", (draw(st.sampled_from(pool)),),
                           exponent=draw(exponents))
        else:
            arity = 2 if kind in _BINARY else 1
            node = ex.Expr(kind, tuple(draw(st.sampled_from(pool))
                                       for _ in range(arity)))
        pool.append(node)
    return [pool[-1], *draw(st.lists(st.sampled_from(pool), max_size=2))]


_COORDS = st.complex_numbers(max_magnitude=4.0) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 2j])
# parts of both signed zeros, subnormals, values near 1e154 (whose squares
# overflow) and 1e308, and the non-finite ones; exponents on both sides of
# CPython's repeated squaring
_ROW_PARTS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-160, 1.0, -1.0, 0.5, -2.5,
    1e154, -1.3e154, 9e307, -1.7e308, math.inf, -math.inf, math.nan]) | st.floats(-4.0, 4.0)
_ROW_EXPONENTS = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 100, 101])


def _row_call_outcome(call):
    """A row call's values by bits, or its error's ``_error_outcome``."""
    try:
        values = call()
    except Exception as err:    # noqa: BLE001 - compared by the caller
        return _error_outcome(err)
    return _hex_parts(np.ravel(values))


def _first_error_or_values(outcomes, real=False):
    """The first error of per-row outcomes, else every row's values, or
    their real parts (as complex values with a zero imaginary part)."""
    values = []
    for outcome in outcomes:
        if not isinstance(outcome, list):
            return outcome
        values += [(re, (0.0).hex()) for re, _ in outcome] if real else outcome
    return values


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_forests(st.integers(2, 7) | _ROW_EXPONENTS), st.integers(1, 3),
       st.lists(st.lists(_COORDS | st.builds(complex, _ROW_PARTS, _ROW_PARTS),
                         min_size=3, max_size=3), min_size=1, max_size=6))
def test_programs_match_the_walk_bit_for_bit(roots, n, rows):
    # row by row against the walk: values by float.hex; where the program
    # flags a row, row_error gives the walk's error (class, message,
    # subexpression and point), the first in walk order where several are
    # reachable, such as a variable beyond a row shorter than the trees'.
    # row_values and real_rows give every row's values (real parts), or
    # raise the first flagged row's error; evaluate gives each row's
    prog = ex.program(tuple(roots))
    zz = np.array([row[:n] for row in rows], dtype=complex)
    with np.errstate(all="ignore"):
        want = [_outcome(walk_evaluate, roots, z) for z in zz]
        values, failed = prog(zz)
        assert values.shape == (len(rows), len(roots)) and failed.shape == (len(rows),)
        assert [_error_outcome(ex.row_error(prog, z, fail)) if fail >= 0 else _hex_parts(got)
                for z, got, fail in zip(zz, values, failed.tolist())] == want
        assert _row_call_outcome(lambda: ex.row_values(prog, zz)) == _first_error_or_values(want)
        first = [_outcome(walk_evaluate, roots[0], z) for z in zz]
        assert _row_call_outcome(lambda: ex.real_rows(roots[0])(zz)) == _first_error_or_values(
            first, real=True)
        assert [_outcome(ex.evaluate, roots[0], z) for z in zz] == first


def test_row_form_flags_the_first_failing_check_in_program_order():
    # 1/z2 is checked before ln(z1), as the walk raises
    prog = ex.program((ex.parse("1/z2 + ln(z1)", 2),))
    values, failed = prog(np.array([[1, 0], [0, 1], [0, 0], [2, 1]], dtype=complex))
    assert failed[0] == failed[2] < failed[1] and failed[3] == -1
    assert values[3, 0] == ex.evaluate(ex.parse("1/z2 + ln(z1)", 2), [2, 1])
    assert "division by zero" in str(ex.row_error(prog, [0, 0], failed[2]))


def test_row_form_of_constants_and_of_a_short_row():
    prog = ex.program((ex.const(2.5), ex.parse("z1 + z3", 3)))
    values, failed = prog(np.zeros((2, 3), dtype=complex))
    assert values[:, 0].tolist() == [2.5, 2.5] and failed.tolist() == [-1, -1]
    _, failed = prog(np.zeros((2, 2), dtype=complex))
    assert min(failed) >= 0
    assert "exceeds point dimension 2" in str(ex.row_error(prog, [0, 0], failed[0]))


_WALK_ORDER = [
    ("ln(z1) + 1/z2", [0, 0], "ln of non-positive argument 0j in subexpression z1"),
    ("1/z2 + ln(z1)", [0, 0], "division by zero in subexpression z2"),
    # a quotient's denominator runs before its numerator
    ("ln(z1) / z2", [0, 0], "division by zero in subexpression z2"),
    ("z2 / ln(z1)", [0, 0], "ln of non-positive argument 0j in subexpression z1"),
    ("1/z1 + z3", [0, 0], "division by zero in subexpression z1"),
    ("z3 + 1/z1", [0, 0], "variable z3 exceeds point dimension 2 in subexpression z3"),
    # an imaginary part above 1e-12 * max(1, |w|) is not real enough for ln
    ("ln(z1)", [1 + 2e-12j], "ln of non-positive argument (1+2e-12j) in subexpression z1"),
    # a power or modulus that overflows, where a product would give inf
    ("z1^2", [1e200], "overflow in subexpression z1^2"),
    ("abs(z1)", [1.5e308 + 1.5e308j], "overflow in subexpression abs(z1)"),
    ("z2^3 + abs(z1)", [1.5e308 + 1.5e308j, 1e200], "overflow in subexpression z2^3"),
    ("abs(z1) / z2^2", [1.5e308 + 1.5e308j, 1e200], "overflow in subexpression z2^2"),
]


@pytest.mark.parametrize("f, point, error, message", [
    *((ex.parse(text, 3), point, EvalDomainError, message)
      for text, point, message in _WALK_ORDER),
    # ln's test takes |w| first, and Python's abs overflows there, bare
    (ex.parse("ln(z1)", 1), [1.5e308 + 1.5e308j], OverflowError, "absolute value too large"),
    (ex.Expr("foo", (ex.var(1),)), [1.0], ValueError, "unknown node kind 'foo'"),
], ids=[*(text for text, _, _ in _WALK_ORDER), "ln-abs-overflow", "unknown-kind"])
def test_first_reachable_error_in_walk_order_is_raised(f, point, error, message):
    # through evaluate, and through row_error at the row the program flags
    with pytest.raises(error) as err:
        ex.evaluate(f, point)
    assert type(err.value) is error and str(err.value).startswith(message)
    walk = _outcome(walk_evaluate, f, point)
    assert _outcome(ex.evaluate, f, point) == walk
    prog, zz = ex.program((f,)), ex.as_point(point)[None]
    (fail,) = prog(zz)[1].tolist()
    assert _error_outcome(ex.row_error(prog, zz[0], fail)) == walk


@pytest.mark.parametrize("k", [101, 150])
def test_a_power_above_100_is_the_complex_operator_per_row(k):
    # above exponent 100 the row form leaves c_powu's repeated squaring and
    # takes w ** k per element; at (1e5, 0) the power overflows
    rng = np.random.default_rng(k)
    points = 1.2 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
    zz = np.append(points, 1e5)[:, None]
    prog = ex.program((ex.parse(f"z1^{k}", 1),))
    values, failed = prog(zz)
    assert [(v.real.hex(), v.imag.hex()) for v in values[:-1, 0].tolist()] == [
        ((w ** k).real.hex(), (w ** k).imag.hex()) for w in points.tolist()]
    assert failed[:-1].tolist() == [-1] * 12 and failed[-1] >= 0
    err = ex.row_error(prog, zz[-1], failed[-1])
    assert type(err) is EvalDomainError
    assert str(err).startswith(f"overflow in subexpression z1^{k}")


def test_signed_zero_constants_are_not_merged():
    # (-2.5+0j) == (-2.5-0j), but their products with i differ in sign bits
    a, b = ex.const(complex(-2.5, 0.0)), ex.const(complex(-2.5, -0.0))
    assert a is not b
    f = ex.Expr("add", (ex.Expr("mul", (a, ex.var(1))), ex.Expr("mul", (b, ex.var(1)))))
    assert _outcome(_one_pass, [f, a, b], [complex(0.0, 1.0)]) == _outcome(
        walk_evaluate, [f, a, b], [complex(0.0, 1.0)])
    assert ex.evaluate(b, [0]).imag.hex() == "-0x0.0p+0"


def test_freed_trees_never_lend_their_programs():
    # a freed tree's id is handed on to the next one built; each new tree
    # must get its own nodes and run its own program
    rng = np.random.default_rng(7)
    for _ in range(3000):
        tree = _random_tree(rng, depth=int(rng.integers(0, 4)), n=2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        with np.errstate(all="ignore"):
            assert _outcome(ex.evaluate, tree, z) == _outcome(walk_evaluate, tree, z)
        del tree


def test_equal_structure_is_one_object():
    text = "ln(abs2(z1) + 1) / z2"
    f = ex.parse(text, 2)
    assert ex.parse(text, 2) is f
    assert ex.var(1) + ex.var(2) is ex.parse("z1 + z2", 2)
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    # a shared node cannot change under the other trees that hold it
    with pytest.raises(AttributeError):
        f.kind = "mul"


def test_pickled_tree_is_the_parse_of_a_fresh_interpreter():
    # the bytes carry the structure only: no program or cache of this process
    f = ex.parse("ln(abs2(z1) + 1) / z2", 2)
    value = ex.evaluate(f, [1, 2])
    code = ("import pickle, sys\n"
            "from levikit import expr as ex\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "print(g is ex.parse('ln(abs2(z1) + 1) / z2', 2))\n"
            "print(repr(ex.evaluate(g, [1, 2])))\n")
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f),
                          capture_output=True, check=True)
    assert proc.stdout.decode().splitlines() == ["True", repr(value)]
