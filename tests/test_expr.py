"""Parser, evaluator and Wirtinger engine tests."""

import copy
import math
import pickle
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


def test_one_pass_over_trees_matches_one_tree_at_a_time():
    for idx, (text, n, guard) in enumerate(CORPUS):
        f = ex.parse(text, n)
        grads = [ex.wirtinger(f, j, c) for j in range(1, n + 1) for c in (False, True)]
        trees = [f, *grads, *(ex.wirtinger(g, k, c) for g in grads
                              for k in range(1, n + 1) for c in (False, True))]
        for z in corpus_points(guard, n, 3, idx):
            one_pass = ex.evaluate(trees, z)
            assert list(map(repr, one_pass)) == [repr(ex.evaluate(t, z)) for t in trees]


def test_one_pass_raises_at_the_first_failing_tree():
    trees = [ex.parse("abs2(z1)", 1), ex.parse("ln(re(z1))", 1)]
    with pytest.raises(EvalDomainError, match="ln of non-positive"):
        ex.evaluate(trees, [-1.0])


# ---------------------------------------------------------------------------
# compiled programs against the recursive walk, bit for bit

def _outcome(evaluate, f, z):
    """Each value's real and imaginary bits, or what the evaluation raised."""
    try:
        got = evaluate(f, z)
    except EvalDomainError as err:
        return ("EvalDomainError", str(err), err.base_message, err.subexpression,
                repr(err.point))
    except (ArithmeticError, RuntimeWarning) as err:
        return (type(err).__name__, str(err))
    values = got if isinstance(got, list) else [got]
    return [(v.real.hex(), v.imag.hex()) for v in values]


_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e200, math.inf]
_UNARY = ("neg", "re", "im", "abs", "abs2", "conj", "ln", "exp")
_BINARY = ("add", "sub", "mul", "div")


@st.composite
def _forests(draw):
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
                           exponent=draw(st.integers(2, 7)))
        else:
            arity = 2 if kind in _BINARY else 1
            node = ex.Expr(kind, tuple(draw(st.sampled_from(pool))
                                       for _ in range(arity)))
        pool.append(node)
    return [pool[-1], *draw(st.lists(st.sampled_from(pool), max_size=2))]


_COORDS = st.complex_numbers(max_magnitude=4.0) | st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j, 2j])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_forests(), st.lists(_COORDS, min_size=1, max_size=3))
def test_compiled_program_matches_the_walk_bit_for_bit(roots, z):
    # values by float.hex; errors by class, message, subexpression and
    # point, the first in walk order where several are reachable
    with np.errstate(all="ignore"):
        assert _outcome(ex.evaluate, roots, z) == _outcome(walk_evaluate, roots, z)
        assert _outcome(ex.evaluate, roots[0], z) == _outcome(walk_evaluate, roots[0], z)
        # the program kept on the root answers a second call alike
        assert _outcome(ex.evaluate, roots[0], z) == _outcome(walk_evaluate, roots[0], z)


@pytest.mark.parametrize("text, point, message", [
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
])
def test_first_reachable_error_in_walk_order_is_raised(text, point, message):
    f = ex.parse(text, 3)
    with pytest.raises(EvalDomainError) as err:
        ex.evaluate(f, point)
    assert str(err.value).startswith(message)
    assert _outcome(ex.evaluate, f, point) == _outcome(walk_evaluate, f, point)


def test_signed_zero_constants_are_not_merged():
    # (-2.5+0j) == (-2.5-0j), but their products with i differ in sign bits
    a, b = ex.const(complex(-2.5, 0.0)), ex.const(complex(-2.5, -0.0))
    assert a is not b
    f = ex.Expr("add", (ex.Expr("mul", (a, ex.var(1))), ex.Expr("mul", (b, ex.var(1)))))
    assert _outcome(ex.evaluate, [f, a, b], [complex(0.0, 1.0)]) == _outcome(
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
