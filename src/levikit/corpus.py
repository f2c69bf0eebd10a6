"""Expression corpus used by derivative self-tests and property tests.

Each entry is (text, dimension, point_guard); the guard rejects sample
points too close to singularities of the expression (zeros under abs/ln,
vanishing divisors), so finite-difference oracles stay well conditioned.
"""

import numpy as np

from . import expr as ex
from .hulls import monomial_exponents
from .sampling import rejection_sample


def _away_from_zero(j, margin=0.3):
    return lambda z: abs(z[j - 1]) > margin


def _always(z):
    return True


CORPUS = [
    ("abs2(z1)", 1, _always),
    ("abs2(z1) + abs2(z2)", 2, _always),
    ("abs2(z1) - abs2(z2)", 2, _always),
    ("abs2(z1)^2", 1, _always),
    ("re(z1)", 1, _always),
    ("im(z1)", 1, _always),
    ("re(z1)*im(z1)", 1, _always),
    ("re(z1)^3", 1, _always),
    ("exp(re(z1))", 1, _always),
    ("ln(1 + abs2(z1))", 1, _always),
    ("abs2(z1*z2)", 2, _always),
    ("abs2(z1 + conj(z2))", 2, _always),
    ("re(z1*z2) + im(z1)*im(z2)", 2, _always),
    ("abs2(z1)/(1 + abs2(z1))", 1, _always),
    ("exp(abs2(z1)) - 1", 1, _always),
    ("re(z1^2)", 1, _always),
    ("abs2(z1) + re(z1)^2 + im(z2)^2", 2, _always),
    ("ln(4 + re(z1))", 1, lambda z: z[0].real > -3.0),
    ("abs2(z1) + abs2(z2) + abs2(z3)", 3, _always),
    ("re((z1 - z2)*(z2 - z3))", 3, _always),
    ("abs(z1)", 1, _away_from_zero(1)),
    ("-ln(abs(z1))", 1, _away_from_zero(1)),
]


def corpus_points(guard, n, count, seed):
    """Seeded sample points in C^n satisfying the entry's guard."""
    rng = np.random.default_rng(seed)

    def draw():
        z = 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return z if guard(z) else None

    return rejection_sample(draw, count, 1000,
                            "guard rejected too many sample points")[0]


def holomorphic_polynomials(count, n, degree, seed, lower_bound=None):
    """Seeded holomorphic polynomials as Expr trees.

    With ``lower_bound`` set, the constant term dominates the remaining
    coefficients so |h| >= lower_bound on the polydisc of radius 2; that
    keeps -ln|h| finite on the disc images used by the maximum-principle
    tests.
    """
    rng = np.random.default_rng(seed)
    exponents = monomial_exponents(n, degree)
    polys = []
    for _ in range(count):
        k = rng.integers(2, min(5, len(exponents)) + 1)
        chosen = rng.choice(len(exponents), size=k, replace=False)
        coeffs = np.exp(2j * np.pi * rng.uniform(size=k))
        tail_sup = 0.0
        tree = None
        for c, idx in zip(coeffs, chosen):
            mono = ex.const(c)
            for j, p in enumerate(exponents[idx]):
                if p:
                    mono = ex.mul(mono, ex.power(ex.var(j + 1), p))
            tail_sup += 2.0 ** sum(exponents[idx])
            tree = mono if tree is None else ex.add(tree, mono)
        if lower_bound is not None:
            c0 = tail_sup + lower_bound
            tree = ex.add(ex.const(c0), tree)
        polys.append(tree)
    return polys
