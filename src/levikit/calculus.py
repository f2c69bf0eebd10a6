"""Complex gradients, Levi matrices, tangent bases and second-order data.

All derivatives are exact symbolic Wirtinger derivatives evaluated at the
requested point; derivative trees, and the programs ``expr.evaluate``
compiles from them, are cached per expression, so repeated point queries
against one function stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as ex
from .errors import DegenerateGradient, NonHermitianLeviMatrix

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class ComplexGradient:
    components: np.ndarray
    point: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@dataclass(frozen=True)
class LeviMatrix:
    entries: np.ndarray
    point: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


@dataclass(frozen=True)
class TangentBasis:
    vectors: np.ndarray        # (n-1, n), rows orthonormal, all Hermitian-orthogonal to conj(grad)
    point: np.ndarray
    gradient_norm: float


@dataclass(frozen=True)
class TaylorParts:
    constant: float
    linear: float
    lambda_part: float
    levi: float
    remainder: float

    def total(self) -> float:
        return self.constant + self.linear + self.lambda_part + self.levi + self.remainder


@lru_cache(maxsize=None)
def _grad_trees(f: ex.Expr, n: int) -> tuple:
    return tuple(ex.wirtinger(f, j + 1, False) for j in range(n))


@lru_cache(maxsize=None)
def _second_trees(f: ex.Expr, n: int, mixed: bool) -> tuple:
    """d2 f / dz_j dzbar_k when ``mixed``, else d2 f / dz_j dz_k, row by row."""
    grads = _grad_trees(f, n)
    return tuple(ex.wirtinger(grads[j], k + 1, mixed)
                 for j in range(n) for k in range(n))


def _second_derivatives(f: ex.Expr, z, mixed: bool):
    """(z as a point, the n x n matrix of second derivatives of f there)."""
    zz = ex.as_point(z)
    n = zz.shape[0]
    values = ex.evaluate(_second_trees(f, n, mixed), zz)
    return zz, np.array(values).reshape(n, n)


def complex_gradient(f: ex.Expr, z) -> ComplexGradient:
    """(df/dz_1, ..., df/dz_n) evaluated at z."""
    zz = ex.as_point(z)
    n = zz.shape[0]
    comps = np.array(ex.evaluate(_grad_trees(f, n), zz))
    return ComplexGradient(comps, zz)


def levi_matrix(f: ex.Expr, z) -> LeviMatrix:
    """Matrix of mixed second derivatives d2 f / dz_j dzbar_k at z.

    Raises NonHermitianLeviMatrix when the result is not Hermitian within
    HERMITIAN_TOL, which signals a non-real-valued input.
    """
    zz, h = _second_derivatives(f, z, True)
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL * scale:
        raise NonHermitianLeviMatrix(
            f"mixed-derivative matrix is not Hermitian at {tuple(zz)}; "
            "is the function real-valued?")
    return LeviMatrix(h, zz)


def unmixed_matrix(f: ex.Expr, z) -> np.ndarray:
    """Symmetrized matrix of unmixed second derivatives d2 f / dz_j dz_k."""
    a = _second_derivatives(f, z, False)[1]
    return 0.5 * (a + a.T)


def default_gradient_tol(a) -> float:
    return 1e-8 * (1.0 + float(np.linalg.norm(ex.as_point(a))))


def orthonormal_complement(unit: np.ndarray, order) -> list:
    """Gram-Schmidt over standard basis vectors, taken in ``order``, against
    the unit vector ``unit``; stops at dimension - 1 vectors.

    Works for real and complex vectors alike (products are Hermitian).
    """
    m = unit.shape[0]
    basis = []
    for j in order:
        if len(basis) == m - 1:
            break
        v = np.zeros(m, dtype=unit.dtype)
        v[j] = 1.0
        for u in [unit] + basis:
            v = v - np.dot(v, np.conj(u)) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
    return basis


def tangent_basis(f: ex.Expr, a, tol: float | None = None,
                  seed: int | None = None) -> TangentBasis:
    """Orthonormal basis of the complex tangent space at a w.r.t. f.

    The tangent space is the Hermitian-orthogonal complement of
    conj(grad f(a)).  Gram-Schmidt runs over the standard basis vectors;
    ``seed`` permutes their order (the span is contractual, the basis not).
    Raises DegenerateGradient when |grad f(a)| <= tol.
    """
    zz = ex.as_point(a)
    n = zz.shape[0]
    if tol is None:
        tol = default_gradient_tol(zz)
    grad = complex_gradient(f, zz)
    gnorm = grad.norm
    if gnorm <= tol:
        raise DegenerateGradient(
            f"|grad f| = {gnorm:.3g} <= {tol:.3g} at {tuple(zz)}")
    w = grad.components.conj() / gnorm

    order = list(range(n))
    if seed is not None:
        np.random.default_rng(seed).shuffle(order)
    basis = orthonormal_complement(w, order)
    if len(basis) != n - 1:
        raise DegenerateGradient(
            f"Gram-Schmidt produced {len(basis)} tangent vectors, expected {n - 1}")
    mat = np.array(basis) if basis else np.zeros((0, n), dtype=complex)
    return TangentBasis(mat, zz, gnorm)


def restricted_levi_matrix(levi: LeviMatrix, basis: TangentBasis) -> np.ndarray:
    """Levi form written in the tangent basis: B[p][q] = form(v_p, v_q)."""
    v = basis.vectors
    return v @ levi.entries @ v.conj().T


def taylor_decompose(f: ex.Expr, a, z) -> TaylorParts:
    """Split f(z) into value, linear, unmixed-quadratic, Levi and remainder parts.

    The five parts sum to f(z) exactly because the remainder is defined as
    the difference.
    """
    aa = ex.as_point(a)
    zz = ex.as_point(z, aa.shape[0])
    d = zz - aa
    f_a = ex.evaluate(f, aa).real
    f_z = ex.evaluate(f, zz).real
    grad = complex_gradient(f, aa).components
    linear = 2.0 * float(np.real(np.dot(d, grad)))
    lam = unmixed_matrix(f, aa)
    lambda_part = float(np.real(d @ lam @ d))
    levi = float(np.real(d @ levi_matrix(f, aa).entries @ d.conj()))
    remainder = f_z - (f_a + linear + lambda_part + levi)
    return TaylorParts(f_a, linear, lambda_part, levi, remainder)


def levi_polynomial(f: ex.Expr, a) -> ex.Expr:
    """Holomorphic degree-<=2 polynomial 2<z-a, conj grad f(a)> + unmixed form.

    Vanishes at a by construction; near a strictly pseudoconvex boundary
    point its real part is negative on the domain side.
    """
    aa = ex.as_point(a)
    n = aa.shape[0]
    grad = complex_gradient(f, aa).components
    lam = unmixed_matrix(f, aa)
    shifted = [ex.sub(ex.var(j + 1), ex.const(aa[j])) for j in range(n)]
    g = ex.const(0)
    for j in range(n):
        g = ex.add(g, ex.mul(ex.const(2.0 * grad[j]), shifted[j]))
    for j in range(n):
        for k in range(n):
            if lam[j][k] != 0:
                g = ex.add(g, ex.mul(ex.const(lam[j][k]),
                                     ex.mul(shifted[j], shifted[k])))
    return g
