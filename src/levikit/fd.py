"""Central finite-difference Wirtinger derivatives.

Independent numerical route used to cross-check the symbolic engine; the
step follows the usual truncation/round-off balance for second-order
central differences.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex

EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def stencil(zz, j: int):
    """The rows z ± h e_j and z ± ih e_j of the central differences in z_j
    at each row z of the (m, n) array zz, as an (m, 4, n) array, and each
    row's step h, which balances truncation and round-off."""
    h = [EPS_CBRT * max(1.0, abs(x)) for x in zz[:, j - 1]]
    step = np.zeros_like(zz)
    step[:, j - 1] = h
    return np.stack([zz + step, zz - step, zz + 1j * step, zz - 1j * step], axis=1), h


def from_stencil(values, h, conjugated: bool = False) -> complex:
    """d f / d z_j (or d f / d conj z_j) at a row from f's values at its four
    ``stencil`` rows, Python complex, and its step h, by d/dz = (d/dx -
    i d/dy) / 2 with central differences in x and y."""
    fxp, fxm, fyp, fym = values
    fx, fy = (fxp - fxm) / (2.0 * h), (fyp - fym) / (2.0 * h)
    return 0.5 * (fx + 1j * fy) if conjugated else 0.5 * (fx - 1j * fy)


def wirtinger_fd_rows(f: ex.Expr, zz, j: int, conjugated: bool = False) -> list:
    """``from_stencil`` at each row of the (m, n) array zz, by one call of the
    program of f, which need not be real, over every stencil row."""
    rows, h = stencil(zz, j)
    values = ex.row_values(ex.program((f,)), rows.reshape(-1, zz.shape[1])).reshape(-1, 4)
    return [from_stencil(v, step, conjugated) for v, step in zip(values.tolist(), h)]


def wirtinger_fd(f: ex.Expr, z, j: int, conjugated: bool = False) -> complex:
    """``wirtinger_fd_rows`` at the one point z."""
    return wirtinger_fd_rows(f, ex.as_point(z)[None], j, conjugated)[0]
