"""Central finite-difference Wirtinger derivatives.

Independent numerical route used to cross-check the symbolic engine; the
step follows the usual truncation/round-off balance for second-order
central differences.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex

EPS_CBRT = float(np.finfo(float).eps) ** (1.0 / 3.0)


def default_step(coordinate: complex) -> float:
    return EPS_CBRT * max(1.0, abs(coordinate))


def wirtinger_fd(f, z, j: int, conjugated: bool = False,
                 h: float | None = None) -> complex:
    """d f / d z_j (or d f / d conj z_j) from directional real derivatives.

    Uses d/dz = (d/dx - i d/dy) / 2 with central differences in x and y.
    """
    # complex-valued on purpose: derivative trees need not be real
    func = (lambda z: ex.evaluate(f, z)) if isinstance(f, ex.Expr) else f
    zz = ex.as_point(z)
    if h is None:
        h = default_step(zz[j - 1])
    step = np.zeros_like(zz)
    step[j - 1] = h
    fx = (func(zz + step) - func(zz - step)) / (2.0 * h)
    step[j - 1] = 1j * h
    fy = (func(zz + step) - func(zz - step)) / (2.0 * h)
    if conjugated:
        return 0.5 * (fx + 1j * fy)
    return 0.5 * (fx - 1j * fy)
