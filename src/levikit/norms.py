"""Vector norms in the two metrics, with ``np.linalg.norm``'s bits."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

EUCLIDEAN = "euclidean"
LINFTY = "linfty"   # the complex-modulus max norm


def norm(v, metric=EUCLIDEAN) -> float:
    """Norm of a contiguous 1-d array; the Euclidean one is ``np.linalg.norm``'s
    own formula, bit for bit, without its dispatch."""
    if metric == EUCLIDEAN:
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return float(np.max(np.abs(v)))


def row_norms(rows, metric=EUCLIDEAN):
    """``norm`` of each row of an (m, n) array, bit for bit: the real and
    imaginary views keep the stride that ``np.linalg.norm`` gives its dot
    products, so ``vecdot`` runs the same kernel on them."""
    if metric == EUCLIDEAN:
        re, im = rows.real, rows.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    # folded over the columns: a max along short rows is slow
    return reduce(np.maximum, np.abs(rows).T)
