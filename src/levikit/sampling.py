"""Seeded sampling and the order-preserving map over work items.

Every operation that consumes randomness derives one child seed per work
item from the master seed, so each item's result depends only on its own
seed.  Items run one after another: the ``workers`` config key and
``--workers`` flag are still accepted for old configs and have no effect.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LevikitError, SamplingExhausted


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """One independent generator per work item, derived from ``seed``."""
    return [np.random.default_rng(s) for s in
            np.random.SeedSequence(seed).spawn(count)]


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random unit vector in C^n (Euclidean norm 1)."""
    while True:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        re, im = v.real, v.imag    # np.linalg.norm's formula, without its dispatch
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if norm > 1e-12:
            return v / norm


def disc_points(rng: np.random.Generator, radii) -> np.ndarray:
    """One uniform sample from each closed disc about 0 with the given radii.

    Draws (modulus, angle) pairs in the order of ``radii``, so it takes the
    same numbers from ``rng`` as one two-draw sample per disc.
    """
    return disc_points_at(rng.uniform(size=(len(radii), 2)), radii)


def disc_points_at(u, radii) -> np.ndarray:
    """``disc_points`` at its uniforms ``u``: (modulus, angle) pairs, (..., n, 2);
    a (k, n, 2) block of uniforms gives k points, the draws of k calls."""
    return np.asarray(radii) * np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])


def rejection_sample(draw, count: int, budget: int, what: str) -> tuple[list, int]:
    """Call ``draw()`` until ``count`` draws have returned a sample; a draw
    returns its sample, or None when it is rejected.  Returns the samples in
    draw order and the number of rejected draws.  SamplingExhausted, with
    ``what`` and the acceptance rate, after ``budget`` draws without them."""
    samples = []
    drawn = 0
    while len(samples) < count:
        if drawn == budget:
            raise SamplingExhausted(what, len(samples) / budget)
        drawn += 1
        sample = draw()
        if sample is not None:
            samples.append(sample)
    return samples, drawn - len(samples)


def block_values(rows, blocks) -> list:
    """The values of the row function ``rows`` on an (m, k, n) array of
    blocks, as m lists of k values, from one call on all m*k rows.  When that
    call raises a LevikitError, each block is called alone, and a block whose
    call raises one gets None: an error masks its own block, not its
    neighbours."""
    m, k, n = blocks.shape
    try:
        values = list(rows(blocks.reshape(m * k, n)))
    except LevikitError:
        pass
    else:
        return [values[i:i + k] for i in range(0, m * k, k)]
    out = []
    for block in blocks:
        try:
            out.append(list(rows(block)))
        except LevikitError:
            out.append(None)
    return out


def deterministic_map(fn, items) -> list:
    """Apply ``fn`` to each item in order."""
    return [fn(item) for item in items]
