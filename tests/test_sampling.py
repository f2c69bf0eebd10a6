"""Seeded sampling helpers."""

import numpy as np
import pytest

from levikit.sampling import disc_points


@pytest.mark.parametrize("n", [1, 2, 3])
def test_disc_points_match_one_draw_per_disc(n):
    # the draws of one modulus and one angle per disc, disc after disc
    for seed in range(1000):
        radii = np.random.default_rng(10_000 + seed).uniform(0.1, 5.0, n)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = disc_points(rng, radii)
        expected = np.array([r * np.sqrt(ref.uniform()) * np.exp(2j * np.pi * ref.uniform())
                             for r in radii])
        assert got.tobytes() == expected.tobytes()
        assert rng.uniform() == ref.uniform()
