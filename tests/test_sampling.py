"""Seeded sampling helpers."""

import numpy as np
import pytest

from levikit.errors import SamplingExhausted
from levikit.sampling import disc_points, disc_points_at, rejection_sample


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
        # a block of points takes the draws of one call per point
        block = disc_points_at(rng.uniform(size=(1 + seed % 5, n, 2)), radii)
        assert block.tobytes() == np.array([disc_points(ref, radii)
                                            for _ in block]).tobytes()
        assert rng.uniform() == ref.uniform()


def test_rejection_sample_keeps_draw_order_and_counts_rejections():
    draws = iter(range(20))

    def draw():
        k = next(draws)
        return k if k % 3 == 0 else None   # accepts 0, 3, 6, 9

    assert rejection_sample(draw, 0, 100, "none") == ([], 0)
    samples, rejected = rejection_sample(draw, 4, 100, "multiples of 3")
    assert samples == [0, 3, 6, 9]
    assert rejected == 6
    assert next(draws) == 10               # no draw after the last sample


def test_rejection_sample_stops_after_the_budget():
    calls = []

    def draw():
        calls.append(None)
        return None

    with pytest.raises(SamplingExhausted, match="never accepted") as err:
        rejection_sample(draw, 2, 37, "never accepted")
    assert len(calls) == 37
    assert err.value.acceptance_rate == 0.0


def test_rejection_sample_reports_the_acceptance_rate():
    draws = iter(range(100))

    def draw():
        k = next(draws)
        return k if k < 3 else None

    with pytest.raises(SamplingExhausted) as err:
        rejection_sample(draw, 5, 40, "three of forty")
    assert err.value.acceptance_rate == 3 / 40
    assert str(err.value) == "three of forty (acceptance rate 0.075)"
    assert next(draws) == 40
