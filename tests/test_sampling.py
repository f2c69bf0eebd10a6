"""Seeded sampling helpers."""

import numpy as np
import pytest

from levikit.errors import SamplingExhausted
from levikit.sampling import (disc_points, disc_points_at, rejection_sample, spawn_rngs,
                              unit_vector, unit_vectors)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_vectors_are_one_unit_vector_per_generator(n):
    for seed in range(50):
        rngs, refs = spawn_rngs(seed, 40), spawn_rngs(seed, 40)
        got = unit_vectors(rngs, n)
        expected = np.array([unit_vector(ref, n) for ref in refs])
        assert got.shape == (40, n)
        assert got.tobytes() == expected.tobytes()
        assert all(rng.bit_generator.state == ref.bit_generator.state
                   for rng, ref in zip(rngs, refs))


class ZerosFirst:
    """A generator stand-in whose first ``count`` normal draws are 0.0 and
    whose later ones are a seeded generator's."""

    def __init__(self, count, seed):
        self.zeros, self.rng = count, np.random.default_rng(seed)

    def standard_normal(self, size):
        head = min(size, self.zeros)
        self.zeros -= head
        return np.concatenate((np.zeros(head), self.rng.standard_normal(size - head)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_vectors_redraw_a_zero_draw_on_its_own_generator(n):
    # the second generator's first draw has size 0 <= 1e-12: it alone draws
    # again, as unit_vector does, and its neighbours keep their one draw
    rngs = [np.random.default_rng(1), ZerosFirst(2 * n, 2), np.random.default_rng(3)]
    refs = [np.random.default_rng(1), ZerosFirst(2 * n, 2), np.random.default_rng(3)]
    got = unit_vectors(rngs, n)
    expected = np.array([unit_vector(ref, n) for ref in refs])
    assert got.tobytes() == expected.tobytes()
    assert np.isclose(np.linalg.norm(got[1]), 1.0)
    for rng, ref in zip(rngs, refs):
        rng, ref = getattr(rng, "rng", rng), getattr(ref, "rng", ref)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert rngs[1].rng.bit_generator.state != np.random.default_rng(2).bit_generator.state


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
