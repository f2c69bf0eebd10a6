"""Seeded sampling helpers."""

import numpy as np
import pytest

from levikit.errors import SamplingExhausted
from levikit.norms import norm
from levikit.sampling import (disc_points, disc_points_at, rejection_sample, unit_vector,
                              unit_vectors)


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


@pytest.mark.parametrize("count", [0, 1, 31, 32, 33])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_vectors_are_count_unit_vectors_on_one_generator(n, count):
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:
            # a buffered 32-bit half stays buffered
            assert rng.integers(7) == ref.integers(7)
        got = unit_vectors(rng, count, n)
        expected = np.array([unit_vector(ref, n) for _ in range(count)]).reshape(count, n)
        assert got.shape == (count, n)
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class ZerosAt:
    """A generator stand-in whose normal draws are a seeded generator's,
    except that the draws at the given stream positions are 0.0."""

    def __init__(self, zeros, seed):
        self.zeros, self.drawn, self.rng = set(zeros), 0, np.random.default_rng(seed)

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        flat = out.reshape(-1)
        for j in range(flat.size):
            if self.drawn + j in self.zeros:
                flat[j] = 0.0
        self.drawn += flat.size
        return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_vectors_redraw_a_zero_draw_after_the_other_rows(n):
    # the second row's draw has size 0 <= 1e-12: it is drawn again through
    # unit_vector after the other rows' draws, which keep their place
    rng = ZerosAt(range(2 * n, 4 * n), 2)
    got = unit_vectors(rng, 3, n)
    ref = np.random.default_rng(2)
    first, _, third = (ref.standard_normal(2 * n) for _ in range(3))
    expected = [v / norm(v) for v in (first[:n] + 1j * first[n:], third[:n] + 1j * third[n:])]
    assert got[[0, 2]].tobytes() == np.array(expected).tobytes()
    assert got[1].tobytes() == unit_vector(ref, n).tobytes()
    assert np.isclose(np.linalg.norm(got[1]), 1.0)
    assert rng.rng.bit_generator.state == ref.bit_generator.state


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
