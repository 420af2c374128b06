import numpy as np
import pytest

from uwb_locsim import Gaussian, randomness
from uwb_locsim.randomness import (
    RandomStream,
    cell_seed,
    cell_uniform_array,
    combine,
    mix64,
    mix64_array,
)


def test_uniform_is_strictly_inside_unit_interval():
    stream = RandomStream(0)
    draws = stream.uniforms(100_000)
    assert draws.min() > 0.0
    assert draws.max() < 1.0


def test_vectorized_draws_match_scalar_draws():
    scalar = RandomStream(987654321)
    vector = RandomStream(987654321)
    one_at_a_time = np.array([scalar.uniform() for _ in range(257)])
    assert np.array_equal(vector.uniforms(257), one_at_a_time)


def test_uniforms_continue_the_stream():
    a = RandomStream(7)
    first = a.uniforms(10)
    second = a.uniforms(10)
    b = RandomStream(7)
    assert np.array_equal(np.concatenate([first, second]), b.uniforms(20))


def test_same_seed_reproduces_and_seeds_differ():
    assert RandomStream(42).uniforms(16).tolist() == RandomStream(42).uniforms(16).tolist()
    assert not np.array_equal(RandomStream(42).uniforms(16), RandomStream(43).uniforms(16))


def test_mix64_array_matches_scalar():
    values = np.arange(1000, dtype=np.uint64)
    expected = np.array([mix64(int(v)) for v in values], dtype=np.uint64)
    assert np.array_equal(mix64_array(values), expected)


def test_combine_is_injective_over_keys():
    seeds = {combine(1234, k) for k in range(10_000)}
    assert len(seeds) == 10_000


def test_cell_uniform_array_matches_per_cell_streams():
    master = 99
    runs, points, anchors, channels = 2, 5, 4, 3
    grid = cell_uniform_array(
        master,
        np.arange(runs)[:, None, None, None],
        np.arange(points)[None, :, None, None],
        np.arange(anchors)[None, None, :, None],
        np.arange(channels)[None, None, None, :],
    )
    for r in range(runs):
        for p in range(points):
            for a in range(anchors):
                for ch in range(channels):
                    stream = RandomStream(cell_seed(master, r, p, a, ch))
                    assert grid[r, p, a, ch] == stream.uniform()


def test_spawn_matches_combine():
    parent = RandomStream(5)
    child = parent.spawn(17)
    assert child.uniform() == RandomStream(combine(5, 17)).uniform()


_DRAWS = {
    "uniform": lambda: RandomStream(5).uniform(),
    "uniforms": lambda: RandomStream(5).uniforms(3),
    "cell_uniform_array": lambda: cell_uniform_array(5, np.arange(3)),
}


@pytest.mark.parametrize("path", list(_DRAWS))
def test_all_ones_word_maps_below_one(monkeypatch, path):
    # The top cell, k = 2**53 - 1, would round (k + 0.5) * 2**-53 to 1.0.
    ones = (1 << 64) - 1
    monkeypatch.setattr(randomness, "mix64", lambda value: ones)
    monkeypatch.setattr(
        randomness, "mix64_array", lambda values: np.full(np.shape(values), ones, dtype=np.uint64)
    )
    u = _DRAWS[path]()
    assert np.all(np.asarray(u) == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(Gaussian(0.0, 1.0).quantile(u)))
