import numpy as np
import pytest

from uwb_locsim import Gaussian, ParameterError, randomness
from uwb_locsim.randomness import RandomStream, cell_uniform_array, combine_array

# splitmix64 in Python ints: the oracle the vectorized path must match bit for bit.
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(value: int) -> int:
    z = value & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def combine(seed: int, key: int) -> int:
    return mix64(seed ^ ((mix64(key) + _GOLDEN) & _MASK))


def oracle_uniforms(seed: int, *indices: int, n: int = 1) -> list[float]:
    """The first ``n`` draws of the stream seeded by ``seed`` combined with ``indices``."""
    for idx in indices:
        seed = combine(seed, idx)
    words = (mix64(seed + k * _GOLDEN) for k in range(1, n + 1))
    return [min(((z >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53) for z in words]


def test_uniform_is_strictly_inside_unit_interval():
    stream = RandomStream(0)
    draws = stream.uniforms(100_000)
    assert draws.min() > 0.0
    assert draws.max() < 1.0


def test_vectorized_draws_match_scalar_draws():
    scalar = RandomStream(987654321)
    vector = RandomStream(987654321)
    one_at_a_time = [scalar.uniforms(1)[0] for _ in range(257)]
    expected = oracle_uniforms(987654321, n=257)
    assert one_at_a_time == expected
    assert vector.uniforms(257).tolist() == expected


def test_draws_are_pinned():
    # Integer arithmetic and one exact int -> float conversion: the same on every platform.
    assert [u.hex() for u in RandomStream(0).uniforms(3).tolist()] == [
        "0x1.c4415072f63bap-1", "0x1.b9e279aa86e59p-2", "0x1.b117462002510p-6"]
    assert [u.hex() for u in cell_uniform_array(42, [0, 1], [0], [0], [0]).tolist()] == [
        "0x1.e36793f9b937ap-1", "0x1.cc8a03be2f9bep-1"]


def test_uniforms_continue_the_stream():
    a = RandomStream(7)
    first = a.uniforms(10)
    second = a.uniforms(10)
    b = RandomStream(7)
    assert np.array_equal(np.concatenate([first, second]), b.uniforms(20))


def test_uniforms_rejects_a_negative_count():
    # A negative count used to move the state back and repeat earlier draws
    stream = RandomStream(7)
    first = stream.uniforms(3)
    assert stream.uniforms(0).size == 0
    with pytest.raises(ParameterError):
        stream.uniforms(-3)
    assert not np.array_equal(stream.uniforms(3), first)


def test_same_seed_reproduces_and_seeds_differ():
    assert RandomStream(42).uniforms(16).tolist() == RandomStream(42).uniforms(16).tolist()
    assert not np.array_equal(RandomStream(42).uniforms(16), RandomStream(43).uniforms(16))


def test_mix64_array_matches_scalar():
    values = [*range(1000), _MASK, _GOLDEN, 1 << 63]
    assert randomness._mix64_inplace(np.array(values, dtype=np.uint64)).tolist() == [mix64(v) for v in values]


def test_combine_is_injective_over_keys():
    children = combine_array(1234, np.arange(10_000)).tolist()
    assert children == [combine(1234, k) for k in range(10_000)]
    assert len(set(children)) == 10_000


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
                    assert [grid[r, p, a, ch]] == oracle_uniforms(master, r, p, a, ch)


_DRAWS = {
    "uniforms": lambda: RandomStream(5).uniforms(3),
    "cell_uniform_array": lambda: cell_uniform_array(5, np.arange(3)),
}


@pytest.mark.parametrize("path", list(_DRAWS))
def test_all_ones_word_maps_below_one(monkeypatch, path):
    # The top cell, k = 2**53 - 1, would round (k + 0.5) * 2**-53 to 1.0.
    # Both paths make their final word with the in-place finalizer.
    ones = (1 << 64) - 1
    monkeypatch.setattr(
        randomness, "_mix64_inplace", lambda values: np.full(np.shape(values), ones, dtype=np.uint64)
    )
    u = _DRAWS[path]()
    assert np.all(np.asarray(u) == np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(Gaussian(0.0, 1.0).quantile(u)))
