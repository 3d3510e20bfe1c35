"""Tests for repro.graph.weights."""

import numpy as np
import pytest

from repro.graph.weights import HashWeights, UnitWeights, default_weights


class TestUnitWeights:
    def test_all_ones(self):
        w = UnitWeights()(np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert w.tolist() == [1.0, 1.0, 1.0]
        assert w.dtype == np.float64

    def test_empty(self):
        w = UnitWeights()(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert w.size == 0


class TestHashWeights:
    def test_deterministic(self):
        fn = HashWeights(max_weight=64, seed=3)
        src = np.arange(100)
        dst = np.arange(100) + 1
        assert np.array_equal(fn(src, dst), fn(src, dst))
        assert np.array_equal(fn(src, dst), HashWeights(max_weight=64, seed=3)(src, dst))

    def test_range(self):
        fn = HashWeights(max_weight=16, seed=0)
        w = fn(np.arange(5000), np.arange(5000) % 97)
        assert w.min() >= 1.0
        assert w.max() <= 16.0
        assert np.array_equal(w, np.floor(w))  # integral weights

    def test_seed_changes_values(self):
        src, dst = np.arange(200), np.arange(200) + 7
        a = HashWeights(max_weight=64, seed=1)(src, dst)
        b = HashWeights(max_weight=64, seed=2)(src, dst)
        assert not np.array_equal(a, b)

    def test_direction_sensitive(self):
        fn = HashWeights(max_weight=1 << 20, seed=0)
        a = fn(np.array([3]), np.array([4]))
        b = fn(np.array([4]), np.array([3]))
        assert a[0] != b[0]

    def test_roughly_uniform(self):
        fn = HashWeights(max_weight=4, seed=0)
        w = fn(np.arange(8000), np.arange(8000) * 3 % 7919)
        counts = np.bincount(w.astype(int), minlength=5)[1:5]
        assert counts.min() > 8000 / 4 * 0.8

    def test_invalid_max_weight(self):
        with pytest.raises(ValueError):
            HashWeights(max_weight=0)

    def test_repr(self):
        assert "max_weight=64" in repr(HashWeights(64, 1))

    @pytest.mark.parametrize("max_weight, seed", [(64, 0), (7, 2**63 + 5)])
    def test_in_place_mix_is_the_reference(self, max_weight, seed):
        rng = np.random.default_rng(seed % 1000)
        src = rng.integers(0, 1 << 31, size=100_000, dtype=np.int64)
        dst = rng.integers(0, 1 << 31, size=100_000, dtype=np.int64)
        before = src.copy(), dst.copy()
        got = HashWeights(max_weight, seed)(src, dst)
        assert got.dtype == np.float64
        assert np.array_equal(got, reference_hash_weights(
            max_weight, seed, src, dst))
        assert np.array_equal(src, before[0]) and np.array_equal(dst, before[1])


def reference_hash_weights(max_weight, seed, sources, targets):
    """``HashWeights.__call__`` as it was before it mixed in place
    (verbatim, ``_splitmix64`` included)."""
    def _splitmix64(x):
        with np.errstate(over="ignore"):
            x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            x = x ^ (x >> np.uint64(31))
        return x

    src = np.asarray(sources, dtype=np.uint64)
    dst = np.asarray(targets, dtype=np.uint64)
    with np.errstate(over="ignore"):
        code = (src << np.uint64(32)) | dst
        code = code ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    mixed = _splitmix64(code)
    return (mixed % np.uint64(max_weight)).astype(np.float64) + 1.0


class TestValueEquality:
    def test_equal_parameters_are_one_key(self):
        assert HashWeights(64, 0) == HashWeights(64, 0)
        assert hash(HashWeights(64, 0)) == hash(HashWeights(64, 0))
        assert HashWeights(64, 0) != HashWeights(64, 1)
        assert HashWeights(64, 0) != HashWeights(8, 0)
        assert UnitWeights() == UnitWeights()
        assert hash(UnitWeights()) == hash(UnitWeights())
        assert UnitWeights() != HashWeights(1, 0)
        assert len({HashWeights(64, 0), HashWeights(64, 0), UnitWeights(),
                    UnitWeights(), default_weights()}) == 2


def test_default_weights_is_stable():
    a = default_weights()
    b = default_weights()
    src, dst = np.arange(50), np.arange(50) + 2
    assert np.array_equal(a(src, dst), b(src, dst))
