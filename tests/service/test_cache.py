"""Unit tests for the service's LRU cache and its statistics."""

from __future__ import annotations

import threading

import pytest

from repro.service import CacheStats, LRUCache


class TestCacheStats:
    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_as_dict_keys(self):
        d = CacheStats(hits=1, misses=1).as_dict()
        assert set(d) == {
            "hits", "misses", "evictions", "invalidations", "hit_rate",
        }
        assert d["hit_rate"] == pytest.approx(0.5)


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1

    def test_miss_returns_none_and_counts(self):
        cache = LRUCache(4)
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_overwrites_in_place(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2

    def test_purge_by_predicate(self):
        cache = LRUCache(8)
        for epoch in (0, 0, 1):
            cache.put(("k", epoch, len(cache)), epoch)
        dropped = cache.purge(lambda key: key[1] == 0)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.stats.invalidations == 2
        assert all(key[1] == 1 for key, _ in cache.items())

    def test_items_count_nothing_and_keep_the_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.items() == [("a", 1), ("b", 2)]
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.put("c", 3)  # "a" is still the least recently used
        assert cache.items() == [("b", 2), ("c", 3)]


class TestConcurrency:
    def test_purge_races_get_and_put(self):
        """An epoch purge racing readers and writers stays consistent.

        Keys are ``(name, epoch, i)`` with a unique ``i`` per put, so an
        exact accounting invariant holds regardless of interleaving:
        every inserted entry is still cached, was LRU-evicted, or was
        purge-invalidated.  A barrier lines the three threads up each
        round so every round genuinely races.
        """
        cache = LRUCache(64)
        rounds = 200
        barrier = threading.Barrier(3)
        wrong_values = []

        def putter():
            for i in range(rounds):
                barrier.wait()
                cache.put(("k", i % 2, i), i)

        def getter():
            for i in range(rounds):
                barrier.wait()
                value = cache.get(("k", i % 2, i))
                if value is not None and value != i:
                    wrong_values.append((i, value))

        def purger():
            for _ in range(rounds):
                barrier.wait()
                cache.purge(lambda key: key[1] == 0)

        threads = [
            threading.Thread(target=fn) for fn in (putter, getter, purger)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert wrong_values == []
        stats = cache.stats
        # Only the getter looks up: one verdict per round, no losses.
        assert stats.hits + stats.misses == rounds
        # Every unique put is accounted for exactly once.
        assert rounds == len(cache) + stats.evictions + stats.invalidations
        # The last purge strictly follows the last epoch-0 put (the
        # barrier orders them), so no epoch-0 key survives.
        assert all(key[1] == 1 for key, _ in cache.items())

    def test_concurrent_purges_split_the_invalidations(self):
        cache = LRUCache(256)
        for i in range(100):
            cache.put(("k", i), i)
        barrier = threading.Barrier(4)
        dropped = [0] * 4

        def purge(slot):
            barrier.wait()
            dropped[slot] = cache.purge(lambda key: key[1] % 2 == 0)

        threads = [
            threading.Thread(target=purge, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each even key is dropped by exactly one purger.
        assert sum(dropped) == 50
        assert cache.stats.invalidations == 50
        assert len(cache) == 50
        assert all(key[1] % 2 == 1 for key, _ in cache.items())
