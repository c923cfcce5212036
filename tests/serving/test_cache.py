"""Result cache: LRU behavior, quantized keys, version pruning."""

import numpy as np
import pytest

from repro.serving import ResultCache


def entry(n: int):
    return np.arange(n, dtype=np.intp), np.linspace(0.0, 1.0, n)


def test_hit_returns_copies():
    cache = ResultCache(4)
    key = cache.make_key(np.array([0.5, 0.5]), 3, 0)
    ids, scores = entry(3)
    cache.put(key, ids, scores)
    got_ids, got_scores = cache.get(key)
    np.testing.assert_array_equal(got_ids, ids)
    np.testing.assert_array_equal(got_scores, scores)
    got_ids[0] = 999  # mutating the returned arrays must not poison the cache
    again_ids, _ = cache.get(key)
    assert again_ids[0] == 0
    assert cache.hits == 2 and cache.misses == 0


def test_miss_counts():
    cache = ResultCache(4)
    assert cache.get(cache.make_key(np.array([0.5, 0.5]), 3, 0)) is None
    assert cache.misses == 1


def test_probe_counts_a_hit_but_not_a_miss():
    cache = ResultCache(4)
    key = cache.make_key(np.array([0.5, 0.5]), 3, 0)
    assert cache.probe(key) is None
    assert cache.misses == 0
    cache.put(key, *entry(3))
    ids, _ = cache.probe(key)
    ids[0] = 999  # a copy, like get
    assert cache.get(key)[0][0] == 0
    assert cache.hits == 2 and cache.misses == 0
    assert ResultCache(0).probe(key) is None


def test_lru_eviction_order():
    cache = ResultCache(2)
    keys = [cache.make_key(np.array([w, 1 - w]), 3, 0) for w in (0.2, 0.4, 0.6)]
    cache.put(keys[0], *entry(3))
    cache.put(keys[1], *entry(3))
    assert cache.get(keys[0]) is not None  # refresh key 0 → key 1 becomes LRU
    cache.put(keys[2], *entry(3))
    assert cache.get(keys[1]) is None
    assert cache.get(keys[0]) is not None
    assert cache.get(keys[2]) is not None
    assert cache.evictions == 1


def test_quantization_merges_nearby_vectors():
    cache = ResultCache(4, decimals=6)
    a = cache.make_key(np.array([0.5, 0.5]), 3, 0)
    b = cache.make_key(np.array([0.5 + 1e-9, 0.5 - 1e-9]), 3, 0)
    c = cache.make_key(np.array([0.5 + 1e-3, 0.5 - 1e-3]), 3, 0)
    assert a == b
    assert a != c


def test_negative_zero_folded():
    cache = ResultCache(4)
    a = cache.make_key(np.array([1e-15, 1.0]), 3, 0)
    b = cache.make_key(np.array([-1e-15, 1.0]), 3, 0)
    assert a == b  # both quantize to (0.0, 1.0); -0.0 must not split the key


def test_keys_distinguish_k_and_version():
    cache = ResultCache(8)
    w = np.array([0.3, 0.7])
    assert cache.make_key(w, 3, 0) != cache.make_key(w, 4, 0)
    assert cache.make_key(w, 3, 0) != cache.make_key(w, 3, 1)


def test_prune_drops_other_versions():
    cache = ResultCache(8)
    w = np.array([0.3, 0.7])
    for version in (0, 0, 1, 2):
        cache.put(cache.make_key(w, 3 + version, version), *entry(3))
    dropped = cache.prune(2)
    assert dropped == 2
    assert len(cache) == 1
    assert cache.get(cache.make_key(w, 5, 2)) is not None


def test_rekey_carries_one_version_and_keeps_lru_order():
    cache = ResultCache(3)
    w = np.array([0.3, 0.7])
    for k, version in ((1, 1), (2, 2), (3, 2), (4, 2)):
        cache.put(cache.make_key(w, k, version), *entry(k))
    cache.get(cache.make_key(w, 2, 2))  # k=2 becomes most recent
    assert cache.rekey(2, 3) == 3
    assert cache.get(cache.make_key(w, 3, 2)) is None  # old key is gone
    ids, _ = cache.get(cache.make_key(w, 3, 3))
    assert ids.tolist() == entry(3)[0].tolist()
    # LRU order survived: k=4 is now the oldest and is evicted first.
    cache.put(cache.make_key(w, 5, 3), *entry(5))
    assert cache.get(cache.make_key(w, 4, 3)) is None
    assert cache.get(cache.make_key(w, 2, 3)) is not None


def test_zero_capacity_disables_caching():
    cache = ResultCache(0)
    key = cache.make_key(np.array([0.5, 0.5]), 3, 0)
    cache.put(key, *entry(3))
    assert cache.get(key) is None
    assert len(cache) == 0


def test_disabled_cache_stats_contract():
    """Regression: lookups on a capacity=0 cache used to increment the
    miss counter, so a deliberately disabled cache dashboarded as a 100%-
    missing (thrashing) one.  Contract: disabled means hits == misses ==
    evictions == 0, no matter how much traffic flows through."""
    cache = ResultCache(0)
    key = cache.make_key(np.array([0.5, 0.5]), 3, 0)
    for _ in range(10):
        assert cache.get(key) is None
        cache.put(key, *entry(3))
    stats = cache.stats()
    assert stats == {
        "entries": 0,
        "capacity": 0,
        "hits": 0,
        "misses": 0,
        "evictions": 0,
    }


def test_prune_racing_put_during_version_bump():
    """Concurrency: writer threads keep putting old-version entries while
    the owner prunes to the new version (the engine does exactly this on
    a mutation).  The race must never corrupt the cache: a final prune
    leaves only current-version entries and they read back intact."""
    import threading

    cache = ResultCache(256)
    old, new = 0, 1
    stop = threading.Event()
    errors: list[Exception] = []

    def writer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            while not stop.is_set():
                w = rng.random(2)
                version = old if rng.random() < 0.5 else new
                cache.put(cache.make_key(w, 3, version), *entry(3))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(s,)) for s in range(3)]
    for thread in threads:
        thread.start()
    for _ in range(200):
        cache.prune(new)
    stop.set()
    for thread in threads:
        thread.join()
    assert errors == []
    cache.prune(new)  # writers stopped: this sweep is final
    remaining = cache.stats()["entries"]
    assert remaining == len(cache)
    with cache._lock:
        assert all(key[2] == new for key in cache._entries)
    known = cache.make_key(np.array([0.25, 0.75]), 3, new)
    cache.put(known, *entry(3))
    got = cache.get(known)
    assert got is not None
    np.testing.assert_array_equal(got[0], entry(3)[0])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ResultCache(-1)
    with pytest.raises(ValueError):
        ResultCache(4, decimals=0)
