"""Frequency-based cache admission (``min_count``): one-hit wonders stay out."""

import numpy as np
import pytest

from repro.models.builder import build_pointwise_ranker
from repro.serve.cache import LRUCache
from repro.serve.engine import InferenceEngine


def _rows(ids, dim=4):
    ids = np.asarray(ids, dtype=np.int64)
    return np.repeat(ids[:, None], dim, axis=1).astype(np.float32)


class TestAdmission:
    def test_first_attempt_rejected_second_admitted(self):
        cache = LRUCache(8, 4, id_range=100, min_count=2)
        ids = np.array([1, 2, 3])
        assert (cache.insert(ids, _rows(ids)) == -1).all()
        assert len(cache) == 0
        assert cache.rejected == 3
        slots = cache.insert(ids, _rows(ids))
        assert (slots >= 0).all()
        np.testing.assert_array_equal(cache.rows(slots), _rows(ids))

    def test_min_count_one_admits_immediately(self):
        cache = LRUCache(8, 4, id_range=100)  # default min_count=1
        slots = cache.insert(np.array([5]), _rows([5]))
        assert slots[0] >= 0 and cache.rejected == 0

    def test_partial_admission_within_one_insert(self):
        cache = LRUCache(8, 4, id_range=100, min_count=2)
        cache.insert(np.array([1, 2]), _rows([1, 2]))  # counts: {1:1, 2:1}
        slots = cache.insert(np.array([1, 7]), _rows([1, 7]))
        assert slots[0] >= 0  # id 1 on its second attempt
        assert slots[1] == -1  # id 7 on its first
        lookup = cache.lookup(np.array([1, 7]))
        assert lookup[0] >= 0 and lookup[1] == -1

    def test_dict_backed_counts_without_id_range(self):
        cache = LRUCache(8, 4, min_count=3)
        ids = np.array([42])
        for expect in (-1, -1):
            assert cache.insert(ids, _rows(ids))[0] == expect
        assert cache.insert(ids, _rows(ids))[0] >= 0

    def test_one_hit_wonders_stop_evicting_the_zipf_head(self):
        head = np.arange(16)
        protected = LRUCache(16, 4, id_range=10_000, min_count=2)
        for _ in range(2):  # head ids clear admission and fill the cache
            protected.lookup(head)
            protected.insert(head, _rows(head))
        unprotected = LRUCache(16, 4, id_range=10_000)
        unprotected.lookup(head)
        unprotected.insert(head, _rows(head))

        # a long stream of unique one-hit-wonder tail ids
        for start in range(100, 400, 10):
            tail = np.arange(start, start + 10)
            for cache in (protected, unprotected):
                cache.lookup(tail)
                cache.insert(tail, _rows(tail))

        # admission keeps every head row resident; plain LRU lost them all
        assert (protected.lookup(head) >= 0).all()
        assert protected.evictions == 0
        assert (unprotected.lookup(head) == -1).all()
        assert unprotected.evictions > 0

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            LRUCache(8, 4, min_count=0)

    def test_dict_counters_stay_bounded(self):
        # Open-ended id universe (no id_range): the one-hit-wonder counter
        # dict must be swept, not grow one entry per distinct id forever.
        cache = LRUCache(4, 2, min_count=2)
        bound = cache._COUNT_SWEEP_FACTOR * cache.capacity
        for start in range(0, 20 * bound, 4):
            ids = np.arange(start, start + 4)
            cache.insert(ids, _rows(ids, dim=2))
        assert len(cache._count_dict) <= bound + 4

    def test_clear_resets_counters(self):
        cache = LRUCache(8, 4, id_range=100, min_count=2)
        cache.insert(np.array([1]), _rows([1]))
        cache.clear()
        assert cache.insert(np.array([1]), _rows([1]))[0] == -1  # count restarted


def _build():
    """A plan that keeps its cache at every width: TT-Rec."""
    return build_pointwise_ranker(
        "tt_rec", 250, 12, input_length=8, embedding_dim=16, rng=3, tt_rank=4
    )


class TestEngineWithAdmission:
    @pytest.mark.parametrize("bits", [None, 8])
    def test_served_values_unchanged(self, bits):
        ids = np.random.default_rng(1).integers(0, 250, (64, 8))
        plain = InferenceEngine(_build(), bits=bits)
        admitted = InferenceEngine(
            _build(), bits=bits, cache_rows=64, cache_min_count=2
        )
        first = admitted.predict(ids).copy()
        np.testing.assert_array_equal(first, plain.predict(ids))
        # second pass: some rows now come from the cache, values identical
        np.testing.assert_array_equal(first, admitted.predict(ids))
        assert admitted.cache.rejected > 0


class TestAdmissionTTL:
    """``count_ttl``: admission counters decay so stale popularity expires."""

    def test_counts_halve_after_ttl_batches(self):
        cache = LRUCache(8, 4, id_range=100, min_count=2, count_ttl=3)
        ids = np.array([7])
        cache.insert(ids, _rows(ids))  # count 1 — below min_count
        for _ in range(3):  # advance 3 lookup ticks -> one decay (1 -> 0)
            cache.lookup(np.array([50]))
        # the earlier attempt has decayed away: still not admitted
        assert cache.insert(ids, _rows(ids))[0] == -1
        # two attempts close together clear min_count as always
        assert cache.insert(ids, _rows(ids))[0] >= 0

    def test_sustained_traffic_keeps_admission(self):
        # Attempts landing within one TTL window accumulate as before.
        cache = LRUCache(8, 4, id_range=100, min_count=2, count_ttl=10)
        ids = np.array([3])
        cache.lookup(ids)
        cache.insert(ids, _rows(ids))
        cache.lookup(ids)
        assert cache.insert(ids, _rows(ids))[0] >= 0  # second attempt, no gap

    def test_stale_id_must_reearn_admission(self):
        cache = LRUCache(4, 4, id_range=1000, min_count=2, count_ttl=4)
        hot = np.array([1])
        for _ in range(3):  # clearly admitted under yesterday's traffic
            if cache.lookup(hot)[0] == -1:
                cache.insert(hot, _rows(hot))
        # traffic moves on: recurring new ids clear admission themselves,
        # evict id 1 by LRU, and its counter decays to zero meanwhile
        for start in range(100, 200, 4):
            tail = np.arange(start, start + 4)
            for _ in range(2):  # recur within the window -> admitted
                cache.lookup(tail)
                cache.insert(tail, _rows(tail))
        assert cache.lookup(hot)[0] == -1  # evicted by LRU
        assert cache.insert(hot, _rows(hot))[0] == -1  # and must re-earn count

    def test_dict_backed_counts_decay_too(self):
        cache = LRUCache(8, 4, min_count=2, count_ttl=2)  # no id_range
        ids = np.array([42])
        cache.insert(ids, _rows(ids))
        for _ in range(4):
            cache.lookup(np.array([9]))
        assert 42 not in cache._count_dict  # halved to zero and dropped
        assert cache.insert(ids, _rows(ids))[0] == -1

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="count_ttl"):
            LRUCache(8, 4, count_ttl=0)

    def test_drifting_zipf_head_decayed_vs_sticky(self):
        """The PR-4 motivation end to end: the traffic's Zipf head *moves*.

        Phase A serves head ids 0..31; phase B drifts the head to
        2000..2031 with per-round one-hit-wonder tail noise.  A decaying
        cache must (1) admit the new head and serve it at full hit rate,
        (2) let the old head's counters decay so a stale id re-earns
        admission, while (3) a no-TTL control keeps honoring last week's
        popularity forever — the failure mode count_ttl exists to prevent.
        """
        def serve_round(cache, ids):
            # The engine's protocol: look everything up, insert the
            # (unique) misses; returns the lookup slots.
            slots = cache.lookup(ids)
            missed = np.unique(ids[slots == -1])
            if missed.size:
                cache.insert(missed, _rows(missed))
            return slots

        def attempts_until_admitted(cache, ids, limit=8):
            for attempt in range(1, limit + 1):
                if (cache.insert(ids, _rows(ids)) >= 0).all():
                    return attempt
            return limit + 1

        decayed = LRUCache(32, 4, id_range=10_000, min_count=3, count_ttl=5)
        sticky = LRUCache(32, 4, id_range=10_000, min_count=3)
        head_a, head_b = np.arange(32), np.arange(2000, 2032)
        rng = np.random.default_rng(7)

        for _ in range(6):  # phase A: old head earns admission in both
            for cache in (decayed, sticky):
                serve_round(cache, head_a)
        assert (decayed.lookup(head_a) >= 0).all()
        assert (sticky.lookup(head_a) >= 0).all()

        hits_late = 0
        for round_no in range(15):  # phase B: the head has drifted
            noise = rng.integers(3000, 10_000, size=8)  # one-hit wonders
            traffic = np.concatenate([head_b, noise])
            for cache in (decayed, sticky):
                slots = serve_round(cache, traffic)
                if cache is decayed and round_no >= 5:
                    hits_late += int((slots[:32] >= 0).sum())

        # (1) the new head is fully resident and serving at 100% hit rate
        # in the steady late-phase rounds; tail noise never got admitted.
        assert hits_late == 10 * 32
        assert (decayed.lookup(head_b) >= 0).all()
        assert decayed.rejected > 0
        # Both caches evicted the old head's rows by LRU...
        assert (decayed.lookup(head_a) == -1).all()
        assert (sticky.lookup(head_a) == -1).all()
        # (2)+(3) ...but only the decayed cache forgot its *popularity*:
        # a stale id walks straight back in under sticky counters, and
        # must re-earn min_count attempts under decayed ones.
        assert attempts_until_admitted(sticky, head_a) == 1
        assert attempts_until_admitted(decayed, head_a) >= 2

    def test_decay_never_changes_served_values(self):
        rng = np.random.default_rng(5)
        plain = InferenceEngine(_build())
        decaying = InferenceEngine(
            _build(), cache_rows=32, cache_min_count=2, cache_ttl=2
        )
        for _ in range(8):  # several decay windows under shifting traffic
            ids = rng.integers(0, 250, (16, 8))
            np.testing.assert_array_equal(
                decaying.predict(ids), plain.predict(ids)
            )
        assert decaying.cache.count_ttl == 2
