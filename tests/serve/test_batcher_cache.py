"""Batcher coalescing and LRU hot-row cache semantics.

Pins the three serving contracts: (1) coalescing many single requests into
batches preserves each request's result exactly; (2) the cache hit path is
bit-identical to the miss path (a cached row is the same bytes the compose
produces); (3) LRU bookkeeping — batch-granularity recency, eviction of the
least-recent rows, never a slot the current batch still needs.
"""

import numpy as np
import pytest

from repro.models.builder import build_pointwise_ranker
from repro.nn.tensor import no_grad
from repro.serve.batcher import Batcher
from repro.serve.cache import LRUCache
from repro.serve.engine import InferenceEngine

V, L, E, C = 300, 6, 16, 10

HYPER = {"memcom": {"num_hash_embeddings": 32}, "tt_rec": {"tt_rank": 4}}


def _engine(cache_rows=None, input_length=L, seed=0, technique="memcom"):
    model = build_pointwise_ranker(
        technique, V, C, input_length=input_length, embedding_dim=E, rng=seed,
        **HYPER[technique],
    )
    return InferenceEngine(model, cache_rows=cache_rows), model


def _cached_engine(cache_rows):
    """A TT-Rec FP32 engine: its contraction keeps the requested cache
    (MEmCom FP32 declines it)."""
    engine, model = _engine(cache_rows, technique="tt_rec")
    assert engine.cache is not None
    return engine, model


class TestBatcherCoalescing:
    @pytest.mark.parametrize("max_batch", [1, 4, 256])
    def test_preserves_per_request_results(self, max_batch):
        engine, _ = _engine()
        batcher = Batcher(engine, max_batch=max_batch)
        rng = np.random.default_rng(0)
        requests = [rng.integers(0, V, size=L) for _ in range(11)]
        pendings = [batcher.submit(ids) for ids in requests]
        assert len(batcher) == 11
        results = batcher.flush()
        assert len(batcher) == 0
        for ids, pending, result in zip(requests, pendings, results):
            assert pending.done
            np.testing.assert_array_equal(pending.result, result)
            np.testing.assert_array_equal(result, engine.predict_one(ids))

    def test_single_id_requests_coalesce_into_one_lookup(self):
        """The 'many single-id requests → one batched lookup' path (L=1)."""
        engine, model = _engine(input_length=1)
        batcher = Batcher(engine, max_batch=64)
        ids = list(range(10))
        results = batcher.serve(ids)  # bare ints are accepted as requests
        assert engine.batches_served == 1
        model.eval()
        with no_grad():
            want = model(np.arange(10)[:, None]).numpy()
        np.testing.assert_array_equal(np.stack(results), want)

    def test_flush_empty_is_noop(self):
        engine, _ = _engine()
        assert Batcher(engine).flush() == []

    def test_rejects_wrong_shapes(self):
        engine, _ = _engine()
        batcher = Batcher(engine)
        with pytest.raises(ValueError):
            batcher.submit(np.zeros((2, L), dtype=np.int64))
        with pytest.raises(ValueError):
            batcher.submit(np.zeros(L + 2, dtype=np.int64))
        with pytest.raises(ValueError):
            Batcher(engine, max_batch=0)

    def test_rejects_out_of_range_ids_at_flush(self):
        """One bad request must never poison a coalesced flush: its
        co-riders are served, it carries the error, the flush raises it,
        and the queue ends empty."""
        engine, _ = _engine()
        batcher = Batcher(engine, max_batch=2)
        rng = np.random.default_rng(5)
        valid = rng.integers(0, V, size=(3, L))
        served = [batcher.submit(valid[0])]
        high = batcher.submit(np.full(L, V, dtype=np.int64))
        served.append(batcher.submit(valid[1]))
        low = batcher.submit(np.full(L, -1, dtype=np.int64))
        served.append(batcher.submit(valid[2]))
        with pytest.raises(ValueError, match=rf"\[0, {V}\): \[{V}, {V}\]") as raised:
            batcher.flush()
        assert raised.value is high.error  # the first rejected request's
        assert str(low.error) == f"request ids out of range [0, {V}): [-1, -1]"
        assert high.result is None and low.result is None
        assert len(batcher) == 0
        assert engine.requests_served == 3  # the bad rows never reached it
        want = Batcher(engine, max_batch=2).serve(valid)
        for pending, row in zip(served, want):
            assert pending.error is None
            np.testing.assert_array_equal(pending.result, row)

    def test_rejects_non_integer_ids_at_submit(self):
        """In range but not integers: a float row would fail its whole
        flush, and bools would index the cache's id map as a mask."""
        engine, _ = _cached_engine(cache_rows=64)
        batcher = Batcher(engine)
        valid = batcher.submit(np.arange(L, dtype=np.int64))
        for bad in (np.full(L, 1.5), np.ones(L, dtype=bool)):
            with pytest.raises(TypeError, match=str(bad.dtype)):
                batcher.submit(bad)
        assert len(batcher) == 1
        batcher.flush()
        np.testing.assert_array_equal(
            valid.result, engine.predict(np.arange(L)[None, :])[0]
        )

    @pytest.mark.parametrize("with_bad_row", [False, True])
    def test_flush_failure_keeps_served_results_and_requeues_rest(self, with_bad_row):
        """Requeued requests keep their staged ids; a rejected one is
        resolved with its error and not requeued."""
        engine, _ = _engine()
        batcher = Batcher(engine, max_batch=2)
        rng = np.random.default_rng(9)
        requests = rng.integers(0, V, size=(5, L))
        pendings = [batcher.submit(ids) for ids in requests[:2]]
        if with_bad_row:
            bad = batcher.submit(np.full(L, -1, dtype=np.int64))
        pendings += [batcher.submit(ids) for ids in requests[2:]]
        calls = {"n": 0}
        real_predict = engine.predict

        def failing_predict(ids):
            calls["n"] += 1
            if calls["n"] == 2:  # second sub-batch dies
                raise RuntimeError("engine fell over")
            return real_predict(ids)

        engine.predict = failing_predict
        with pytest.raises(RuntimeError):
            batcher.flush()
        # First sub-batch (2 requests) served; the other 3 are requeued.
        assert pendings[0].done and pendings[1].done
        assert not pendings[2].done
        assert len(batcher) == 3
        if with_bad_row:
            assert bad.error is not None and bad.result is None
        engine.predict = real_predict
        results = batcher.flush()
        assert len(results) == 3 and all(p.done for p in pendings)
        want = Batcher(engine, max_batch=2).serve(requests)
        for pending, row in zip(pendings, want):
            np.testing.assert_array_equal(pending.result, row)

    def test_flush_interrupted_by_base_exception_requeues_everything(self):
        """KeyboardInterrupt (or an alarm-driven timeout) is not `Exception`
        — a flush killed by one must still requeue undelivered requests
        instead of silently dropping them with the already-cleared queue."""
        engine, _ = _engine()
        batcher = Batcher(engine, max_batch=2)
        rng = np.random.default_rng(11)
        pendings = [batcher.submit(rng.integers(0, V, size=L)) for _ in range(5)]
        calls = {"n": 0}
        real_predict = engine.predict

        def interrupted_predict(ids):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_predict(ids)

        engine.predict = interrupted_predict
        with pytest.raises(KeyboardInterrupt):
            batcher.flush()
        assert pendings[0].done and pendings[1].done
        assert len(batcher) == 3  # interrupted + unserved requests survive
        engine.predict = real_predict
        results = batcher.flush()
        assert len(results) == 3 and all(p.done for p in pendings)

    def test_flush_failure_preserves_latency_deadline_clock(self):
        """A requeued request keeps its original wait start: max_delay_ms
        counts from first submission, not from when the engine recovered."""
        engine, _ = _engine()
        batcher = Batcher(engine, max_batch=64, max_delay_ms=10_000.0)
        rng = np.random.default_rng(13)
        batcher.submit(rng.integers(0, V, size=L))
        started_waiting = batcher._oldest_pending_at
        assert started_waiting is not None

        def failing_predict(ids):
            raise RuntimeError("engine fell over")

        real_predict = engine.predict
        engine.predict = failing_predict
        with pytest.raises(RuntimeError):
            batcher.flush()
        engine.predict = real_predict
        # The requeued request's deadline clock was not reset (a reset
        # would let it wait up to 2x max_delay_ms across a failure).
        assert batcher._oldest_pending_at == started_waiting
        # And an overdue requeued request auto-flushes on the next submit.
        batcher._oldest_pending_at -= 11.0  # simulate 11s already waited
        batcher.submit(rng.integers(0, V, size=L))
        assert batcher.auto_flushes == 1 and len(batcher) == 0

    def test_cached_engine_through_batcher_matches_uncached(self):
        cached, _ = _cached_engine(cache_rows=64)
        uncached, _ = _engine(technique="tt_rec")
        rng = np.random.default_rng(1)
        requests = [rng.integers(0, V, size=L) for _ in range(40)]
        got = Batcher(cached, max_batch=8).serve(requests)
        want = Batcher(uncached, max_batch=8).serve(requests)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestCacheHitPathBitIdentical:
    def test_hit_equals_miss_bytes(self):
        """Same batch twice: first pass all misses, second all hits."""
        engine, _ = _cached_engine(cache_rows=V)
        x = np.random.default_rng(2).integers(0, V, size=(9, L))
        first = engine.predict(x)
        assert engine.cache.misses > 0 and engine.cache.hits >= 0
        second = engine.predict(x)
        assert engine.cache.hit_rate > 0
        np.testing.assert_array_equal(first, second)

    def test_cached_equals_eager_across_evicting_traffic(self):
        """Tiny cache forces constant eviction/drops; results must not drift."""
        engine, model = _cached_engine(cache_rows=7)
        model.eval()
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.integers(0, V, size=(8, L))
            with no_grad():
                want = model(x).numpy()
            np.testing.assert_array_equal(engine.predict(x), want)

    def test_hit_rate_rises_on_zipf_traffic(self):
        from repro.data.zipf import ZipfSampler

        engine, _ = _cached_engine(cache_rows=128)
        requests = ZipfSampler(V, 1.1).sample(0, (512, L))
        for start in range(0, 512, 32):
            engine.predict(requests[start : start + 32])
        assert engine.cache.hit_rate > 0.5


class TestLRUCacheBookkeeping:
    def _fill(self, cache, ids):
        rows = np.asarray(ids, dtype=np.float32)[:, None] * np.ones(
            (1, cache.dim), np.float32
        )
        return cache.insert(np.asarray(ids), rows)

    @pytest.mark.parametrize("id_range", [None, 100])
    def test_lookup_insert_roundtrip(self, id_range):
        cache = LRUCache(8, 3, id_range=id_range)
        slots = self._fill(cache, [1, 2, 3])
        assert (slots >= 0).all()
        got = cache.lookup(np.array([1, 3, 7]))
        assert got[0] >= 0 and got[1] >= 0 and got[2] == -1
        np.testing.assert_array_equal(cache.rows(got[:2])[:, 0], [1.0, 3.0])
        assert cache.hits == 2 and cache.misses == 1
        assert len(cache) == 3

    @pytest.mark.parametrize("id_range", [None, 100])
    def test_evicts_least_recently_used(self, id_range):
        cache = LRUCache(4, 2, id_range=id_range)
        self._fill(cache, [0, 1, 2, 3])
        cache.lookup(np.array([0, 1]))  # 2, 3 become the LRU rows
        self._fill(cache, [4, 5])
        assert cache.evictions == 2
        kept = cache.lookup(np.array([0, 1, 2, 3, 4, 5]))
        assert (kept[[0, 1, 4, 5]] >= 0).all()
        assert (kept[[2, 3]] == -1).all()

    def test_never_evicts_rows_hit_this_tick(self):
        cache = LRUCache(4, 2)
        self._fill(cache, [0, 1, 2, 3])
        hit_slots = cache.lookup(np.array([0, 1, 2]))  # current tick
        returned = self._fill(cache, [10, 11, 12])
        # Only id 3 was evictable; the overflow is dropped, not thrashed.
        assert (returned >= 0).sum() == 1
        for i, s in zip([0, 1, 2], hit_slots.tolist()):
            assert cache.rows(np.array([s]))[0, 0] == float(i)

    def test_insert_more_than_capacity_keeps_head(self):
        cache = LRUCache(3, 2, id_range=100)
        returned = self._fill(cache, [0, 1, 2, 3, 4])
        assert (returned[:3] >= 0).all() and (returned[3:] == -1).all()

    def test_clear(self):
        cache = LRUCache(4, 2, id_range=50)
        self._fill(cache, [1, 2])
        cache.clear()
        assert len(cache) == 0
        assert (cache.lookup(np.array([1, 2])) == -1).all()

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LRUCache(0, 4)
        with pytest.raises(ValueError):
            LRUCache(4, 0)
        cache = LRUCache(4, 2)
        with pytest.raises(ValueError):
            cache.insert(np.array([1]), np.zeros((1, 3), np.float32))

    def test_dict_and_array_maps_agree(self):
        """Same traffic through both map backends → same hits/evictions."""
        rng = np.random.default_rng(4)
        caches = [LRUCache(16, 2), LRUCache(16, 2, id_range=60)]
        for _ in range(50):
            flat = rng.integers(0, 60, size=20)
            outcomes = []
            for cache in caches:
                slots = cache.lookup(flat)
                miss_at = np.flatnonzero(slots < 0)
                ids = np.unique(flat[miss_at])
                cache.insert(ids, np.zeros((ids.size, 2), np.float32))
                outcomes.append((slots >= 0).tolist())
            assert outcomes[0] == outcomes[1]
        assert caches[0].hits == caches[1].hits
        assert caches[0].evictions == caches[1].evictions
