"""Fault-free ServingRuntime: the multi-process plane is invisible in the
answers — bit-identical to the single-process engine for every technique
and width — and the session/batcher front doors drive it unchanged."""

import weakref

import numpy as np
import pytest

from repro.data.zipf import ZipfSampler
from repro.serve import Batcher, ServeConfig, ServeSession, ServingRuntime
from repro.serve.runtime import RetryPolicy, supervisor
from repro.serve.runtime.worker import PREDICT, PREDICT_HEADER, write_frame

from .conftest import FAST_RETRY, LENGTH, VOCAB, build_model


def _traffic(n=40, seed=1):
    return np.random.default_rng(seed).integers(0, VOCAB, size=(n, LENGTH))


class TestBitIdentical:
    @pytest.mark.parametrize(
        "technique,bits",
        [
            ("memcom", 32), ("memcom", 8), ("full", 32), ("full", 8),
            ("tt_rec", 32), ("tt_rec", 8),
            # the pooled one-hot encoder has no per-id rows; a replica
            # serves it whole like any other engine
            ("hashed_onehot", 32),
        ],
    )
    def test_matches_single_process_engine(self, artifact_for, technique, bits):
        path = artifact_for(technique, bits)
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            # serving again hits warm workers; still identical
            np.testing.assert_array_equal(runtime.predict(ids), expected)

    def test_single_worker_and_many_workers_agree(self, artifact_for):
        path = artifact_for()
        ids = _traffic(24)
        with ServingRuntime(path, ServeConfig(workers=1, retry=FAST_RETRY)) as one:
            with ServingRuntime(path, ServeConfig(workers=4, retry=FAST_RETRY)) as four:
                np.testing.assert_array_equal(one.predict(ids), four.predict(ids))

    def test_predict_one(self, artifact_for):
        path = artifact_for()
        row = _traffic(1)[0]
        expected = ServeSession.load(path).predict_one(row)
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            np.testing.assert_array_equal(runtime.predict_one(row), expected)

    def test_predict_one_accepts_a_bare_id_at_length_one(self, artifact_for):
        path = artifact_for(input_length=1)
        expected = ServeSession.load(path).predict(np.array([[5]]))[0]
        with ServingRuntime(path, ServeConfig(workers=1, retry=FAST_RETRY)) as runtime:
            np.testing.assert_array_equal(runtime.predict_one(5), expected)


class TestFrontDoors:
    def test_batcher_coalesces_over_the_runtime(self, artifact_for):
        path = artifact_for()
        ids = _traffic(10)
        expected = ServeSession.load(path).predict(ids)
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            batcher = Batcher(runtime, max_batch=4)
            results = batcher.serve(list(ids))
            np.testing.assert_array_equal(np.stack(results), expected)

    def test_session_load_with_workers(self, artifact_for):
        path = artifact_for()
        ids = _traffic(16)
        expected = ServeSession.load(path).predict(ids)
        with ServeSession.load(path, workers=2, retry=FAST_RETRY) as session:
            assert session.runtime is not None
            np.testing.assert_array_equal(session.predict(ids), expected)
            for row in ids:
                session.submit(row)
            np.testing.assert_array_equal(np.stack(session.flush()), expected)
            stats = session.stats()
            assert stats["workers"] == 2
            assert stats["respawns"] == 0 and stats["retries"] == 0
            assert stats["latency_ms_p99"] > 0.0
            assert stats["requests_served"] == 2 * len(ids)

    def test_predict_frame_holds_the_batch_ids(self, artifact_for, monkeypatch):
        """The ids go out whole inside ``predict``, so once ``flush`` returns
        nothing holds the batcher's staging rows that a resend could read
        after the next submits reuse them."""
        sent = []

        def record(conn, deadline, header, payload=b""):
            if header[0] == PREDICT:
                sent.append((bytes(header), bytes(payload), weakref.ref(payload)))
            write_frame(conn, deadline, header, payload)

        monkeypatch.setattr(supervisor, "write_frame", record)
        with ServeSession.load(artifact_for(), workers=1, retry=FAST_RETRY) as session:
            first = _traffic(4, seed=2)
            for row in first:
                session.submit(row)
            session.flush()
            [(header, ids, rows)] = sent
            assert rows() is None
            _, _, attempt, n = PREDICT_HEADER.unpack(header)
            assert (attempt, n) == (1, len(first))
            np.testing.assert_array_equal(
                np.frombuffer(ids, np.int64).reshape(first.shape), first
            )

    def test_answers_belong_to_the_caller(self, artifact_for):
        """Answers are fresh writable float32 arrays, as ``engine.predict``
        returns: a batch's results must not change when the next is served."""
        path = artifact_for()
        with ServeSession.load(path, workers=1, retry=FAST_RETRY) as session:
            out = session.runtime.predict(_traffic(4))
            assert out.dtype == np.float32
            assert out.flags.writeable and out.flags.owndata
            first = session.serve(list(_traffic(4, seed=2)))
            kept = [row.copy() for row in first]
            session.serve(list(_traffic(4, seed=3)))
            for row, copy in zip(first, kept):
                np.testing.assert_array_equal(row, copy)

    def test_stats_report_the_replicas_cache(self, artifact_for):
        """With workers the replicas' caches serve every batch; the parent's
        sees only degraded fallbacks, so stats() must not report it."""
        path = artifact_for("tt_rec", 32)  # keeps its cache at FP32
        requests = ZipfSampler(VOCAB, 1.1).sample(0, (512, LENGTH))
        config = ServeConfig(
            workers=2, retry=FAST_RETRY, cache_rows=256, max_batch=32
        )
        with ServeSession.load(path, config) as session:
            session.serve(list(requests))
            hits, misses = session.cache_counts()
            assert hits + misses == requests.size
            assert session.stats()["cache_hit_rate"] == hits / requests.size > 0.0

    def test_declined_cache_reports_no_hit_rate_with_workers(self, artifact_for):
        config = ServeConfig(workers=2, retry=FAST_RETRY, cache_rows=256)
        with ServeSession.load(artifact_for(), config) as session:
            session.serve(list(_traffic(16)))
            assert session.engine.cache is None  # memcom FP32 declines it
            assert session.cache_counts() == (0, 0)
            assert "cache_hit_rate" not in session.stats()

    def test_session_from_model_refuses_workers(self):
        with pytest.raises(ValueError, match="on-disk artifact"):
            ServeSession.from_model(build_model("memcom"), workers=2)

    def test_quantized_session_with_workers(self, artifact_for):
        path = artifact_for("memcom", 8)
        ids = _traffic(16)
        expected = ServeSession.load(path).predict(ids)
        with ServeSession.load(path, workers=2, retry=FAST_RETRY) as session:
            np.testing.assert_array_equal(session.predict(ids), expected)

    def test_retry_without_workers_is_config_error(self, artifact_for):
        with pytest.raises(ValueError, match="workers"):
            ServeSession.load(artifact_for(), retry=RetryPolicy())


class TestLifecycleAndErrors:
    def test_workers_must_be_positive(self, artifact_for):
        with pytest.raises(ValueError, match="workers"):
            ServingRuntime(artifact_for(), ServeConfig(workers=0))

    def test_missing_artifact_fails_at_init(self, tmp_path):
        with pytest.raises(Exception):
            ServingRuntime(
                str(tmp_path / "nope"), ServeConfig(workers=2, retry=FAST_RETRY)
            )

    def test_worker_load_error_is_reported_at_init(self, artifact_for, tmp_path):
        engine = ServeSession.load(artifact_for()).engine
        missing = str(tmp_path / "nope")
        with pytest.raises(RuntimeError, match=r"failed to start from .*nope.*: \w+"):
            ServingRuntime(
                missing, ServeConfig(workers=2, retry=FAST_RETRY), engine=engine
            )

    @pytest.mark.parametrize("bad", [[1.5, 2, 3, 4], [True, False, True, True]])
    def test_non_integer_ids_raise_before_any_worker_sees_them(
        self, artifact_for, bad
    ):
        with ServeSession.load(
            artifact_for(), ServeConfig(workers=2, retry=FAST_RETRY)
        ) as session:
            with pytest.raises(TypeError, match="integers"):
                session.predict(np.asarray([bad]))
            stats = session.stats()
            assert stats["worker_deaths"] == 0
            assert stats["workers_degraded"] == 0

    @pytest.mark.parametrize("architecture", ["classifier", "pointwise", "ranknet"])
    def test_empty_batch_returns_empty_scores(self, artifact_for, architecture):
        path = artifact_for("memcom", 32, architecture)
        empty = np.empty((0, LENGTH), np.int64)
        width = ServeSession.load(path).predict(_traffic(1)).shape[1]
        for workers in (0, 2):
            config = ServeConfig(workers=workers, retry=FAST_RETRY if workers else None)
            with ServeSession.load(path, config) as session:
                out = session.predict(empty)
                assert out.shape == (0, width) and out.dtype == np.float32
                if workers:
                    assert session.stats()["worker_deaths"] == 0

    def test_close_is_idempotent_and_final(self, artifact_for):
        config = ServeConfig(workers=2, retry=FAST_RETRY)
        runtime = ServingRuntime(artifact_for(), config)
        procs = [w.process for w in runtime.supervisor.workers]
        runtime.predict(_traffic(4))
        runtime.close()
        runtime.close()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            runtime.predict(_traffic(4))

    def test_stats_and_health_report_shape(self, artifact_for):
        with ServingRuntime(
            artifact_for(), ServeConfig(workers=2, retry=FAST_RETRY)
        ) as runtime:
            runtime.predict(_traffic(8))
            stats = runtime.stats()
            for key in (
                "workers", "workers_degraded", "latency_ms_p50", "latency_ms_p95",
                "latency_ms_p99", "recovery_latency_ms", "retries", "respawns",
                "worker_deaths", "timeouts", "corrupt_payloads",
                "heartbeats_missed", "fallback_requests", "degraded_workers",
                "faults_detected", "requests_served", "batches_served",
            ):
                assert key in stats, key
            health = runtime.check_health()
            assert health["alive"] == 2 and health["degraded"] == 0
