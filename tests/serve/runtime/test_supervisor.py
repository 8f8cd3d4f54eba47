"""Supervisor behaviour under real process failures: respawn on idle
death, bounded retries with injected faults, and graceful degradation to
the local fallback path — always with bit-identical answers."""

import os
import signal
import time

import numpy as np
import pytest

from repro.serve import ServeConfig, ServeSession, ServingRuntime
from repro.serve.runtime import FaultSpec, RetryPolicy

from .conftest import FAST_RETRY, LENGTH, OVERSIZE_ROWS, VOCAB


def _traffic(n=24, seed=3):
    return np.random.default_rng(seed).integers(0, VOCAB, size=(n, LENGTH))


class TestRespawn:
    def test_idle_death_is_respawned_by_health_sweep(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            victim = runtime.supervisor.workers[0].process
            victim.kill()
            victim.join()
            report = runtime.check_health()
            assert report["respawned"] >= 1
            assert runtime.qos.worker_deaths >= 1
            # the replacement serves the same bits as everyone else
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            assert runtime.check_health()["alive"] == 2

    def test_in_request_death_is_retried_transparently(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        faults = {0: FaultSpec(kill_on=1)}
        with ServingRuntime(
            path, ServeConfig(workers=2, retry=FAST_RETRY), faults=faults
        ) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            stats = runtime.stats()
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
            assert stats["retries"] >= 1
            assert stats["workers_degraded"] == 0
            # respawned worker is clean (faults_persist defaults to False)
            np.testing.assert_array_equal(runtime.predict(ids), expected)

    def test_second_batch_goes_to_the_second_worker(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        faults = {1: FaultSpec(kill_on=1)}
        with ServingRuntime(
            path, ServeConfig(workers=2, retry=FAST_RETRY), faults=faults
        ) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            assert runtime.qos.worker_deaths == 0  # worker 0 answered
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            assert runtime.qos.worker_deaths >= 1  # round-robin reached worker 1
            assert runtime.stats()["workers_degraded"] == 0

    def test_deadline_bounds_a_frame_larger_than_the_pipe(self, artifact_for):
        """A stopped replica never drains its pipe, so a blocking write of a
        frame the pipe cannot buffer would never return: the attempt must
        still time out, and the respawned replica answer bit-identically."""
        path = artifact_for()
        big = _traffic(OVERSIZE_ROWS)
        expected = ServeSession.load(path).predict(big)
        with ServingRuntime(path, ServeConfig(workers=1, retry=FAST_RETRY)) as runtime:
            runtime.predict(_traffic(4))
            victim = runtime.supervisor.workers[0].process
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                np.testing.assert_array_equal(runtime.predict(big), expected)
            finally:
                victim.kill()  # a no-op once the respawn has reaped it
            stats = runtime.stats()
            assert stats["timeouts"] >= 1 and stats["respawns"] >= 1
            assert runtime.supervisor.workers[0].process is not victim

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_respawns_and_swaps_leak_no_descriptors(self, artifact_for):
        """Each respawn closes the parent's end of the old pipe, and the
        parent keeps no worker's end at all."""
        path = artifact_for()
        ids = _traffic(8)
        engine = ServeSession.load(path).engine
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            runtime.predict(ids)
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(20):
                runtime.hot_swap(path, engine, timeout_s=5.0)
            for w in runtime.supervisor.workers:
                w.process.kill()
                w.process.join(timeout=5.0)
            assert runtime.check_health()["respawned"] == 2
            np.testing.assert_array_equal(runtime.predict(ids), engine.predict(ids))
            assert len(os.listdir("/proc/self/fd")) == before

    def test_swap_right_after_a_reply_starts_every_new_worker(self, artifact_for):
        """A worker killed right after writing a reply must not wedge the
        workers spawned after it: each respawn gets a fresh pipe, so
        nothing the killed process held reaches its replacement."""
        path = artifact_for()
        ids = _traffic(8)
        engine = ServeSession.load(path).engine
        expected = engine.predict(ids)
        with ServingRuntime(path, ServeConfig(workers=2, retry=FAST_RETRY)) as runtime:
            for _ in range(20):
                np.testing.assert_array_equal(runtime.predict(ids), expected)
                runtime.hot_swap(path, engine, timeout_s=5.0)
            assert runtime.qos.worker_deaths == 0


class TestDegradation:
    def test_exhausted_budget_degrades_to_local_fallback(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        retry = RetryPolicy(
            timeout_s=0.5, max_attempts=1, backoff_base_s=0.02, backoff_max_s=0.2
        )
        faults = {0: FaultSpec(kill_on=1)}
        with ServingRuntime(
            path, ServeConfig(workers=2, retry=retry), faults=faults
        ) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            stats = runtime.stats()
            assert stats["workers_degraded"] == 1
            assert stats["degraded_workers"] >= 1
            assert stats["fallback_requests"] >= 1
            assert stats["respawns"] == 0  # budget spent, never respawned

    def test_persistent_fault_burns_retry_budget_then_degrades(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        faults = {0: FaultSpec(kill_on=1)}
        with ServingRuntime(
            path, ServeConfig(workers=2, retry=FAST_RETRY), faults=faults,
            faults_persist=True,
        ) as runtime:
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            stats = runtime.stats()
            # every respawned replacement was re-armed and died again
            assert stats["respawns"] >= 2
            assert stats["worker_deaths"] >= FAST_RETRY.max_attempts
            assert stats["workers_degraded"] == 1

    def test_all_workers_degraded_falls_back_to_engine_predict(self, artifact_for):
        path = artifact_for()
        ids = _traffic()
        expected = ServeSession.load(path).predict(ids)
        retry = RetryPolicy(
            timeout_s=0.5, max_attempts=1, backoff_base_s=0.02, backoff_max_s=0.2
        )
        faults = {0: FaultSpec(kill_on=1), 1: FaultSpec(kill_on=1)}
        with ServingRuntime(
            path, ServeConfig(workers=2, retry=retry), faults=faults
        ) as runtime:
            # Round-robin: each batch kills the next worker, and the parent's
            # engine answers it, until none is left.
            for _ in range(2):
                assert not runtime.degraded
                np.testing.assert_array_equal(runtime.predict(ids), expected)
            assert runtime.degraded
            assert runtime.stats()["workers_degraded"] == 2
            # fully degraded runtime keeps serving, single-process style
            np.testing.assert_array_equal(runtime.predict(ids), expected)
            assert runtime.stats()["fallback_requests"] == 3


class TestCleanShutdown:
    def test_close_reaps_every_worker_process(self, artifact_for):
        config = ServeConfig(workers=3, retry=FAST_RETRY)
        runtime = ServingRuntime(artifact_for(), config)
        procs = [w.process for w in runtime.supervisor.workers]
        runtime.predict(_traffic(8))
        runtime.close()
        deadline = time.monotonic() + 10.0
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(not p.is_alive() for p in procs)
