"""Replay harness: per-phase QoS, SLO assertion, and the acceptance run.

The acceptance test at the bottom is the PR's headline contract: one
million distinct users of drifting-Zipf session traffic replayed through
``ServeSession.load(..., workers=2)`` must meet the default
:class:`SLOSpec` and be bit-deterministic (same checksum) across two runs
with the same seed.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.artifact import save_artifact
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic.model import TrafficModel, TrafficSpec
from repro.traffic.replay import replay
from repro.traffic.slo import SLOSpec, SLOViolation

VOCAB, L = 2_000, 8

SPEC = TrafficSpec(
    vocab=VOCAB, input_length=L, num_users=1_000_000, num_phases=3,
    steps_per_phase=8, head_size=96, sessions_per_step=5.0, seed=3,
)


def _export(directory, technique="memcom", bits=32, seed=0):
    from repro.models.builder import build_pointwise_ranker

    hyper = {"memcom": {"num_hash_embeddings": 128}, "tt_rec": {"tt_rank": 4}}
    model = build_pointwise_ranker(
        technique, VOCAB, 20, input_length=L, embedding_dim=16, rng=seed,
        **hyper[technique],
    )
    path = str(directory / f"{technique}-{bits}-{seed}.artifact")
    save_artifact(model, path, bits=bits)
    return path


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return _export(tmp_path_factory.mktemp("traffic-replay"))


def _session(artifact, workers=0, cache_rows=512):
    return ServeSession.load(
        artifact,
        ServeConfig(cache_rows=cache_rows or None, cache_min_count=1,
                    max_batch=32, workers=workers),
    )


class TestReplayReport:
    def test_phases_and_rollup_account_for_every_request(self, artifact):
        model = TrafficModel(SPEC)
        with _session(artifact) as session:
            report = replay(session, model)
        assert len(report.phases) == SPEC.num_phases
        assert report.requests == sum(p.requests for p in report.phases)
        assert report.requests > 0
        assert report.spec == SPEC.to_dict()

    def test_latency_percentiles_ordered_and_positive(self, artifact):
        with _session(artifact) as session:
            report = replay(session, TrafficModel(SPEC))
        for ph in report.phases + [report.overall]:
            if ph.requests == 0:
                continue
            assert 0.0 < ph.p50_ms <= ph.p95_ms <= ph.p99_ms
            assert ph.rps > 0

    def test_cached_session_reports_hit_rate_uncached_none(self, tmp_path):
        # TT-Rec keeps its cache at FP32 (the memcom fixture declines it).
        tt_rec = _export(tmp_path, "tt_rec")
        with _session(tt_rec, cache_rows=512) as session:
            assert session.engine.cache is not None
            cached = replay(session, TrafficModel(SPEC))
        assert cached.hit_rate is not None
        assert 0.0 < cached.hit_rate < 1.0
        with _session(tt_rec, cache_rows=0) as session:
            uncached = replay(session, TrafficModel(SPEC))
        assert uncached.hit_rate is None
        # Results are the same bytes either way: the cache is transparent.
        assert cached.checksum == uncached.checksum

    def test_replicas_report_their_hit_rate(self, tmp_path):
        # With workers the replicas' caches serve, not the parent engine's.
        tt_rec = _export(tmp_path, "tt_rec")
        with _session(tt_rec, workers=2, cache_rows=512) as session:
            report = replay(session, TrafficModel(SPEC))
            hits, misses = session.cache_counts()
        assert hits > 0
        assert report.hit_rate == hits / (hits + misses)

    def test_declined_cache_reports_no_hit_rate(self, artifact):
        with _session(artifact, cache_rows=512) as session:
            assert session.engine.cache is None  # memcom FP32 declines it
            assert replay(session, TrafficModel(SPEC)).hit_rate is None

    def test_hit_rates_follow_a_hot_swapped_cache(self, tmp_path):
        old = _export(tmp_path, "tt_rec", bits=8, seed=0)
        new = _export(tmp_path, "tt_rec", bits=8, seed=1)
        spec = replace(SPEC, num_phases=2)  # phase 1 serves on the new plan
        with _session(old, cache_rows=256) as session:
            retired = session.engine.cache
            report = replay(
                session, TrafficModel(spec), swap_path=new,
                swap_step=spec.steps_per_phase,
            )
            current = session.engine.cache
        assert current is not retired and current.hits > 0
        assert report.phases[1].hit_rate == current.hit_rate
        hits = retired.hits + current.hits
        assert report.hit_rate == hits / (hits + retired.misses + current.misses)

    def test_distinct_users_accumulate_from_million_user_space(self, artifact):
        with _session(artifact) as session:
            report = replay(session, TrafficModel(SPEC))
        # ~120 sessions over the run, each a fresh uniform draw from 1e6
        # users: collisions are vanishingly rare.
        assert report.distinct_users > 30
        assert report.to_dict()["distinct_users"] == report.distinct_users

    def test_replay_is_deterministic_across_sessions(self, artifact):
        with _session(artifact) as session:
            first = replay(session, TrafficModel(SPEC))
        with _session(artifact) as session:
            second = replay(session, TrafficModel(SPEC))
        assert first.checksum == second.checksum
        assert first.requests == second.requests

    def test_different_traffic_seed_changes_checksum(self, artifact):
        with _session(artifact) as session:
            first = replay(session, TrafficModel(SPEC))
        with _session(artifact) as session:
            second = replay(session, TrafficModel(SPEC.with_seed(99)))
        assert first.checksum != second.checksum


class TestSLOWiring:
    def test_replay_raises_on_violated_slo(self, artifact):
        slo = SLOSpec(max_p99_ms=1e-9)  # nothing real can meet this
        with _session(artifact) as session:
            with pytest.raises(SLOViolation) as err:
                replay(session, TrafficModel(SPEC), slo=slo)
        assert "p99" in str(err.value)

    def test_replay_passes_generous_slo(self, artifact):
        with _session(artifact) as session:
            report = replay(
                session, TrafficModel(SPEC), slo=SLOSpec(max_p99_ms=60_000.0)
            )
        assert report.requests > 0


class TestAcceptanceMillionUserWorkers:
    """ISSUE acceptance: 1M-user drifting-Zipf traffic through a two-worker
    session meets the default SLO and is deterministic across two runs."""

    def test_workers2_meets_default_slo_and_is_deterministic(self, artifact):
        spec = replace(SPEC, steps_per_phase=6)
        assert spec.num_users == 1_000_000
        checksums = []
        for _ in range(2):
            with _session(artifact, workers=2, cache_rows=0) as session:
                report = replay(session, TrafficModel(spec), slo=SLOSpec())
            checksums.append(report.checksum)
            assert report.requests > 0
        assert checksums[0] == checksums[1]

    def test_workers_and_single_process_serve_identical_bytes(self, artifact):
        """The runtime changes the execution plane, never the math."""
        spec = replace(SPEC, steps_per_phase=4)
        with _session(artifact, workers=0, cache_rows=0) as session:
            solo = replay(session, TrafficModel(spec))
        with _session(artifact, workers=2, cache_rows=0) as session:
            multi = replay(session, TrafficModel(spec))
        assert solo.checksum == multi.checksum
