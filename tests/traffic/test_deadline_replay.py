"""Deadline-flush replay: ``Batcher(max_delay_ms)`` drives batching, the
books still balance.

With a batching deadline the harness stops force-flushing every arrival
step — batches fill or age out on the batcher's own clock, straddling step
boundaries.  The regression contract: the determinism checksum is
*byte-identical* to per-step-flush mode (same stream, same predictions,
same hash order), every request is accounted exactly once, and nothing is
dropped.
"""

import numpy as np
import pytest

from repro.artifact import save_artifact
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic.model import TrafficModel, TrafficSpec
from repro.traffic.replay import replay

VOCAB, L = 500, 6

SPEC = TrafficSpec(
    vocab=VOCAB, input_length=L, num_users=2_000, num_phases=2,
    steps_per_phase=10, head_size=32, sessions_per_step=4.0, seed=11,
)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    from repro.models.builder import build_pointwise_ranker

    model = build_pointwise_ranker(
        "full", VOCAB, 12, input_length=L, embedding_dim=8, rng=0,
    )
    path = str(tmp_path_factory.mktemp("deadline") / "m.artifact")
    save_artifact(model, path)
    return path


class TestDeadlineReplay:
    def test_checksum_identical_to_per_step_flush(self, artifact):
        with ServeSession.load(artifact) as session:
            stepwise = replay(session, TrafficModel(SPEC))
        with ServeSession.load(
            artifact, ServeConfig(max_delay_ms=1.0, max_batch=16)
        ) as session:
            deadline = replay(session, TrafficModel(SPEC))
        assert deadline.checksum == stepwise.checksum
        assert deadline.requests == stepwise.requests
        assert deadline.requests == sum(p.requests for p in deadline.phases)

    def test_deadline_batches_actually_coalesce(self, artifact):
        """The deadline path must be exercised, not silently degenerate to
        one flush per step: the batcher's auto-flush counter moves."""
        with ServeSession.load(
            artifact, ServeConfig(max_delay_ms=0.0, max_batch=8)
        ) as session:
            replay(session, TrafficModel(SPEC))
            assert session.batcher.auto_flushes > 0

    def test_cached_deadline_replay_same_bytes(self, tmp_path):
        from repro.models.builder import build_pointwise_ranker

        # TT-Rec keeps its cache at FP32 (the full-table fixture declines it).
        model = build_pointwise_ranker(
            "tt_rec", VOCAB, 12, input_length=L, embedding_dim=8, rng=0, tt_rank=2,
        )
        tt_rec = str(tmp_path / "tt.artifact")
        save_artifact(model, tt_rec)
        with ServeSession.load(tt_rec) as session:
            want = replay(session, TrafficModel(SPEC)).checksum
        config = ServeConfig(
            max_delay_ms=1.0, cache_rows=64, cache_min_count=1, max_batch=16
        )
        with ServeSession.load(tt_rec, config) as session:
            assert session.engine.cache is not None
            got = replay(session, TrafficModel(SPEC))
            assert session.engine.cache.hits > 0
        assert got.checksum == want

    def test_report_has_no_split_checksums_by_default(self, artifact):
        with ServeSession.load(artifact) as session:
            report = replay(session, TrafficModel(SPEC))
        assert report.swap_step is None
        assert report.checksum_pre is None
        assert "checksum_pre" not in report.to_dict()
