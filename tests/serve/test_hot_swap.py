"""Live hot swap: adopt a new artifact mid-traffic without dropping a
request.

The contract under test (``ServeSession.hot_swap``): pending requests
drain against the *old* plan, every post-swap prediction is bit-identical
to a cold load of the new artifact — single-process, ``workers=2`` and
mmap alike — a failed swap leaves the session untouched, and delta
artifacts swap the same as full ones.
"""

import numpy as np
import pytest

from repro.artifact import save_artifact, save_delta
from repro.artifact.errors import ArtifactError
from repro.serve.session import ServeConfig, ServeSession

VOCAB, DIM, LENGTH, CATALOG = 240, 8, 6, 10


def _model(seed=0):
    from repro.models.builder import build_pointwise_ranker

    return build_pointwise_ranker(
        "full", VOCAB, CATALOG, input_length=LENGTH, embedding_dim=DIM, rng=seed,
    )


def _requests(n=24, seed=1):
    return np.random.default_rng(seed).integers(0, VOCAB, size=(n, LENGTH))


@pytest.fixture
def two_artifacts(tmp_path):
    old = str(tmp_path / "old")
    new = str(tmp_path / "new")
    save_artifact(_model(seed=0), old)
    save_artifact(_model(seed=7), new)
    return old, new


class TestHotSwapSingleProcess:
    def test_pending_drain_on_the_old_plan(self, two_artifacts):
        old, new = two_artifacts
        ids = _requests()
        with ServeSession.load(old) as cold_old:
            want_old = cold_old.predict(ids)
        with ServeSession.load(new) as cold_new:
            want_new = cold_new.predict(ids)
        with ServeSession.load(old) as session:
            pending = [session.submit(row) for row in ids]
            session.hot_swap(new)  # must flush the queue first
            drained = np.stack([req.result for req in pending])
            assert np.array_equal(drained, want_old)
            assert np.array_equal(session.predict(ids), want_new)
            assert session.swaps == 1
            assert session.stats()["hot_swaps"] == 1

    def test_drain_rejecting_a_request_stops_before_the_cut_over(self, two_artifacts):
        """The drain range-checks like any flush: it answers the valid
        requests on the old plan, then raises the bad one's error before
        the cut-over, and the next ``hot_swap`` adopts the artifact."""
        old, new = two_artifacts
        ids = _requests()
        with ServeSession.load(old) as cold_old:
            want_old = cold_old.predict(ids)
        with ServeSession.load(new) as cold_new:
            want_new = cold_new.predict(ids)
        with ServeSession.load(old) as session:
            pending = [session.submit(row) for row in ids]
            bad = session.submit(np.full(LENGTH, VOCAB))
            with pytest.raises(ValueError, match="out of range"):
                session.hot_swap(new)
            assert bad.error is not None and len(session.batcher) == 0
            assert np.array_equal(np.stack([req.result for req in pending]), want_old)
            assert session.swaps == 0
            assert np.array_equal(session.predict(ids), want_old)
            session.hot_swap(new)
            assert np.array_equal(session.predict(ids), want_new)

    def test_post_swap_equals_cold_load(self, two_artifacts):
        old, new = two_artifacts
        ids = _requests()
        with ServeSession.load(new) as cold:
            want = cold.predict(ids)
        with ServeSession.load(old) as session:
            session.hot_swap(new)
            assert np.array_equal(session.predict(ids), want)
            assert session.artifact.path == new

    def test_mmap_session_swaps_mmap(self, two_artifacts):
        old, new = two_artifacts
        ids = _requests()
        with ServeSession.load(new) as cold:
            want = cold.predict(ids)
        with ServeSession.load(old, ServeConfig(mmap=True)) as session:
            adopted = session.hot_swap(new)
            assert adopted.mmap_backed
            assert np.array_equal(session.predict(ids), want)

    def test_failed_swap_leaves_session_intact(self, two_artifacts, tmp_path):
        old, _new = two_artifacts
        ids = _requests()
        with ServeSession.load(old) as session:
            want = session.predict(ids)
            with pytest.raises(ArtifactError):
                session.hot_swap(str(tmp_path / "nowhere"))
            assert session.swaps == 0
            assert np.array_equal(session.predict(ids), want)

    def test_swap_to_delta_artifact(self, tmp_path):
        model = _model()
        parent = str(tmp_path / "parent")
        save_artifact(model, parent)
        model.embedding.table.data[[3, 11]] += 0.25
        delta = str(tmp_path / "delta")
        save_delta(model, delta, parent, touched_rows=[3, 11])
        full = str(tmp_path / "full")
        save_artifact(model, full)
        ids = _requests()
        with ServeSession.load(full) as cold:
            want = cold.predict(ids)
        with ServeSession.load(parent) as session:
            session.hot_swap(delta)
            assert np.array_equal(session.predict(ids), want)

    def test_from_model_session_swaps_and_then_cannot_save(self, two_artifacts):
        _old, new = two_artifacts
        session = ServeSession.from_model(_model(seed=3))
        session.hot_swap(new)
        with pytest.raises(ArtifactError, match="from_model"):
            session.save("unused")


class TestHotSwapWorkers:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_post_swap_equals_cold_load(self, two_artifacts, mmap):
        old, new = two_artifacts
        ids = _requests()
        with ServeSession.load(new) as cold:
            want = cold.predict(ids)
        config = ServeConfig(workers=2, mmap=mmap)
        with ServeSession.load(old, config) as session:
            pending = [session.submit(row) for row in ids]
            session.hot_swap(new)
            assert all(req.result is not None for req in pending)
            got = session.predict(ids)
            assert np.array_equal(got, want)
            assert session.stats()["hot_swaps"] == 1
            assert session.runtime.stats()["hot_swaps"] == 1

    def test_swap_on_closed_runtime_raises(self, two_artifacts):
        old, new = two_artifacts
        session = ServeSession.load(old, ServeConfig(workers=2))
        session.close()
        with pytest.raises(RuntimeError):
            session.hot_swap(new)
