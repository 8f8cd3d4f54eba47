"""TrainSession: the fit → evaluate → export → serve lifecycle."""

import numpy as np
import pytest

from repro.pipeline import PipelineSpec, TrainSession
from repro.serve.session import ServeConfig, ServeSession

from pipeline_helpers import tiny_spec


class TestLifecycle:
    def test_fit_trains_and_records_history(self, spec):
        session = TrainSession(spec)
        history = session.fit()
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.steps == len(history.train_loss) * (512 // 64)
        assert history.seconds > 0
        assert session.finished
        assert session.history is history

    def test_monitor_records_val_metric(self, spec):
        session = TrainSession(spec)
        history = session.fit()
        assert len(history.val_metric) == len(history.train_loss)
        assert not np.isnan(history.val_metric[0])
        assert history.metric_name == "ndcg"

    def test_monitor_off_skips_validation(self):
        session = TrainSession(tiny_spec(monitor=False, epochs=1))
        history = session.fit()
        assert np.isnan(history.val_metric[0])

    def test_evaluate_returns_task_metrics(self, spec):
        session = TrainSession(spec)
        session.fit()
        metrics = session.evaluate()
        assert session.metric_name == "ndcg"
        assert 0.0 <= metrics["ndcg"] <= 1.0

    def test_classification_session(self):
        session = TrainSession(tiny_spec(dataset="newsgroup", epochs=2))
        assert session.architecture == "classifier"
        session.fit()
        assert session.metric_name == "accuracy"
        assert "accuracy" in session.evaluate()

    def test_ranknet_session(self):
        session = TrainSession(tiny_spec(architecture="ranknet", epochs=2))
        history = session.fit()
        assert history.metric_name == "ndcg"
        assert "ndcg" in session.evaluate()

    def test_in_memory_continuation(self, spec):
        # fit(stop_after_epoch) → fit() must equal one uninterrupted fit.
        full = TrainSession(spec)
        full.fit()
        split = TrainSession(spec)
        split.fit(stop_after_epoch=1)
        assert not split.finished
        split.fit()
        for k, v in full.model.state_dict().items():
            assert np.array_equal(v, split.model.state_dict()[k]), k
        assert full.history.train_loss == split.history.train_loss

    def test_data_kind_mismatch_rejected(self, spec):
        pairs = tiny_spec(architecture="ranknet").load_data()
        with pytest.raises(ValueError, match="pairwise"):
            TrainSession(spec, data=pairs)

    def test_spec_type_checked(self):
        with pytest.raises(TypeError):
            TrainSession({"dataset": "movielens"})

    def test_checkpoint_before_fit_rejected(self, spec):
        with pytest.raises(ValueError, match="fit"):
            TrainSession(spec).save_checkpoint("/tmp/nowhere")


class TestExportAndServe:
    @pytest.mark.parametrize("bits", [32, 8])
    def test_export_serves_bit_identically(self, tmp_path, spec, bits):
        session = TrainSession(spec)
        session.fit()
        path = str(tmp_path / f"artifact-{bits}")
        artifact = session.export(path, bits=bits)
        assert artifact.bits == bits
        loaded = ServeSession.load(path)
        direct = ServeSession.from_model(
            session.model, ServeConfig(bits=None if bits == 32 else bits)
        )
        probe = session.data.x_eval[:32]
        assert np.array_equal(loaded.predict(probe), direct.predict(probe))

    def test_export_spec_defaults(self, tmp_path):
        session = TrainSession(tiny_spec(bits=8, epochs=1))
        session.fit()
        artifact = session.export(str(tmp_path / "a"))
        assert artifact.bits == 8

    def test_serve_session_matches_model(self, spec):
        session = TrainSession(spec)
        session.fit()
        serve = session.serve_session(max_batch=32)
        probe = session.data.x_eval[:16]
        direct = ServeSession.from_model(session.model)
        assert np.array_equal(serve.predict(probe), direct.predict(probe))


class TestRunnerIntegration:
    def test_train_point_routes_through_pipeline(self, tiny_dataset):
        from repro.experiments.runner import ExperimentConfig, train_point

        config = ExperimentConfig(embedding_dim=8, epochs=1)
        metric, params = train_point(
            "pointwise", "memcom", {"num_hash_embeddings": 16}, tiny_dataset, config
        )
        assert 0.0 <= metric <= 1.0 and params > 0
