"""`ServeSession` / `ServeConfig` — the unified serving front door."""

import numpy as np
import pytest

from repro.artifact import ArtifactFormatError, save_artifact
from repro.models.builder import build_pointwise_ranker
from repro.serve import Batcher, InferenceEngine, ServeConfig, ServeSession


def _model(seed=0):
    return build_pointwise_ranker(
        "memcom", 400, 10, input_length=5, embedding_dim=16, rng=seed,
        num_hash_embeddings=32,
    )


def _tt_model():
    """TT-Rec: its plan keeps a requested cache at every width (MEmCom's
    declines at 5 ids × 16 values per request)."""
    return build_pointwise_ranker(
        "tt_rec", 400, 10, input_length=5, embedding_dim=16, rng=0, tt_rank=4
    )


def _ids(n=24, seed=3):
    return np.random.default_rng(seed).integers(0, 400, size=(n, 5))


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert ServeConfig().validate() == ServeConfig()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("bits", 16, "bits"),
            ("bits", 0, "bits"),
            ("calibration_percentile", 0.0, "percentile"),
            ("calibration_percentile", 101.0, "percentile"),
            ("cache_rows", 0, "cache_rows"),
            ("cache_rows", -4, "cache_rows"),
            ("cache_min_count", 0, "cache_min_count"),
            ("cache_ttl_batches", 0, "cache_ttl_batches"),
            ("max_batch", 0, "max_batch"),
            ("max_delay_ms", -1.0, "max_delay_ms"),
        ],
    )
    def test_each_bad_knob_fails_fast_with_its_name(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**{field: value}).validate()

    def test_from_model_validates_before_freezing(self):
        with pytest.raises(ValueError, match="cache_rows"):
            ServeSession.from_model(_model(), cache_rows=-1)


class TestFromModel:
    @pytest.mark.parametrize("build", [_model, _tt_model])
    def test_matches_direct_engine_bytes(self, build):
        model = build()
        session = ServeSession.from_model(model, ServeConfig(bits=8, cache_rows=32))
        engine = InferenceEngine(model, bits=8, cache_rows=32)
        ids = _ids()
        np.testing.assert_array_equal(session.predict(ids), engine.predict(ids))
        assert session.bits == 8
        assert (session.engine.cache is None) == (build is _model)

    def test_overrides_patch_the_config(self):
        session = ServeSession.from_model(_tt_model(), ServeConfig(bits=8), cache_rows=16)
        assert session.config.bits == 8
        assert session.engine.cache is not None
        assert session.engine.cache.capacity == 16

    def test_config_reaches_cache_and_batcher(self):
        session = ServeSession.from_model(
            _tt_model(),
            ServeConfig(
                cache_rows=32, cache_min_count=2, cache_ttl_batches=7, max_batch=9
            ),
        )
        assert session.engine.cache.min_count == 2
        assert session.engine.cache.count_ttl == 7
        assert session.batcher.max_batch == 9

    def test_submit_flush_equals_predict(self):
        model = _model()
        session = ServeSession.from_model(model, max_batch=8)
        ids = _ids(20)
        for row in ids:
            session.submit(row)
        flushed = np.stack(session.flush())
        np.testing.assert_array_equal(flushed, InferenceEngine(model).predict(ids))

    def test_max_delay_zero_flushes_every_submit(self):
        session = ServeSession.from_model(_model(), max_delay_ms=0.0, max_batch=64)
        first = session.submit(_ids(1)[0])
        assert first.done  # deadline 0: no request ever waits for co-riders
        assert session.batcher.auto_flushes >= 1
        assert len(session.batcher) == 0

    def test_stats_reports_the_full_picture(self):
        session = ServeSession.from_model(_tt_model(), ServeConfig(cache_rows=32))
        session.predict(_ids())
        stats = session.stats()
        assert stats["requests_served"] == 24
        assert stats["batches_served"] == 1
        assert stats["bits"] == 32
        assert stats["cache_capacity"] == 32
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["table_resident_bytes"] > 0


class TestLoaded:
    def test_loaded_session_cannot_resave(self, tmp_path):
        save_artifact(_model(), str(tmp_path / "a"))
        loaded = ServeSession.load(str(tmp_path / "a"))
        with pytest.raises(ArtifactFormatError, match="from_model"):
            loaded.save(str(tmp_path / "b"))

    def test_width_conflict_is_a_typed_error(self, tmp_path):
        save_artifact(_model(), str(tmp_path / "q"), bits=8)
        with pytest.raises(ArtifactFormatError, match="int8"):
            ServeSession.load(str(tmp_path / "q"), ServeConfig(bits=4))

    def test_loaded_stats_name_the_artifact(self, tmp_path):
        save_artifact(_model(), str(tmp_path / "a"), bits=4)
        session = ServeSession.load(str(tmp_path / "a"))
        stats = session.stats()
        assert stats["artifact_path"] == str(tmp_path / "a")
        assert stats["artifact_bytes"] > 0
        assert stats["bits"] == 4


class TestShims:
    def test_batcher_remains_manually_flushable(self):
        engine = InferenceEngine(_model())
        batcher = Batcher(engine, max_batch=4)
        for row in _ids(6):
            batcher.submit(row)
        assert len(batcher) == 6  # no auto-flush without a deadline
        assert len(batcher.flush()) == 6
