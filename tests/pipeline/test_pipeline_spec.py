"""PipelineSpec: up-front validation and manifest round-tripping."""

import pytest

from repro.data.synthetic import Dataset, PairwiseDataset
from repro.pipeline import PipelineSpec
from repro.train import DPConfig, TrainConfig

from pipeline_helpers import tiny_spec


class TestValidation:
    def test_defaults_valid(self):
        PipelineSpec(dataset="movielens")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": ""},
            {"architecture": "transformer"},
            {"technique": "bloom_filter"},
            {"hyper": [("k", 1)]},
            {"embedding_dim": 0},
            {"dropout": 1.0},
            {"scale": 0.0},
            {"cap_train": 0},
            {"cap_eval": -1},
            {"input_length": 0},
            {"ndcg_k": 0},
            {"bits": 16},
            {"percentile": 150.0},
        ],
    )
    def test_each_bad_field_raises(self, overrides):
        fields = dict(dataset="movielens")
        fields.update(overrides)
        with pytest.raises(ValueError):
            PipelineSpec(**fields)

    def test_train_and_dp_must_be_configs(self):
        with pytest.raises(ValueError):
            PipelineSpec(dataset="movielens", train={"epochs": 3})
        with pytest.raises(ValueError):
            PipelineSpec(dataset="movielens", dp={"noise_multiplier": 1.0})

    def test_unknown_dataset_fails_at_load(self):
        spec = tiny_spec(dataset="imagenet")
        with pytest.raises(KeyError, match="imagenet"):
            spec.load_data()


class TestResolution:
    def test_auto_maps_task_to_architecture(self):
        ranking = tiny_spec(dataset="movielens")
        assert ranking.resolve_architecture(ranking.data_spec()) == "pointwise"
        cls = tiny_spec(dataset="newsgroup")
        assert cls.resolve_architecture(cls.data_spec()) == "classifier"

    def test_explicit_mismatch_rejected(self):
        spec = tiny_spec(dataset="movielens", architecture="classifier")
        with pytest.raises(ValueError, match="classification"):
            spec.resolve_architecture(spec.data_spec())

    def test_ranknet_allowed_on_any_task(self):
        # Figure 3 derives pairs from a classification-task preset.
        spec = tiny_spec(dataset="newsgroup", architecture="ranknet")
        assert spec.resolve_architecture(spec.data_spec()) == "ranknet"
        assert isinstance(spec.load_data(), PairwiseDataset)

    def test_caps_and_length_override_apply(self, spec):
        ds = spec.data_spec()
        assert ds.num_train == 512 and ds.num_eval == 256 and ds.input_length == 16

    def test_load_data_deterministic_in_seed(self, spec):
        a, b = spec.load_data(), spec.load_data()
        assert isinstance(a, Dataset)
        assert (a.x_train == b.x_train).all() and (a.y_train == b.y_train).all()


class TestManifest:
    def test_round_trip_identity(self):
        spec = tiny_spec(
            technique="tt_rec", optimizer="sgd", dp=DPConfig(0.5, l2_clip=2.0),
            bits=8, percentile=99.9,
        )
        rebuilt = PipelineSpec.from_manifest(spec.to_manifest())
        assert rebuilt == spec

    def test_manifest_is_plain_json(self):
        import json

        blob = json.dumps(tiny_spec().to_manifest())
        assert PipelineSpec.from_manifest(json.loads(blob)) == tiny_spec()

    def test_unknown_field_rejected(self):
        data = tiny_spec().to_manifest()
        data["quantum"] = True
        with pytest.raises(ValueError):
            PipelineSpec.from_manifest(data)

    def test_missing_train_rejected(self):
        data = tiny_spec().to_manifest()
        del data["train"]
        with pytest.raises((ValueError, KeyError)):
            PipelineSpec.from_manifest(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec.from_manifest("movielens")

    def test_older_manifest_with_unsharded_export_loads(self):
        # Manifests from before sharded export was removed carry "shards": 0.
        spec = tiny_spec(bits=8)
        assert PipelineSpec.from_manifest({**spec.to_manifest(), "shards": 0}) == spec

    def test_older_manifest_with_sharded_export_rejected(self):
        data = {**tiny_spec().to_manifest(), "shards": 4}
        with pytest.raises(ValueError, match="shards=4.*removed"):
            PipelineSpec.from_manifest(data)

    def test_older_sweep_manifest_reopens(self):
        from repro.sweep import SweepSpec

        sweep = SweepSpec(base=tiny_spec(), axes={"bits": [32, 8]}, budget_bytes=1 << 20)
        data = sweep.to_manifest()
        data["base"] = {**data["base"], "shards": 0}
        assert SweepSpec.from_manifest(data) == sweep


class TestBuilders:
    def test_build_model_matches_architecture(self, spec):
        ds = spec.data_spec()
        model = spec.build_model(ds)
        assert type(model).__name__ == "PointwiseRanker"
        assert model.input_length == ds.input_length

    def test_build_trainer_dispatches_dp(self):
        from repro.train import DPTrainer, Trainer

        assert type(tiny_spec().build_trainer()) is Trainer
        assert type(tiny_spec(dp=DPConfig(1.0)).build_trainer()) is DPTrainer

    def test_trainer_carries_config(self):
        spec = tiny_spec(optimizer="sgd", epochs=7)
        trainer = spec.build_trainer()
        assert trainer.config == TrainConfig(
            epochs=7, batch_size=64, lr=3e-3, optimizer="sgd", seed=0
        )
