"""Registry-wide contracts: every technique builds, trains, round-trips.

These tests iterate :func:`available_techniques` so newly registered
techniques are covered automatically — no per-technique wiring needed.
"""

import numpy as np
import pytest

from repro.core.registry import available_techniques, build_embedding, technique_spec
from repro.core.sizing import embedding_param_count
from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet
from repro.nn.losses import ranknet_loss, softmax_cross_entropy
from repro.nn.optim import SGD, Adagrad, Adam, clip_global_norm, global_grad_norm
from repro.nn.serialization import load_npz, save_npz
from repro.nn.sparse_grad import sparse_grads
from repro.nn.tensor import Parameter, no_grad
from repro.train.trainer import TrainConfig, Trainer

V, E = 120, 16

HYPER = {
    "full": {},
    "memcom": dict(num_hash_embeddings=12),
    "memcom_nobias": dict(num_hash_embeddings=12),
    "qr_mult": dict(num_hash_embeddings=12),
    "qr_concat": dict(num_hash_embeddings=12),
    "hash": dict(num_hash_embeddings=12),
    "double_hash": dict(num_hash_embeddings=12),
    "freq_double_hash": dict(num_hash_embeddings=12),
    "factorized": dict(hidden_dim=4),
    "reduce_dim": dict(reduced_dim=4),
    "truncate_rare": dict(keep=24),
    "hashed_onehot": dict(num_hash_embeddings=12),
    "tt_rec": dict(tt_rank=2),
    "mixed_dim": dict(num_blocks=3),
}


def test_hyper_table_covers_registry():
    assert set(HYPER) == set(available_techniques())


@pytest.mark.parametrize("technique", sorted(HYPER))
class TestEveryTechnique:
    def test_sizing_matches_built_module(self, technique):
        emb = build_embedding(technique, V, E, rng=0, **HYPER[technique])
        assert emb.num_parameters() == embedding_param_count(technique, V, E, **HYPER[technique])

    def test_forward_deterministic_per_seed(self, technique, rng):
        ids = rng.integers(0, V, size=(3, 5))
        a = build_embedding(technique, V, E, rng=3, **HYPER[technique])(ids).data
        b = build_embedding(technique, V, E, rng=3, **HYPER[technique])(ids).data
        np.testing.assert_array_equal(a, b)

    def test_gradients_flow_to_every_parameter(self, technique, rng):
        emb = build_embedding(technique, V, E, rng=0, **HYPER[technique])
        # Touch the whole vocabulary so every row/block/core is visited
        # ((batch, length) shape — hashed_onehot requires 2-D ids).
        emb(np.arange(V).reshape(8, V // 8)).sum().backward()
        for name, p in emb.named_parameters():
            assert p.grad is not None, f"{technique}.{name} got no gradient"
            assert np.abs(p.grad).sum() > 0, f"{technique}.{name} gradient all-zero"

    def test_state_dict_roundtrip_preserves_forward(self, technique, tmp_path, rng):
        ids = rng.integers(0, V, size=(2, 7))
        src = build_embedding(technique, V, E, rng=0, **HYPER[technique])
        dst = build_embedding(technique, V, E, rng=99, **HYPER[technique])
        path = str(tmp_path / "emb.npz")
        save_npz(src, path)
        load_npz(dst, path)
        np.testing.assert_allclose(src(ids).data, dst(ids).data, rtol=1e-6)

    def test_one_training_step_changes_parameters(self, technique, rng):
        emb = build_embedding(technique, V, E, rng=0, **HYPER[technique])
        before = {name: p.data.copy() for name, p in emb.named_parameters()}
        opt = Adam(emb.parameters(), lr=0.05)
        loss = (emb(np.arange(V).reshape(8, V // 8)) ** 2.0).sum()
        loss.backward()
        opt.step()
        moved = any(
            not np.array_equal(before[name], p.data) for name, p in emb.named_parameters()
        )
        assert moved

    def test_classifier_trains_end_to_end(self, technique, tiny_classification_dataset):
        ds = tiny_classification_dataset
        spec = ds.spec
        hyper = dict(HYPER[technique])
        # Rescale vocabulary-relative knobs to the fixture's vocab.
        if "num_hash_embeddings" in hyper:
            hyper["num_hash_embeddings"] = spec.input_vocab // 8
        if "keep" in hyper:
            hyper["keep"] = spec.input_vocab // 8
        model = build_classifier(
            technique,
            spec.input_vocab,
            spec.output_vocab,
            input_length=spec.input_length,
            embedding_dim=E,
            rng=0,
            **hyper,
        )
        cfg = TrainConfig(epochs=2, batch_size=64, lr=3e-3, seed=0)
        hist = Trainer(cfg).fit(model, ds.x_train, ds.y_train)
        assert np.isfinite(hist.train_loss).all()
        assert hist.train_loss[-1] < hist.train_loss[0]


ARCHITECTURES = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}
C, L, B = 12, 4, 6


def _model(architecture, technique, seed):
    return ARCHITECTURES[architecture](
        technique, V, C, input_length=L, embedding_dim=E, rng=seed, **HYPER[technique]
    )


def _train(model, architecture, opt, steps=5, clip=None, seed=11):
    """Drive ``steps`` loss → backward → [clip] → step; return pre-clip norms."""
    model.train()
    rng = np.random.default_rng(seed)
    norms = []
    for _ in range(steps):
        opt.zero_grad()
        x = rng.integers(0, V, size=(B, L))
        if architecture == "ranknet":
            pos, neg = rng.integers(0, C, size=B), rng.integers(0, C, size=B)
            loss = ranknet_loss(*model.score_pair(x, pos, neg))
        else:
            loss = softmax_cross_entropy(model(x), rng.integers(0, C, size=B))
        loss.backward()
        if clip is not None:
            norms.append(clip_global_norm(model.parameters(), clip))
        opt.step()
    return norms


@pytest.mark.parametrize("architecture", sorted(ARCHITECTURES))
@pytest.mark.parametrize("technique", sorted(HYPER))
class TestEveryModel:
    """Whole models, head included, driven lookup → loss → backward → clip
    → step.  Every table is a plain :class:`Parameter`, so one parameter
    list serves the optimizer and the global-norm clip as given."""

    def test_exact_optimizers_sparse_equals_dense(self, technique, architecture):
        """DESIGN.md §5: under plain SGD and Adagrad a model trained on
        sparse row gradients ends where the dense scatter-add baseline ends,
        with the clip active on every step."""

        def run(sparse, factory):
            model = _model(architecture, technique, seed=7)
            params = model.parameters()
            assert all(isinstance(p, Parameter) for p in params)
            opt = factory(params)
            assert [id(p) for p in opt.params] == [id(p) for p in params]
            with sparse_grads(sparse):
                norms = _train(model, architecture, opt, clip=0.5)
            return model.state_dict(), norms

        for factory in (lambda p: SGD(p, lr=0.05), lambda p: Adagrad(p, lr=0.05)):
            sparse, sparse_norms = run(True, factory)
            dense, dense_norms = run(False, factory)
            np.testing.assert_allclose(sparse_norms, dense_norms, rtol=1e-5)
            assert sparse.keys() == dense.keys()
            for key in sparse:
                np.testing.assert_allclose(
                    sparse[key], dense[key], rtol=1e-5, atol=1e-6, err_msg=key
                )

    def test_trained_state_roundtrips_bit_identically(
        self, technique, architecture, tmp_path
    ):
        """A trained model's npz, loaded into a differently seeded one,
        restores every parameter and buffer and the eval-mode scores."""
        trained = _model(architecture, technique, seed=4)
        _train(trained, architecture, Adam(trained.parameters(), lr=5e-3))
        assert global_grad_norm(trained.parameters()) > 0.0
        path = str(tmp_path / "model.npz")
        save_npz(trained, path)
        fresh = _model(architecture, technique, seed=99)
        state = trained.state_dict()
        assert any(
            not np.array_equal(value, state[key])
            for key, value in fresh.state_dict().items()
        )
        load_npz(fresh, path)
        restored = fresh.state_dict()
        assert state.keys() == restored.keys()
        for key, value in state.items():
            np.testing.assert_array_equal(restored[key], value, err_msg=key)
        x = np.random.default_rng(1).integers(0, V, size=(3, L))
        trained.eval()
        fresh.eval()
        with no_grad():
            np.testing.assert_array_equal(trained(x).numpy(), fresh(x).numpy())


def test_every_registry_entry_has_summary_and_requires():
    for name in available_techniques():
        spec = technique_spec(name)
        assert spec.summary
        assert isinstance(spec.requires, tuple)
