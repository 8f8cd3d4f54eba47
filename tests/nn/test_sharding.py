"""Sharded-vs-monolithic equivalence (tables, models, optimizers, state).

A hash-sharded table must be a pure re-layout: forward values bit-identical
to the monolithic table, per-shard sparse gradients summing to the same
per-row totals, and optimizer trajectories matching row for row.  The model
section drives every architecture in ``repro.models`` through full
forward/backward/step loops at n_shards ∈ {1, 3, 8} and asserts the final
states agree with the monolithic run, including after a serialization
round-trip of the sharded state.
"""

import numpy as np
import pytest

from repro.core.full import FullEmbedding, ShardedFullEmbedding
from repro.core.memcom import MEmComEmbedding, ShardedMEmComEmbedding
from repro.models.builder import (
    build_classifier,
    build_pointwise_ranker,
    build_ranknet,
    shard_model,
)
from repro.nn import ops
from repro.nn.losses import ranknet_loss, softmax_cross_entropy
from repro.nn.optim import SGD, Adam, clip_global_norm
from repro.nn.serialization import load_npz, save_npz
from repro.nn.sharding import ShardedEmbedding, ShardedTable, shard_of_rows
from repro.nn.sparse_grad import SparseRowGrad
from repro.nn.tensor import Parameter

V, E = 41, 6
SHARD_COUNTS = [1, 3, 8]


def _dense_table(seed=0):
    return np.random.default_rng(seed).normal(size=(V, E)).astype(np.float32)


class TestShardedTable:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_partition_covers_every_row_once(self, n_shards):
        table = ShardedTable(_dense_table(), n_shards)
        assert sum(table.shard_sizes()) == V
        assert len(table.shards) == n_shards
        covered = np.sort(np.concatenate(table._shard_rows))
        np.testing.assert_array_equal(covered, np.arange(V))

    def test_assignment_deterministic(self):
        a = shard_of_rows(np.arange(1000), 7)
        b = shard_of_rows(np.arange(1000), 7)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= set(range(7))

    def test_hash_balances_the_zipf_head(self):
        """The first (hottest) rows must spread across shards, not pile on
        one — the reason partitioning hashes instead of range-splitting."""
        head = shard_of_rows(np.arange(64), 4)
        counts = np.bincount(head, minlength=4)
        assert counts.max() <= 2 * counts.min() + 4

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_dense_roundtrip_and_lookup_bit_identical(self, n_shards):
        dense = _dense_table()
        table = ShardedTable(dense, n_shards)
        np.testing.assert_array_equal(table.dense(), dense)
        idx = np.random.default_rng(1).integers(0, V, size=(5, 4))
        np.testing.assert_array_equal(table.lookup(idx).numpy(), dense[idx])
        np.testing.assert_array_equal(
            table.take_rows(idx.ravel()), dense[idx].reshape(-1, E)
        )

    def test_load_dense_scatters(self):
        table = ShardedTable(_dense_table(), 3)
        replacement = _dense_table(seed=9)
        table.load_dense(replacement)
        np.testing.assert_array_equal(table.dense(), replacement)

    def test_backward_routes_local_sparse_grads(self):
        table = ShardedTable(_dense_table(), 3)
        idx = np.array([0, 0, 5, 17, 5])
        out = table.lookup(idx)
        ops.sum(ops.mul(out, out)).backward()
        dense_grad = np.zeros((V, E), dtype=np.float64)
        touched_shards = 0
        for p, rows in zip(table.shards, table._shard_rows):
            if p.raw_grad is None:
                continue
            touched_shards += 1
            assert isinstance(p.raw_grad, SparseRowGrad)
            local = p.sparse_grad  # coalesced
            dense_grad[rows[local.rows]] += local.values
        assert touched_shards == len({int(s) for s in table._shard_of[idx]})
        # Equals the monolithic gradient: 2·x per occurrence, summed.
        expected = np.zeros((V, E))
        np.add.at(expected, idx, 2.0 * table.dense()[idx])
        np.testing.assert_allclose(dense_grad, expected, rtol=1e-5, atol=1e-6)

    def test_optimizer_accepts_table_directly(self):
        table = ShardedTable(_dense_table(), 4)
        opt = Adam([table], lr=0.1)
        assert opt.params == table.shard_parameters()

    def test_clip_and_norm_accept_table_directly(self):
        """The same params list must work for the optimizer AND clipping."""
        from repro.nn.optim import global_grad_norm

        table = ShardedTable(_dense_table(), 4)
        ops.sum(table.lookup(np.array([0, 1, 2, 2]))).backward()
        norm = global_grad_norm([table])
        assert norm > 0.0
        returned = clip_global_norm([table], norm / 2.0)
        assert returned == pytest.approx(norm, rel=1e-6)
        assert global_grad_norm([table]) == pytest.approx(norm / 2.0, rel=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ShardedTable(np.zeros(5), 2)
        with pytest.raises(ValueError):
            ShardedTable(_dense_table(), 0)
        table = ShardedTable(_dense_table(), 2)
        with pytest.raises(IndexError):
            table.lookup(np.array([V]))
        with pytest.raises(TypeError):
            table.lookup(np.array([0.5]))


class TestShardedTableTraining:
    """ShardedTable vs monolithic Parameter through lookup→clip→step."""

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_adam_trajectory_matches(self, n_shards, clip):
        batches = [[0, 1, 1, 5], [], list(range(V)), [40, 0, 40]]

        def run(sharded):
            dense = _dense_table(seed=3)
            if sharded:
                table = ShardedTable(dense, n_shards)
                params = table.shard_parameters()
            else:
                table = Parameter(dense.copy())
                params = [table]
            opt = Adam(params, lr=0.05)
            for idx in batches * 3:
                idx = np.asarray(idx, dtype=np.int64)
                opt.zero_grad()
                out = table.lookup(idx) if sharded else ops.embedding_lookup(table, idx)
                ops.sum(ops.mul(out, out)).backward()
                if clip is not None:
                    clip_global_norm(params, clip)
                opt.step()
            return table.dense() if sharded else table.data

        np.testing.assert_allclose(run(True), run(False), rtol=1e-5, atol=1e-6)


def _build(architecture, technique, seed):
    builders = {
        "classifier": build_classifier,
        "pointwise": build_pointwise_ranker,
        "ranknet": build_ranknet,
    }
    hyper = {"num_hash_embeddings": 16} if technique == "memcom" else {}
    return builders[architecture](
        technique, V, 12, input_length=4, embedding_dim=8, rng=seed, **hyper
    )


def _train(model, architecture, steps=5, seed=11, optimizer="adam"):
    model.train()
    opt = (
        Adam(model.parameters(), lr=5e-3)
        if optimizer == "adam"
        else SGD(model.parameters(), lr=5e-3, momentum=0.9)
    )
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.integers(0, V, size=(6, 4))
        opt.zero_grad()
        if architecture == "ranknet":
            pos = rng.integers(0, 12, size=6)
            neg = rng.integers(0, 12, size=6)
            s_pos, s_neg = model.score_pair(x, pos, neg)
            ranknet_loss(s_pos, s_neg).backward()
        else:
            y = rng.integers(0, 12, size=6)
            softmax_cross_entropy(model(x), y).backward()
        opt.step()
    return model


class TestModelEquivalence:
    """For every model in models/: sharded ≡ monolithic with the same seed."""

    @pytest.mark.parametrize("architecture", ["classifier", "pointwise", "ranknet"])
    @pytest.mark.parametrize("technique", ["memcom", "full"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_forward_backward_step_matches_monolithic(
        self, architecture, technique, n_shards
    ):
        mono = _train(_build(architecture, technique, seed=7), architecture)
        sharded = _train(
            shard_model(_build(architecture, technique, seed=7), n_shards), architecture
        )
        mono_emb = mono.embedding
        sharded_emb = sharded.embedding
        if technique == "memcom":
            np.testing.assert_allclose(
                mono_emb.multiplier.data,
                sharded_emb.multiplier.dense(),
                rtol=1e-5,
                atol=1e-6,
            )
            np.testing.assert_allclose(
                mono_emb.bias_table.data,
                sharded_emb.bias_table.dense(),
                rtol=1e-5,
                atol=1e-6,
            )
            np.testing.assert_allclose(
                mono_emb.shared.data, sharded_emb.shared.data, rtol=1e-5, atol=1e-6
            )
        else:
            np.testing.assert_allclose(
                mono_emb.table.data, sharded_emb.table.dense(), rtol=1e-5, atol=1e-6
            )
        # Heads must agree too — gradients flowed through the same graph.
        mono_head = {
            k: v for k, v in mono.state_dict().items() if not k.startswith("embedding")
        }
        sharded_head = {
            k: v
            for k, v in sharded.state_dict().items()
            if not k.startswith("embedding")
        }
        assert mono_head.keys() == sharded_head.keys()
        for key in mono_head:
            np.testing.assert_allclose(
                mono_head[key], sharded_head[key], rtol=1e-5, atol=1e-6, err_msg=key
            )

    @pytest.mark.parametrize("architecture", ["classifier", "pointwise", "ranknet"])
    def test_eval_forward_bit_identical(self, architecture):
        mono = _build(architecture, "memcom", seed=2).eval()
        sharded = shard_model(_build(architecture, "memcom", seed=2), 3).eval()
        x = np.random.default_rng(0).integers(0, V, size=(5, 4))
        np.testing.assert_array_equal(mono(x).numpy(), sharded(x).numpy())

    @pytest.mark.parametrize("architecture", ["classifier", "pointwise", "ranknet"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_state_roundtrip(self, architecture, n_shards, tmp_path):
        trained = _train(
            shard_model(_build(architecture, "memcom", seed=4), n_shards), architecture
        )
        path = str(tmp_path / "sharded.npz")
        save_npz(trained, path)
        fresh = shard_model(_build(architecture, "memcom", seed=99), n_shards)
        load_npz(fresh, path)
        for key, value in trained.state_dict().items():
            np.testing.assert_array_equal(fresh.state_dict()[key], value, err_msg=key)
        x = np.random.default_rng(1).integers(0, V, size=(3, 4))
        np.testing.assert_array_equal(
            trained.eval()(x).numpy(), fresh.eval()(x).numpy()
        )


class TestShardedVariants:
    def test_from_monolithic_preserves_values(self):
        emb = MEmComEmbedding(V, E, num_hash_embeddings=8, bias=True, rng=6)
        emb.multiplier.data += 0.25  # make it distinguishable from init
        sharded = ShardedMEmComEmbedding.from_monolithic(emb, 3)
        np.testing.assert_array_equal(sharded.multiplier.dense(), emb.multiplier.data)
        np.testing.assert_array_equal(sharded.bias_table.dense(), emb.bias_table.data)
        np.testing.assert_array_equal(sharded.shared.data, emb.shared.data)

    def test_memcom_same_seed_same_logical_tables(self):
        mono = MEmComEmbedding(V, E, num_hash_embeddings=8, rng=13)
        sharded = ShardedMEmComEmbedding(V, E, num_hash_embeddings=8, n_shards=4, rng=13)
        np.testing.assert_array_equal(sharded.multiplier.dense(), mono.multiplier.data)
        np.testing.assert_array_equal(sharded.shared.data, mono.shared.data)

    def test_full_roundtrip(self):
        emb = FullEmbedding(V, E, rng=5)
        sharded = emb.to_sharded(3)
        assert isinstance(sharded, ShardedFullEmbedding)
        np.testing.assert_array_equal(sharded.table.dense(), emb.table.data)

    def test_nobias_memcom_shards(self):
        emb = MEmComEmbedding(V, E, num_hash_embeddings=8, bias=False, rng=1)
        sharded = emb.to_sharded(2)
        assert sharded.bias_table is None
        idx = np.arange(V)
        np.testing.assert_array_equal(sharded(idx).numpy(), emb(idx).numpy())

    def test_nn_sharded_embedding_matches_dense(self):
        from repro.nn.embedding import Embedding

        mono = Embedding(V, E, rng=8)
        sharded = ShardedEmbedding.from_embedding(mono, 3)
        idx = np.random.default_rng(2).integers(0, V, size=(4, 3))
        np.testing.assert_array_equal(sharded(idx).numpy(), mono(idx).numpy())
        fresh = ShardedEmbedding(V, E, n_shards=3, rng=8)
        np.testing.assert_array_equal(fresh.table.dense(), mono.weight.data)

    def test_shard_model_rejects_unshardable(self):
        model = _build("pointwise", "memcom", seed=0)
        from repro.core.quotient_remainder import QREmbedding

        model.embedding = QREmbedding(V, E, 8, rng=0)
        with pytest.raises(TypeError):
            shard_model(model, 2)

    def test_export_densifies_sharded_models(self):
        from repro.device.export import export_model

        mono = _build("pointwise", "memcom", seed=3)
        exported_mono = export_model(mono, batch_size=1)
        sharded = shard_model(_build("pointwise", "memcom", seed=3), 3)
        exported = export_model(sharded, batch_size=1)
        assert exported.weights.keys() == exported_mono.weights.keys()
        assert exported.on_disk_bytes() == exported_mono.on_disk_bytes()
