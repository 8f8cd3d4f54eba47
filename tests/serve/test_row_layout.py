"""The engine's row layout serves the model's bits.

``InferenceEngine.predict`` gathers a batch's embedding rows position-major
(every request's first id, then every second, ...) and hands the tower a
``(B, L, e)`` view of them, so the mean-pool adds whole ``(B, e)`` planes.
For e ≥ 2 numpy sums each pooled element in order over L whichever layout
it reads, so the served bits are the model's.  At e = 1 numpy sums a
request's contiguous width-1 window pairwise, so an e = 1 plan keeps
request-major rows; the e = 1, L ≥ 8 cases below fail without that branch.
Every comparison is bit for bit, on ``uint32`` views.
"""

import numpy as np
import pytest

from repro.artifact import save_artifact
from repro.models.builder import build_classifier, build_pointwise_ranker, build_ranknet
from repro.nn.tensor import no_grad
from repro.quant import quantize_embedding
from repro.serve.engine import InferenceEngine
from repro.serve.session import ServeConfig, ServeSession

V, C = 300, 12
BATCHES = (1, 7, 65)

BUILDERS = {
    "classifier": build_classifier,
    "pointwise": build_pointwise_ranker,
    "ranknet": build_ranknet,
}
HYPER = {
    "full": {},
    "memcom": {"num_hash_embeddings": 32},
    "tt_rec": {"tt_rank": 4},
}


def _model(architecture, technique, dim, length, seed=3):
    model = BUILDERS[architecture](
        technique, V, C, input_length=length, embedding_dim=dim, rng=seed,
        **HYPER[technique],
    )
    # Move every weight off its init (MEmCom's bias starts at zero), so no
    # table or tower layer is a no-op.
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape).astype(p.data.dtype)
    return model.eval()


def _batches(length, seed=0):
    rng = np.random.default_rng([seed, length])
    return [rng.integers(0, V, size=(b, length)) for b in BATCHES]


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("length", [1, 8, 17, 128])
@pytest.mark.parametrize("dim", [1, 2, 3, 32, 64])
@pytest.mark.parametrize("technique", ["full", "memcom"])
@pytest.mark.parametrize("architecture", sorted(BUILDERS))
def test_predict_equals_the_model_forward(architecture, technique, dim, length):
    model = _model(architecture, technique, dim, length)
    engine = InferenceEngine(model)
    for x in _batches(length):
        with no_grad():
            want = model(x).numpy()
        _assert_same_bits(engine.predict(x), want)


@pytest.mark.parametrize("cache_rows", [None, 64])
@pytest.mark.parametrize("technique", ["memcom", "tt_rec"])
def test_int8_equals_fp32_over_the_dequantized_rows(technique, cache_rows):
    for dim, length in ((2, 17), (32, 16), (64, 128)):
        model = _model("pointwise", technique, dim, length)
        engine = InferenceEngine(model, bits=8, cache_rows=cache_rows)
        # int8 memcom keeps a requested cache from 2048 values per request
        # (the 64 × 128 shape), tt_rec at every length (DESIGN.md §6)
        declined = technique == "memcom" and dim * length < 2048
        assert (engine.cache is None) == (cache_rows is None or declined)
        reference = _model("pointwise", technique, dim, length)
        reference.embedding = quantize_embedding(model.embedding.frozen(), 8).dequantized()
        ref_engine = InferenceEngine(reference)
        for _ in range(2):  # the second pass is mostly cache hits
            for x in _batches(length):
                _assert_same_bits(engine.predict(x), ref_engine.predict(x))


@pytest.mark.parametrize("dim", [1, 32])
def test_mmap_artifact_serves_the_in_memory_bits(tmp_path, dim):
    length = 17
    model = _model("pointwise", "full", dim, length)
    engine = InferenceEngine(model)
    path = str(tmp_path / "a")
    save_artifact(model, path)
    with ServeSession.load(path, ServeConfig(mmap=True)) as mapped:
        for x in _batches(length):
            _assert_same_bits(mapped.predict(x), engine.predict(x))


@pytest.mark.parametrize("length", [1, 17, 128])
@pytest.mark.parametrize("dim", [1, 2, 32])
@pytest.mark.parametrize("technique,bits", [("full", 32), ("memcom", 32), ("tt_rec", 8)])
def test_request_major_reference_equals_predict(technique, bits, dim, length):
    """``apply_tower`` over request-major ``compose_rows`` output — how the
    perf benchmark rebuilds every served score — equals ``predict``."""
    engine = InferenceEngine(_model("pointwise", technique, dim, length), bits=bits)
    for x in _batches(length):
        rows = engine.compose_rows(x.ravel()).reshape(x.shape + (dim,))
        _assert_same_bits(engine.apply_tower(rows), engine.predict(x))


@pytest.mark.parametrize("cache_rows", [None, 64])
@pytest.mark.parametrize("dim", [1, 32])
@pytest.mark.parametrize("architecture", sorted(BUILDERS))
def test_empty_batch(architecture, dim, cache_rows):
    length = 8
    model = _model(architecture, "tt_rec", dim, length)
    for bits in (32, 8):
        engine = InferenceEngine(model, bits=bits, cache_rows=cache_rows)
        scores = engine.predict(np.zeros((0, length), dtype=np.int64))
        assert scores.shape == (0, C)
