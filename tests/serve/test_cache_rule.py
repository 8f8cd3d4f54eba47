"""The engine decides where the hot-row cache pays (DESIGN.md §6).

A requested ``cache_rows`` cache is built only where a miss costs more than
a hit: a TT contraction or masked projections at every width, and, in a
quantized plan, rows that join whole gathered rows by ``mul``/``add``/
``concat`` once a request carries 2048 embedding values (every such miss
decodes each gathered row).  Every other plan declines it, says why in
``repr`` and ``stats()``, and serves the same bytes.
"""

import numpy as np
import pytest

from repro.core.registry import available_techniques, default_hyper
from repro.models.builder import build_pointwise_ranker
from repro.serve import InferenceEngine, ServeConfig, ServeSession

V, L, E, C = 240, 6, 16, 8

#: rows are one gather at every width
ONE_GATHER = {"full", "hash", "reduce_dim", "truncate_rare"}
#: rows join whole gathered rows by mul/add/concat: declined at FP32, kept
#: by a quantized plan from 2048 values per request
ROWWISE = {"memcom", "memcom_nobias", "qr_mult", "qr_concat", "double_hash"}
#: gathered rows through one projection: declined at every width and length
PROJECTED = {"factorized"}
#: a TT contraction or masked projections: the cache pays at every width
COSTLY = {"tt_rec", "mixed_dim", "freq_double_hash"}

CASES = [
    pytest.param(technique, bits, id=f"{technique}-{bits}")
    for technique in sorted(available_techniques())
    for bits in (32, 8, 4)
    if technique != "hashed_onehot" or bits == 32  # pooled: FP32 only
]

#: 64-wide rows at 31 and 32 ids: 1984 and 2048 values per request
LONG_CASES = [
    pytest.param(technique, bits, length, id=f"{technique}-{bits}-L{length}")
    for technique in sorted(ROWWISE | PROJECTED | {"full"})
    for bits in (32, 8, 4)
    for length in (31, 32)
]


def test_every_technique_is_classified():
    assert ONE_GATHER | ROWWISE | PROJECTED | COSTLY | {"hashed_onehot"} == set(
        available_techniques()
    )


def _check(technique, bits, length, dim, kept):
    def build():
        return build_pointwise_ranker(
            technique, V, C, input_length=length, embedding_dim=dim, rng=1,
            **default_hyper(technique, V, dim, hash_fraction=8),
        )

    session = ServeSession.from_model(
        build(), ServeConfig(bits=None if bits == 32 else bits, cache_rows=64)
    )
    engine = session.engine
    if kept:
        assert engine.cache is not None and engine.cache_declined is None
        assert "cache_declined" not in session.stats()
    else:
        assert engine.cache is None
        assert engine.cache_declined and engine.cache_declined in repr(engine)
        assert session.stats()["cache_declined"] == engine.cache_declined
    plain = InferenceEngine(build(), bits=bits)
    assert plain.cache is None and plain.cache_declined is None  # none asked
    ids = np.random.default_rng(0).integers(0, V, (40, length))
    for _ in range(2):  # the second pass is hit-dominated where cached
        np.testing.assert_array_equal(session.predict(ids), plain.predict(ids))
    if engine.cache is not None:
        assert engine.cache.hits > 0
    return engine


@pytest.mark.parametrize("technique, bits", CASES)
def test_cache_is_built_exactly_where_it_pays(technique, bits):
    # 6 ids × 16 values per request: short, so only COSTLY keeps a cache
    engine = _check(technique, bits, L, E, kept=technique in COSTLY)
    if technique in ROWWISE and bits != 32:
        assert engine.cache_declined.endswith("below 2048 values per request")


@pytest.mark.parametrize("technique, bits, length", LONG_CASES)
def test_long_quantized_requests_keep_rowwise_caches(technique, bits, length):
    kept = technique in ROWWISE and bits != 32 and length * 64 >= 2048
    _check(technique, bits, length, 64, kept)
