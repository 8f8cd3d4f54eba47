"""The engine decides where the hot-row cache pays (DESIGN.md §6).

A requested ``cache_rows`` cache is built only where a miss costs more than
a hit: a TT contraction or masked projections at any width, or a composed
row that the quantized plan re-quantizes.  Every other plan declines it,
says why in ``repr`` and ``stats()``, and serves the same bytes.
"""

import numpy as np
import pytest

from repro.core.registry import available_techniques, default_hyper
from repro.models.builder import build_pointwise_ranker
from repro.serve import InferenceEngine, ServeConfig, ServeSession

V, L, E, C = 240, 6, 16, 8

#: rows are one gather at every width
ONE_GATHER = {"full", "hash", "reduce_dim", "truncate_rare"}
#: FP32 rows are gathers plus mul/add/concat or one project
ELEMENTWISE = {
    "memcom", "memcom_nobias", "qr_mult", "qr_concat", "double_hash", "factorized",
}
#: a TT contraction or masked projections: the cache pays at every width
COSTLY = {"tt_rec", "mixed_dim", "freq_double_hash"}

CASES = [
    pytest.param(technique, bits, id=f"{technique}-{bits}")
    for technique in sorted(available_techniques())
    for bits in (32, 8, 4)
    if technique != "hashed_onehot" or bits == 32  # pooled: FP32 only
]


def _declined(technique: str, bits: int) -> bool:
    return (
        technique in ONE_GATHER
        or technique == "hashed_onehot"  # pooled: no per-id rows
        or (technique in ELEMENTWISE and bits == 32)
    )


def test_every_technique_is_classified():
    assert ONE_GATHER | ELEMENTWISE | COSTLY | {"hashed_onehot"} == set(
        available_techniques()
    )


@pytest.mark.parametrize("technique, bits", CASES)
def test_cache_is_built_exactly_where_it_pays(technique, bits):
    def build():
        return build_pointwise_ranker(
            technique, V, C, input_length=L, embedding_dim=E, rng=1,
            **default_hyper(technique, V, E, hash_fraction=8),
        )

    session = ServeSession.from_model(
        build(), ServeConfig(bits=None if bits == 32 else bits, cache_rows=64)
    )
    engine = session.engine
    if _declined(technique, bits):
        assert engine.cache is None
        assert engine.cache_declined and engine.cache_declined in repr(engine)
        assert session.stats()["cache_declined"] == engine.cache_declined
    else:
        assert engine.cache is not None and engine.cache_declined is None
        assert "cache_declined" not in session.stats()
    plain = InferenceEngine(build(), bits=bits)
    assert plain.cache is None and plain.cache_declined is None  # none asked
    ids = np.random.default_rng(0).integers(0, V, (40, L))
    for _ in range(2):  # the second pass is hit-dominated where cached
        np.testing.assert_array_equal(session.predict(ids), plain.predict(ids))
    if engine.cache is not None:
        assert engine.cache.hits > 0
