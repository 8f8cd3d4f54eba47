"""Technique registry: build any compression technique by name.

The experiment sweeps are driven by (technique-name, hyperparameter) pairs;
this registry is the single place that maps those names to constructors, so
harnesses, examples and tests all agree on spelling and required knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.full import FullEmbedding
from repro.core.hashing import (
    DoubleHashEmbedding,
    FrequencyDoubleHashEmbedding,
    NaiveHashEmbedding,
)
from repro.core.low_rank import FactorizedEmbedding, ReducedDimEmbedding
from repro.core.memcom import MEmComEmbedding
from repro.core.mixed_dim import MixedDimEmbedding
from repro.core.onehot import HashedOneHotEncoder
from repro.core.quotient_remainder import QREmbedding
from repro.core.truncate import TruncateRareEmbedding
from repro.core.tt_rec import TTRecEmbedding

__all__ = [
    "TechniqueSpec", "available_techniques", "build_embedding", "default_hyper",
    "technique_spec",
]


@dataclass(frozen=True)
class TechniqueSpec:
    """Registry entry: how to build a technique and what knobs it needs."""

    name: str
    builder: Callable[..., CompressedEmbedding]
    #: hyperparameter names the builder requires beyond (vocab, dim, rng)
    requires: tuple[str, ...]
    #: one-line description used in reports
    summary: str


def _build_full(vocab_size, embedding_dim, rng, **_):
    return FullEmbedding(vocab_size, embedding_dim, rng=rng)


def _build_memcom(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **kw):
    return MEmComEmbedding(
        vocab_size,
        embedding_dim,
        num_hash_embeddings,
        bias=True,
        multiplier_init=kw.get("multiplier_init", "ones"),
        rng=rng,
    )


def _build_memcom_nobias(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **kw):
    return MEmComEmbedding(
        vocab_size,
        embedding_dim,
        num_hash_embeddings,
        bias=False,
        multiplier_init=kw.get("multiplier_init", "ones"),
        rng=rng,
    )


def _build_qr_mult(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **_):
    return QREmbedding(vocab_size, embedding_dim, num_hash_embeddings, operation="mult", rng=rng)


def _build_qr_concat(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **_):
    return QREmbedding(
        vocab_size, embedding_dim, num_hash_embeddings, operation="concat", rng=rng
    )


def _build_hash(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **kw):
    return NaiveHashEmbedding(
        vocab_size,
        embedding_dim,
        num_hash_embeddings,
        hash_family=kw.get("hash_family", "mod"),
        rng=rng,
    )


def _build_double_hash(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **_):
    return DoubleHashEmbedding(vocab_size, embedding_dim, num_hash_embeddings, rng=rng)


def _build_factorized(vocab_size, embedding_dim, rng, *, hidden_dim, **_):
    return FactorizedEmbedding(vocab_size, embedding_dim, hidden_dim, rng=rng)


def _build_reduce_dim(vocab_size, embedding_dim, rng, *, reduced_dim, **_):
    # embedding_dim (the sweep's nominal width) is ignored: this technique's
    # whole point is that the output is narrower.
    return ReducedDimEmbedding(vocab_size, reduced_dim, rng=rng)


def _build_truncate_rare(vocab_size, embedding_dim, rng, *, keep, **_):
    return TruncateRareEmbedding(vocab_size, embedding_dim, keep, rng=rng)


def _build_hashed_onehot(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **kw):
    return HashedOneHotEncoder(
        vocab_size,
        embedding_dim,
        num_hash_embeddings,
        signed=kw.get("signed", True),
        rng=rng,
    )


def _build_freq_double_hash(vocab_size, embedding_dim, rng, *, num_hash_embeddings, **kw):
    return FrequencyDoubleHashEmbedding(
        vocab_size,
        embedding_dim,
        num_hash_embeddings,
        keep=kw.get("keep"),
        rng=rng,
    )


def _build_tt_rec(vocab_size, embedding_dim, rng, *, tt_rank, **_):
    return TTRecEmbedding(vocab_size, embedding_dim, tt_rank, rng=rng)


def _build_mixed_dim(vocab_size, embedding_dim, rng, *, num_blocks, **kw):
    return MixedDimEmbedding(
        vocab_size,
        embedding_dim,
        num_blocks,
        temperature=kw.get("temperature", 0.63),
        rng=rng,
    )


_REGISTRY: dict[str, TechniqueSpec] = {
    spec.name: spec
    for spec in [
        TechniqueSpec("full", _build_full, (), "uncompressed v×e table (baseline)"),
        TechniqueSpec(
            "memcom",
            _build_memcom,
            ("num_hash_embeddings",),
            "MEmCom with per-entity scalar bias (Algorithm 3)",
        ),
        TechniqueSpec(
            "memcom_nobias",
            _build_memcom_nobias,
            ("num_hash_embeddings",),
            "MEmCom without bias (Algorithm 2)",
        ),
        TechniqueSpec(
            "qr_mult",
            _build_qr_mult,
            ("num_hash_embeddings",),
            "quotient-remainder trick, elementwise-multiply composition",
        ),
        TechniqueSpec(
            "qr_concat",
            _build_qr_concat,
            ("num_hash_embeddings",),
            "quotient-remainder trick, concat composition",
        ),
        TechniqueSpec(
            "hash", _build_hash, ("num_hash_embeddings",), "naive hashing (i mod m)"
        ),
        TechniqueSpec(
            "double_hash",
            _build_double_hash,
            ("num_hash_embeddings",),
            "double hashing (Zhang et al. 2020)",
        ),
        TechniqueSpec(
            "factorized",
            _build_factorized,
            ("hidden_dim",),
            "factorized embedding parameterization (Lan et al. 2019)",
        ),
        TechniqueSpec(
            "reduce_dim", _build_reduce_dim, ("reduced_dim",), "smaller embedding dimension"
        ),
        TechniqueSpec(
            "truncate_rare", _build_truncate_rare, ("keep",), "drop rare entities to one OOV row"
        ),
        TechniqueSpec(
            "hashed_onehot",
            _build_hashed_onehot,
            ("num_hash_embeddings",),
            "Weinberger feature hashing on one-hot inputs",
        ),
        TechniqueSpec(
            "freq_double_hash",
            _build_freq_double_hash,
            ("num_hash_embeddings",),
            "frequency-based double hashing: dedicated head rows + hashed tail",
        ),
        TechniqueSpec(
            "tt_rec",
            _build_tt_rec,
            ("tt_rank",),
            "tensor-train factorized table (TT-Rec, Yin et al. 2021)",
        ),
        TechniqueSpec(
            "mixed_dim",
            _build_mixed_dim,
            ("num_blocks",),
            "mixed-dimension blocked embedding (Ginart et al. 2019)",
        ),
    ]
}


def available_techniques() -> list[str]:
    """Names accepted by :func:`build_embedding`, in registry order."""
    return list(_REGISTRY)


def technique_spec(name: str) -> TechniqueSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown technique {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def build_embedding(
    technique: str,
    vocab_size: int,
    embedding_dim: int,
    rng: np.random.Generator | int | None = None,
    **hyper,
) -> CompressedEmbedding:
    """Instantiate ``technique`` for a ``vocab_size`` vocabulary.

    ``hyper`` must include the keys listed in the technique's
    :class:`TechniqueSpec.requires`; extra keys that a builder does not
    understand are rejected to catch sweep typos early.
    """
    spec = technique_spec(technique)
    missing = [k for k in spec.requires if k not in hyper]
    if missing:
        raise TypeError(f"technique {technique!r} requires hyperparameters {missing}")
    known = set(spec.requires) | {"multiplier_init", "hash_family", "signed", "keep", "temperature"}
    unknown = set(hyper) - known
    if unknown:
        raise TypeError(f"technique {technique!r} got unknown hyperparameters {sorted(unknown)}")
    return spec.builder(vocab_size, embedding_dim, rng, **hyper)


def default_hyper(technique: str, vocab: int, dim: int, hash_fraction: int) -> dict:
    """A sensible mid-sweep hyperparameter for each technique family — the
    one table the CLI and the traffic benchmark build their models from."""
    m = max(2, vocab // hash_fraction)
    family = {
        "memcom": {"num_hash_embeddings": m},
        "memcom_nobias": {"num_hash_embeddings": m},
        "qr_mult": {"num_hash_embeddings": m},
        "qr_concat": {"num_hash_embeddings": m},
        "hash": {"num_hash_embeddings": m},
        "double_hash": {"num_hash_embeddings": m},
        "freq_double_hash": {"num_hash_embeddings": m},
        "hashed_onehot": {"num_hash_embeddings": m},
        "truncate_rare": {"keep": m},
        "factorized": {"hidden_dim": max(2, dim // 4)},
        "reduce_dim": {"reduced_dim": max(2, dim // 4)},
        "tt_rec": {"tt_rank": max(2, dim // 8)},
        "mixed_dim": {"num_blocks": 4},
        "full": {},
    }
    return family[technique]
