"""Assemble paper models with any compression technique by name.

One call builds (embedding technique → model) for each of the three
architectures the paper evaluates, and the analytic parameter counts let
harnesses compute compression ratios without materializing the (possibly
huge) uncompressed baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.registry import build_embedding
from repro.core.sizing import embedding_param_count
from repro.models.classifier import EmbeddingClassifier, classifier_head_params
from repro.models.pointwise import PointwiseRanker, pointwise_head_params
from repro.models.ranknet import RankNet, ranknet_head_params
from repro.utils.rng import ensure_rng, spawn

__all__ = [
    "build_classifier",
    "build_pointwise_ranker",
    "build_ranknet",
    "model_param_count",
    "DEFAULT_EMBEDDING_DIM",
]

#: The paper's embedding size for every technique except "reduce_dim".
DEFAULT_EMBEDDING_DIM = 256


def build_classifier(
    technique: str,
    vocab_size: int,
    num_labels: int,
    input_length: int = 128,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    dropout: float = 0.2,
    rng: np.random.Generator | int | None = None,
    **hyper,
) -> EmbeddingClassifier:
    """Code 1 classifier (§5.1 / Figure 1) with ``technique`` embeddings."""
    rng = ensure_rng(rng)
    r_emb, r_model = spawn(rng, 2)
    emb = build_embedding(technique, vocab_size, embedding_dim, rng=r_emb, **hyper)
    return EmbeddingClassifier(emb, input_length, num_labels, dropout=dropout, rng=r_model)


def build_pointwise_ranker(
    technique: str,
    vocab_size: int,
    num_items: int,
    input_length: int = 128,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    dropout: float = 0.2,
    rng: np.random.Generator | int | None = None,
    **hyper,
) -> PointwiseRanker:
    """Pointwise ranker (§5.2 / Figure 2) with ``technique`` embeddings."""
    rng = ensure_rng(rng)
    r_emb, r_model = spawn(rng, 2)
    emb = build_embedding(technique, vocab_size, embedding_dim, rng=r_emb, **hyper)
    return PointwiseRanker(emb, input_length, num_items, dropout=dropout, rng=r_model)


def build_ranknet(
    technique: str,
    vocab_size: int,
    num_items: int,
    input_length: int = 128,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    dropout: float = 0.2,
    rng: np.random.Generator | int | None = None,
    **hyper,
) -> RankNet:
    """Pairwise siamese RankNet (Figure 3) with ``technique`` embeddings."""
    rng = ensure_rng(rng)
    r_emb, r_model = spawn(rng, 2)
    emb = build_embedding(technique, vocab_size, embedding_dim, rng=r_emb, **hyper)
    return RankNet(emb, input_length, num_items, dropout=dropout, rng=r_model)


def model_param_count(
    architecture: str,
    technique: str,
    vocab_size: int,
    num_labels: int,
    embedding_dim: int = DEFAULT_EMBEDDING_DIM,
    **hyper,
) -> int:
    """Analytic total parameter count — embedding + head — per architecture.

    The paper measures compression over "the number of parameters of all the
    layers and not just the embedding layers" (§5.1); this is that number.
    For ``reduce_dim`` the head shrinks with the embedding, exactly as the
    built model does.
    """
    emb_params = embedding_param_count(technique, vocab_size, embedding_dim, **hyper)
    out_dim = hyper["reduced_dim"] if technique == "reduce_dim" else embedding_dim
    if architecture == "classifier":
        head = classifier_head_params(out_dim, num_labels)
    elif architecture == "pointwise":
        head = pointwise_head_params(out_dim, num_labels)
    elif architecture == "ranknet":
        head = ranknet_head_params(out_dim, num_labels)
    else:
        raise KeyError(f"unknown architecture {architecture!r}")
    return emb_params + head
