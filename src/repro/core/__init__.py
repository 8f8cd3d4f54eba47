"""`repro.core` — MEmCom and every embedding-compression baseline.

The paper's contribution (:class:`MEmComEmbedding`, Algorithms 2–3) plus all
techniques it compares against, a name-based registry for sweeps, analytic
sizing math, collision analytics, and the Appendix A.4 uniqueness audit.
"""

from repro.core.base import HASH_PRIME, CompressedEmbedding, universal_hash
from repro.core.collisions import (
    PROPERTIES_TABLE,
    CollisionStats,
    TechniqueProperties,
    double_hash_collision_rate,
    empirical_collision_stats,
    expected_colliding_entities,
    expected_occupied_buckets,
    naive_hash_collision_rate,
)
from repro.core.full import FullEmbedding
from repro.core.hashing import (
    DoubleHashEmbedding,
    FrequencyDoubleHashEmbedding,
    NaiveHashEmbedding,
)
from repro.core.low_rank import FactorizedEmbedding, ReducedDimEmbedding
from repro.core.memcom import MEmComEmbedding
from repro.core.mixed_dim import MixedDimEmbedding, block_dims, block_partition
from repro.core.onehot import HashedOneHotEncoder
from repro.core.quotient_remainder import QREmbedding
from repro.core.tt_rec import TTRecEmbedding, factor_three
from repro.core.registry import (
    TechniqueSpec,
    available_techniques,
    build_embedding,
    technique_spec,
)
from repro.core.sizing import (
    bytes_for_params,
    compression_ratio,
    embedding_param_count,
    params_for_bytes,
    solve_embedding_dim,
)
from repro.core.truncate import TruncateRareEmbedding
from repro.core.uniqueness import UniquenessReport, audit_uniqueness, count_close_pairs

__all__ = [
    "HASH_PRIME",
    "PROPERTIES_TABLE",
    "CollisionStats",
    "CompressedEmbedding",
    "DoubleHashEmbedding",
    "FactorizedEmbedding",
    "FrequencyDoubleHashEmbedding",
    "FullEmbedding",
    "HashedOneHotEncoder",
    "MEmComEmbedding",
    "MixedDimEmbedding",
    "NaiveHashEmbedding",
    "QREmbedding",
    "ReducedDimEmbedding",
    "TTRecEmbedding",
    "TechniqueProperties",
    "TechniqueSpec",
    "TruncateRareEmbedding",
    "UniquenessReport",
    "audit_uniqueness",
    "available_techniques",
    "block_dims",
    "block_partition",
    "build_embedding",
    "factor_three",
    "bytes_for_params",
    "compression_ratio",
    "count_close_pairs",
    "double_hash_collision_rate",
    "embedding_param_count",
    "empirical_collision_stats",
    "expected_colliding_entities",
    "expected_occupied_buckets",
    "naive_hash_collision_rate",
    "params_for_bytes",
    "solve_embedding_dim",
    "technique_spec",
    "universal_hash",
]
