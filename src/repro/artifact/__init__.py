"""`repro.artifact` — the versioned on-disk serving container.

The deployment contract: :func:`save_artifact` flattens a trained model
into a ``manifest.json`` + raw-binary-payload container (directory or
zip), :func:`load_artifact` verifies and reopens it, and
:class:`repro.serve.ServeSession` serves from either form.  Every width
stores the embedding as its frozen form (:mod:`repro.frozen`): FP32 plans
one FP32 payload per form table, int8/int4 plans real
:class:`~repro.quant.QuantizedTable` codes + scales, so artifact bytes
shrink with the storage width.  See DESIGN.md §8.
"""

from repro.artifact.container import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    READABLE_VERSIONS,
    ModelArtifact,
    PendingArtifact,
    collect_artifact,
    load_artifact,
    read_manifest,
    save_artifact,
    save_delta,
)
from repro.artifact.errors import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    NonFiniteError,
)
from repro.artifact.plan import TowerPlan, build_tower

__all__ = [
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "ArtifactVersionError",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "READABLE_VERSIONS",
    "ModelArtifact",
    "NonFiniteError",
    "PendingArtifact",
    "TowerPlan",
    "build_tower",
    "collect_artifact",
    "load_artifact",
    "read_manifest",
    "save_artifact",
    "save_delta",
]
