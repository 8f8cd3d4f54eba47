"""Typed failure modes of the on-disk model-artifact container.

Deployment pipelines branch on *why* a load failed — a stale format version
is retriable after a converter run, a hash mismatch means the blob is
damaged and must be re-shipped, a malformed manifest is a producer bug.
Collapsing them into bare ``ValueError`` would force consumers to parse
message strings, so each failure mode is its own class under one common
root (``except ArtifactError`` still catches everything).
"""

from __future__ import annotations

__all__ = [
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "ArtifactVersionError",
    "NonFiniteError",
]


class ArtifactError(Exception):
    """Root of every artifact load/save failure."""


class ArtifactFormatError(ArtifactError):
    """The container is not a model artifact or its manifest is malformed
    (missing manifest, wrong magic, absent/ill-typed required fields)."""


class NonFiniteError(ArtifactFormatError):
    """An export was asked to store NaN or ±inf (raised before anything is
    written, naming the payload and its first bad row)."""


class ArtifactVersionError(ArtifactError):
    """The manifest declares a format version this runtime cannot read."""


class ArtifactIntegrityError(ArtifactError):
    """A payload's bytes do not match the manifest's content hash, or a
    payload file named by the manifest is missing entirely.

    Delta chains fail here too: a missing or substituted parent artifact,
    a parent whose manifest hash disagrees with the recorded provenance,
    or a row patch that does not reconstruct to its recorded full-content
    hash — anything where the *bytes on disk* betray the manifest."""
