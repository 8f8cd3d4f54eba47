"""Read the FP32 embedding section of a format v1–v3 container.

Those writers stored a constructor recipe plus the module's state dict,
where v4 stores the frozen form.  Reading one rebuilds the module once, so
this is the one artifact path that imports :mod:`repro.core` and the
training stack; the container imports it only for such a section.
"""

from __future__ import annotations

import repro.core
from repro.artifact.errors import ArtifactFormatError
from repro.core.base import CompressedEmbedding

#: the technique classes :mod:`repro.core` exports, by class name
_CLASSES = {
    cls.__name__: cls
    for cls in (getattr(repro.core, name) for name in repro.core.__all__)
    if isinstance(cls, type) and issubclass(cls, CompressedEmbedding)
    and cls is not CompressedEmbedding
}


def legacy_fp32_form(spec: dict, state: dict, mmap: bool):
    """The frozen form of a ``spec`` + ``state`` section: the spec'd class
    built with ``rng=0``, strict-loaded with ``state`` (mmap-backed arrays
    adopted without a copy), in eval mode."""
    spec = spec if isinstance(spec, dict) else {}
    cls_name = spec.get("class")
    cls = _CLASSES.get(cls_name)
    if cls is None and "n_shards" in spec:  # written by a sharded export
        raise ArtifactFormatError(
            f"{cls_name}: sharded embedding layouts were removed; re-export "
            "this artifact from the monolithic model"
        )
    if cls is None:
        raise ArtifactFormatError(f"unknown embedding class {cls_name!r} in spec")
    kwargs = {k: v for k, v in spec.items() if k not in ("class", "technique")}
    try:
        emb = cls(**kwargs, rng=0)
        emb.load_state_dict(state, copy=not mmap)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactFormatError(
            f"cannot rebuild {cls_name} from spec {kwargs!r} and its state: {exc}"
        ) from exc
    return emb.eval().frozen()
