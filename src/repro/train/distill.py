"""Knowledge-distillation configuration and teacher plumbing.

The paper's production question is "best accuracy-per-byte under a device
budget"; distilling a compressed *student* against a full-table *teacher*
consistently beats training the same student from scratch (see the
on-device distillation papers in PAPERS.md).  This module owns the
declarative config; the loss lives in :func:`repro.nn.losses.
distillation_loss`, the ``Trainer.fit`` dispatch gains a ``"distillation"``
task, and :class:`repro.pipeline.TrainSession` acquires the teacher logits
(injected, loaded from a frozen artifact, or trained inline).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DistillConfig", "teacher_spec_for"]


@dataclass(frozen=True)
class DistillConfig:
    """How a compressed student learns from a full-table teacher.

    Parameters
    ----------
    temperature:
        Softening temperature ``T`` of both distributions; the soft term is
        scaled by ``T²`` so ``alpha`` means the same thing at every ``T``.
    alpha:
        Blend weight of the soft (teacher) term; ``1 - alpha`` weighs the
        hard cross-entropy against the true labels.
    teacher_path:
        Serving artifact of a frozen teacher (``ServeSession.load``-able).
        When ``None``, a full-table teacher is trained inline from the
        student's spec (deterministic in the spec's seed, so resumed runs
        recompute identical logits).
    teacher_epochs:
        Epoch override for the inline teacher (``None`` = the student's
        epoch count).  Ignored when ``teacher_path`` is set.
    """

    temperature: float = 2.0
    alpha: float = 0.5
    teacher_path: str | None = None
    teacher_epochs: int | None = None

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.teacher_epochs is not None and self.teacher_epochs <= 0:
            raise ValueError(
                f"teacher_epochs must be positive or None, got {self.teacher_epochs}"
            )
        if self.teacher_path is not None and not isinstance(self.teacher_path, str):
            raise ValueError("teacher_path must be a string path or None")


def teacher_spec_for(spec):
    """The inline-teacher :class:`~repro.pipeline.PipelineSpec` of ``spec``.

    A full-table FP32 model on the same dataset/architecture/seed — the
    strongest same-capacity reference — with the student's distillation
    and quantized-export knobs stripped.  Both the sweep runner
    (which pre-trains one shared teacher per grid) and
    ``TrainSession``'s inline fallback derive the teacher from this one
    function, so the two paths produce bit-identical logits.
    """
    distill = spec.distill
    if distill is None:
        raise ValueError("spec carries no distillation config")
    train = spec.train
    if distill.teacher_epochs is not None:
        train = replace(train, epochs=distill.teacher_epochs)
    return replace(
        spec,
        technique="full",
        hyper={},
        distill=None,
        bits=32,
        percentile=None,
        train=train,
    )
