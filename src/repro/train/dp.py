"""Differentially private training (Appendix A.3 / Figure 5).

The paper trains with "the Rényi Differential Privacy (RDP) framework …
global DP setup, constant l2 norm clip" and sweeps the *noise multiplier*.
This module implements that mechanism over our substrate:

* every step, the batch gradient's **global** l2 norm is clipped to ``C``
  (global DP setup — the whole-batch gradient is the unit, not per-example),
* Gaussian noise ``N(0, (σ·C)² / B²)`` is added to each coordinate (noise is
  applied to the *mean* gradient of a batch of ``B`` examples),
* an RDP accountant converts (σ, steps, δ) into an ε guarantee using the
  Gaussian-mechanism RDP curve ``ε_RDP(α) = α/(2σ²)`` composed over steps —
  conservative (no subsampling amplification), which only overstates ε.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.optim import Optimizer
from repro.train.trainer import TrainConfig, Trainer, clip_finite
from repro.utils.rng import ensure_rng, rng_state, set_rng_state

__all__ = ["DPConfig", "DPTrainer", "rdp_epsilon"]


@dataclass(frozen=True)
class DPConfig:
    """Privacy knobs of the A.3 experiment."""

    noise_multiplier: float
    l2_clip: float = 1.0
    #: δ of the (ε, δ) guarantee; the paper uses 1/num_training_points
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if self.l2_clip <= 0:
            raise ValueError("l2_clip must be positive")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")


class DPTrainer(Trainer):
    """Trainer whose step clips the global gradient norm and adds noise.

    With ``noise_multiplier == 0`` this reduces to clipped (non-private)
    training — the Figure 5 x-axis origin.

    This is *not* a fork of the training loop: the only override is the
    per-step gradient treatment (:meth:`_process_gradients`), so DP
    training shares ``Trainer``'s epochs, validation, callbacks, early
    stopping and resumable :class:`~repro.train.trainer.TrainState` — the
    noise-stream position and step count ride along via
    :meth:`extra_state`.
    """

    def __init__(self, config: TrainConfig, dp: DPConfig, callbacks: list | None = None) -> None:
        super().__init__(config, callbacks)
        self.dp = dp
        self._noise_rng = ensure_rng(config.seed + 0x9E3779B9)
        self.steps_taken = 0

    def _process_gradients(self, opt: Optimizer, batch_size: int) -> None:
        dp = self.dp
        # clip_finite handles sparse embedding grads without densifying
        # and raises on a non-finite norm; the Gaussian mechanism below
        # perturbs *every* coordinate, so sparse row-grads are densified
        # here — unconditionally, so the σ=0 sweep origin trains with the
        # same dense-Adam semantics as every σ>0 point (the DP path
        # trades the sparse fast path for the privacy guarantee).
        clip_finite(opt.params, dp.l2_clip)
        scale = dp.noise_multiplier * dp.l2_clip / batch_size
        for p in opt.params:
            g = p.grad  # property read densifies sparse row-grads
            if g is not None and dp.noise_multiplier > 0:
                g += (self._noise_rng.standard_normal(g.shape) * scale).astype(g.dtype)
        self.steps_taken += 1

    def extra_state(self) -> dict:
        return {"noise_rng": rng_state(self._noise_rng), "steps_taken": int(self.steps_taken)}

    def load_extra_state(self, extra: dict) -> None:
        set_rng_state(self._noise_rng, extra["noise_rng"])
        self.steps_taken = int(extra["steps_taken"])

    def epsilon(self, num_examples: int) -> float:
        """ε spent so far, with δ defaulting to 1/num_examples (the paper's
        choice for RDP's δ parameter)."""
        delta = self.dp.delta if self.dp.delta is not None else 1.0 / num_examples
        return rdp_epsilon(self.dp.noise_multiplier, self.steps_taken, delta)


def rdp_epsilon(
    noise_multiplier: float,
    steps: int,
    delta: float,
    orders: np.ndarray | None = None,
) -> float:
    """(ε, δ)-DP bound from Rényi composition of the Gaussian mechanism.

    Each step is a Gaussian mechanism with sensitivity ``C`` and noise
    ``σ·C``, whose RDP is ``α / (2σ²)``; ``steps`` compositions add.
    Conversion (Mironov 2017): ``ε = min_α [steps·α/(2σ²) + ln(1/δ)/(α−1)]``.
    Returns ``inf`` for σ = 0 (no privacy).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if noise_multiplier == 0:
        return float("inf")
    if steps == 0:
        return 0.0
    if orders is None:
        orders = np.concatenate([np.linspace(1.25, 16, 60), np.linspace(17, 512, 100)])
    rdp = steps * orders / (2.0 * noise_multiplier**2)
    eps = rdp + np.log(1.0 / delta) / (orders - 1.0)
    return float(eps.min())
