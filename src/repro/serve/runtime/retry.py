"""Retry budget for replica batches: timeout, backoff, attempt cap.

The supervisor treats every batch attempt as a lease: the worker has
``timeout_s`` to answer, a failed attempt waits a bounded exponentially
growing backoff (with deterministic jitter, so two recovering workers do
not resend in lockstep), and after ``max_attempts`` the worker is declared
unrecoverable and the request degrades to the local fallback engine.  The
policy is pure data + pure functions, so the same budget can be asserted
on in tests and printed in chaos reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / bounded-exponential-backoff / max-attempts triple.

    Parameters
    ----------
    timeout_s:
        Per-attempt response deadline.  A worker that has not answered a
        batch within this window is treated as failed (dead or
        wedged) and is respawned; the batch is resent.
    max_attempts:
        Total attempts per batch (first try included).  Exhausting
        the budget degrades the worker to the local fallback engine rather
        than erroring the request.
    backoff_base_s / backoff_max_s:
        Retry ``k`` (1-based) waits ``min(base · 2^(k-1), max)`` seconds
        before resending, scaled by jitter.
    jitter:
        Fractional jitter: the wait is multiplied by ``1 + jitter·u`` with
        ``u ∈ [0, 1)`` drawn deterministically from ``(seed, k)`` — random
        enough to decorrelate workers, reproducible enough for tests.
    respawn_grace_s:
        Extra deadline slack for the first attempt against a freshly
        (re)spawned worker, covering process start + artifact reload.
    """

    timeout_s: float = 2.0
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    respawn_grace_s: float = 10.0

    def validate(self) -> "RetryPolicy":
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be non-negative, got {self.backoff_base_s}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= backoff_base_s "
                f"({self.backoff_base_s})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.respawn_grace_s < 0:
            raise ValueError(
                f"respawn_grace_s must be non-negative, got {self.respawn_grace_s}"
            )
        return self

    def backoff(self, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError(f"retry_index is 1-based, got {retry_index}")
        delay = min(
            self.backoff_base_s * (2.0 ** (retry_index - 1)), self.backoff_max_s
        )
        if self.jitter and delay:
            u = np.random.default_rng([self.seed, retry_index]).random()
            delay *= 1.0 + self.jitter * u
        return float(delay)

    def deadline_s(self, fresh_worker: bool) -> float:
        """Attempt deadline, with spawn grace when the worker is still loading."""
        return self.timeout_s + (self.respawn_grace_s if fresh_worker else 0.0)
