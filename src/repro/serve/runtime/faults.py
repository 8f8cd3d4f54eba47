"""Fault injection for the serving runtime: break it on purpose, in tests.

A fault-tolerance claim that was never exercised is a comment, not a
property.  :class:`FaultSpec` rides into a replica worker at spawn time and
triggers one failure at an exact point in its request sequence — so every
chaos scenario is deterministic and the recovery evidence (which counters
moved, which predictions matched) is assertable:

* ``kill_on=n`` — the worker hard-exits (``os._exit``) upon *receiving*
  its n-th batch, before replying: the crash-mid-request case, and
  the in-flight request is genuinely lost with it.
* ``delay_on=n`` / ``delay_ms`` — the worker sleeps before replying to its
  n-th batch: a slow worker; past the retry timeout this becomes a
  deadline overrun and the supervisor respawns it.
* ``drop_on=n`` — the reply is computed and then swallowed: a lost
  message, indistinguishable from a hang on the parent side.
* ``corrupt_on=n`` — the reply's payload bytes are flipped *after* its
  checksum was computed: damage in transit, detected by the parent's
  checksum verification and retried.

:func:`corrupt_artifact_payload` damages the on-disk artifact itself —
the "corrupted-respawn-artifact" scenario, where a worker dies and its
respawn source turns out to be rotten, forcing graceful degradation to
the parent's resident fallback engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["FaultSpec", "corrupt_artifact_payload"]


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure, pinned to a worker's n-th received batch.

    All triggers are 1-based counters over ``predict`` batches the worker
    receives; ``None`` disables that fault.  A respawned worker starts a
    fresh counter — and by default the supervisor does not re-inject the
    spec at all (a crash is an event, not a property of the replacement).
    """

    kill_on: int | None = None
    delay_on: int | None = None
    delay_ms: float = 0.0
    drop_on: int | None = None
    corrupt_on: int | None = None

    def validate(self) -> "FaultSpec":
        for name in ("kill_on", "delay_on", "drop_on", "corrupt_on"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is a 1-based trigger, got {value}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be non-negative, got {self.delay_ms}")
        if self.delay_on is not None and self.delay_ms == 0:
            raise ValueError("delay_on set but delay_ms is 0 — nothing to inject")
        return self

    @property
    def empty(self) -> bool:
        return (
            self.kill_on is None
            and self.delay_on is None
            and self.drop_on is None
            and self.corrupt_on is None
        )


def corrupt_artifact_payload(path: str) -> str:
    """Flip one byte of an artifact's largest payload; returns the file hit.

    Directory containers get a surgical strike on the biggest
    ``payloads/*.bin`` (so the next ``load_artifact`` fails its sha256
    check with :class:`~repro.artifact.errors.ArtifactIntegrityError`);
    zip containers get a byte flipped mid-file, which lands in payload
    data for the same effect.  Either way the damage is what a torn write
    or bit-rot would produce — detected at load, never served.
    """
    if os.path.isdir(path):
        payload_dir = os.path.join(path, "payloads")
        candidates = [
            os.path.join(payload_dir, name)
            for name in sorted(os.listdir(payload_dir))
            if name.endswith(".bin")
        ]
        if not candidates:
            raise ValueError(f"no payloads to corrupt under {path!r}")
        target = max(candidates, key=os.path.getsize)
    elif os.path.isfile(path):
        target = path
    else:
        raise ValueError(f"no artifact at {path!r}")
    size = os.path.getsize(target)
    if size == 0:
        raise ValueError(f"cannot corrupt empty file {target!r}")
    with open(target, "r+b") as fh:
        fh.seek(size // 2)
        byte = fh.read(1)
        fh.seek(size // 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
    return target
