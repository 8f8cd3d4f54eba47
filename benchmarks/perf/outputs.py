"""Checking served outputs against a cache-less reference engine.

While it measures, the measured process keeps one 64-bit fingerprint per served
result row, plus where each flush began; no request object outlives its
flush.  After the run, the reference engine predicts the same requests in
the same batches and the fingerprints must match.  Batches matter: on some
models a row's scores differ in the last bits with the size of the batch
it was computed in, so only the same batches give a bit-for-bit reference.
"""

from __future__ import annotations

import numpy as np

#: odd multipliers, so changing any one 32-bit word changes the fingerprint
_WEIGHTS = np.random.default_rng(0x5EED).integers(
    0, 2**63, size=4096, dtype=np.uint64
) | np.uint64(1)


def fingerprint(rows) -> np.ndarray:
    """One ``uint64`` per row: a weighted sum of its 32-bit words mod 2**64."""
    rows = np.ascontiguousarray(rows)
    words = rows.reshape(rows.shape[0], -1).view(np.uint32).astype(np.uint64)
    return (words * _WEIGHTS[: words.shape[1]]).sum(axis=1)


class Recorder:
    """Per pass and request: fingerprint, resolved flag, flush-start flag."""

    def __init__(self, n: int, passes: int) -> None:
        # Filled now so the pages are resident before memory is measured.
        self.fingerprints = np.full((passes, n), 0, dtype=np.uint64)
        self.resolved = np.full((passes, n), False)
        self.flush_starts = np.full((passes, n), False)
        self.names: list[str] = []

    def begin(self, name: str) -> int:
        """Start recording a pass; returns its index."""
        self.names.append(name)
        return len(self.names) - 1

    def settle(self, start: int, pending, p: int) -> np.ndarray:
        """Record one flush's requests ``start, start+1, ...`` of pass
        ``p``; return which of them were resolved."""
        k = len(pending)
        self.flush_starts[p, start] = True
        results = [r.result for r in pending]
        done = np.asarray([r is not None for r in results])
        if done.all():
            self.fingerprints[p, start : start + k] = fingerprint(np.stack(results))
        elif done.any():
            idx = np.flatnonzero(done)
            self.fingerprints[p, start + idx] = fingerprint(
                np.stack([results[j] for j in idx])
            )
        self.resolved[p, start : start + k] = done
        return done

    def arrays(self) -> dict:
        used = len(self.names)
        return {
            "names": np.asarray(self.names),
            "fingerprints": self.fingerprints[:used],
            "resolved": self.resolved[:used],
            "flush_starts": self.flush_starts[:used],
        }


def batches(flush_starts: np.ndarray, max_batch: int):
    """The ``(start, stop)`` of every engine call: each flush serves its
    requests in ``max_batch``-sized slices, in submission order."""
    starts = np.flatnonzero(flush_starts).tolist()
    for lo, hi in zip(starts, starts[1:] + [flush_starts.size]):
        for a in range(lo, hi, max_batch):
            yield a, min(a + max_batch, hi)


def verify(record: dict, predict, ids: np.ndarray, max_batch: int) -> dict:
    """Compare every recorded pass with ``predict`` over the same batches.

    Returns the requests attempted and failed (unresolved or different)
    and the pass and index of the first failed request.
    """
    reference: dict[bytes, np.ndarray] = {}
    attempted = failed = 0
    first = None
    for name, fps, done, starts in zip(
        record["names"], record["fingerprints"], record["resolved"],
        record["flush_starts"],
    ):
        key = np.packbits(starts).tobytes()
        if key not in reference:
            want = np.zeros(ids.shape[0], dtype=np.uint64)
            for a, b in batches(starts, max_batch):
                want[a:b] = fingerprint(predict(ids[a:b]))
            reference[key] = want
        bad = np.flatnonzero(~done | (fps != reference[key]))
        attempted += fps.size
        failed += int(bad.size)
        if bad.size and first is None:
            first = (str(name), int(bad[0]))
    return {"attempted": attempted, "failed": failed, "first": first}
