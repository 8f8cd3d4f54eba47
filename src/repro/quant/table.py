"""``QuantizedTable`` — an embedding table stored as integer codes.

The FP32 ``(v, e)`` table becomes:

* ``codes`` — ``(v, e)`` int8 at 8 bits, or ``(v, ceil(e/2))`` packed uint8
  at 4 bits (two codes per byte, unpacked on gather);
* ``scales`` — one FP32 scale per row (``per_row=True``, the default for
  multi-column tables) or a single shared scale (``per_row=False``, used
  for the ``(v, 1)`` per-entity columns of MEmCom, where a 4-byte per-row
  scale would outweigh the 1-byte payload).

Unlike :func:`repro.device.quantize.quantize_array` — which *simulates*
quantization by round-tripping to FP32 — this is the real storage: resident
bytes are ``codes.nbytes + scales.nbytes``, roughly ``bits/32`` of the FP32
table.  :meth:`gather` is the fused gather→dequantize kernel; its output for
row ``i`` is bit-identical whether ``i`` is fetched alone, in a batch, or
through :meth:`dense` (decoding is elementwise — see
:mod:`repro.quant.kernels`).
"""

from __future__ import annotations

import numpy as np

from repro.quant.kernels import decode_rows, encode_rows, qmax_for, unpack_int4

__all__ = ["QuantizedTable", "SUPPORTED_STORAGE_BITS"]

#: widths with a real packed storage layout (2-bit stays a simulation-only
#: mode in repro.device.quantize)
SUPPORTED_STORAGE_BITS = (8, 4)


class QuantizedTable:
    """Integer-code storage of one ``(num_rows, dim)`` table."""

    __slots__ = ("bits", "num_rows", "dim", "per_row", "codes", "scales")

    def __init__(
        self,
        codes: np.ndarray,
        scales: np.ndarray,
        bits: int,
        dim: int,
        per_row: bool = True,
    ) -> None:
        if bits not in SUPPORTED_STORAGE_BITS:
            raise ValueError(
                f"storage bits must be one of {SUPPORTED_STORAGE_BITS}, got {bits}"
            )
        self.bits = int(bits)
        self.num_rows = int(codes.shape[0])
        self.dim = int(dim)
        self.per_row = bool(per_row)
        self.codes = codes
        self.scales = scales

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        table: np.ndarray,
        bits: int,
        percentile: float | None = None,
        per_row: bool = True,
    ) -> "QuantizedTable":
        """Calibrate and quantize an FP32 table.

        ``per_row=True`` gives every row its own symmetric scale (absmax, or
        the ``percentile``-th magnitude with outliers saturating).
        ``per_row=False`` shares one scale across the table — exactly the
        per-tensor path of ``quantize_array``.
        """
        table = np.asarray(table, dtype=np.float32)
        if table.ndim != 2:
            raise ValueError(f"expected a 2-D table, got shape {table.shape}")
        if bits not in SUPPORTED_STORAGE_BITS:
            raise ValueError(
                f"storage bits must be one of {SUPPORTED_STORAGE_BITS}, got {bits}"
            )
        if per_row:
            codes, scales = encode_rows(table, bits, percentile=percentile)
        else:
            qmax = qmax_for(bits)
            mags = np.abs(table)
            cal = (
                float(mags.max())
                if percentile is None
                else float(np.percentile(mags, percentile))
            ) if table.size else 0.0
            scale = np.float32(cal / qmax)
            # Same rounding path as the per-row kernel, one shared scale.
            codes, _ = encode_rows(
                table, bits,
                scales=np.full(table.shape[0], scale, dtype=np.float32),
            )
            scales = np.array([scale], dtype=np.float32)
        return cls(codes, scales, bits, table.shape[1], per_row=per_row)

    # -- geometry / accounting --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.dim)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the integer storage (codes + scales)."""
        return int(self.codes.nbytes + self.scales.nbytes)

    # -- fused gather→dequantize ------------------------------------------------

    def _row_scales(self, ids: np.ndarray) -> np.ndarray:
        if self.per_row:
            return self.scales[ids]
        return np.broadcast_to(self.scales, (ids.size,))

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Dequantized FP32 rows for ``ids`` (any shape, flattened)."""
        ids = np.asarray(ids).ravel()
        return decode_rows(self.codes[ids], self._row_scales(ids), self.bits, self.dim)

    def row(self, i: int) -> np.ndarray:
        """One dequantized row — the single-row serving path.

        Goes through the same decode kernel as :meth:`gather`, so the result
        is bit-identical to ``gather([i])[0]``.
        """
        return self.gather(np.array([i]))[0]

    def dense(self) -> np.ndarray:
        """The full dequantized FP32 table (reference / export use)."""
        if self.bits == 4:
            codes = unpack_int4(self.codes, self.dim)
        else:
            codes = self.codes
        scales = (
            self.scales[:, None]
            if self.per_row
            else np.broadcast_to(self.scales, (self.num_rows,))[:, None]
        )
        return codes.astype(np.float32) * scales.astype(np.float32)

    def __repr__(self) -> str:
        kind = "per-row" if self.per_row else "per-tensor"
        return (
            f"QuantizedTable(shape={self.shape}, bits={self.bits}, {kind}, "
            f"{self.nbytes} bytes)"
        )
