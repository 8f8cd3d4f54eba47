"""Integer quantization kernels: per-row encode, fused decode, int4 packing.

The storage format of the :mod:`repro.quant` subsystem is *symmetric linear
per-row* quantization — the same rounding path as
:func:`repro.device.quantize.quantize_array`, applied one table row at a
time::

    scale[i] = absmax(w[i]) / (2^(bits−1) − 1)
    code[i]  = clip(round(w[i] / scale[i]), −qmax−1, qmax)
    row[i]   = code[i] · scale[i]                    # the decoded FP32 row

so every decoded *table* row is exactly ``code · scale`` and decoding is a
single fused multiply.  A one-gather form serves that row as it is; a
composed form serves the FP32 composition of such rows, which has no
``(codes, scale)`` form of its own (DESIGN.md §7).  int8 codes are
stored as one ``int8`` per element; int4 codes pack two per byte (low
nibble first, biased by +8 into ``[0, 15]``) and unpack on gather.

Determinism contract (the serving engine relies on it): ``decode_rows``
is elementwise, so decoding any subset of rows — a single row, a batch,
the whole table — produces bit-identical floats from the same
``(codes, scale)``.

Calibration may clip outliers: with ``percentile=p`` the scale derives from
the p-th percentile of each row's magnitudes instead of the max, and the
tail saturates at the signed grid edge — codes clamp to
``[−2^(bits−1), 2^(bits−1)−1]``, the same asymmetric clamp
``quantize_array`` applies (Appendix A.2's quantization study motivates
the knob: absmax calibration lets one outlier stretch the grid for the
whole row).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QUANT_BITS",
    "qmax_for",
    "row_scales",
    "encode_rows",
    "decode_rows",
    "pack_int4",
    "unpack_int4",
    "codes_bytes_per_row",
]

#: integer storage widths the runtime serves (16/32 stay dtype casts and
#: never enter the code path)
QUANT_BITS = (8, 4, 2)

_SCALE_BYTES = 4  # one FP32 scale per row


def qmax_for(bits: int) -> int:
    """Largest positive code of the signed ``bits``-wide grid."""
    if bits not in QUANT_BITS:
        raise ValueError(f"bits must be one of {QUANT_BITS}, got {bits}")
    return 2 ** (bits - 1) - 1


def row_scales(w: np.ndarray, bits: int, percentile: float | None = None) -> np.ndarray:
    """Per-row scale of the symmetric grid: calibration magnitude / qmax.

    ``percentile`` ∈ (0, 100] replaces each row's absmax with the given
    percentile of its magnitudes (outlier clipping); values beyond the
    calibrated range saturate at the signed grid edge (``−qmax−1``/``qmax``)
    when encoded.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected (rows, dim) array, got shape {w.shape}")
    qmax = qmax_for(bits)
    mags = np.abs(w)
    if percentile is None:
        cal = mags.max(axis=1) if w.shape[1] else np.zeros(w.shape[0], np.float32)
    else:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        cal = np.percentile(mags, percentile, axis=1)
    return (cal / qmax).astype(np.float32)


def encode_rows(
    w: np.ndarray,
    bits: int,
    percentile: float | None = None,
    scales: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize ``(n, dim)`` FP32 rows to storage-form codes + FP32 scales.

    Returns ``(codes, scales)`` where ``codes`` is ``(n, dim)`` int8 for
    ``bits=8`` / ``bits=2``, or ``(n, ceil(dim/2))`` packed uint8 for
    ``bits=4``.  Zero rows encode to all-zero codes with scale 0.  Pass
    precomputed ``scales`` to reuse a prior calibration.
    """
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ValueError(f"expected (rows, dim) array, got shape {w.shape}")
    qmax = qmax_for(bits)
    if scales is None:
        scales = row_scales(w, bits, percentile)
    else:
        scales = np.asarray(scales, dtype=np.float32)
        if scales.shape != (w.shape[0],):
            raise ValueError(f"scales shape {scales.shape} != ({w.shape[0]},)")
    live = scales > 0.0
    q = np.zeros_like(w)
    np.divide(w, scales[:, None], out=q, where=live[:, None])
    codes = np.clip(np.round(q), -qmax - 1, qmax).astype(np.int8)
    if bits == 4:
        codes = pack_int4(codes)
    return codes, scales


def decode_rows(
    codes: np.ndarray, scales: np.ndarray, bits: int, dim: int
) -> np.ndarray:
    """Fused unpack→dequantize gather tail: ``(n, dim)`` FP32 rows.

    The single kernel both the batched and the single-row serving paths go
    through — outputs are bit-identical for the same ``(codes, scales)``
    regardless of how rows are grouped into calls.
    """
    if bits == 4:
        unpacked = unpack_int4(codes, dim)
    else:
        unpacked = codes
    out = np.empty((unpacked.shape[0], dim), dtype=np.float32)
    # One broadcast multiply: row = code · scale (the int8→float32 cast is
    # exact and happens inside the ufunc — no (n, dim) temp, no scale copy).
    scales = np.asarray(scales, dtype=np.float32)
    np.multiply(unpacked, scales[:, None], out=out)
    return out


def pack_int4(codes: np.ndarray) -> np.ndarray:
    """Pack int4 codes (int8 values in [−8, 7]) two per byte, low nibble
    first.  Odd widths pad the last high nibble with the zero code."""
    codes = np.asarray(codes)
    n, dim = codes.shape
    biased = (codes.astype(np.int16) + 8).astype(np.uint8)  # [0, 15]
    if dim % 2:
        biased = np.concatenate(
            [biased, np.full((n, 1), 8, dtype=np.uint8)], axis=1
        )
    return (biased[:, 0::2] | (biased[:, 1::2] << 4)).astype(np.uint8)


def unpack_int4(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_int4`: ``(n, ceil(dim/2))`` bytes → ``(n, dim)``
    int8 codes."""
    packed = np.asarray(packed)
    n = packed.shape[0]
    nibbles = np.empty((n, packed.shape[1] * 2), dtype=np.int8)
    nibbles[:, 0::2] = (packed & 0x0F).astype(np.int8)
    nibbles[:, 1::2] = (packed >> 4).astype(np.int8)
    nibbles -= 8
    return nibbles[:, :dim]


def codes_bytes_per_row(dim: int, bits: int) -> int:
    """Stored bytes per row: ceil-packed codes plus the FP32 scale."""
    qmax_for(bits)  # validates bits
    return -(-dim * bits // 8) + _SCALE_BYTES
