"""``repro.quant`` — integer-storage quantized embedding runtime.

The on-device story of the paper (Table 3, Figure 4, Appendix A.2) ships
weights at 8/4 bits.  :mod:`repro.device.quantize` *simulates* that
(quantize→dequantize, FP32 resident); this package is the real thing:

* :class:`QuantizedTable` — int8 codes with per-row FP32 scales, or int4
  packed two-codes-per-byte with unpack-on-gather;
* :func:`quantize_embedding` — calibration (per-row absmax, optional
  percentile clipping) converting any per-id ``CompressedEmbedding`` —
  composed ones included — into :class:`QuantizedEmbedding`
  storage: one path for every technique, which stores each table of the
  technique's frozen form (:mod:`repro.core.frozen`) as codes + scales;
* fused gather→dequantize kernels (:mod:`repro.quant.kernels`) whose
  outputs are bit-identical between the single-row and batched paths.

The serving integration lives in :mod:`repro.serve` (``InferenceEngine``'s
``bits=8|4`` plan, which composes rows in FP32 over the decoded tables) and
:mod:`repro.device.export` (honest packed payload sizes).  See DESIGN.md §7.
"""

from repro.quant.embedding import QuantizedEmbedding, quantize_embedding
from repro.quant.kernels import (
    QUANT_BITS,
    codes_bytes_per_row,
    decode_rows,
    encode_rows,
    pack_int4,
    qmax_for,
    row_scales,
    unpack_int4,
)
from repro.quant.table import SUPPORTED_STORAGE_BITS, QuantizedTable

__all__ = [
    "QUANT_BITS",
    "SUPPORTED_STORAGE_BITS",
    "QuantizedEmbedding",
    "QuantizedTable",
    "codes_bytes_per_row",
    "decode_rows",
    "encode_rows",
    "pack_int4",
    "qmax_for",
    "quantize_embedding",
    "row_scales",
    "unpack_int4",
]
