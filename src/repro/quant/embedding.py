"""Calibrate a trained ``CompressedEmbedding`` into integer storage.

``quantize_embedding`` converts any per-id technique into a
:class:`QuantizedEmbedding`, whose row values are *exactly representable*
as ``(codes, scale)`` pairs.  One path serves every technique: it stores
each table of the technique's frozen form (:mod:`repro.core.frozen`) as a
:class:`QuantizedTable` — per-row scales for multi-column tables, one
per-tensor scale for a single column (MEmCom's ``(v, 1)`` multiplier and
bias, where a 4-byte per-row scale would outweigh the 1-byte payload) — so
resident bytes are codes plus scales for every technique.  Serving
evaluates the same form over the decoded tables, in FP32:

* a form that is **one gather** (full, reduce_dim, truncate_rare, hash,
  ``nn.Embedding``) serves the *stored* codes of the gathered rows;
* a **composed** form composes FP32 rows from the decoded tables, op for
  op as the module's forward, and serves them as they are.

Either way a row is rounded once, at calibration: weights stored
quantized, arithmetic in FP32, as the paper's on-device setting and
:mod:`repro.device.export` assume.

The pooled one-hot encoder has no per-row output and cannot be served
quantized.

``QuantizedEmbedding.dequantized()`` materializes the exact served rows
into a plain FP32 :class:`~repro.core.full.FullEmbedding` — the reference a
quantized engine must match bit-for-bit (same composition, FP32 tower).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.base import CompressedEmbedding
from repro.core.frozen import FrozenForm, compose
from repro.core.full import FullEmbedding
from repro.quant.table import SUPPORTED_STORAGE_BITS, QuantizedTable

__all__ = ["QuantizedEmbedding", "quantize_embedding"]

_CHUNK = 4096  # row-materialization granularity for dequantized()


class QuantizedEmbedding:
    """Integer-storage serving form of one trained embedding technique.

    Not a :class:`~repro.nn.layers.Module` — there is no autograd graph and
    nothing trains; this is a frozen deployment artifact the
    :class:`~repro.serve.engine.InferenceEngine` (and the export path)
    consume.  ``form`` is the technique's frozen form over
    :class:`QuantizedTable` storage.
    """

    def __init__(
        self, form: FrozenForm, bits: int, percentile: float | None = None
    ) -> None:
        if bits not in SUPPORTED_STORAGE_BITS:
            raise ValueError(
                f"serving storage bits must be one of {SUPPORTED_STORAGE_BITS}, "
                f"got {bits}"
            )
        self.form = form
        self.bits = int(bits)
        self.percentile = percentile
        self.technique = form.technique
        self.vocab_size = form.vocab_size
        self.output_dim = form.output_dim

    # -- persistence ------------------------------------------------------------

    def state(self) -> tuple[dict, dict[str, QuantizedTable]]:
        """``(meta, tables)`` — the persistable decomposition.

        ``meta`` is JSON-serializable (the form's tree included); ``tables``
        holds the integer-storage payloads by form table name.
        :meth:`from_state` inverts this exactly, so a round-tripped
        embedding serves bit-identical rows — no recalibration on load.
        """
        meta = {
            "bits": self.bits,
            "percentile": self.percentile,
            "technique": self.technique,
            "vocab_size": self.vocab_size,
            "output_dim": self.output_dim,
            "form": self.form.spec(),
        }
        return meta, dict(self.form.tables)

    @classmethod
    def from_state(
        cls, meta: dict, tables: dict[str, QuantizedTable]
    ) -> "QuantizedEmbedding":
        """Reconstitute a serving embedding from :meth:`state` output.

        Integer payloads are adopted as-is (single rounding, done at save
        time), so a loaded artifact's rows match the freshly calibrated
        embedding bit for bit.
        """
        form = FrozenForm.from_spec(
            meta["form"], tables, technique=meta["technique"],
            vocab_size=meta["vocab_size"], output_dim=meta["output_dim"],
        )
        return cls(form, int(meta["bits"]), meta.get("percentile"))

    # -- reference / accounting -------------------------------------------------

    def _gather(self, name: str, rows) -> np.ndarray:
        table = self.form.tables[name]
        return table.dense() if rows is None else table.gather(rows)

    def dequantized(self) -> FullEmbedding:
        """Materialize the exact served rows as an FP32 ``FullEmbedding``.

        Each row is the form composed over the decoded tables, as the
        quantized engine composes it, so serving this through a plain FP32
        engine is the bit-for-bit reference for the quantized engine (the
        tower is FP32 in both).
        """
        table = np.empty((self.vocab_size, self.output_dim), dtype=np.float32)
        for start in range(0, self.vocab_size, _CHUNK):
            ids = np.arange(start, min(start + _CHUNK, self.vocab_size))
            table[ids] = compose(self.form, self._gather, ids)
        out = FullEmbedding(self.vocab_size, self.output_dim, rng=0)
        out.table.data = table
        return out

    def storage_bytes(self) -> int:
        """Resident bytes of the embedding representation: every form
        table's codes plus scales."""
        return int(sum(q.nbytes for q in self.form.tables.values()))

    def __repr__(self) -> str:
        return (
            f"QuantizedEmbedding({self.technique}, v={self.vocab_size}, "
            f"e={self.output_dim}, bits={self.bits}, {len(self.form.tables)} "
            f"tables, {self.storage_bytes()} bytes)"
        )


def quantize_embedding(
    emb: CompressedEmbedding, bits: int, percentile: float | None = None
) -> QuantizedEmbedding:
    """Calibration pass: trained embedding → integer serving storage.

    ``percentile`` enables outlier-clipped calibration (e.g. ``99.9``): each
    row's scale comes from that percentile of its magnitudes and the tail
    saturates, tightening the grid for the bulk of the distribution.
    """
    form = emb.frozen()
    if form.pooled:
        raise TypeError(
            f"{form.technique} output is pooled, not per-row; it has no "
            "quantized row storage (serve it FP32)"
        )
    tables = {}
    for name, table in form.tables.items():
        # per-row scales unless a single column (see the module docstring)
        tables[name] = QuantizedTable.from_dense(
            table.data, bits, percentile=percentile, per_row=table.data.shape[1] > 1
        )
    return QuantizedEmbedding(replace(form, tables=tables), bits, percentile)
