"""Model export: flatten a trained model into a device-level op graph.

The on-device simulator does not re-execute Python modules; it walks an
exported intermediate representation whose ops carry exactly what a mobile
runtime's scheduler sees — FLOPs, activation bytes, and which weight tensors
they touch and *how*:

* ``lookup`` storage — embedding tables read row-wise through ``mmap``; only
  the touched rows' pages become resident (§3's "table approach").
* ``dense`` storage — weights consumed by matrix multiplies; frameworks
  transform these into their own layouts at load, so they occupy anonymous
  (dirty) memory per the profile's residency factors (§3's "matrix
  approach" is charged this way, which is the whole Table 3 story).

``export_model`` understands the three paper architectures; the embedding
stage is priced from the technique's frozen form (:mod:`repro.core.frozen`)
by one tree walk — a gather op per table, an op per combine — so every
technique with a ``frozen()`` exports with no per-technique code here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.frozen import Gather
from repro.models.classifier import EmbeddingClassifier
from repro.models.pointwise import PointwiseRanker
from repro.models.ranknet import RankNet
from repro.quant.kernels import codes_bytes_per_row

__all__ = ["WeightTensor", "Op", "ExportedModel", "export_model"]

_F32 = 4  # exported models are FP32 unless re-quantized (§5.3 setting)


@dataclass(frozen=True)
class WeightTensor:
    """One serialized weight blob."""

    name: str
    shape: tuple[int, ...]
    #: "lookup"       — mmap'd table read row-wise by gathers;
    #: "dense"        — standard layer weights, consumed in stored layout
    #:                  (mmap'd, mostly clean pages);
    #: "onehot_dense" — matmul operand fed by a materialized one-hot
    #:                  encoding; frameworks transform it into their own
    #:                  anonymous buffers (the Table 3 memory mechanism).
    storage: str
    bits: int = 32

    @property
    def num_params(self) -> int:
        return int(np.prod(self.shape))

    @property
    def bytes(self) -> int:
        """Honest shipped size of the payload.

        FP32/FP16 are plain dtype casts.  Integer modes (8/4/2 bits) price
        what the :mod:`repro.quant` storage actually ships: each row's codes
        ceil-packed to whole bytes plus one FP32 dequantization scale per
        row — multi-column 2-D tables carry per-row scales, single columns
        and 1-D vectors one per-tensor scale (the same layout rule
        ``QuantizedTable`` uses).  Before this accounting the exporter
        merely relabeled FP32 payload bits, so int4 "sizes" ignored both
        packing granularity and scale overhead.
        """
        if self.bits >= 16:
            return self.num_params * self.bits // 8
        if len(self.shape) >= 2 and self.shape[1] > 1:
            rows = self.shape[0]
            row_elems = self.num_params // rows
        else:
            rows, row_elems = 1, self.num_params
        # the storage runtime's own pricing, so export sizes can't drift
        # from what repro.quant actually ships
        return rows * codes_bytes_per_row(row_elems, self.bits)

    @property
    def row_width(self) -> int:
        """Elements one gathered row reads (1 for columns/vectors)."""
        return self.shape[1] if len(self.shape) >= 2 else 1

    def gathered_row_bytes(self) -> int:
        """Bytes one row gather moves at this payload width.

        FP16/FP32 rows are plain element bytes.  Integer rows move their
        ceil-packed codes plus the per-row scale; single-column tables
        share one per-tensor scale, so a gathered row is just its codes —
        floored at one whole byte (sub-byte reads don't exist)."""
        d = self.row_width
        if self.bits >= 16:
            return d * self.bits // 8
        if d > 1:
            return codes_bytes_per_row(d, self.bits)
        return -(-self.bits // 8)


@dataclass(frozen=True)
class Op:
    """One scheduled operator."""

    kind: str  # gather | matmul | one_hot | mul | add | mean_pool | relu | batch_norm | softmax | concat
    name: str
    flops: int
    #: activation bytes written (the op's output buffer)
    activation_bytes: int
    #: weight tensors this op reads
    weights: tuple[str, ...] = ()
    #: for gathers: bytes of table rows actually touched this inference
    touched_bytes: int = 0


@dataclass
class ExportedModel:
    """The unit the device simulator consumes."""

    name: str
    batch_size: int
    ops: list[Op] = field(default_factory=list)
    weights: dict[str, WeightTensor] = field(default_factory=dict)
    #: payload width of the export (32 = FP32; set by :meth:`quantized`)
    bits: int = 32

    def add_weight(self, name: str, shape: tuple[int, ...], storage: str, bits: int = 32) -> str:
        if name in self.weights:
            raise ValueError(f"duplicate weight {name!r}")
        self.weights[name] = WeightTensor(name, tuple(int(s) for s in shape), storage, bits)
        return name

    def on_disk_bytes(self) -> int:
        """Shipped model size: all weight blobs plus a small header."""
        return sum(w.bytes for w in self.weights.values()) + 1024

    def total_flops(self) -> int:
        return sum(op.flops for op in self.ops)

    def peak_activation_bytes(self) -> int:
        """Peak of a simple two-buffer (ping-pong) activation allocator."""
        sizes = [op.activation_bytes for op in self.ops]
        if not sizes:
            return 0
        best = max(sizes)
        pairwise = max(
            (a + b for a, b in zip(sizes, sizes[1:])), default=best
        )
        return max(best, pairwise)

    def quantized(self, bits: int) -> "ExportedModel":
        """A re-quantized copy: genuinely packed payloads at ``bits``.

        Weight bytes follow the packed accounting of
        :attr:`WeightTensor.bytes` (ceil-packed codes + scale overhead),
        and each gather op's ``touched_bytes`` is re-priced row by row —
        rows touched × :meth:`WeightTensor.gathered_row_bytes` at the new
        width, so ceil packing holds per *row* too (a ``(v, 1)`` column
        still moves one whole byte per touched row at int4, never half).
        Activations stay FP32: arithmetic is dequantized, per §5.3 /
        DESIGN.md §7.  Re-pricing derives the row count from this export's
        own width, so re-quantizing a quantized export stays consistent
        with quantizing the FP32 one directly.
        """
        out = ExportedModel(
            name=f"{self.name}@{bits}bit", batch_size=self.batch_size, bits=bits
        )

        def requantize_gather(op: Op) -> Op:
            if op.kind != "gather" or not op.weights or not op.touched_bytes:
                return op
            table = self.weights[op.weights[0]]
            rows = op.touched_bytes // table.gathered_row_bytes()
            quantized_table = WeightTensor(table.name, table.shape, table.storage, bits)
            return Op(
                op.kind,
                op.name,
                op.flops,
                op.activation_bytes,
                op.weights,
                touched_bytes=rows * quantized_table.gathered_row_bytes(),
            )

        out.ops = [requantize_gather(op) for op in self.ops]
        out.weights = {
            k: WeightTensor(w.name, w.shape, w.storage, bits) for k, w in self.weights.items()
        }
        return out


# -- embedding exporter -------------------------------------------------------------


def _export_embedding(em: ExportedModel, emb, b: int, length: int) -> tuple[int, bool]:
    """Emit the embedding stage from its frozen form; ``(width, pooled)``.

    One walk, children first: a gather op per table read, an op per
    combine, priced as the layer computes (every part batch-wide).  The
    hashed one-hot bag is the "matrix approach": it
    materializes the ``(B, m)`` encoding in anonymous memory, then a full
    dense matmul — an O(L·m) scan that makes the Weinberger model's latency
    dataset-independent in Table 3.
    """
    form = emb.frozen()
    n = b * length

    def emit(node) -> tuple[int, int]:
        """Weights + ops of one node; the ``(rows, width)`` it outputs."""
        if isinstance(node, Gather):
            shape = tuple(form.tables[node.table].shape)
            w = em.add_weight(f"embedding.{node.table}", shape, "lookup")
            nbytes = n * shape[1] * _F32
            name = f"embedding.{node.label or node.table}"
            em.ops.append(Op("gather", name, 0, nbytes, (w,), touched_bytes=nbytes))
            return n, shape[1]
        op, parts, args = node.op, node.parts, node.args
        name = f"embedding.{node.label or op}"
        if op == "bag":
            em.ops.append(Op("one_hot", name, n * args[0], b * args[0] * _F32))
            return b, args[0]
        if op == "project":
            rows, width = emit(parts[0])
            shape = tuple(form.tables[args[0]].shape)
            # A one-hot-fed operand is transformed into framework-owned
            # anonymous buffers (the Table 3 memory mechanism).
            storage = "onehot_dense" if form.pooled else "dense"
            w = em.add_weight(f"embedding.{args[0]}", shape, storage)
            flops = 2 * rows * width * shape[1]
            em.ops.append(Op("matmul", name, flops, rows * shape[1] * _F32, (w,)))
            return rows, shape[1]
        if op in ("mul", "add"):
            rows, width = emit(parts[0])
            for part in parts[1:]:
                emit(part)
                em.ops.append(Op(op, name, rows * width, rows * width * _F32))
            return rows, width
        if op == "concat":
            width = sum(emit(part)[1] for part in parts)
            em.ops.append(Op("concat", name, 0, n * width * _F32))
            return n, width
        if op == "tt":
            e1, e2, e3, r = args
            for part in parts:
                emit(part)
            mid = e1 * e2 * r
            em.ops.append(Op("matmul", f"{name}1", 2 * n * e1 * r * e2 * r, n * mid * _F32))
            em.ops.append(Op("matmul", f"{name}2", 2 * n * mid * e3, n * e1 * e2 * e3 * _F32))
            return n, e1 * e2 * e3
        # the remaining combine, masked_sum: each part is gated by its range
        # mask, then accumulated
        for k, part in enumerate(parts):
            rows, width = emit(part)
            em.ops.append(Op("mul", f"{name}.gate{k}", rows * width, rows * width * _F32))
            if k:
                em.ops.append(Op("add", f"{name}.acc{k}", rows * width, rows * width * _F32))
        return rows, width

    return emit(form.root)[1], form.pooled


def _export_tower(em: ExportedModel, b: int, length: int, e: int, pooled: bool) -> None:
    """Pool + ReLU + BatchNorm (inference folds dropout away)."""
    if not pooled:
        em.ops.append(Op("mean_pool", "pool", b * length * e, b * e * _F32))
    em.ops.append(Op("relu", "relu", b * e, b * e * _F32))
    bn = em.add_weight("norm.scale_shift", (2 * e,), "lookup")
    em.ops.append(Op("batch_norm", "norm", 4 * b * e, b * e * _F32, (bn,)))


def _export_dense(em: ExportedModel, name: str, b: int, d_in: int, d_out: int, bias: bool = True) -> None:
    w = em.add_weight(f"{name}.weight", (d_in, d_out), "dense")
    weights = [w]
    if bias:
        weights.append(em.add_weight(f"{name}.bias", (d_out,), "lookup"))
    em.ops.append(
        Op("matmul", name, 2 * b * d_in * d_out, b * d_out * _F32, tuple(weights))
    )


def export_model(model, batch_size: int = 1, name: str | None = None) -> ExportedModel:
    """Export a paper model to the device IR.

    Table 3 uses ``batch_size=1`` (the on-device setting); larger batches
    scale activations and touched rows accordingly.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    b = batch_size
    kinds = {EmbeddingClassifier: "classifier", PointwiseRanker: "pointwise", RankNet: "ranknet"}
    kind = next((k for cls, k in kinds.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"no exporter for model type {type(model).__name__}")
    em = ExportedModel(name or kind, b)
    e, pooled = _export_embedding(em, model.embedding, b, model.input_length)
    _export_tower(em, b, model.input_length, e, pooled)

    if kind == "classifier":
        hidden = model.hidden.units
        _export_dense(em, "hidden", b, e, hidden)
        em.ops.append(Op("relu", "hidden.relu", b * hidden, b * hidden * _F32))
        bn2 = em.add_weight("norm2.scale_shift", (2 * hidden,), "lookup")
        em.ops.append(Op("batch_norm", "norm2", 4 * b * hidden, b * hidden * _F32, (bn2,)))
        c = model.num_labels
        _export_dense(em, "output", b, hidden, c)
        em.ops.append(Op("softmax", "softmax", 5 * b * c, b * c * _F32))
    elif kind == "pointwise":
        c = model.num_items
        _export_dense(em, "output", b, e, c)
        em.ops.append(Op("softmax", "softmax", 5 * b * c, b * c * _F32))
    else:
        # Catalog scoring matmul + per-item bias.
        _export_dense(em, "item_scores", b, e, model.num_items)
    return em
