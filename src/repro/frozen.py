"""One frozen form per embedding technique: tables, index maps, one combine.

Training composes a row through autograd ops; serving, integer storage and
the device export only need to know *what* a technique computes.  Every
technique's ``frozen()`` states that as data — a :class:`FrozenForm`: named
2-D **tables** (a ``Parameter`` of the live module, the plain FP32 array an
artifact stores, or once calibrated a :class:`~repro.quant.QuantizedTable`)
and a tree of :class:`Gather` leaves (one gather per table through an index
map of :data:`INDEX_MAPS`) under :class:`Combine` nodes (one op of
:data:`COMBINES`) — the idiom of one lookup op plus an aggregator
(SNIPPETS.md 1–2).  Each ``frozen()`` repeats its module's eval forward op
for op, so :func:`compose` returns the module's rows bit for bit.  The form
is data, not a callable, because three readers consume it: the serving
engine composes FP32 rows from snapshot gathers, :mod:`repro.quant` stores
every table as integer codes, and :mod:`repro.device.export` prices each
node as device ops.  Artifacts store it at every width: the tree as JSON
(:meth:`FrozenForm.spec`), one payload per table.  This module imports
only numpy, so serving a stored form loads no training code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "COMBINES", "HASH_PRIME", "INDEX_MAPS", "Combine", "FrozenForm", "Gather",
    "compose", "hashed_bag", "index_rows", "universal_hash",
]

# A Mersenne prime comfortably above every vocabulary in Table 2; universal
# hashing needs p > max id.
HASH_PRIME = (1 << 61) - 1

#: index maps a gather may apply to the ids:
#: ``id``; ``mod m``; ``div m``; ``digit d r`` = ``(id // d) % r`` (a TT
#: digit); ``clip keep`` = ids above ``keep`` share row ``keep + 1`` (the
#: truncate remap); ``hash m a b`` = salted :func:`universal_hash`;
#: ``range lo hi`` = ``id - lo`` inside ``[lo, hi)``, row 0 outside.
INDEX_MAPS = ("id", "mod", "div", "digit", "clip", "hash", "range")

#: combine ops: ``mul`` / ``add`` fold their parts left to right in place
#: (broadcasting a ``(n, 1)`` column); ``concat`` joins them along the
#: row; ``tt`` is the tensor-train contraction of three core slices
#: (args ``e1, e2, e3, r``); ``project`` multiplies its one part by the
#: whole table named in args; ``masked_sum`` sums each part times its
#: range mask (args: one ``(lo, hi)`` per part); ``bag`` is the pooled
#: hashed one-hot encoding of ``(B, L)`` ids (args: :func:`hashed_bag`'s).
COMBINES = ("mul", "add", "concat", "tt", "project", "masked_sum", "bag")


@dataclass(frozen=True)
class Gather:
    """Rows of ``table`` at ``index_rows(index, ids)``."""

    table: str
    index: tuple = ("id",)
    #: export op name (defaults to the table name)
    label: str = ""


@dataclass(frozen=True)
class Combine:
    """One op of :data:`COMBINES` over ``parts``."""

    op: str
    parts: tuple = ()
    args: tuple = ()
    #: export op name (defaults to the op)
    label: str = ""


Node = Union[Gather, Combine]


@dataclass(frozen=True)
class FrozenForm:
    """A technique's eval forward as data: tables plus one node tree."""

    technique: str
    vocab_size: int
    output_dim: int
    tables: dict
    root: Node

    @property
    def combine_ops(self) -> frozenset:
        """The :data:`COMBINES` ops in the tree (empty for one gather)."""
        return frozenset(n.op for n in _walk(self.root) if isinstance(n, Combine))

    @property
    def pooled(self) -> bool:
        """Whether the output is one pooled row per ``(B, L)`` request
        rather than one row per id (the hashed one-hot bag)."""
        return "bag" in self.combine_ops

    def spec(self) -> dict:
        """The JSON-serializable tree (tables travel separately)."""
        return _node_spec(self.root)

    @classmethod
    def from_spec(
        cls, spec: dict, tables: dict, *, technique: str, vocab_size: int,
        output_dim: int,
    ) -> "FrozenForm":
        """Inverse of :meth:`spec` over ``tables``; raises ``KeyError`` /
        ``ValueError`` when the tree is malformed or names a missing table."""
        root = _node_from_spec(spec)
        for node in _walk(root):
            name = node.table if isinstance(node, Gather) else (
                node.args[0] if node.op == "project" else None
            )
            if name is not None and name not in tables:
                raise KeyError(f"form references no table {name!r}")
        return cls(technique, int(vocab_size), int(output_dim), dict(tables), root)


def _walk(node: Node):
    yield node
    if isinstance(node, Combine):
        for part in node.parts:
            yield from _walk(part)


def _node_spec(node: Node) -> dict:
    if isinstance(node, Gather):
        return {"gather": node.table, "index": node.index}
    parts = [_node_spec(p) for p in node.parts]
    return {"combine": node.op, "parts": parts, "args": node.args}


def _node_from_spec(spec: dict) -> Node:
    if "gather" in spec:
        index = tuple(spec["index"])
        if index[0] not in INDEX_MAPS:
            raise ValueError(f"unknown index map {index[0]!r}")
        return Gather(str(spec["gather"]), index)
    if spec["combine"] not in COMBINES:
        raise ValueError(f"unknown combine {spec['combine']!r}")
    parts = tuple(_node_from_spec(p) for p in spec["parts"])
    return Combine(spec["combine"], parts, tuple(spec["args"]))


# -- evaluation ---------------------------------------------------------------------


def universal_hash(indices: np.ndarray, m: int, a: int, b: int) -> np.ndarray:
    """Salted 64-bit mixing hash of ids into ``[0, m)``.

    ``(a, b)`` select a member of the family (two members behave like
    independent hash functions, which double hashing requires).  The mixer
    is the splitmix64 finalizer — a naive affine hash ``(a·i + b) mod m``
    is *not* good enough here: for ids below the modulus it degenerates to
    a function of ``i mod m``, making the two double-hashing functions
    perfectly correlated and destroying the ``1/m²`` collision rate the
    technique is built on.
    """
    if m <= 0:
        raise ValueError("hash range m must be positive")
    if not 1 <= a < HASH_PRIME or not 0 <= b < HASH_PRIME:
        raise ValueError("hash coefficients out of range")
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"hash input must be integers, got {idx.dtype}")
    with np.errstate(over="ignore"):
        z = idx.astype(np.uint64) + np.uint64(a & 0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = z + np.uint64(b & 0xFFFFFFFFFFFFFFFF) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(m)).astype(np.int64)


def index_rows(index: tuple, ids: np.ndarray) -> np.ndarray:
    """Apply one index map (see :data:`INDEX_MAPS`) to ``ids``."""
    kind, *args = index
    if kind == "id":
        return ids
    if kind == "mod":
        return ids % args[0]
    if kind == "div":
        return ids // args[0]
    if kind == "digit":
        return (ids // args[0]) % args[1]
    if kind == "clip":
        return np.where(ids <= args[0], ids, args[0] + 1)
    if kind == "hash":
        return universal_hash(ids, *args)
    if kind == "range":
        lo, hi = args
        return np.where((ids >= lo) & (ids < hi), ids - lo, 0)
    raise ValueError(f"unknown index map {kind!r}")


def hashed_bag(
    indices: np.ndarray, m: int, a: int, b: int, sign_a: int, sign_b: int,
    signed: bool, average: bool,
) -> np.ndarray:
    """Weinberger's hashed bag: ``(batch, length)`` ids → ``(batch, m)``.

    Each id adds its sign (±1 from a second salted hash when ``signed``,
    else 1) to bucket ``universal_hash(id, m, a, b)`` of its row;
    ``average`` divides by the length.
    """
    batch, length = indices.shape
    buckets = universal_hash(indices, m, a, b)
    if signed:
        signs = (universal_hash(indices, 2, sign_a, sign_b) * 2 - 1).astype(np.float32)
    else:
        signs = np.ones(indices.shape, dtype=np.float32)
    encoded = np.zeros((batch, m), dtype=np.float32)
    rows = np.repeat(np.arange(batch), length)
    np.add.at(encoded, (rows, buckets.ravel()), signs.ravel())
    if average:
        encoded /= length
    return encoded


def compose(form: FrozenForm, gather: Callable, ids: np.ndarray) -> np.ndarray:
    """Evaluate ``form`` on ``ids``, reading tables through ``gather``.

    ``gather(table, rows)`` returns fresh FP32 rows of the named table
    (``rows=None``: the whole table, a projection's weight).  Per-id forms
    map flat ids to ``(n, output_dim)`` rows, a pooled form ``(B, L)`` ids
    to ``(B, output_dim)``.
    """
    return _eval(form.root, gather, np.asarray(ids))


def _eval(node: Node, gather: Callable, ids: np.ndarray) -> np.ndarray:
    if isinstance(node, Gather):
        return gather(node.table, index_rows(node.index, ids))
    op, parts, args = node.op, node.parts, node.args
    if op in ("mul", "add"):
        # Gathers and combines return fresh buffers, so the fold may
        # write into its first part — the same floats a new array holds.
        acc = _eval(parts[0], gather, ids)
        fold = np.multiply if op == "mul" else np.add
        for part in parts[1:]:
            fold(acc, _eval(part, gather, ids), out=acc)
        return acc
    if op == "concat":
        return np.concatenate([_eval(p, gather, ids) for p in parts], axis=-1)
    if op == "project":
        return _eval(parts[0], gather, ids) @ gather(args[0], None)
    if op == "tt":
        e1, e2, e3, r = args
        n = ids.size
        g1, g2, g3 = (_eval(p, gather, ids) for p in parts)
        left = np.matmul(g1.reshape(n, e1, r), g2.reshape(n, r, e2 * r))
        rows = np.matmul(left.reshape(n, e1 * e2, r), g3.reshape(n, r, e3))
        return rows.reshape(n, e1 * e2 * e3)
    if op == "masked_sum":
        acc = None
        for part, (lo, hi) in zip(parts, args):
            mask = ((ids >= lo) & (ids < hi)).astype(np.float32)[:, None]
            term = _eval(part, gather, ids) * mask
            acc = term if acc is None else acc + term
        return acc
    if op == "bag":
        return hashed_bag(ids, *args)
    raise ValueError(f"unknown combine {op!r}")
