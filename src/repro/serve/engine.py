"""Freeze a trained model into a forward-only NumPy serving plan.

Training needs the autograd graph; serving does not.  ``InferenceEngine``
walks a paper model once at construction, snapshots its weights, and builds
a chain of plain-ndarray closures that mirror the eval-mode forward pass
operation for operation (same primitives, same association order, same
dtypes), so engine outputs match ``model.eval()`` + ``forward`` without
paying graph construction per request — and keep matching after the live
model trains on, because the plan owns copies of the weights.

The embedding stage serves the technique's frozen form
(:mod:`repro.core.frozen`): every technique states its eval forward as
tables, gathers and one combine, and this module evaluates it over
snapshots of the tables — one path for every technique, no module
fallback.  A read-only (mmap-backed) table is its own snapshot, so a
mapped artifact is served without copying its tables.

An optional **LRU hot-row cache** (:class:`repro.serve.cache.LRUCache`)
keyed on id stores *composed* FP32 embedding rows.  Each batch coalesces
its ids, serves hits from the cache, computes only the misses and inserts
them.  Because embedding composition is per-id (every technique except the
pooled one-hot encoder), a cached row is byte-for-byte the row the miss
path computes.  A hit costs a lookup, an insert and a row copy, so the
engine builds a requested cache only where a miss costs more: a static
rule over the plan's form, width and request length (:func:`_cache_declined`,
measured in DESIGN.md §6) keeps it for TT contractions and masked
projections, and for quantized gather-plus-elementwise rows in requests
of at least 2048 embedding values.  Other plans serve uncached.

In the **quantized plan** (``bits=8`` or ``bits=4``) the embedding is
calibrated into :class:`repro.quant.QuantizedEmbedding` integer storage —
every form table as int8 codes + scales (int4 packs two codes per byte) —
and served by the same plan as FP32 over different tables: each gather is
the table's fused gather→dequantize, a projection weight its ``dense()``
decode, and the combine runs in FP32.  Composed rows are rounded once, at
calibration; a one-gather form serves its stored codes.  The whole plan,
cached or not, matches a plain FP32 engine over
``QuantizedEmbedding.dequantized()`` bit-for-bit (DESIGN.md §7).  The tower
stays FP32 — the paper's on-device setting stores weights quantized but
computes in FP32.

Each embedding row is moved once: ``predict`` gathers a batch's rows
*position-major* (every request's first id, then every second, ...) into
a fresh array and hands the tower a ``(B, L, e)`` view, so the mean-pool
adds whole ``(B, e)`` planes in the model's order over L.  An e = 1 plan
keeps request-major rows, because numpy sums a contiguous width-1 window
pairwise (DESIGN.md §6).

The tower freeze itself lives in :mod:`repro.artifact.plan` as plain data
(:class:`~repro.artifact.plan.TowerPlan`), so :meth:`InferenceEngine.from_parts`
can assemble the identical closure chain from an on-disk
:class:`~repro.artifact.ModelArtifact` — no model object required
(DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.artifact.errors import ArtifactFormatError
from repro.artifact.plan import TowerPlan, build_tower, tower_plan_of
from repro.core.frozen import compose
from repro.quant.embedding import QuantizedEmbedding, quantize_embedding
from repro.quant.table import QuantizedTable
from repro.serve.cache import LRUCache

__all__ = ["InferenceEngine"]


# -- frozen weight access -------------------------------------------------------


def _snapshot(arr: np.ndarray) -> np.ndarray:
    """Freeze-copy ``arr`` — unless it is already frozen.

    The engine copies model arrays so later training cannot mutate the
    serving plan.  A *read-only* array (an mmap-backed artifact payload)
    cannot belong to a live training model and cannot be mutated by anyone,
    so it is its own snapshot: copying it would materialize the exact bytes
    the zero-copy load exists not to read.
    """
    return arr if not arr.flags.writeable else arr.copy()


def _freeze_table(table) -> tuple["callable", int]:
    """``(take, nbytes)``: a row getter over a frozen table, and its bytes.

    ``ids=None`` returns the whole table (a projection weight).  A
    ``Parameter`` serves a snapshot of its array, and a gather is a plain
    ``take`` into a fresh array: it raises on an out-of-range row, and
    numpy's ``take(out=)`` would copy ``out`` into a temporary and back
    rather than save the allocation.  A calibrated ``QuantizedTable`` is
    never trained, so it is served as it is: a gather is its fused
    gather→dequantize, the whole table its ``dense()`` decode.
    """
    if isinstance(table, QuantizedTable):
        def take_decoded(ids: np.ndarray | None) -> np.ndarray:
            return table.dense() if ids is None else table.gather(ids)

        return take_decoded, table.nbytes
    arr = _snapshot(table.data)

    def take_dense(ids: np.ndarray | None) -> np.ndarray:
        return arr if ids is None else arr.take(ids, axis=0)

    return take_dense, arr.nbytes


def _freeze_form(form) -> tuple["callable", int]:
    """``(compose_fn, table_bytes)`` over a form's frozen tables — the plan
    of every technique at every width.  ``compose_fn(ids)`` composes one
    fresh FP32 row per flat id, or one pooled row per ``(B, L)`` request."""
    takes, table_bytes = {}, 0
    for name, table in form.tables.items():
        takes[name], nbytes = _freeze_table(table)
        table_bytes += nbytes
    form = replace(form, tables={})  # the plan holds snapshots, not live tables

    def gather(name: str, rows) -> np.ndarray:
        return takes[name](rows)

    def rows(ids: np.ndarray) -> np.ndarray:
        return compose(form, gather, ids)

    return rows, table_bytes


#: combines whose miss costs real arithmetic at any width: the TT
#: contraction, and the masked sum of per-block projections
_COSTLY_COMBINES = frozenset({"tt", "masked_sum"})

#: combines of whole gathered rows: a quantized miss decodes every value
#: of every row it gathers
_ROWWISE_COMBINES = frozenset({"mul", "add", "concat"})

#: embedding values per request (input length × row width) from which a
#: quantized plan's rowwise-combined rows cost more than a cache hit
_QUANTIZED_CACHE_VALUES = 2048


def _cache_declined(form, bits: int, input_length: int) -> str | None:
    """Why a hot-row cache would not pay on this plan; ``None`` if it does.

    A hit costs a lookup, an insert and a row copy.  That pays for a TT
    contraction or masked projections at any width.  It does not pay for
    one gather, nor for gathers joined by ``mul``/``add``/``concat`` or one
    ``project``, except in a quantized plan whose requests carry at least
    ``_QUANTIZED_CACHE_VALUES`` embedding values: there a miss decodes every
    gathered row, while the cache composes only a batch's distinct misses,
    so ``mul``/``add``/``concat`` rows pay (DESIGN.md §6 has the measured
    table).
    """
    if form.pooled:
        return "pooled output has no per-id rows"
    ops = form.combine_ops
    if ops & _COSTLY_COMBINES:
        return None
    if not ops:
        return "a row is one gather, which costs less than a cache hit"
    reason = (
        f"a row is gathers plus {'/'.join(sorted(ops))}, which costs less "
        "than a cache hit"
    )
    if bits == 32 or not ops & _ROWWISE_COMBINES:
        return reason
    if input_length * form.output_dim >= _QUANTIZED_CACHE_VALUES:
        return None
    return f"{reason} below {_QUANTIZED_CACHE_VALUES} values per request"


class InferenceEngine:
    """Forward-only serving plan for a classifier / pointwise / RankNet model.

    Parameters
    ----------
    model:
        A trained (or freshly built) paper model.  It is switched to eval
        mode; its weights are snapshotted, so later training does not change
        the plan.
    cache_rows:
        Capacity of the LRU hot-row cache (number of composed embedding
        rows) where the plan's rows are expensive enough to cache; ``None``
        disables caching.  Plans the cache would slow down (one gather,
        gathers plus elementwise ops at FP32 or in short quantized
        requests, the pooled one-hot encoder) decline it: ``cache`` stays
        ``None`` and ``cache_declined`` says why.
    bits:
        ``None``/``32`` serves FP32 (the default).  ``8`` or ``4`` builds
        the quantized plan: integer-storage embedding tables served through
        fused gather→dequantize, composed and pooled in FP32.
    calibration_percentile:
        Optional outlier-clipped calibration for the quantized plan (e.g.
        ``99.9``); ``None`` uses per-row absmax.
    cache_min_count:
        Cache admission threshold: an id enters the cache only on its
        ``min_count``-th missed insert attempt (1 = admit immediately).
    cache_ttl:
        TTL (in lookup batches) for the admission counters: every
        ``cache_ttl`` batches the per-id attempt counts decay by half, so
        ids hot under yesterday's traffic must re-earn admission under
        today's (``None`` disables decay).
    """

    def __init__(
        self,
        model,
        cache_rows: int | None = None,
        bits: int | None = None,
        calibration_percentile: float | None = None,
        cache_min_count: int = 1,
        cache_ttl: int | None = None,
    ) -> None:
        if not hasattr(model, "embedding") or not hasattr(model, "input_length"):
            raise TypeError(f"no serving plan for model type {type(model).__name__}")
        model.eval()
        self._init_plan(
            model.embedding,
            tower_plan_of(model),
            model_name=type(model).__name__,
            input_length=model.input_length,
            bits=bits,
            calibration_percentile=calibration_percentile,
            cache_rows=cache_rows,
            cache_min_count=cache_min_count,
            cache_ttl=cache_ttl,
        )

    @classmethod
    def from_parts(
        cls,
        embedding,
        tower_plan: TowerPlan,
        *,
        input_length: int,
        model_name: str = "artifact",
        cache_rows: int | None = None,
        bits: int | None = None,
        calibration_percentile: float | None = None,
        cache_min_count: int = 1,
        cache_ttl: int | None = None,
    ) -> "InferenceEngine":
        """Assemble an engine from pre-frozen parts — the artifact load path.

        ``embedding`` is either a technique module (FP32 serving, or
        freshly calibrated here when ``bits`` is 8/4) or an already-stored
        :class:`~repro.quant.QuantizedEmbedding`, whose codes are adopted
        *without* recalibration — that is what keeps a loaded artifact
        bit-identical to the engine it was saved from.
        """
        self = object.__new__(cls)
        self._init_plan(
            embedding,
            tower_plan,
            model_name=model_name,
            input_length=input_length,
            bits=bits,
            calibration_percentile=calibration_percentile,
            cache_rows=cache_rows,
            cache_min_count=cache_min_count,
            cache_ttl=cache_ttl,
        )
        return self

    @classmethod
    def from_artifact(cls, artifact, config) -> "InferenceEngine":
        """Build the serving plan of a loaded artifact under a ``ServeConfig``.

        The one artifact → engine builder: :class:`~repro.serve.ServeSession`
        serves it, and the multi-process runtime's fallback and every
        replica worker build theirs here from the same artifact and config
        (the hot-row cache decision included), so all of them run the same
        floats.  An already-quantized artifact cannot be served at a
        different width.
        """
        embedding = artifact.serving_embedding()
        if isinstance(embedding, QuantizedEmbedding) and config.bits not in (
            None, embedding.bits,
        ):
            raise ArtifactFormatError(
                f"artifact stores int{embedding.bits} codes; cannot serve it "
                f"at bits={config.bits} (re-export from the FP32 model instead)"
            )
        return cls.from_parts(
            embedding,
            artifact.tower_plan(),
            input_length=artifact.input_length,
            model_name=artifact.architecture,
            cache_rows=config.cache_rows,
            bits=config.bits,
            calibration_percentile=config.calibration_percentile,
            cache_min_count=config.cache_min_count,
            cache_ttl=config.cache_ttl_batches,
        )

    def _init_plan(
        self,
        embedding,
        tower_plan: TowerPlan,
        *,
        model_name: str,
        input_length: int,
        bits: int | None,
        calibration_percentile: float | None,
        cache_rows: int | None,
        cache_min_count: int,
        cache_ttl: int | None,
    ) -> None:
        """Shared body of both constructors: calibrate the embedding when
        ``bits`` asks for integer storage, then wire plan, cache and tower."""
        if isinstance(embedding, QuantizedEmbedding):
            if bits is not None and int(bits) != embedding.bits:
                raise ValueError(
                    f"bits={bits} conflicts with the quantized embedding's "
                    f"int{embedding.bits} storage"
                )
            bits = embedding.bits
            form = embedding.form
        else:
            bits = 32 if bits is None else int(bits)
            if bits not in (32, 8, 4):
                raise ValueError(f"serving bits must be 32, 8 or 4, got {bits}")
            if bits == 32:
                form = embedding.eval().frozen()
            else:
                # Calibrate into integer storage (raises for the pooled
                # one-hot encoder, which has no per-row storage).
                form = quantize_embedding(
                    embedding, bits, percentile=calibration_percentile
                ).form
        self.model_name = model_name
        self.input_length = int(input_length)
        self.bits = bits
        self.requests_served = 0
        self.batches_served = 0
        # Every plan serves its form through _freeze_form, so there is no
        # QuantizedEmbedding to hold; the perf benchmark's tracer
        # (benchmarks/perf/measured.py::instrument) still reads this.
        self._qemb = None
        self._embed_rows, self._table_bytes = _freeze_form(form)
        self.embedding_dim = form.output_dim
        self.vocab_size = form.vocab_size
        self._embed_pooled = None
        if form.pooled:
            self._embed_pooled, self._embed_rows = self._embed_rows, None
        if cache_rows is not None and cache_rows <= 0:
            raise ValueError(f"cache capacity must be positive, got {cache_rows}")
        self.cache: LRUCache | None = None
        #: why the requested hot-row cache was not built (``None`` otherwise)
        self.cache_declined = (
            None if cache_rows is None
            else _cache_declined(form, bits, self.input_length)
        )
        if cache_rows is not None and self.cache_declined is None:
            self.cache = LRUCache(
                cache_rows,
                self.embedding_dim,
                id_range=self.vocab_size,
                min_count=cache_min_count,
                count_ttl=cache_ttl,
            )
        self._tower = build_tower(tower_plan)

    # -- embedding with the hot-row cache --------------------------------------

    def _embed(self, flat: np.ndarray) -> np.ndarray:
        if self.cache is None:
            return self._embed_rows(flat)
        # Misses — the Zipf tail — are coalesced, composed, and inserted
        # first; the whole batch then assembles with ONE gather from the row
        # store (the hit path's only per-request work).
        slots = self.cache.lookup(flat)
        miss_at = np.flatnonzero(slots < 0)
        if not miss_at.size:
            return self.cache.rows(slots)
        miss_ids, inverse = np.unique(flat[miss_at], return_inverse=True)
        inverse = inverse.ravel()
        miss_rows = self._embed_rows(miss_ids)
        miss_slots = self.cache.insert(miss_ids, miss_rows)
        expanded = miss_slots[inverse]
        slots[miss_at] = expanded
        dropped = np.flatnonzero(expanded < 0)
        if not dropped.size:
            return self.cache.rows(slots)
        # Rows the cache declined to store (admission-rejected, or overflow
        # beyond the evictable slots): splice their computed values in
        # directly.
        out = self.cache.rows(np.where(slots >= 0, slots, 0))
        out[miss_at[dropped]] = miss_rows[inverse[dropped]]
        return out

    # -- accounting ------------------------------------------------------------

    def table_resident_bytes(self) -> int:
        """Bytes resident for the embedding representation this plan serves.

        FP32 plans count the snapshot tables; quantized plans count the
        integer codes plus scales (`repro.quant` storage).  The hot-row
        cache is separate — see ``cache.store_nbytes()``.
        """
        return self._table_bytes

    # -- per-id reference ------------------------------------------------------

    def compose_rows(self, flat_ids: np.ndarray) -> np.ndarray:
        """FP32 composed rows for a flat id vector — the per-id reference.

        Deterministic per id and never touches the hot-row cache, so it
        yields the bytes ``predict`` embeds whether a row was cached or
        not; with :meth:`apply_tower` it rebuilds any served score from
        first principles (the benchmark's output check does this).
        """
        if self._embed_pooled is not None:
            raise ValueError(
                f"{self.model_name}'s pooled embedding output is not per-id; "
                "it has no rows to compose"
            )
        flat = np.asarray(flat_ids).ravel()
        if flat.size and (flat.min() < 0 or flat.max() >= self.vocab_size):
            raise IndexError(
                f"id out of range [0, {self.vocab_size}): "
                f"[{flat.min()}, {flat.max()}]"
            )
        return np.ascontiguousarray(self._embed_rows(flat), dtype=np.float32)

    def apply_tower(self, h: np.ndarray) -> np.ndarray:
        """Run the frozen tower over ``(B, L, e)`` embedded inputs.

        Public so :meth:`compose_rows` output can be finished with exactly
        the closures ``predict`` uses.
        """
        return self._tower(h)

    def validate_ids(self, ids: np.ndarray) -> np.ndarray:
        """Normalize a request batch to ``(B, input_length)`` or raise —
        the dtype/shape/range contract shared by ``predict`` and the runtime."""
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":
            raise TypeError(f"request ids must be integers, got {ids.dtype}")
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] != self.input_length:
            raise ValueError(
                f"expected (batch, {self.input_length}) ids, got shape {ids.shape}"
            )
        # Under the unsigned view of the ids' int64 copy (none for native
        # int64) a negative id reads as a huge one, so one reduction covers
        # both ends of the range; uint64 ids >= 2**63 wrap and read huge too.
        unsigned = ids.astype(np.int64, copy=False).view(np.uint64)
        if ids.size and unsigned.max() >= self.vocab_size:
            raise IndexError(
                f"id out of range [0, {self.vocab_size}): "
                f"[{ids.min()}, {ids.max()}]"
            )
        return ids

    # -- serving ---------------------------------------------------------------

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Scores/logits for a ``(B, input_length)`` batch of id sequences.

        Matches the eval-mode ``model.forward`` output on the same batch
        (``tests/serve/test_engine.py`` pins the agreement per architecture
        and technique).
        """
        ids = self.validate_ids(ids)
        if self._embed_pooled is not None:
            h = self._embed_pooled(ids)
        elif self.embedding_dim == 1:
            # numpy sums a request's width-1 window pairwise, as the model's
            # request-major forward does; position-major rows would not.
            h = self._embed(ids.ravel()).reshape(ids.shape + (1,))
        else:
            # Position-major rows (every request's first id, then every
            # second, ...): the mean-pool then adds whole (B, e) planes, in
            # the same order over L as the request-major forward.
            b, length = ids.shape
            rows = self._embed(ids.T.ravel())
            h = rows.reshape(length, b, self.embedding_dim).transpose(1, 0, 2)
        self.requests_served += ids.shape[0]
        self.batches_served += 1
        return self._tower(h)

    def predict_one(self, ids: np.ndarray | int) -> np.ndarray:
        """Scores for a single request: an ``(input_length,)`` id sequence,
        or a bare id when the input length is 1 (as ``Batcher.submit``)."""
        return self.predict(np.atleast_1d(ids)[None, :])[0]

    def __repr__(self) -> str:
        cache = (
            f", cache={self.cache.capacity} rows" if self.cache
            else f", cache declined: {self.cache_declined}" if self.cache_declined
            else ""
        )
        quant = f", int{self.bits}" if self.bits != 32 else ""
        return (
            f"InferenceEngine({self.model_name}, L={self.input_length}, "
            f"e={self.embedding_dim}{quant}{cache})"
        )
