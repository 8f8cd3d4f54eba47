"""LRU hot-row cache for embedding serving (FP32 rows or quantized codes).

Request traffic over a frequency-sorted vocabulary is Zipf-distributed
(§4 of the paper), so a small cache of composed embedding rows absorbs most
lookups: the head ids recur in nearly every batch.  The cache stores *final*
per-id embedding vectors (for TT-Rec, the contracted row), keyed on the raw
id.  The serving engine builds one only where composing a row costs more
than a hit (DESIGN.md §6).

The layout is built so the hot path is pure vectorized NumPy:

* rows live in one preallocated ``(capacity, dim)`` array, so a batch of
  hits assembles with a single fancy-index gather;
* when the id universe is known (``id_range``, the serving engine always
  passes the vocabulary size), the id→slot map is a flat int32 array and a
  batch lookup is one gather — no per-id Python at all.  Without
  ``id_range`` a dict map is used (generic, slower);
* recency is a per-slot timestamp updated vectorized, and eviction picks
  the least-recent slots with one ``argpartition`` per insert.  This is
  exact LRU at *batch* granularity: every id touched by the same lookup
  call shares a timestamp (ties broken arbitrarily), which is the natural
  grain when requests arrive batched.

**Admission** (``min_count=k``): an id is only admitted after its k-th
insert attempt — one-hit-wonder tail traffic then stops evicting the Zipf
head (rejected inserts return slot −1 and the engine splices the computed
row in directly, so admission never changes served values).

**Admission TTL** (``count_ttl=n``): the attempt counters otherwise grow
forever, so an id that was hot last week clears ``min_count`` on its first
re-appearance indefinitely — stale popularity permanently greases
admission under non-stationary traffic.  With a TTL, every ``n`` lookup
batches the counters decay by half (exponential forgetting at batch
granularity): sustained traffic keeps its ids admitted, lapsed ids must
re-earn their count.  Decay touches bookkeeping only — served values never
change, exactly like admission itself.

**Cache of codes** (:class:`QuantizedRowCache`): the quantized serving plan
stores integer codes plus one FP32 scale per row instead of FP32 rows —
``dim + 4`` bytes per int8 row against ``4·dim`` FP32, so the same byte
budget holds ≈4× more rows (≈7× at int4).  ``rows()`` decodes through the
same kernel the miss path uses, which keeps hits bit-identical to misses
(``tests/serve/test_quantized_engine.py`` pins this; DESIGN.md §7).
"""

from __future__ import annotations

import numpy as np

from repro.quant.kernels import codes_bytes_per_row, decode_rows

__all__ = ["LRUCache", "QuantizedRowCache", "rows_for_budget"]


def rows_for_budget(budget_bytes: int, dim: int, bits: int = 32) -> int:
    """Cache capacity (rows) affordable within ``budget_bytes``.

    ``bits=32`` prices FP32 rows; 8/4 price quantized codes plus the
    per-row scale.  The serving benches use this to compare caches at an
    equal byte budget.
    """
    per_row = 4 * dim if bits == 32 else codes_bytes_per_row(dim, bits)
    return max(1, int(budget_bytes) // per_row)


class LRUCache:
    """Fixed-capacity LRU of embedding rows keyed by integer id."""

    def __init__(
        self,
        capacity: int,
        dim: int,
        dtype: np.dtype = np.float32,
        id_range: int | None = None,
        min_count: int = 1,
        count_ttl: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        if dim <= 0:
            raise ValueError(f"row dim must be positive, got {dim}")
        if min_count <= 0:
            raise ValueError(f"min_count must be positive, got {min_count}")
        if count_ttl is not None and count_ttl <= 0:
            raise ValueError(f"count_ttl must be positive, got {count_ttl}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.min_count = int(min_count)
        self.count_ttl = int(count_ttl) if count_ttl is not None else None
        self._last_decay_tick = 0
        self._alloc_store(dtype)
        #: vectorized id→slot map when the universe is known, else a dict
        self._map: np.ndarray | None = (
            np.full(int(id_range), -1, dtype=np.int32) if id_range is not None else None
        )
        self._slot: dict[int, int] = {}
        #: admission counters (insert attempts per id), only when min_count>1
        self._counts: np.ndarray | None = (
            np.zeros(int(id_range), dtype=np.int32)
            if id_range is not None and self.min_count > 1
            else None
        )
        self._count_dict: dict[int, int] = {}
        #: id occupying each slot (−1 = free); mirrors the map for eviction
        self._slot_id = np.full(capacity, -1, dtype=np.int64)
        #: batch-granularity recency: tick of the last lookup/insert touch
        self._last_used = np.full(capacity, -1, dtype=np.int64)
        self._next_free = 0  # slots [next_free, capacity) never used yet
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0  # insert attempts turned away by admission

    # -- storage hooks (overridden by QuantizedRowCache) -----------------------

    def _alloc_store(self, dtype: np.dtype) -> None:
        self._store = np.empty((self.capacity, self.dim), dtype=dtype)

    def _check_payload(self, payload, k: int) -> None:
        payload = np.asarray(payload)
        if payload.shape != (k, self.dim):
            raise ValueError(f"rows shape {payload.shape} != ({k}, {self.dim})")

    def _take_payload(self, payload, sel: np.ndarray):
        return np.asarray(payload)[sel]

    def _write(self, slots: np.ndarray, payload, stored: int) -> None:
        self._store[slots] = np.asarray(payload)[:stored]

    def store_nbytes(self) -> int:
        """Bytes of the row store (the capacity × per-row payload budget)."""
        return int(self._store.nbytes)

    def bytes_per_row(self) -> int:
        return int(self._store.itemsize) * self.dim

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """Gather stored rows by slot into a fresh array (callers filter
        out −1 first)."""
        return self._store.take(slots, axis=0)

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot) if self._map is None else int(np.count_nonzero(self._map >= 0))

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up ids served from the cache (0 if unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Slot of each id, or −1 for a miss; hits are marked most-recent.

        ``ids`` may contain duplicates (stats count per occurrence; the
        engine looks up per lookup occurrence and coalesces misses only).
        """
        self._tick += 1
        self._maybe_decay()
        ids = np.asarray(ids)
        if self._map is not None:
            slots = self._map[ids].astype(np.int64)
        else:
            slot_map = self._slot
            slots = np.fromiter(
                (slot_map.get(i, -1) for i in ids.tolist()),
                dtype=np.int64,
                count=ids.size,
            )
        hit = slots >= 0
        n_hits = int(np.count_nonzero(hit))
        self.hits += n_hits
        self.misses += ids.size - n_hits
        if n_hits:
            self._last_used[slots[hit]] = self._tick
        return slots

    def _maybe_decay(self) -> None:
        """Halve the admission counters once per elapsed ``count_ttl`` ticks.

        Exponential forgetting: an id's effective count is dominated by its
        attempts within the last few TTL windows, so admission tracks the
        *current* traffic mix.  Cached rows are untouched — LRU eviction
        already ages those out.
        """
        if self.count_ttl is None or self._tick - self._last_decay_tick < self.count_ttl:
            return
        self._last_decay_tick = self._tick
        if self._counts is not None:
            np.right_shift(self._counts, 1, out=self._counts)
        if self._count_dict:
            self._count_dict = {
                i: c >> 1 for i, c in self._count_dict.items() if c >> 1
            }

    # -- insertion -------------------------------------------------------------

    #: dict-backed counter bound: sweep once the dict outgrows this many
    #: times the cache capacity (the flat-array path needs no bound)
    _COUNT_SWEEP_FACTOR = 64

    def _admit(self, ids: np.ndarray) -> np.ndarray:
        """Bump per-id attempt counters; True where the id clears min_count.

        Without ``id_range`` the counters live in a dict over an open-ended
        id universe; to stay bounded it is swept when it outgrows
        ``_COUNT_SWEEP_FACTOR × capacity``, dropping single-attempt entries
        (one-hit wonders restart their count — a swept tail id just needs
        its attempts closer together, while anything on a second attempt
        survives the sweep).
        """
        if self._counts is not None:
            self._counts[ids] += 1
            return self._counts[ids] >= self.min_count
        counts = self._count_dict
        seen = np.empty(ids.size, dtype=np.int64)
        for j, i in enumerate(ids.tolist()):
            seen[j] = counts[i] = counts.get(i, 0) + 1
        if len(counts) > self._COUNT_SWEEP_FACTOR * self.capacity:
            self._count_dict = {i: c for i, c in counts.items() if c > 1}
        return seen >= self.min_count

    def insert(self, ids: np.ndarray, rows) -> np.ndarray:
        """Store freshly computed rows, evicting least-recent ids as needed.

        ``ids`` must be unique within the call and not already cached (the
        engine coalesces and inserts misses only).  ``rows`` is the payload
        in this cache's storage form — FP32 ``(k, dim)`` here,
        ``(codes, scales)`` for :class:`QuantizedRowCache`.  Returns the
        slot assigned to each id, or −1 where a row was *not* stored: either
        turned away by admission (seen fewer than ``min_count`` times) or
        dropped on overflow — eviction never touches a slot used in the
        current tick (the rows a batch hit must stay valid until the batch
        assembles), so when the incoming rows outnumber the older slots the
        overflow is dropped.  Ids come in ascending order from the engine's
        coalescing, which on a frequency-sorted vocabulary means the
        overflow that drops is the least-popular tail.
        """
        ids = np.asarray(ids)
        k = int(ids.size)
        self._check_payload(rows, k)
        out_slots = np.full(k, -1, dtype=np.int64)
        if k == 0:
            return out_slots
        if self.min_count > 1:
            admitted = self._admit(ids)
            if not admitted.all():
                sel = np.flatnonzero(admitted)
                self.rejected += k - sel.size
                if sel.size:
                    out_slots[sel] = self._place(ids[sel], self._take_payload(rows, sel))
                return out_slots
        out_slots[:] = self._place(ids, rows)
        return out_slots

    def _place(self, ids: np.ndarray, rows) -> np.ndarray:
        """Allocate slots (fresh, then LRU-evicted) and write the payload."""
        k = int(ids.size)
        out_slots = np.full(k, -1, dtype=np.int64)
        n_fresh = min(self.capacity - self._next_free, k)
        fresh = np.arange(self._next_free, self._next_free + n_fresh)
        self._next_free += n_fresh
        n_evict = min(k, self.capacity) - n_fresh
        if n_evict:
            # Least-recently-used slots, found in one vectorized pass.  Two
            # exclusions: the slots just allocated above (their
            # ``_last_used`` is only written below) and any slot touched in
            # the current tick (a row this batch already hit).
            order_key = self._last_used.copy()
            if n_fresh:
                order_key[fresh] = np.iinfo(np.int64).max
            evictable = int(np.count_nonzero(order_key < self._tick))
            n_evict = min(n_evict, evictable)
        if n_evict:
            victims = np.argpartition(order_key, n_evict - 1)[:n_evict]
            evicted = self._slot_id[victims]
            if self._map is not None:
                self._map[evicted] = -1
            else:
                for old_id in evicted.tolist():
                    del self._slot[old_id]
            self.evictions += n_evict
            slots = np.concatenate([fresh, victims]) if n_fresh else victims
        else:
            slots = fresh
        stored = n_fresh + n_evict
        ids = ids[:stored]
        out_slots[:stored] = slots
        self._write(slots, rows, stored)
        self._slot_id[slots] = ids
        self._last_used[slots] = self._tick
        if self._map is not None:
            self._map[ids] = slots
        else:
            slot_map = self._slot
            for i, s in zip(ids.tolist(), slots.tolist()):
                slot_map[i] = s
        return out_slots

    def clear(self) -> None:
        if self._map is not None:
            self._map.fill(-1)
        self._slot.clear()
        if self._counts is not None:
            self._counts.fill(0)
        self._count_dict.clear()
        self._slot_id.fill(-1)
        self._last_used.fill(-1)
        self._next_free = 0
        self._tick = 0
        self._last_decay_tick = 0


class QuantizedRowCache(LRUCache):
    """LRU cache whose row store holds integer codes + per-row scales.

    The payload of :meth:`insert` is the ``(codes, scales)`` pair a
    :class:`~repro.quant.embedding.QuantizedEmbedding` encodes (packed
    uint8 at int4); :meth:`rows` decodes through the same
    :func:`~repro.quant.kernels.decode_rows` kernel the engine's miss path
    uses, so a hit returns bit-identical floats to the miss that filled it.
    """

    def __init__(
        self,
        capacity: int,
        dim: int,
        bits: int,
        id_range: int | None = None,
        min_count: int = 1,
        count_ttl: int | None = None,
    ) -> None:
        if bits not in (8, 4):
            raise ValueError(f"quantized cache bits must be 8 or 4, got {bits}")
        self.bits = int(bits)
        self._packed_dim = -(-dim * bits // 8)
        super().__init__(
            capacity, dim, id_range=id_range, min_count=min_count,
            count_ttl=count_ttl,
        )

    def _alloc_store(self, dtype: np.dtype) -> None:
        code_dtype = np.uint8 if self.bits == 4 else np.int8
        self._store = np.empty((self.capacity, self._packed_dim), dtype=code_dtype)
        # Zeroed, not empty: the engine's overflow-splice path gathers slot 0
        # before any insert and decode multiplies by the scale — garbage
        # float bits there would trip strict FP-error modes (the decoded
        # values are overwritten either way; 0.0 makes the multiply inert).
        self._scales = np.zeros(self.capacity, dtype=np.float32)

    def _check_payload(self, payload, k: int) -> None:
        codes, scales = payload
        if codes.shape != (k, self._packed_dim):
            raise ValueError(
                f"codes shape {codes.shape} != ({k}, {self._packed_dim})"
            )
        if scales.shape != (k,):
            raise ValueError(f"scales shape {scales.shape} != ({k},)")

    def _take_payload(self, payload, sel: np.ndarray):
        codes, scales = payload
        return codes[sel], scales[sel]

    def _write(self, slots: np.ndarray, payload, stored: int) -> None:
        codes, scales = payload
        self._store[slots] = codes[:stored]
        self._scales[slots] = scales[:stored]

    def store_nbytes(self) -> int:
        return int(self._store.nbytes + self._scales.nbytes)

    def bytes_per_row(self) -> int:
        return codes_bytes_per_row(self.dim, self.bits)

    def rows(self, slots: np.ndarray) -> np.ndarray:
        """Fused gather→decode of cached rows into FP32."""
        codes, scales = self._store.take(slots, axis=0), self._scales.take(slots)
        return decode_rows(codes, scales, self.bits, self.dim)
