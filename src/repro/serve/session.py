"""`ServeSession` — the one front door to the serving stack.

The engine takes one set of kwargs, the batcher another, the cache a
third.  The session collapses them into a single declarative
:class:`ServeConfig` and two constructors:

* :meth:`ServeSession.from_model` — freeze a live (trained or built) model;
* :meth:`ServeSession.load` — open a :mod:`repro.artifact` container and
  serve from its stored payloads, no model object required.

Both yield the same object: an :class:`~repro.serve.engine.InferenceEngine`
plus a :class:`~repro.serve.batcher.Batcher` wired from the config, with
``predict`` / ``submit`` / ``flush`` passthroughs and a ``stats()`` view of
the engine, cache and batcher counters.  ``repro serve-bench`` and the
:mod:`repro.traffic` replay harness build every session they measure
through this path.

The session also owns the persistence contract: ``from_model`` sessions
can :meth:`save` themselves as artifacts, and for every technique and
width, ``ServeSession.load(save(...))`` serves bit-identical predictions
to the in-memory engine (DESIGN.md §8, ``tests/artifact/test_roundtrip.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.artifact.container import ModelArtifact, load_artifact, save_artifact
from repro.artifact.errors import ArtifactFormatError
from repro.serve.batcher import Batcher, PendingRequest
from repro.serve.engine import InferenceEngine
from repro.serve.runtime.retry import RetryPolicy

__all__ = ["ServeConfig", "ServeSession"]

_VALID_BITS = (32, 8, 4)


@dataclass(frozen=True)
class ServeConfig:
    """Declarative serving configuration — every knob in one place.

    Parameters
    ----------
    bits:
        Serving storage width.  ``None`` means "native": FP32 when freezing
        a model, the artifact's stored width when loading one.  ``8``/``4``
        select the :mod:`repro.quant` integer plan (loading an FP32
        artifact at 8/4 calibrates on load; loading a quantized artifact at
        a *different* width is an error — codes cannot be re-widened).
    calibration_percentile:
        Outlier-clipped calibration for the quantized plan (e.g. ``99.9``);
        ``None`` uses per-row absmax.
    cache_rows:
        LRU hot-row cache capacity (composed FP32 rows).  ``None``
        disables caching.  The engine builds the cache only on plans whose
        rows cost more to compose than a hit; elsewhere it declines it and
        ``stats()`` reports ``cache_declined`` with the reason.
    cache_min_count:
        Admission threshold: an id enters the cache only on its k-th missed
        insert attempt.
    cache_ttl_batches:
        TTL (in lookup batches) for the admission counters — counts decay
        by half every this-many batches so stale popularity cannot
        permanently grease admission (``None`` disables decay).
    max_batch:
        Batcher coalescing width.
    max_delay_ms:
        Batcher latency deadline: when set, ``submit`` self-flushes once
        the batch fills or the oldest request has waited this long.
    workers:
        ``0`` (default) serves single-process.  ``>= 1`` puts the
        fault-tolerant multi-process
        :class:`~repro.serve.runtime.ServingRuntime` in front: that many
        supervised replica processes, each serving whole batches with
        this config's engine, respawned from the artifact on failure
        (DESIGN.md §10).  Requires an on-disk artifact
        (:meth:`ServeSession.load`) — the artifact is the respawn source,
        so a purely in-memory ``from_model`` session cannot supervise
        workers.
    retry:
        The runtime's failure budget (timeout / backoff / max attempts);
        ``None`` uses ``RetryPolicy()`` defaults.  Only meaningful with
        ``workers >= 1``.
    mmap:
        Zero-copy loading: payloads of a *directory-form* artifact are
        memory-mapped read-only instead of read and copied, so ``load()``
        over a multi-GB table returns in milliseconds and rows page in on
        demand through the normal gather path.  Requires
        :meth:`ServeSession.load` (a live model has no file to map) and a
        directory container (zip members cannot be mapped).  Replica
        workers map the artifact the same way, so its pages are shared.
    """

    bits: int | None = None
    calibration_percentile: float | None = None
    cache_rows: int | None = None
    cache_min_count: int = 1
    cache_ttl_batches: int | None = None
    max_batch: int = 256
    max_delay_ms: float | None = None
    workers: int = 0
    retry: RetryPolicy | None = None
    mmap: bool = False

    def validate(self) -> "ServeConfig":
        """Fail fast, before any table is snapshotted or calibrated.

        Engine/cache/batcher constructors validate too, but only after
        potentially expensive work has started; the CLI and the session
        front-load this so a typo'd flag dies with a one-line message.
        """
        if self.bits is not None and self.bits not in _VALID_BITS:
            raise ValueError(
                f"bits must be one of {_VALID_BITS} (or None for native), "
                f"got {self.bits}"
            )
        if self.calibration_percentile is not None and not (
            0.0 < self.calibration_percentile <= 100.0
        ):
            raise ValueError(
                f"calibration_percentile must be in (0, 100], "
                f"got {self.calibration_percentile}"
            )
        if self.cache_rows is not None and self.cache_rows <= 0:
            raise ValueError(
                f"cache_rows must be positive (or None to disable caching), "
                f"got {self.cache_rows}"
            )
        if self.cache_min_count <= 0:
            raise ValueError(
                f"cache_min_count must be positive, got {self.cache_min_count}"
            )
        if self.cache_ttl_batches is not None and self.cache_ttl_batches <= 0:
            raise ValueError(
                f"cache_ttl_batches must be positive (or None to disable decay), "
                f"got {self.cache_ttl_batches}"
            )
        if self.max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_delay_ms is not None and self.max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be non-negative, got {self.max_delay_ms}"
            )
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 serves single-process), got {self.workers}"
            )
        if self.retry is not None:
            if self.workers == 0:
                raise ValueError(
                    "retry is a multi-process runtime knob; it requires workers >= 1"
                )
            self.retry.validate()
        return self


def _resolve_config(config: ServeConfig | None, overrides: dict) -> ServeConfig:
    config = config if config is not None else ServeConfig()
    if overrides:
        config = replace(config, **overrides)
    return config.validate()


class ServeSession:
    """A configured serving stack: engine + batcher behind one façade."""

    def __init__(
        self,
        engine: InferenceEngine,
        config: ServeConfig,
        source_model=None,
        artifact: ModelArtifact | None = None,
        runtime=None,
    ) -> None:
        self.engine = engine
        self.config = config
        #: the multi-process ServingRuntime when config.workers >= 1, else None
        self.runtime = runtime
        self.batcher = Batcher(
            runtime if runtime is not None else engine,
            max_batch=config.max_batch,
            max_delay_ms=config.max_delay_ms,
        )
        self._source_model = source_model
        self.artifact = artifact
        #: completed hot_swap() calls (the deployment plane's generation counter)
        self.swaps = 0
        #: final cache counts of the engines hot swaps replaced (no workers)
        self._swapped_cache_counts = (0, 0)

    @property
    def _predictor(self):
        """Whatever serves this session's batches: runtime if supervised."""
        return self.runtime if self.runtime is not None else self.engine

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_model(
        cls, model, config: ServeConfig | None = None, **overrides
    ) -> "ServeSession":
        """Freeze ``model`` into a session (``**overrides`` patch the config)."""
        config = _resolve_config(config, overrides)
        if config.workers > 0:
            raise ValueError(
                "workers >= 1 needs an on-disk artifact as the workers' "
                "(re)spawn source; save() the model and use "
                "ServeSession.load(path, workers=...)"
            )
        if config.mmap:
            raise ValueError(
                "mmap loading needs an on-disk artifact; a live model has "
                "no file to map — use ServeSession.load(path, mmap=True)"
            )
        engine = InferenceEngine(
            model,
            cache_rows=config.cache_rows,
            bits=config.bits,
            calibration_percentile=config.calibration_percentile,
            cache_min_count=config.cache_min_count,
            cache_ttl=config.cache_ttl_batches,
        )
        return cls(engine, config, source_model=model)

    @classmethod
    def load(
        cls,
        path: str | ModelArtifact,
        config: ServeConfig | None = None,
        **overrides,
    ) -> "ServeSession":
        """Serve from an on-disk artifact (or an already-loaded one).

        The artifact's stored width is the default; ``config.bits`` may
        quantize an FP32 artifact at load time, but cannot change the width
        of an already-quantized one.
        """
        config = _resolve_config(config, overrides)
        if isinstance(path, ModelArtifact):
            artifact = path
        else:
            artifact = load_artifact(path, mmap=config.mmap)
        engine = InferenceEngine.from_artifact(artifact, config)
        runtime = None
        if config.workers > 0:
            from repro.serve.runtime.supervisor import ServingRuntime

            runtime = ServingRuntime(artifact.path, config, engine=engine)
        return cls(engine, config, artifact=artifact, runtime=runtime)

    # -- persistence ------------------------------------------------------------

    def save(self, path: str) -> ModelArtifact:
        """Export this session's model as an artifact at ``path``.

        Only sessions built with :meth:`from_model` can save — a loaded
        session holds serving payloads, not the source model, and
        re-wrapping them would silently launder a lossy chain as fresh.
        """
        if self._source_model is None:
            raise ArtifactFormatError(
                "only sessions created with from_model() can save an artifact; "
                "this session was loaded from one"
            )
        bits = 32 if self.config.bits is None else self.config.bits
        return save_artifact(
            self._source_model,
            path,
            bits=bits,
            percentile=self.config.calibration_percentile,
        )

    # -- live deployment --------------------------------------------------------

    def hot_swap(self, path: str | ModelArtifact) -> ModelArtifact:
        """Adopt a new artifact mid-traffic without dropping a request.

        The swap protocol, in order:

        1. **Build first.**  The replacement artifact is loaded (delta
           chains resolve, mmap per config) and its engine fully built
           while the old plan keeps serving.  Any failure — missing file,
           broken chain, incompatible width — raises *before* anything is
           touched: a failed swap leaves the session exactly as it was.
        2. **Drain.**  Pending batcher requests are flushed against the
           *old* plan — every request answered by the model that was live
           when it was submitted; nothing is dropped or re-scored.  If the
           drain rejects a request (an id out of range), its ``ValueError``
           propagates before the cut-over: the queue is drained, the old
           plan stays live, and calling ``hot_swap`` again adopts the new
           artifact.
        3. **Cut over.**  ``workers >= 1`` runtimes respawn every replica
           from the new artifact (the same Supervisor respawn path
           that heals crashes), then the session's engine/artifact
           references flip.  Subsequent submits hit the new plan; post-swap
           predictions are bit-identical to a cold load of the new
           artifact (``tests/serve/test_hot_swap.py``).

        Works on full and delta artifacts alike.  Returns the adopted
        :class:`~repro.artifact.ModelArtifact`.
        """
        artifact = (
            path if isinstance(path, ModelArtifact)
            else load_artifact(path, mmap=self.config.mmap)
        )
        engine = InferenceEngine.from_artifact(artifact, self.config)
        self.batcher.flush()  # drain in-flight against the outgoing plan
        if self.runtime is not None:
            self.runtime.hot_swap(artifact.path, engine)
        else:
            self._swapped_cache_counts = self.cache_counts()
        self.engine = engine
        self.batcher.engine = self._predictor
        self.artifact = artifact
        self._source_model = None  # the artifact, not the old model, is live now
        self.swaps += 1
        return artifact

    # -- serving passthroughs ---------------------------------------------------

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Scores for a ``(B, input_length)`` batch (see engine.predict)."""
        return self._predictor.predict(ids)

    def predict_one(self, ids: np.ndarray | int) -> np.ndarray:
        """Scores for a single ``(input_length,)`` request (or a bare id
        when ``input_length`` is 1)."""
        return self._predictor.predict_one(ids)

    def submit(self, ids: np.ndarray | int) -> PendingRequest:
        """Queue one request on the batcher (auto-flushes per config).

        The ids are copied, so the caller may reuse its buffer; their range
        is checked when the request is flushed (see ``Batcher.flush``).
        """
        return self.batcher.submit(ids)

    def flush(self) -> list[np.ndarray]:
        """Serve everything pending; returns per-request score rows.

        A request with an out-of-range id gets its ``ValueError`` on
        ``.error`` instead of a result; the rest are served, then the first
        such error is raised.
        """
        return self.batcher.flush()

    def serve(self, requests) -> list[np.ndarray]:
        """Submit an iterable of requests and flush; returns one score row
        per request, in order, auto-flushed or not."""
        return self.batcher.serve(requests)

    # -- introspection ----------------------------------------------------------

    @property
    def bits(self) -> int:
        return self.engine.bits

    def cache_counts(self) -> tuple[int, int]:
        """Cumulative ``(hits, misses)`` of the hot-row caches that served
        this session's batches, hot swaps included; ``(0, 0)`` uncached.

        With workers these are the replicas' caches, summed by the runtime:
        the parent engine's cache sees only degraded fallbacks.
        """
        if self.runtime is not None:
            return self.runtime.cache_counts()
        hits, misses = self._swapped_cache_counts
        cache = self.engine.cache
        if cache is not None:
            hits, misses = hits + cache.hits, misses + cache.misses
        return hits, misses

    def stats(self) -> dict:
        """One dict with the counters the old entry points each half-reported."""
        engine, cache = self.engine, self.engine.cache
        served = self._predictor
        out = {
            "model": engine.model_name,
            "bits": engine.bits,
            "input_length": engine.input_length,
            "vocab_size": engine.vocab_size,
            "embedding_dim": engine.embedding_dim,
            "requests_served": served.requests_served,
            "batches_served": served.batches_served,
            "table_resident_bytes": engine.table_resident_bytes(),
            "pending_requests": len(self.batcher),
            "auto_flushes": self.batcher.auto_flushes,
            "hot_swaps": self.swaps,
        }
        if self.runtime is not None:
            # Latency percentiles + failure/recovery counters (DESIGN.md §10).
            out.update(self.runtime.qos.snapshot())
            out["workers"] = self.runtime.n_workers
            out["workers_degraded"] = self.runtime.stats()["workers_degraded"]
        if engine.cache_declined is not None:
            out["cache_declined"] = engine.cache_declined
        if cache is not None and self.runtime is not None:
            # The replicas' caches serve; their other counters stay with them.
            hits, misses = self.runtime.cache_counts()
            out.update(
                cache_capacity=cache.capacity,
                cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            )
        elif cache is not None:
            out.update(
                cache_capacity=cache.capacity,
                cache_hit_rate=cache.hit_rate,
                cache_evictions=cache.evictions,
                cache_rejected=cache.rejected,
                cache_store_bytes=cache.store_nbytes(),
            )
        if self.artifact is not None:
            out["artifact_path"] = self.artifact.path
            out["artifact_bytes"] = self.artifact.total_bytes()
        return out

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Stop the worker processes, if any (idempotent; single-process
        sessions have nothing to release)."""
        if self.runtime is not None:
            self.runtime.close()

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        origin = (
            f"artifact={self.artifact.path!r}"
            if self.artifact is not None
            else "from_model"
        )
        plane = f", workers={self.config.workers}" if self.runtime is not None else ""
        return f"ServeSession({self.engine!r}, {origin}{plane})"
