"""The five perf workloads and the inputs each one is measured on.

Everything a measured process needs is made here, before any timing
starts, and written to a work directory: the request stream and the
served artifact for serving, the example arrays for training.  The same
``(workload, seed, seconds)`` always writes the same inputs.  The served
outputs are checked here too, after the measured process has ended.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import estimators as est
from outputs import verify

from repro.artifact import save_artifact
from repro.data.zipf import ZipfSampler
from repro.models import build_pointwise_ranker
from repro.serve.session import ServeConfig, ServeSession
from repro.traffic.bench import BENCH_SPEC
from repro.traffic.model import TrafficModel, TrafficSpec

NUM_ITEMS = 64
#: coalescing width of every serving session
MAX_BATCH = 64
#: the open-loop batcher deadline, also the load generator's flush timer
MAX_DELAY_MS = 2.0
#: hot-row cache of every serving workload
CACHE = {"cache_rows": 4096, "cache_min_count": 2, "cache_ttl_batches": 32}
#: share of ``--seconds`` the open-loop pass lasts at the least; the
#: closed-loop passes over the same stream take most of the rest
OPEN_LOOP_SHARE = 0.5
#: the length of a full run (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 10
#: open-loop requests per second of ``--seconds`` at the least, whatever the
#: rate: a full run then fills every segment to ``MIN_SEGMENT_REQUESTS``.
#: A stream falls up to 5% short of its expected size from seed to seed,
#: hence the 10% margin.
MIN_STREAM_RATE = 1.1 * est.SEGMENTS * est.MIN_SEGMENT_REQUESTS / RUN_SECONDS
#: the input seed when ``--seed`` is not given
DEFAULT_SEED = 7


@dataclass(frozen=True)
class ServingWorkload:
    """Traffic shape, served model and open-loop rate of one workload."""

    name: str
    traffic: TrafficSpec
    technique: str
    embedding_dim: int
    hyper: dict = field(default_factory=dict)
    bits: int = 32
    workers: int = 0
    mmap: bool = False
    #: open-loop arrival rate (req/s); a 4x burst stays below capacity
    rate: float = 5000.0

    kind = "serving"

    def config(self, open_loop: bool) -> ServeConfig:
        return ServeConfig(
            max_batch=MAX_BATCH,
            max_delay_ms=MAX_DELAY_MS if open_loop else None,
            workers=self.workers,
            mmap=self.mmap,
            **CACHE,
        ).validate()

    def requests(self, seconds: float) -> float:
        """Expected requests of the stream: ``OPEN_LOOP_SHARE * seconds`` at
        ``rate``, or ``MIN_STREAM_RATE * seconds`` if that is more, so a
        slow rate makes the open-loop pass longer, not its p99 thinner."""
        return max(self.rate * OPEN_LOOP_SHARE, MIN_STREAM_RATE) * seconds

    def per_step(self) -> float:
        """Expected requests of one traffic step, bursts included."""
        t = self.traffic
        return (
            t.sessions_per_step * t.session_length
            * (1.0 + (t.burst_factor - 1.0) / t.burst_every)
        )

    def spec(self, seconds: float, seed: int) -> TrafficSpec:
        """The traffic spec of ``requests(seconds)`` requests."""
        t = self.traffic
        target, per_step = self.requests(seconds), self.per_step()
        steps = max(1, math.ceil(target / (per_step * t.num_phases)))
        return replace(t, steps_per_phase=steps, seed=seed)


@dataclass(frozen=True)
class TrainingWorkload:
    """Sparse-gradient training of a large-vocabulary MEmCom ranker."""

    name: str
    vocab: int
    num_hash_embeddings: int
    embedding_dim: int
    input_length: int
    alpha: float
    batch_size: int
    lr: float
    grad_clip_norm: float
    epochs: int
    #: optimizer steps per second of ``--seconds``, split over ``epochs``
    steps_per_second: int

    kind = "training"

    def steps_per_epoch(self, seconds: float) -> int:
        # At least one step in each tenth of an epoch.
        return max(est.SEGMENTS, round(self.steps_per_second * seconds / self.epochs))


_DRIFT = ServingWorkload(
    "drift-memcom",
    BENCH_SPEC,
    "memcom",
    32,
    {"num_hash_embeddings": BENCH_SPEC.vocab // 16},
    rate=10_000.0,
)

WORKLOADS = {
    w.name: w
    for w in (
        _DRIFT,
        ServingWorkload(
            "longseq-ttrec-int8",
            replace(BENCH_SPEC, input_length=128),
            "tt_rec",
            64,
            {"tt_rank": 8},
            bits=8,
            rate=4_000.0,
        ),
        ServingWorkload(
            "coldtail-full-mmap",
            replace(
                BENCH_SPEC, vocab=1_000_000, alpha=0.8, locality=0.0,
                drift_fraction=0.0, input_length=64,
            ),
            "full",
            32,
            mmap=True,
            rate=5_000.0,
        ),
        # Two-worker capacity fell to 15k req/s when the host was busy, so
        # a 4x burst of 5k req/s saturated it; 3k keeps bursts below.
        replace(_DRIFT, name="drift-memcom-w2", workers=2, rate=3_000.0),
        TrainingWorkload(
            "train-memcom-1m",
            vocab=1_000_000,
            num_hash_embeddings=62_500,
            embedding_dim=32,
            input_length=16,
            alpha=1.05,
            batch_size=128,
            lr=1e-3,
            grad_clip_norm=1.0,
            # Five counted epochs, as serving has five closed-loop passes,
            # of 1,120 steps at 10 s: p99 over the 1,007 counted steps then
            # has 10 samples beyond it.
            epochs=6,
            steps_per_second=672,
        ),
    )
}


def build_model(wl, seed: int):
    """The served (or trained) model, initialised from ``seed``."""
    if wl.kind == "training":
        return build_pointwise_ranker(
            "memcom", wl.vocab, NUM_ITEMS, input_length=wl.input_length,
            embedding_dim=wl.embedding_dim, rng=seed,
            num_hash_embeddings=wl.num_hash_embeddings,
        )
    return build_pointwise_ranker(
        wl.technique, wl.traffic.vocab, NUM_ITEMS,
        input_length=wl.traffic.input_length, embedding_dim=wl.embedding_dim,
        rng=seed, **wl.hyper,
    )


def traffic_arrays(wl: ServingWorkload, seconds: float, seed: int):
    """``(ids, step_sizes, sha256)`` of the workload's request stream."""
    steps = list(TrafficModel(wl.spec(seconds, seed)).stream())
    sizes = np.asarray([s.requests.shape[0] for s in steps], dtype=np.int64)
    ids = np.concatenate([s.requests for s in steps]).astype(np.int64, copy=False)
    digest = hashlib.sha256(sizes.tobytes())
    digest.update(np.ascontiguousarray(ids).tobytes())
    return ids, sizes, digest.hexdigest()


def check_outputs(job: dict, workdir: str) -> dict:
    """Verify the outputs a serving run recorded against a cache-less
    in-process engine over the same artifact (see ``outputs.py``).

    The reference composes each distinct id once with ``compose_rows``, the
    engine's per-id operator, which bypasses the cache and gives the bytes
    ``predict`` computes, then runs ``apply_tower`` over the served batches.
    Predicting every batch whole would compose every id of every pass again.
    """
    wl = WORKLOADS[job["workload"]]
    engine = ServeSession.load(job["artifact"], ServeConfig(mmap=wl.mmap)).engine
    ids = np.load(os.path.join(workdir, "ids.npy"))
    distinct, index = np.unique(ids, return_inverse=True)
    rows = engine.compose_rows(distinct)
    with np.load(os.path.join(workdir, "outputs.npz")) as record:
        return verify(
            dict(record), lambda batch: engine.apply_tower(rows[batch]),
            index.reshape(ids.shape), MAX_BATCH,
        )


def training_arrays(wl: TrainingWorkload, seconds: float, seed: int):
    """Zipf-distributed id sequences and a label each row can be learned from."""
    rng = np.random.default_rng([seed, 0x7EA1])
    n = wl.steps_per_epoch(seconds) * wl.batch_size
    x = ZipfSampler(wl.vocab, wl.alpha).sample(rng, (n, wl.input_length))
    y = x[:, 0] % NUM_ITEMS
    digest = hashlib.sha256(x.tobytes())
    digest.update(y.tobytes())
    return x, y, digest.hexdigest()


def prepare(name: str, seconds: float, seed: int, workdir: str) -> dict:
    """Write the inputs of one run to ``workdir``; return what was written."""
    wl = WORKLOADS[name]
    job = {"workload": name, "kind": wl.kind, "seed": seed}
    if wl.kind == "training":
        x, y, digest = training_arrays(wl, seconds, seed)
        np.save(os.path.join(workdir, "x.npy"), x)
        np.save(os.path.join(workdir, "y.npy"), y)
        job["stream_sha256"] = digest
    else:
        ids, sizes, digest = traffic_arrays(wl, seconds, seed)
        artifact = os.path.join(workdir, "artifact")
        save_artifact(build_model(wl, seed), artifact, bits=wl.bits)
        np.save(os.path.join(workdir, "ids.npy"), ids)
        np.save(os.path.join(workdir, "step_sizes.npy"), sizes)
        job.update(artifact=artifact, stream_sha256=digest)
    return job
