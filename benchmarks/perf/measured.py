"""The measured process of one perf run: ``python measured.py <job.json>``.

``run.py`` writes the inputs (see ``workloads.py``) and starts this script
in a fresh process, so the process measured for memory and CPU holds only
the inputs, the serving or training stack and the load generator.  Load
comes from this one thread: no load threads, no sockets.  The result is
written as JSON next to the job, and for serving the output fingerprints
``run.py`` checks against the reference.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import estimators as est  # noqa: E402
from outputs import Recorder  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import MAX_DELAY_MS, WORKLOADS, build_model  # noqa: E402

from repro.artifact import load_artifact  # noqa: E402
from repro.serve.session import ServeSession  # noqa: E402
from repro.train.trainer import TrainConfig, Trainer  # noqa: E402

#: closed-loop passes per run; each segment's best pass is reported
CLOSED_PASSES = 5
#: the open-loop pass runs in this many chunks, one after each of the
#: first closed-loop passes
OPEN_LOOP_CHUNKS = 3
#: extra set-ups after every pass (each pass opens a session too)
SETUPS_PER_PASS = 2
#: training set-ups per run (model build + optimizer state)
TRAIN_SETUPS = 5
#: the open-loop load generator never busy-waits longer than this
SPIN_S = 2e-4

END_TO_END = {
    "setup_s": "s",
    "rps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cpu_us_per_req": "us",
    "rss_mb": "MiB",
}

PER_LAYER = {
    "batcher.submit.calls": "count",
    "batcher.submit.busy_ms": "ms",
    "batcher.submit.us_per_call": "us",
    "batcher.flush.calls": "count",
    "batcher.flush.busy_ms": "ms",
    "batcher.flush.reqs_per_call": "count",
    "batcher.queue_wait_p99_ms": "ms",
    "engine.predict.calls": "count",
    "engine.predict.busy_ms": "ms",
    "engine.predict.self_ms": "ms",
    "engine.predict.rows_per_call": "count",
    "engine.validate_ids.busy_ms": "ms",
    "engine.apply_tower.busy_ms": "ms",
    "cache.lookup.busy_ms": "ms",
    "cache.insert.busy_ms": "ms",
    "cache.rows.busy_ms": "ms",
    "cache.hit_rate": "share",
    "cache.evictions": "count",
    "cache.rejected": "count",
    "cache.store_bytes": "B",
    "quant.encode.calls": "count",
    "quant.encode.busy_ms": "ms",
    "quant.encode.ids": "count",
    "runtime.predict.busy_ms": "ms",
    "runtime.predict.self_ms": "ms",
    "runtime.worker_cpu_ms": "ms",
    "runtime.retries": "count",
    "runtime.timeouts": "count",
    "runtime.fallback_requests": "count",
    "artifact.load_ms": "ms",
    "session.build_ms": "ms",
    "artifact.bytes": "B",
    "engine.table_bytes": "B",
    "train.epoch_ms": "ms",
    "nn.forward.busy_ms": "ms",
    "nn.embedding.forward.busy_ms": "ms",
    "nn.loss_backward.busy_ms": "ms",
    "nn.clip.busy_ms": "ms",
    "nn.optim.step.busy_ms": "ms",
    "nn.optim.rows_per_step": "count",
    "bench.gen_late_p99_ms": "ms",
    "bench.p99_tail_samples": "count",
    "trace.rps_ratio": "x",
    "trace.coverage": "share",
}


# -- process resources ---------------------------------------------------------


def _proc_kb(pid: int, field: str, name: str = "status") -> int:
    """A ``kB`` field of ``/proc/<pid>/<name>``."""
    with open(f"/proc/{pid}/{name}", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(f"{field} not in /proc/{pid}/{name}")


def private_kb(pid: int) -> int:
    """Resident memory of ``pid`` that no other process shares."""
    return sum(
        _proc_kb(pid, f, "smaps_rollup") for f in ("Private_Clean", "Private_Dirty")
    )


def cpu_seconds(pid: int) -> float:
    """On-CPU time of every live thread of ``pid``, in nanoseconds from
    ``/proc/<pid>/task/<tid>/schedstat``.  ``/proc/<pid>/stat`` counts in
    10 ms clock ticks, too coarse for a pass of about a second.  A worker's
    threads (its main loop and its reply queue's feeder) live as long as the
    worker, so no time is lost to a thread that ended.  Read it between
    steps, while the workers wait: the kernel brings a thread's count up to
    date when the thread stops running."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended after the listing
            pass
    return 1e-9 * total


def worker_pids(session) -> list[int]:
    if session.runtime is None:
        return []
    return [w.process.pid for w in session.runtime.supervisor.workers]


def workers_cpu(pids) -> float:
    return sum(cpu_seconds(p) for p in pids)


class Yardstick:
    """A fixed piece of work, owned by the benchmark, that tells how fast
    the host runs: per-request Python bookkeeping, row gathers and a small
    matrix product, as serving does.  Nothing in it calls the program
    under test.

    A shared host changes speed by 10-20% for minutes at a time, and every
    pass of a run with it.  So a run reads the yardstick once just before
    each segment of each pass, reduces the readings with the estimator it
    uses for the segments themselves (``est.best_of_passes``), and reports
    its compute metrics at the speed at which a reading takes
    ``REFERENCE_S``.
    """

    #: a reading's time on the host results/seed.json was recorded on
    REFERENCE_S = 0.9e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((4096, 32)).astype(np.float32)
        self.ids = rng.integers(0, 4096, (128, 16))
        self.weights = rng.standard_normal((32, 32)).astype(np.float32)

    def read(self) -> float:
        """Seconds the work takes now."""
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for row in self.ids:
            for i in row.tolist():
                counts[i] = counts.get(i, 0) + 1
            np.tanh(self.table[row] @ self.weights).sum(axis=0)
        return time.perf_counter() - t0

    @classmethod
    def slowdown(cls, readings) -> float:
        """How much slower than the reference the host ran, from readings
        ``[pass, segment]`` taken just before each segment."""
        counted = est.SEGMENTS - est.WARMUP_SEGMENTS
        return est.best_of_passes(readings) / (counted * cls.REFERENCE_S)


def at_reference_speed(metrics: dict, names, slowdown: float) -> dict:
    """``metrics`` with the named ones brought to the reference speed: a
    time divided by the slowdown, a rate (``rps``) multiplied by it."""
    return {
        k: (v * slowdown if k == "rps" else v / slowdown) if k in names else v
        for k, v in metrics.items()
    }


# -- serving -------------------------------------------------------------------


class Serving:
    """One serving run: inputs, set-ups and passes over one stream."""

    def __init__(self, job: dict, work: Path, passes: int) -> None:
        self.wl = WORKLOADS[job["workload"]]
        self.work = work
        self.path = job["artifact"]
        self.ids = np.load(work / "ids.npy")
        #: one view per request, made once so the timed loops only index
        self.rows = list(self.ids)
        self.sizes = np.load(work / "step_sizes.npy")
        self.bounds = np.concatenate(([0], np.cumsum(self.sizes))).tolist()
        n = self.ids.shape[0]
        # A step belongs to the segment of its first request.
        step_segments = est.segment_of(n)[np.minimum(self.bounds[:-1], n - 1)]
        first = np.searchsorted(step_segments, np.arange(est.SEGMENTS + 1))
        self.segment_steps = [range(a, b) for a, b in zip(first[:-1], first[1:])]
        self.counted_requests = float(self.sizes[step_segments >= est.WARMUP_SEGMENTS].sum())
        self.due = est.open_loop_schedule(self.sizes, self.wl.rate)
        self.recorder = Recorder(n, passes)
        self.due_at = np.full(n, 0.0)
        self.submitted = np.full(n, 0.0)
        self.flushed = np.full(n, 0.0)
        self.resolved = np.full(n, 0.0)
        self.load_s: list[float] = []
        self.build_s: list[float] = []
        self.yardstick = Yardstick()
        gc.collect()
        self.baseline_kb = _proc_kb(os.getpid(), "VmRSS")

    def open(self, open_loop: bool = False):
        """A fresh session; times ``load_artifact`` and ``ServeSession.load``."""
        gc.collect()
        t0 = time.perf_counter()
        artifact = load_artifact(self.path, mmap=self.wl.mmap)
        t1 = time.perf_counter()
        session = ServeSession.load(artifact, self.wl.config(open_loop))
        t2 = time.perf_counter()
        self.load_s.append(t1 - t0)
        self.build_s.append(t2 - t1)
        return session

    def memory_growth_kb(self, session) -> tuple[int, int]:
        """Peak resident growth of this process since just before set-up,
        and the resident memory the session's workers hold privately: a
        forked worker shares what it inherited until it writes to it."""
        runner = _proc_kb(os.getpid(), "VmHWM") - self.baseline_kb
        workers = sum(private_kb(p) for p in worker_pids(session))
        return runner, workers

    def more_setups(self) -> None:
        for _ in range(SETUPS_PER_PASS):
            self.open().close()

    def setup_s(self) -> list[float]:
        return [a + b for a, b in zip(self.load_s, self.build_s)]

    def closed_pass(self, session, name: str) -> dict:
        """Submit each traffic step's requests, then flush, as replay does.

        Returns the wall and CPU seconds each segment took, and a yardstick
        reading taken just before it.  CPU is this process's
        (``process_time``) plus its workers', read at segment boundaries,
        while the workers wait.
        """
        p = self.recorder.begin(name)
        rows, bounds = self.rows, self.bounds
        submit, flush, settle = session.submit, session.flush, self.recorder.settle
        clock, cpu_clock = time.perf_counter, time.process_time
        pids = worker_pids(session)
        wall = np.zeros(est.SEGMENTS)
        cpu = np.zeros(est.SEGMENTS)
        worker_cpu = np.zeros(est.SEGMENTS)
        readings = np.zeros(est.SEGMENTS)
        for s, steps in enumerate(self.segment_steps):
            readings[s] = self.yardstick.read()
            w0 = workers_cpu(pids)
            for k in steps:
                a, b = bounds[k], bounds[k + 1]
                if a == b:
                    continue
                c0 = cpu_clock()
                t0 = clock()
                pending = [submit(row) for row in rows[a:b]]
                flush()
                wall[s] += clock() - t0
                cpu[s] += cpu_clock() - c0
                settle(a, pending, p)
            worker_cpu[s] = workers_cpu(pids) - w0
        counted = slice(est.WARMUP_SEGMENTS, None)
        return {
            "segment_seconds": wall.tolist(),
            "segment_cpu_s": (cpu + worker_cpu).tolist(),
            "segment_yardstick_s": readings.tolist(),
            "rps": self.counted_requests / wall[counted].sum(),
            "worker_cpu_s": float(worker_cpu[counted].sum()),
            "wall_s": float(wall.sum()),
        }

    def open_loop_chunks(self) -> list[tuple[int, int]]:
        """``[a, b)`` request ranges of the open-loop chunks: the warm-up
        segment and the counted segments split ``OPEN_LOOP_CHUNKS`` ways."""
        seg = est.segment_of(len(self.rows))
        counted = est.SEGMENTS - est.WARMUP_SEGMENTS
        ends = [est.WARMUP_SEGMENTS + counted * (k + 1) // OPEN_LOOP_CHUNKS
                for k in range(OPEN_LOOP_CHUNKS)]
        bounds = [0] + np.searchsorted(seg, ends).tolist()
        return list(zip(bounds[:-1], bounds[1:]))

    def open_loop_pass(self, session, p: int, a: int, b: int) -> None:
        """Submit requests ``a`` to ``b - 1`` of recorder pass ``p``, each
        when due; flush on the batcher's timer.

        Request ``a`` is due 10 ms from now, the rest on the schedule after
        it.  The batcher flushes by itself when a batch fills or an arrival
        finds the oldest request overdue; between arrivals this loop is the
        timer a server would run.  Due, submit, flush-start and resolve
        times land in ``self.due_at``, ``self.submitted``, ``self.flushed``
        and ``self.resolved``.
        """
        rows, n = self.rows[a:b], b - a
        due = (self.due[a:b] - self.due[a]).tolist() + [float("inf")]
        submit, flush, settle = session.submit, session.flush, self.recorder.settle
        batcher = session.batcher
        submitted, flushed, resolved = self.submitted, self.flushed, self.resolved
        clock, sleep = time.perf_counter, time.sleep
        delay = 1e-3 * MAX_DELAY_MS
        inflight: list = []
        lo, i = a, 0

        def settle_inflight(started: float) -> None:
            nonlocal lo, inflight
            for j, r in enumerate(inflight, lo):
                submitted[j] = r.submitted_at
                resolved[j] = (
                    np.inf if r.latency_ms is None
                    else r.submitted_at + 1e-3 * r.latency_ms
                )
            flushed[lo : lo + len(inflight)] = started
            settle(lo, inflight, p)
            lo += len(inflight)
            inflight = []

        t0 = clock() + 0.01
        self.due_at[a:b] = t0 + np.asarray(due[:-1])
        while i < n or inflight:
            now = clock() - t0
            while due[i] <= now:
                started = clock()
                inflight.append(submit(rows[i]))
                i += 1
                if not len(batcher):  # the batcher flushed by itself
                    settle_inflight(started)
            deadline = inflight[0].submitted_at - t0 + delay if inflight else np.inf
            if now >= deadline:
                started = clock()
                flush()
                settle_inflight(started)
                continue
            # Infinite once the last arrival made the batcher flush by itself.
            wait = min(due[i], deadline) - (clock() - t0)
            if SPIN_S < wait < np.inf:
                sleep(wait - SPIN_S)

    def open_loop_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per request, in ms: latency (due to resolve), generator lateness
        (due to submit) and the wait in the batcher (submit to the start of
        its flush), which the batch filling or the flush timer ends."""
        return (1e3 * (self.resolved - self.due_at), 1e3 * (self.submitted - self.due_at),
                1e3 * (self.flushed - self.submitted))

    # -- the two kinds of run --------------------------------------------------

    def run(self) -> dict:
        # Open-loop chunk k follows closed-loop pass k on one live session,
        # idle in between, so the open loop samples the host at as many
        # moments as the closed loop does.
        passes = []
        chunks = self.open_loop_chunks()
        for p in range(CLOSED_PASSES):
            session = self.open()
            passes.append(self.closed_pass(session, f"closed{p + 1}"))
            if p == 0:
                # Read while the first session lives: what later sessions
                # add depends on whether the allocator kept the memory
                # earlier ones freed, not on the code under test.
                runner_kb, worker_kb = self.memory_growth_kb(session)
            session.close()
            del session
            self.more_setups()
            if p == 0:
                open_session = self.open(open_loop=True)
                open_pass = self.recorder.begin("open")
            if p < len(chunks):
                self.open_loop_pass(open_session, open_pass, *chunks[p])
            if p == len(chunks) - 1:
                open_session.close()
                del open_session

        latency, late, wait = self.open_loop_times()
        wall = [p["segment_seconds"] for p in passes]
        cpu = [p["segment_cpu_s"] for p in passes]
        slowdown = Yardstick.slowdown([p["segment_yardstick_s"] for p in passes])
        # Of a request's latency, the wait in the batcher ends when the batch
        # fills or the flush timer fires, which a slower host does not
        # change; the rest (lateness and the flush itself) is computation,
        # and is brought to the reference speed like the other metrics.
        at_reference = wait + (latency - wait) / slowdown
        measured = {
            "setup_s": min(self.setup_s()),
            "rps": self.counted_requests / est.best_of_passes(wall),
            "p50_ms": est.latency(latency, 50),
            "p99_ms": est.latency(latency, 99),
            "cpu_us_per_req": 1e6 * est.best_of_passes(cpu) / self.counted_requests,
            "rss_mb": (runner_kb + worker_kb) / 1024.0,
        }
        metrics = at_reference_speed(measured, ("setup_s", "rps", "cpu_us_per_req"),
                                     slowdown)
        metrics["p50_ms"] = est.latency(at_reference, 50)
        metrics["p99_ms"] = est.latency(at_reference, 99)
        detail = {
            "measured": measured,
            "slowdown": slowdown,
            "requests": int(self.ids.shape[0]),
            "steps": int(len(self.sizes)),
            "closed_passes": passes,
            "segment_p50_ms": est.segment_percentiles(latency, 50).tolist(),
            "segment_p99_ms": est.segment_percentiles(latency, 99).tolist(),
            "wait_p50_ms": float(np.median(wait)),
            "p99_tail_samples": est.tail_samples(latency.size),
            "gen_late_p99_ms": float(np.percentile(late, 99)),
            "setup_s_samples": self.setup_s(),
            "rss_runner_mb": runner_kb / 1024.0,
            "rss_workers_mb": worker_kb / 1024.0,
        }
        return {"metrics": metrics, "detail": detail}

    def run_traced(self) -> dict:
        session = self.open()
        plain = self.closed_pass(session, "untraced")
        session.close()
        del session
        self.more_setups()

        tracer = Tracer()
        session = self.open()
        instrument(tracer, session)
        traced = self.closed_pass(session, "traced")
        counters = serving_counters(session)
        session.close()
        del session
        self.more_setups()

        open_tracer = Tracer()
        session = self.open(open_loop=True)
        instrument(open_tracer, session)
        self.open_loop_pass(session, self.recorder.begin("open"), 0, len(self.rows))
        session.close()
        del session
        self.more_setups()

        spans = tracer.table()
        _, late, queue_wait = self.open_loop_times()
        counted = est.counted(est.segment_of(queue_wait.size))

        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(spans))
        metrics.update(counters)
        metrics.update({
            "batcher.queue_wait_p99_ms": float(np.percentile(queue_wait[counted], 99)),
            "runtime.worker_cpu_ms": 1e3 * traced["worker_cpu_s"],
            "artifact.load_ms": 1e3 * statistics.median(self.load_s),
            "session.build_ms": 1e3 * statistics.median(self.build_s),
            "bench.gen_late_p99_ms": float(np.percentile(late, 99)),
            "bench.p99_tail_samples": est.tail_samples(late.size),
            "trace.rps_ratio": traced["rps"] / plain["rps"],
            "trace.coverage": tracer.top_level_ms() / (1e3 * traced["wall_s"]),
        })
        detail = {
            "requests": int(self.ids.shape[0]),
            "untraced_rps": plain["rps"],
            "traced_rps": traced["rps"],
            "traced_wall_ms": 1e3 * traced["wall_s"],
            "spans": spans,
        }
        save_spans(self.work, {"closed": tracer, "open": open_tracer})
        return {"metrics": metrics, "detail": detail}


def instrument(tracer: Tracer, session) -> None:
    """Wrap the public serving methods of one live session for timing."""
    batcher, engine = session.batcher, session.engine
    tracer.wrap(batcher, "submit", "batcher.submit")
    tracer.wrap(batcher, "flush", "batcher.flush", work=lambda: len(batcher))
    tracer.wrap(engine, "validate_ids", "engine.validate_ids")
    if session.runtime is not None:
        tracer.wrap(session.runtime, "predict", "runtime.predict",
                    work=lambda ids: len(ids))
        tracer.wrap(engine, "apply_tower", "engine.apply_tower")
        return
    tracer.wrap(engine, "predict", "engine.predict", work=lambda ids: len(ids))
    if engine.cache is not None:
        for op in ("lookup", "insert", "rows"):
            tracer.wrap(engine.cache, op, f"cache.{op}")
    if engine._qemb is not None:  # reachable only through the engine
        tracer.wrap(engine._qemb, "encode", "quant.encode",
                    work=lambda flat: np.asarray(flat).size)


def layer_metrics(spans: dict) -> dict:
    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    def per_call(name, key, scale=1.0):
        calls = get(name, "calls")
        return scale * get(name, key) / calls if calls else 0.0

    out = {
        "batcher.submit.us_per_call": per_call("batcher.submit", "busy_ms", 1e3),
        "batcher.flush.reqs_per_call": per_call("batcher.flush", "work"),
        "engine.predict.rows_per_call": per_call("engine.predict", "work"),
        "engine.predict.self_ms": get("engine.predict", "self_ms"),
        "runtime.predict.self_ms": get("runtime.predict", "self_ms"),
        "quant.encode.ids": get("quant.encode", "work"),
    }
    for name in ("batcher.submit", "batcher.flush", "engine.predict", "quant.encode"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("batcher.submit", "batcher.flush", "engine.predict",
                 "engine.validate_ids", "engine.apply_tower", "cache.lookup",
                 "cache.insert", "cache.rows", "quant.encode", "runtime.predict",
                 "nn.forward", "nn.embedding.forward", "nn.loss_backward",
                 "nn.clip", "nn.optim.step"):
        out[f"{name}.busy_ms"] = get(name, "busy_ms")
    return out


def serving_counters(session) -> dict:
    engine, cache = session.engine, session.engine.cache
    out = {
        "artifact.bytes": session.artifact.total_bytes(),
        "engine.table_bytes": engine.table_resident_bytes(),
    }
    if session.runtime is not None:
        qos = session.runtime.qos
        out.update({
            "runtime.retries": qos.retries,
            "runtime.timeouts": qos.timeouts,
            "runtime.fallback_requests": qos.fallback_requests,
        })
    elif cache is not None:
        out.update({
            "cache.hit_rate": cache.hit_rate,
            "cache.evictions": cache.evictions,
            "cache.rejected": cache.rejected,
            "cache.store_bytes": cache.store_nbytes(),
        })
    return out


def run_serving(job: dict, work: Path, traced: bool) -> dict:
    bench = Serving(job, work, passes=3 if traced else CLOSED_PASSES + 1)
    result = bench.run_traced() if traced else bench.run()
    np.savez(work / "outputs.npz", **bench.recorder.arrays())
    return result


def save_spans(work: Path, tracers: dict) -> None:
    """Write the raw spans of a traced run, one column set per pass."""
    np.savez(work / "spans.npz", **{
        f"{which}.{col}": arr
        for which, tracer in tracers.items()
        for col, arr in tracer.arrays().items()
    })


# -- training ------------------------------------------------------------------


class ClockedTrainer(Trainer):
    """Timestamps every optimizer step through the documented
    ``_process_gradients`` hook.  Given a yardstick, it also reads it before
    the first step of each tenth of every epoch, with the step clocks
    stopped while it reads.  When traced, it records the clip span and
    the loss-plus-backward span that ends where the clip starts."""

    tracer: Tracer | None = None

    def __init__(self, config: TrainConfig, steps: int,
                 yardstick: Yardstick | None = None) -> None:
        super().__init__(config)
        self.stamps: list[tuple[float, float]] = []
        self.steps = steps
        self.yardstick = yardstick
        self.readings: list[float] = []
        self._reading_at = set(
            np.searchsorted(est.segment_of(steps), range(est.SEGMENTS)).tolist()
        )
        self._stopped = np.zeros(2)  # wall and CPU seconds spent reading

    def _process_gradients(self, opt, batch_size: int) -> None:
        if self.yardstick is not None and len(self.stamps) % self.steps in self._reading_at:
            t0, c0 = time.perf_counter(), time.process_time()
            self.readings.append(self.yardstick.read())
            self._stopped += (time.perf_counter() - t0, time.process_time() - c0)
        cpu = time.process_time()
        start = time.perf_counter()
        self.stamps.append((start - self._stopped[0], cpu - self._stopped[1]))
        super()._process_gradients(opt, batch_size)
        if self.tracer is not None:
            forward_end = self.tracer.spans[self.tracer.last_root][3]
            self.tracer.add("nn.loss_backward", forward_end, start)
            self.tracer.add("nn.clip", start, time.perf_counter())


def run_training(job: dict, work: Path, traced: bool) -> dict:
    wl = WORKLOADS[job["workload"]]
    x, y = np.load(work / "x.npy"), np.load(work / "y.npy")
    seed = job["seed"]
    epochs = 4 if traced else wl.epochs
    config = TrainConfig(
        epochs=epochs, batch_size=wl.batch_size, lr=wl.lr, optimizer="adam",
        grad_clip_norm=wl.grad_clip_norm, seed=seed, shuffle=False,
    )
    steps = len(x) // wl.batch_size
    yardstick = None if traced else Yardstick()
    gc.collect()
    baseline_kb = _proc_kb(os.getpid(), "VmRSS")
    setups = []
    for _ in range(1 if traced else TRAIN_SETUPS):
        model = trainer = state = None
        gc.collect()
        t0 = time.perf_counter()
        model = build_model(wl, seed)
        trainer = ClockedTrainer(config, steps, yardstick)
        state = trainer.init_state(model)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer()
    marks = [(time.perf_counter(), 0)]

    def epoch_hook(st) -> None:
        marks.append((time.perf_counter(), st.optimizer.rows_applied))
        if traced and st.epoch == 2:
            tracer.wrap(model, "forward", "nn.forward")
            tracer.wrap(model.embedding, "forward", "nn.embedding.forward")
            tracer.wrap(st.optimizer, "step", "nn.optim.step")
            trainer.tracer = tracer

    # A non-finite loss raises out of fit; the run then ends without a result.
    losses = trainer.fit(
        model, x, y, task="pointwise", state=state, epoch_hook=epoch_hook
    ).train_loss
    peak_kb = _proc_kb(os.getpid(), "VmHWM") - baseline_kb
    failed = int(not (np.all(np.isfinite(losses)) and losses[-1] < losses[0]))
    if traced:
        wall = np.diff([m[0] for m in marks])
        rate = steps / wall
        untraced_rate, traced_rate = rate[1], float(np.median(rate[2:]))
        spans = tracer.table()
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(spans))
        metrics.update({
            "train.epoch_ms": 1e3 * float(np.median(wall[2:])),
            "nn.optim.rows_per_step": (marks[-1][1] - marks[2][1]) / (2 * steps),
            "trace.rps_ratio": traced_rate / untraced_rate,
            "trace.coverage": tracer.top_level_ms() / (1e3 * wall[2:].sum()),
        })
        detail = {"untraced_steps_per_s": untraced_rate,
                  "traced_steps_per_s": traced_rate, "spans": spans}
        save_spans(work, {"train": tracer})
    else:
        # Unshuffled, every epoch trains the same batches in the same
        # order, so each epoch after the first (warm-up) is a pass over the
        # same steps, and each step is taken at its best epoch, as a
        # serving segment is at its best pass.  A step runs from one
        # gradient update to the next; its first segment is left out, like
        # a serving pass's.
        stamps = np.asarray(trainer.stamps).reshape(epochs, steps, 2)[1:]
        step_s, step_cpu = np.moveaxis(np.diff(stamps, axis=1), 2, 0)
        counted = est.counted(est.segment_of(steps - 1))
        best_s = step_s[:, counted].min(axis=0)
        measured = {
            "setup_s": min(setups),
            "rps": best_s.size / best_s.sum(),
            "p50_ms": 1e3 * float(np.percentile(best_s, 50, method="higher")),
            "p99_ms": 1e3 * float(np.percentile(best_s, 99, method="higher")),
            "cpu_us_per_req": 1e6 * float(step_cpu[:, counted].min(axis=0).mean()),
            "rss_mb": peak_kb / 1024.0,
        }
        readings = np.reshape(trainer.readings, (epochs, est.SEGMENTS))[1:]
        slowdown = Yardstick.slowdown(readings)
        metrics = at_reference_speed(
            measured, ("setup_s", "rps", "p50_ms", "p99_ms", "cpu_us_per_req"), slowdown
        )
        detail = {"steps_per_epoch": steps, "measured": measured, "slowdown": slowdown,
                  "p99_tail_samples": best_s.size // 100, "setup_s_samples": setups}
    detail["losses"] = [float(v) for v in losses]
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": 1,
        "failed": failed,
        "failure": "the training loss did not fall" if failed else None,
    }


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    work = Path(job_path).parent
    # One CPU for this process and the workers it starts, which inherit the
    # mask: each vCPU of a shared host slows down on its own, so a run
    # spread over two measured whichever was slower, and the yardstick then
    # reads the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = run_training if job["kind"] == "training" else run_serving
    result = run(job, work, bool(job["trace"]))
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
