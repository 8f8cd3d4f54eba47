"""Unit tests of the perf benchmark's own arithmetic and contract.

They check the numbers the benchmark reports without measuring anything:
the open-loop schedule, the segment estimators, span self times, the
output check, and that the runner emits exactly the names BENCHMARK.json
declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import estimators as est  # noqa: E402
import outputs  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- open-loop schedule -------------------------------------------------------


def test_schedule_is_monotone_and_spans_n_over_rate():
    sizes = np.array([3, 0, 7, 5, 12, 1, 0, 4])
    rate = 250.0
    due = est.open_loop_schedule(sizes, rate)
    assert due.size == sizes.sum()
    assert due[0] == 0.0
    assert np.all(np.diff(due) > 0)
    ticks = sizes.size
    tick = sizes.sum() / ticks / rate
    assert ticks * tick == pytest.approx(sizes.sum() / rate)
    assert due[-1] < sizes.sum() / rate


def test_burst_tick_arrives_at_four_times_the_rate():
    # Mean 7 requests per step; the last step holds 4x the mean.
    sizes = np.array([4] * 7 + [28])
    rate = 1000.0
    due = est.open_loop_schedule(sizes, rate)
    burst = due[-28:]
    assert np.allclose(np.diff(burst), 1.0 / (4 * rate))
    quiet = due[:4]
    assert np.allclose(np.diff(quiet), 7.0 / 4 / rate)
    # The burst tick starts exactly where the seven quiet ticks end.
    assert burst[0] == pytest.approx(7 * 7 / rate)


# -- segment estimators --------------------------------------------------------


def test_segments_split_requests_evenly_and_drop_warmup():
    seg = est.segment_of(1000)
    assert np.bincount(seg).tolist() == [100] * est.SEGMENTS
    lat = np.ones(1000)
    lat[seg == 0] = 1e6  # a slow warm-up must not show
    assert est.latency(lat, 50) == 1.0
    assert est.latency(lat, 99) == 1.0
    assert est.tail_samples(1000) == 1


def test_latency_is_the_lower_quartile_of_segment_percentiles():
    rng = np.random.default_rng(0)
    lat = rng.uniform(1.0, 2.0, 10_000)
    seg = est.segment_of(lat.size)
    lat[np.isin(seg, [2, 4, 5, 8])] += 50.0  # stalls in four of nine segments
    p99s = est.segment_percentiles(lat, 99)
    assert p99s.size == est.SEGMENTS - est.WARMUP_SEGMENTS
    # The nine sorted p99s interpolate to the third smallest.
    assert est.latency(lat, 99) == np.sort(p99s)[2]
    assert est.latency(lat, 99) < 2.0
    lat[seg != 0] += 0.5  # a cost every segment pays shows in full
    assert 2.0 < est.latency(lat, 99) < 2.5
    lat[seg == 7] = np.inf  # failed requests count as +inf
    assert np.isinf(est.segment_percentiles(lat, 99)).sum() == 1


def test_best_of_passes_takes_each_segment_best_and_skips_warmup():
    # Three passes over the same ten segments of 1 s each; every pass is
    # slowed somewhere, and the warm-up segment is slow in all of them.
    seconds = np.ones((3, est.SEGMENTS))
    seconds[:, 0] = 9.0
    seconds[0, 2:5] = 2.0
    seconds[1, 5:9] = 3.0
    seconds[2, 1:3] = 1.5
    assert est.best_of_passes(seconds) == est.SEGMENTS - est.WARMUP_SEGMENTS
    seconds[:, 4] += 0.5  # a cost every pass pays shows in full
    assert est.best_of_passes(seconds) == est.SEGMENTS - est.WARMUP_SEGMENTS + 0.5


def test_yardstick_scales_compute_metrics_to_the_reference_speed():
    import measured

    ref = measured.Yardstick.REFERENCE_S
    # Readings before each segment of three passes: twice as slow as the
    # reference, but for a slow stretch over one pass and the warm-up.
    readings = np.full((3, est.SEGMENTS), 2 * ref)
    readings[0, 3:] = 5 * ref
    readings[:, 0] = 9 * ref
    slowdown = measured.Yardstick.slowdown(readings)
    assert slowdown == pytest.approx(2.0)
    scaled = measured.at_reference_speed(
        {"rps": 100.0, "setup_s": 4.0, "p50_ms": 3.0}, ("rps", "setup_s"), slowdown
    )
    assert scaled == pytest.approx({"rps": 200.0, "setup_s": 2.0, "p50_ms": 3.0})
    assert measured.Yardstick().read() > 0


def test_open_loop_chunks_cover_the_stream_in_whole_segments():
    from types import SimpleNamespace

    import measured

    n = 1003
    chunks = measured.Serving.open_loop_chunks(SimpleNamespace(rows=range(n)))
    assert len(chunks) == measured.OPEN_LOOP_CHUNKS
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    seg = est.segment_of(n)
    counted = [sorted(set(seg[a:b].tolist()) - {0}) for a, b in chunks]
    assert counted == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert seg[0] == 0  # the warm-up segment opens the first chunk


def test_summarize_uses_statistics_quartiles():
    s = est.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (s["median"], s["q1"], s["q3"]) == (5.5, 2.75, 8.25)
    assert s["spread"] == pytest.approx(5.5 / 5.5)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    #        0: root [0, 10]
    #        1: a    [1, 4]   child of root
    #        2: a.x  [2, 3]   child of a
    #        3: b    [5, 9]   child of root
    starts = np.array([0.0, 1, 2, 5])
    ends = np.array([10.0, 4, 3, 9])
    parents = np.array([-1, 0, 1, 0])
    own = self_times(ends - starts, parents)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def call(self, n):
        if self.inner is not None:
            for _ in range(n):
                self.inner.call(0)
        return n


def test_tracer_nests_spans_and_shares_root_ids():
    inner = _Layer()
    outer = _Layer(inner)
    tracer = Tracer()
    tracer.wrap(inner, "call", "inner")
    tracer.wrap(outer, "call", "outer", work=lambda n: n)
    assert outer.call(3) == 3 and outer.call(2) == 2
    cols = tracer.arrays()
    assert cols["name"].tolist() == ["outer"] + ["inner"] * 3 + ["outer"] + ["inner"] * 2
    assert cols["parent"].tolist() == [-1, 0, 0, 0, -1, 4, 4]
    assert cols["root"].tolist() == [0, 0, 0, 0, 4, 4, 4]
    table = tracer.table()
    assert table["outer"]["calls"] == 2 and table["outer"]["work"] == 5
    total_self = sum(v["self_ms"] for v in table.values())
    assert total_self == pytest.approx(tracer.top_level_ms())
    assert table["outer"]["busy_ms"] == pytest.approx(
        table["outer"]["self_ms"] + table["inner"]["busy_ms"]
    )


# -- output check --------------------------------------------------------------


class _Done:
    def __init__(self, result):
        self.result = result


def _predict(ids):
    # Depends on the batch it is computed in, like a real tower can.
    return (ids.astype(np.float32) * 0.5 + np.float32(len(ids))).repeat(2, axis=1)


def _record(ids, flush_sizes, max_batch, flip=None):
    rec = outputs.Recorder(len(ids), passes=1)
    p = rec.begin("closed1")
    start = 0
    for size in flush_sizes:
        end = start + size
        rows = np.concatenate([
            _predict(ids[a : min(a + max_batch, end)])
            for a in range(start, end, max_batch)
        ])
        if flip is not None and start <= flip < end:
            rows[flip - start].view(np.uint32)[1] ^= np.uint32(1)
        rec.settle(start, [_Done(r) for r in rows], p)
        start = end
    return rec.arrays()


def test_output_check_passes_on_identical_batches():
    ids = np.arange(50).reshape(25, 2)
    record = _record(ids, [7, 3, 15], max_batch=4)
    assert outputs.verify(record, _predict, ids, 4) == {
        "attempted": 25, "failed": 0, "first": None,
    }


def test_one_flipped_bit_fails_and_names_the_request():
    ids = np.arange(50).reshape(25, 2)
    record = _record(ids, [7, 3, 15], max_batch=4, flip=12)
    check = outputs.verify(record, _predict, ids, 4)
    assert check["failed"] == 1
    assert check["failed"] / check["attempted"] > 0
    assert check["first"] == ("closed1", 12)


def test_unresolved_request_fails():
    ids = np.arange(8).reshape(4, 2)
    rec = outputs.Recorder(4, passes=2)
    p = rec.begin("open")
    rec.begin("closed1")  # a pass begun later does not take the open pass's rows
    first, second = _predict(ids[:2]), _predict(ids[2:])
    rec.settle(0, [_Done(first[0]), _Done(None)], p)
    rec.settle(2, [_Done(second[0]), _Done(second[1])], p)
    record = rec.arrays()
    record = {k: v[:1] for k, v in record.items()}  # the open pass only
    check = outputs.verify(record, _predict, ids, 64)
    assert (check["failed"], check["first"]) == (1, ("open", 1))


# -- the runner ----------------------------------------------------------------


def test_benchmark_json_is_well_formed():
    import re

    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    assert 2 <= len(names) <= 8 and len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(name.match(m["name"]) and unit.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workload_names_match_the_runner():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_seconds_agree():
    import workloads

    assert SPEC["run_seconds"] == workloads.RUN_SECONDS


@pytest.mark.parametrize("name", ["longseq-ttrec-int8", "drift-memcom-w2"])
def test_full_run_puts_48_samples_beyond_each_segment_p99(name):
    # The two workloads whose streams fell furthest short of their size.
    import workloads

    wl = workloads.WORKLOADS[name]
    ids = workloads.traffic_arrays(wl, workloads.RUN_SECONDS, workloads.DEFAULT_SEED)[0]
    assert est.tail_samples(ids.shape[0]) >= 48


def test_worker_cpu_has_nanosecond_resolution():
    import measured

    # A worker is read while it waits, as the child is here: the kernel
    # brings a task's count up to date when it stops running.
    burn = (
        "import sys, time\n"
        "sys.stdin.readline()\n"
        "c0 = time.process_time()\n"
        "while time.process_time() < c0 + 0.025: pass\n"
        "print(time.process_time() - c0, flush=True)\n"
        "sys.stdin.readline()\n"
    )
    child = subprocess.Popen([sys.executable, "-c", burn], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        time.sleep(0.2)
        before = measured.cpu_seconds(child.pid)
        child.stdin.write("go\n")
        child.stdin.flush()
        burnt = float(child.stdout.readline())
        time.sleep(0.05)
        spent = measured.cpu_seconds(child.pid) - before
    finally:
        child.kill()
        child.wait()
    # 25 ms would read 20 or 30 ms in clock ticks.
    assert spent == pytest.approx(burnt, abs=1e-3)


def test_seed_changes_the_stream_checksum():
    import workloads

    serving = workloads.WORKLOADS["drift-memcom"]
    a = workloads.traffic_arrays(serving, 0.05, seed=1)[2]
    assert a == workloads.traffic_arrays(serving, 0.05, seed=1)[2]
    assert a != workloads.traffic_arrays(serving, 0.05, seed=2)[2]
    training = workloads.WORKLOADS["train-memcom-1m"]
    b = workloads.training_arrays(training, 0.05, seed=1)[2]
    assert b != workloads.training_arrays(training, 0.05, seed=2)[2]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/perf/run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_emits_the_declared_metrics(trace, section):
    proc = _run("--workload", "drift-memcom", "--seed", "3", "--seconds", "0.05",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_failed_outputs_exit_1_and_name_the_request(monkeypatch, capsys):
    import measured
    import run

    def failing(workloads, name, *args):
        return {"metrics": dict.fromkeys(measured.END_TO_END, 1.0),
                "attempted": 10, "failed": 1, "stream_sha256": "0" * 64,
                "failure": "1 of 10 requests failed; the first is request 7 of pass open"}

    monkeypatch.setattr(run, "measure", failing)
    for key in run.ENVIRONMENT:  # restored after the test
        monkeypatch.setenv(key, "")
    assert run.main(["--workload", "drift-memcom", "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    assert "drift-memcom" in err and "request 7" in err
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "drift-memcom", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
