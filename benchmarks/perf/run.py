"""Perf benchmark: open-loop serving and sparse training, with a layer trace.

    python benchmarks/perf/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out PATH]

Writes one workload's inputs from the seed, measures them in a fresh
subprocess (``measured.py``) and prints every metric with its unit, then one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits 1
when any output differs from the reference (the metrics are still
printed) and 2 when the program under test is not beside the benchmark.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: a run must end within 180 s; this leaves room to report
DEADLINE_S = 170.0


#: set before NumPy loads, here and in the measured process.  Threads: there
#: are two vCPUs, and the two-worker workload adds two processes of its own.
#: Peak RSS jumped between two levels 2 MiB apart from run to run unless
#: both the heap layout and page sizes are pinned: a random hash seed gives
#: every process different dict layouts, and whether the kernel grants a
#: transparent huge page depends on how fragmented host memory is.
ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


def _load_stack():
    """Import the program under test from this checkout's ``src``, or exit 2."""
    os.environ.update(ENVIRONMENT)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf bench: no program to measure at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perf bench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import measured
    import workloads

    return measured, workloads


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the measured process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    end = time.monotonic() + 5.0
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure(workloads, name: str, seed: int, seconds: float, trace: bool,
            workdir: Path, deadline: float) -> dict:
    """Prepare inputs, run ``measured.py`` on them, check the served outputs
    and return the result."""
    job = workloads.prepare(name, seconds, seed, str(workdir))
    job["trace"] = trace
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measured.py"), str(job_path)],
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_group(proc)
    if code != 0:
        raise RuntimeError(
            f"{name}: measured process "
            + ("timed out" if code is None else f"exited with code {code}")
        )
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    result["stream_sha256"] = job["stream_sha256"]
    if job["kind"] == "serving":
        check = workloads.check_outputs(job, str(workdir))
        result.update(attempted=check["attempted"], failed=check["failed"],
                      failure=None)
        if check["first"] is not None:
            pass_name, index = check["first"]
            result["failure"] = (
                f"{check['failed']} of {check['attempted']} requests failed; "
                f"the first is request {index} of pass {pass_name}"
            )
    return result


def main(argv=None) -> int:
    start = time.monotonic()
    measured, workloads = _load_stack()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="input seed")
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS,
                        help="length of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the full result as JSON (and, traced, the "
                             "raw spans beside it as .spans.npz)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Inside the benchmark's own directory rather than the system temporary
    # directory: a run reads and writes nothing outside its checkout, and the
    # mmap workload pages its table in from the checkout's disk.
    workdir = HERE / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    workdir.mkdir(parents=True)
    try:
        result = measure(workloads, args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir, start + DEADLINE_S)
        if args.out and args.trace:
            shutil.copyfile(workdir / "spans.npz",
                            Path(args.out).with_suffix(".spans.npz"))
    except RuntimeError as exc:
        print(f"perf bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = measured.PER_LAYER if args.trace else measured.END_TO_END
    metrics = {
        name: {"value": _finite(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  inputs sha256 {result['stream_sha256'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']!s:>24} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **result,
        }, indent=1), encoding="utf-8")
    failed = int(result["failed"])
    if failed or result["failure"]:
        print(f"FAIL {args.workload}: {result['failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def _finite(value):
    """JSON has no infinity; a metric that failed to measure reads null."""
    return value if math.isfinite(value) else None


if __name__ == "__main__":
    sys.exit(main())
