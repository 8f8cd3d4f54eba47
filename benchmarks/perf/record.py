"""Record how the perf benchmark repeats on this machine.

    python benchmarks/perf/record.py [--out benchmarks/perf/results/seed.json]

Runs every workload untraced once per seed on ``SEEDS`` seeds, ``SETS``
times over with fresh seeds, each run as long as ``run_seconds`` in
BENCHMARK.json, then once traced with its default seed.  Writes each
metric's values, median, quartiles and spread per set (and those of the
unscaled values and of the runs' slowdowns), the change of the median
between sets against the bound in BENCHMARK.json, the per-layer breakdown
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

import estimators as est  # noqa: E402

#: sets of runs of the same code, each on its own seeds
SETS = 2
#: runs per workload and set, one seed each
SEEDS = 10


def run_once(workload: str, seed: int | None, seconds: float, trace: int,
             tmp: str) -> dict:
    out = os.path.join(tmp, f"{workload}-{seed}-{trace}.json")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", f"{seconds:g}", "--trace", str(trace), "--out", out]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        full = json.load(fh)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "wall_s": time.monotonic() - start,
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "detail": full["detail"],
        "attempted": line["attempted"],
        "failed": line["failed"],
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "results" / "seed.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [[s * SEEDS + i + 1 for i in range(SEEDS)] for s in range(SETS)]

    # Inside the benchmark's directory, like run.py's work directories.
    (HERE / ".work").mkdir(exist_ok=True)
    runs = {name: [[] for _ in seeds] for name in names}
    traced = {}
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for s, set_seeds in enumerate(seeds):
            for seed in set_seeds:
                for name in names:
                    r = run_once(name, seed, seconds, 0, tmp)
                    runs[name][s].append({"seed": seed, **r})
                    print(f"set {s + 1} seed {seed} {name}: {r['wall_s']:.1f}s "
                          + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                          flush=True)
        for name in names:
            traced[name] = run_once(name, None, seconds, 1, tmp)
            print(f"traced {name}: {traced[name]['wall_s']:.1f}s", flush=True)

    doc = {
        "machine": machine(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        sets = []
        for set_runs in runs[name]:
            sets.append({
                **{metric: {"values": [r["metrics"][metric] for r in set_runs],
                            **est.summarize([r["metrics"][metric] for r in set_runs]),
                            "unscaled": est.summarize(
                                [r["detail"]["measured"][metric] for r in set_runs])}
                   for metric in bounds},
                "slowdown": {"values": [r["detail"]["slowdown"] for r in set_runs],
                             **est.summarize([r["detail"]["slowdown"] for r in set_runs])},
            })
        entry = {
            "sets": sets,
            "run_wall_s": [r["wall_s"] for set_runs in runs[name] for r in set_runs],
            "failed": sum(r["failed"] for set_runs in runs[name] for r in set_runs),
            "traced": {
                "metrics": traced[name]["metrics"],
                "spans": traced[name]["detail"].get("spans", {}),
                "wall_s": traced[name]["wall_s"],
            },
            "median_worse_by": {
                metric: worse_by(sets[0][metric]["median"], sets[-1][metric]["median"],
                                 bounds[metric]["better"])
                for metric in bounds
            },
        }
        doc["workloads"][name] = entry

    doc["verdict"] = {
        metric: {
            "bound": m["bound"],
            "max_spread": max(st[metric]["spread"] for w in doc["workloads"].values()
                              for st in w["sets"]),
            "max_median_worse_by": max(w["median_worse_by"][metric]
                                       for w in doc["workloads"].values()),
        }
        for metric, m in bounds.items()
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for metric, v in doc["verdict"].items():
        print(f"{metric:<16} bound {v['bound']:.2f}  max spread {v['max_spread']:.3f}  "
              f"max median change {v['max_median_worse_by']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
