"""Record a set of runs of every workload into a trajectory point.

    python3 perfbench/collect.py --out perfbench/BENCH_<name>.json

Run from the repository root.  Each run is a fresh process of ``run.py``.
The untraced runs go seed by seed through every workload in turn, so that a
slow stretch of the host falls on all workloads alike rather than on the
ten runs of one.  For every workload they give each end-to-end metric's
median, quartiles and spread (interquartile range over median); two traced
runs give the per-layer metrics.  The set is appended to the ``sets`` of
``--out``, so repeated calls record how far sets of the same code differ.
Timing medians follow the host's speed: compare two commits only on sets
that alternate between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    line = json.loads(done.stdout.splitlines()[-1]) if done.stdout.strip() else None
    if done.returncode != 0 or line is None or not line["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr[-3000:]}")
    print(f"{workload} seed {seed} trace {trace}: {line['metrics']}", file=sys.stderr, flush=True)
    return line


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
    traced = {name: [run_once(name, seed, seconds, 1) for seed in TRACED_SEEDS]
              for name in names}

    environment = json.loads(
        (ROOT / "perfbench" / "out" / f"{names[-1]}-seed{SEEDS[-1]}-trace0.json").read_text()
    )["environment"]
    record = {"started": started, "run_seconds": seconds, "environment": environment,
              "workloads": {}}
    for name in names:
        record["workloads"][name] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **summarize([r["metrics"][m["name"]]["value"] for r in runs[name]])}
                for m in spec["end_to_end"]
            },
            "per_layer": {
                m["name"]: {"unit": m["unit"],
                            "values": [r["metrics"][m["name"]]["value"] for r in traced[name]]}
                for m in spec["per_layer"]
            },
        }
    out = Path(args.out)
    sets = json.loads(out.read_text())["sets"] if out.is_file() else []
    out.write_text(json.dumps({"sets": sets + [record]}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
