"""Run one workload of the bregblock benchmark.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` beside
this directory, never from an installed copy.  Progress goes to standard
error.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, and with
``--trace 1`` the ``per_layer`` ones.  A fuller record of the run goes to
``perfbench/out/``: the environment, every sample and every metric, plus
the spans of a traced run.

Exit status: 0 when every correctness gate passed, 1 when one failed, and 2
when the source tree or BENCHMARK.json is missing or the arguments are bad.
"""

import os

# BLAS reads its thread count once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def use_source_tree(root: Path = ROOT) -> bool:
    """Put ``root/src`` first on the import path and check that ``bregblock``
    really comes from there."""
    src = root / "src"
    if not (src / "bregblock" / "__init__.py").is_file():
        return False
    for path in (str(root), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bregblock

    return Path(bregblock.__file__).resolve().is_relative_to(src.resolve())


def result_line(report, declared: list[dict]) -> dict:
    """The result object: ``declared`` metrics with their units."""
    return {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": report.metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not use_source_tree():
        print(f"error: need {spec_path} and the bregblock sources in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]

    report = bench.run_workload(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), OUT_DIR / "work")
    line = result_line(report, declared)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "environment": bench.environment(ROOT), **line,
              "all_metrics": report.metrics, **report.detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, default=str))
    if report.recorder is not None:
        report.recorder.save(stem.with_suffix(".spans.npz"))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
