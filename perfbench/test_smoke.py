"""Smoke test of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is produced, that tracing
leaves the program's functions as it found them, that the host-speed probe
takes its own time out and leaves SIGALRM as it found it, and that a
failing correctness gate shows up in ``failed`` and in the exit status.
"""

import json
import math
import signal
import time
from dataclasses import replace

import pytest

from perfbench import run

if not run.use_source_tree():
    pytest.skip("bregblock sources not found next to perfbench/", allow_module_level=True)

from perfbench import bench, hostspeed  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "certify-small": dict(m=8, r=2),
    "file-roundtrip": dict(m=10, r=2, max_iters=3),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    tiny = {name: replace(w, **TINY[name]) for name, w in bench.WORKLOADS.items()}
    monkeypatch.setattr(bench, "WORKLOADS", tiny)
    return tiny


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_declared_metric_is_printed(tiny_workloads, tmp_path, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and line["correct"] and line["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]


def test_tracing_restores_every_original(tiny_workloads, tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in bench.TARGETS]
    report = bench.run_workload(tiny_workloads["file-roundtrip"], 1, 0, True, tmp_path)
    assert report.failed == 0 and len(report.recorder) > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left patched"


def test_calls_per_sweep_repeat_exactly(tiny_workloads, tmp_path):
    w = tiny_workloads["certify-small"]
    first, second = (bench.run_workload(w, 5, 0, True, tmp_path).metrics for _ in range(2))
    counts = [k for k in first if k.endswith(".calls_per_sweep")]
    assert counts and all(first[k] == second[k] for k in counts)


def test_failing_gate_is_counted_and_exits_nonzero(tiny_workloads, monkeypatch, capsys):
    # a sweep budget too small to reach the certified residual
    short = replace(tiny_workloads["certify-small"], max_iters=2)
    monkeypatch.setitem(bench.WORKLOADS, "certify-small", short)
    code = run.main(["--workload", "certify-small", "--seed", "3", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and not line["correct"]
    assert line["failed"] == line["attempted"] >= bench.MIN_ITERATIONS


def test_probe_takes_out_its_time_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe(interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.3:
            pass
        t1 = time.perf_counter()
        time.sleep(0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) >= 5
    busy = t1 - t0 - probe.overhead(t0, t1)
    assert 0 < busy < t1 - t0
    assert probe.normalise(t0, t1) == busy * hostspeed.REFERENCE_S / probe.burst_s(t0, t1)
