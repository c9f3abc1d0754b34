"""Workloads, correctness gates and metrics of the bregblock benchmark.

Each workload repeats one *iteration* of the user's path (hand the input
over, solve, write the outputs) and sends every iteration through the
correctness gate.  An untraced run repeats iterations until its time is up
and reports the median over its iterations, with every time taken to the
host's reference speed (see ``hostspeed``).  A traced run alternates an
untraced iteration with a traced one; the traced one records a span for
every call into the program's public functions (see ``tracer``) and gives
the per-layer metrics, and its wall time over the untraced one's is the
tracing overhead.  Traced times never enter the end-to-end metrics.

The two workloads stress different layers:

* ``certify-small``: the acceptance instance (planted, noiseless, m=30,
  r=3) solved to the certified residual tolerance.  A sweep here is
  dominated by Python-level work in ``solver`` and ``blocks``.
* ``file-roundtrip``: the ``synth`` -> ``solve`` path on a planted, noisy
  m=1000, r=10 instance: write X as MatrixMarket, read it back, then a
  fixed budget of sweeps with inertia (kappa=0.6).  Reading and writing X
  dominate an iteration; within the solve, the m^2 r matrix products in
  ``symtrinmf`` dominate a sweep.

In every workload the seed permutes the rows and columns of a fixed planted
instance (see ``make_inputs``), so sweep counts and fit are the same for
every seed and only the program's speed varies between runs.
"""

from __future__ import annotations

import contextlib
import io as text_io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import bregblock
from bregblock import blocks, cli, diagnostics, solver
from bregblock import io as bio
from bregblock import symtrinmf as stf

from . import hostspeed, tracer

PLANTED_SEED = 7  # synth seed of the acceptance instance (criteria 6 and 8)
RESIDUAL_TOL = 1e-8
RHO = 0.9
MIN_ITERATIONS = 3  # the sweep-repeat check and the estimates need several solves
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One workload.  ``certify`` solves to the certified residual
    tolerance and must recover the planted communities; otherwise the solve
    stops after ``max_iters`` sweeps.  ``via_file`` hands X over as a
    MatrixMarket file.  ``setup_reps`` is how many times an untraced
    iteration times the set-up."""

    name: str
    m: int
    r: int
    noise: float
    kappa: float
    max_iters: int
    certify: bool = False
    via_file: bool = False
    setup_reps: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-small", m=30, r=3, noise=0.0, kappa=0.0, max_iters=200_000,
                 certify=True, setup_reps=500),
        Workload("file-roundtrip", m=1000, r=10, noise=0.1, kappa=0.6, max_iters=40,
                 via_file=True),
    )
}


# ---------------------------------------------------------------- inputs


def planted(m: int, r: int, noise: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Planted-community matrix X = U* V* U*^T (+ symmetric noise) and the
    planted community of each row.

    Draws the same random stream as ``bregblock.io.synth_instance`` at
    density 1, so seed 7 gives the acceptance instance, but lives here so
    that the inputs do not change when the program does.
    """
    rng = np.random.default_rng(seed)

    def grid(shape, lo, hi):
        return lo + (hi - lo) * rng.integers(0, 64, size=shape) / 64.0

    labels = np.arange(m) % r
    U = grid((m, r), 0.0, 0.25)
    rng.random((m, r))  # synth_instance's density mask, all ones at density 1
    U[np.arange(m), labels] = grid(m, 1.0, 2.0)
    diag = grid(r, 1.0, 2.0)
    off = grid((r, r), 0.0, 0.5)
    rng.random((r, r))
    V = np.triu(off, 1)
    V = V + V.T + np.diag(diag)
    X = U @ V @ U.T
    if noise > 0:
        raw = rng.random((m, m))
        X = X + noise * X.mean() * 0.5 * (raw + raw.T)
    return X, labels


@dataclass(frozen=True)
class Inputs:
    """What the program is handed: X and the start U0, V0."""

    X: np.ndarray
    labels: np.ndarray
    U0: np.ndarray
    V0: np.ndarray


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The planted instance of ``w`` and the start ``initial_factors(inst,
    seed=0)`` builds for it, with rows and columns permuted by ``seed``.

    A symmetric permutation is an exact symmetry of the problem, so every
    seed poses the same problem in a different input: sweep counts and fit
    agree across seeds up to rounding, and only the program's speed varies.
    """
    X, labels = planted(w.m, w.r, w.noise, PLANTED_SEED)
    U0 = np.random.default_rng(0).random((w.m, w.r))
    V0 = (float(np.linalg.norm(X)) / float(np.linalg.norm(U0 @ U0.T))) * np.eye(w.r)
    p = np.random.default_rng(seed).permutation(w.m)
    return Inputs(X[np.ix_(p, p)], labels[p], U0[p], V0)


# ---------------------------------------------------------------- gate


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index of two labelings (1 exactly when they agree up
    to renaming)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    both, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(len(a))]))
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else (both - expected) / (top - expected)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_trace(path: Path) -> list:
    """The trace JSON written by ``trace_to_json``, back as records."""
    return [
        solver.IterationRecord(
            k=row["k"], phi=row["phi"], lyapunov=row["lyapunov"],
            residual_norm=row["residual"], gaps=tuple(row["gaps"]),
            elapsed_seconds=row["seconds"],
        )
        for row in json.loads(path.read_text())
    ]


def gate(w: Workload, inp: Inputs, schedule, prefix: str, termination,
         U=None, V=None) -> tuple[list[str], list]:
    """Check one iteration's outputs; returns (failures, trace read back).

    The written factors must read back bitwise equal to ``U``, ``V`` when
    given, they must be finite and nonnegative, the labels file must match
    them, and the written trace must pass the Lyapunov audit.  ``certify`` also needs
    termination by the residual tolerance and exact community recovery;
    otherwise the solve must use its whole sweep budget.
    """
    failures = []
    trace = read_trace(Path(f"{prefix}_trace.json"))
    audit = diagnostics.audit_trace(trace, schedule)
    if not audit["passed"]:
        failures.append(f"Lyapunov audit failed at k={audit['first_fail_k']}")
    expected = "residual_tol" if w.certify else "max_iters"
    if termination != expected:
        failures.append(f"terminated by {termination}, expected {expected}")
    U_back = bio.read_matrix(f"{prefix}_U.mtx", require_square=False)
    V_back = bio.read_matrix(f"{prefix}_V.mtx")
    if U is not None and not (same_bits(U_back, U) and same_bits(V_back, V)):
        failures.append("factors do not read back bitwise equal")
    if not (np.isfinite(U_back).all() and np.isfinite(V_back).all()):
        failures.append("factors are not finite")
    elif (U_back < 0).any() or (V_back < 0).any():
        failures.append("factors are negative")
    else:
        labels = stf.community_assignment(U_back)
        if not np.array_equal(bio.read_labels(f"{prefix}_labels.txt"), labels):
            failures.append("labels file does not match the factors")
        if w.certify and adjusted_rand_index(labels, inp.labels) != 1.0:
            failures.append("planted communities not recovered exactly")
    return failures, trace


# ---------------------------------------------------------------- iterations


Interval = tuple[float, float]  # (start, end) readings of time.perf_counter


@dataclass
class Sample:
    """One untraced iteration: when each step of the user's path ran and
    what it produced."""

    setups: list[Interval]
    solve: Interval
    total: Interval
    sweeps: int
    rel_error: float
    residual_rel: float
    failures: list[str] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return self.solve[1] - self.solve[0]

    @property
    def total_s(self) -> float:
        return self.total[1] - self.total[0]


def write_outputs(prefix: str, result, factors) -> None:
    """The outputs ``bregblock solve`` writes: factors, labels, trace JSON."""
    bio.write_matrix_market(f"{prefix}_U.mtx", factors.U)
    bio.write_matrix_market(f"{prefix}_V.mtx", factors.V)
    bio.write_labels(f"{prefix}_labels.txt", stf.community_assignment(factors.U))
    Path(f"{prefix}_trace.json").write_text(solver.trace_to_json(result.trace))


def library_iteration(w: Workload, inp: Inputs, schedule, work: Path, repeat: bool) -> Sample:
    """The user's path through the same public calls ``bregblock synth`` and
    ``bregblock solve`` make, timed step by step, then the gate.  With
    ``repeat`` the set-up runs ``w.setup_reps`` times, each one a sample."""
    x_path = work / "x.mtx"

    def setup():
        X = bio.read_matrix(x_path) if w.via_file else inp.X
        inst = stf.SymTriInstance(X, w.r)
        x0 = stf.pack_factors(inst, inp.U0, inp.V0)
        return X, inst, x0

    setups = []
    for _ in range(w.setup_reps - 1 if repeat else 0):
        t = time.perf_counter()
        setup()
        setups.append((t, time.perf_counter()))

    start = time.perf_counter()
    if w.via_file:
        bio.write_matrix_market(x_path, inp.X)
    t0 = time.perf_counter()
    X, inst, x0 = setup()
    t1 = time.perf_counter()
    result, factors = stf.solve_instance(
        inst, kappa=w.kappa, rho=RHO, max_iters=w.max_iters, residual_tol=RESIDUAL_TOL, x0=x0,
    )
    t2 = time.perf_counter()
    rel_error = stf.relative_error(inst, factors.U, factors.V)
    prefix = str(work / "out")
    write_outputs(prefix, result, factors)
    end = time.perf_counter()

    failures, trace = gate(w, inp, schedule, prefix, result.termination, factors.U, factors.V)
    if w.via_file and not same_bits(X, inp.X):
        failures.append("X does not read back bitwise equal")
    setups.append((t0, t1))
    return Sample(
        setups=setups, solve=(t1, t2), total=(start, end),
        sweeps=trace[-1].k, rel_error=rel_error,
        residual_rel=trace[-1].residual_norm / (1.0 + trace[0].residual_norm),
        failures=failures,
    )


def cli_iteration(w: Workload, inp: Inputs, schedule, work: Path) -> tuple[float, list[str]]:
    """``file-roundtrip`` driven through ``cli.main``: write X, then
    ``bregblock solve`` with every output.  The CLI draws its own start
    (``--seed 0``), so the gate compares its outputs with each other, not
    with the library path's factors."""
    x_path, prefix = work / "x.mtx", str(work / "cli")
    argv = [
        "solve", "--input", str(x_path), "--rank", str(w.r), "--kappa", repr(w.kappa),
        "--rho", repr(RHO), "--seed", "0", "--max-iters", str(w.max_iters),
        "--residual-tol", repr(RESIDUAL_TOL), "--trace-out", f"{prefix}_trace.json",
        "--factors-out", prefix, "--labels-out", f"{prefix}_labels.txt",
    ]
    printed = text_io.StringIO()
    start = time.perf_counter()
    bio.write_matrix_market(x_path, inp.X)
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    fields = dict(line.split(": ", 1) for line in printed.getvalue().splitlines() if ": " in line)
    failures = [] if code == 0 else [f"bregblock solve exited with status {code}"]
    if code == 0:
        failures += gate(w, inp, schedule, prefix, fields.get("termination"))[0]
    return wall, failures


@contextlib.contextmanager
def iteration_dir(work: Path, n: int):
    path = work / f"it{n}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------- tracing

# span name -> (owner, attribute) pairs: each function is patched where the
# program looks it up (``solver`` and ``cli`` hold their own references to
# names imported from ``blocks``/``solver``; methods live on the class)
SPANS = {
    "symtrinmf.f_value": [(stf, "f_value")],
    "symtrinmf.grad_U": [(stf, "grad_U")],
    "symtrinmf.grad_V": [(stf, "grad_V")],
    "symtrinmf.update_U": [(stf, "update_U")],
    "symtrinmf.update_V": [(stf, "update_V")],
    "symtrinmf.kernel_h1_value": [(stf, "kernel_h1_value")],
    "symtrinmf.kernel_h1_grad": [(stf, "kernel_h1_grad")],
    "symtrinmf.kernel_h2_value": [(stf, "kernel_h2_value")],
    "symtrinmf.kernel_h2_grad": [(stf, "kernel_h2_grad")],
    "symtrinmf.relative_error": [(stf, "relative_error")],
    "symtrinmf.solve_instance": [(stf, "solve_instance")],
    "symtrinmf.SymTriInstance": [(stf.SymTriInstance, "__init__")],
    "solver.run": [(solver, "run"), (stf, "run")],
    "solver.sweep_with_partials": [(solver, "sweep_with_partials")],
    "solver.solve_block_subproblem": [(solver, "solve_block_subproblem")],
    "solver.stationarity_residual": [(solver, "stationarity_residual")],
    "solver.lyapunov_value": [(solver, "lyapunov_value")],
    "solver.trace_to_json": [(solver, "trace_to_json"), (cli, "trace_to_json")],
    "blocks.phi_value": [(blocks, "phi_value"), (solver, "phi_value")],
    "blocks.block_bregman_distance": [(blocks, "block_bregman_distance"),
                                      (solver, "block_bregman_distance")],
    "blocks.full_gradient": [(blocks, "full_gradient"), (solver, "full_gradient")],
    "blocks.BlockVector.with_block": [(blocks.BlockVector, "with_block")],
    "io.read_matrix": [(bio, "read_matrix")],
    "io.write_matrix_market": [(bio, "write_matrix_market")],
    "io.write_labels": [(bio, "write_labels")],
    "diagnostics.audit_trace": [(diagnostics, "audit_trace")],
    "cli.main": [(cli, "main")],
}
TARGETS = [(owner, attr, name) for name, places in SPANS.items() for owner, attr in places]

# layers that sum several spans; any other layer is the span of its name
SPAN_GROUPS = {
    "symtrinmf.kernel": ("symtrinmf.kernel_h1_value", "symtrinmf.kernel_h1_grad",
                         "symtrinmf.kernel_h2_value", "symtrinmf.kernel_h2_grad"),
    "symtrinmf.xproducts": ("symtrinmf.grad_U", "symtrinmf.grad_V", "symtrinmf.f_value"),
    "solver.sweep": ("solver.sweep_with_partials", "solver.solve_block_subproblem"),
    "solver.residual": ("solver.stationarity_residual",),
    "solver.lyapunov": ("solver.lyapunov_value",),
    "blocks.bregman": ("blocks.block_bregman_distance",),
    "blocks.phi": ("blocks.phi_value",),
    "blocks.with_block": ("blocks.BlockVector.with_block",),
}

# the per-layer metrics "<layer>.<quantity>" of a traced run: those of
# BENCHMARK.json, plus cli.main's self time, which only file-roundtrip has
# and which therefore goes into the run record alone
LAYER_QUANTITIES = {
    "symtrinmf.grad_U": ("calls_per_sweep", "self_ms_per_sweep"),
    "symtrinmf.grad_V": ("calls_per_sweep", "self_ms_per_sweep"),
    "symtrinmf.f_value": ("calls_per_sweep", "self_ms_per_sweep"),
    "symtrinmf.update_U": ("self_ms_per_sweep",),
    "symtrinmf.update_V": ("self_ms_per_sweep",),
    "symtrinmf.kernel": ("calls_per_sweep", "self_ms_per_sweep"),
    "symtrinmf.xproducts": ("share_of_run",),
    "symtrinmf.SymTriInstance": ("ms",),
    "symtrinmf.relative_error": ("ms",),
    "solver.run": ("ms_per_sweep", "self_ms_per_sweep"),
    "solver.sweep": ("self_ms_per_sweep",),
    "solver.residual": ("ms_per_sweep", "self_ms_per_sweep"),
    "solver.lyapunov": ("ms_per_sweep",),
    "solver.trace_to_json": ("ms",),
    "blocks.bregman": ("calls_per_sweep", "self_ms_per_sweep"),
    "blocks.phi": ("calls_per_sweep", "self_ms_per_sweep"),
    "blocks.with_block": ("calls_per_sweep", "self_ms_per_sweep"),
    "io.read_matrix": ("s", "mb_per_s"),
    "io.write_matrix_market": ("s", "mb_per_s"),
    "io.write_labels": ("ms",),
    "diagnostics.audit_trace": ("ms",),
    "cli.main": ("self_ms",),
}


def layer_metrics(summary: tracer.SpanSummary, iterations: int, mtx_bytes: int,
                  overhead: float) -> dict[str, float]:
    """The metrics of LAYER_QUANTITIES and ``trace.overhead_ratio``.
    ``*_per_sweep`` divides by the traced sweeps (spans inside ``run``);
    ``ms``, ``self_ms`` and ``s`` are per traced iteration, gate included."""
    sweeps = max(summary.sweeps, 1)
    run_ns = summary.totals(("solver.run",)).run_ns
    out: dict[str, float] = {}
    for layer, quantities in LAYER_QUANTITIES.items():
        t = summary.totals(SPAN_GROUPS.get(layer, (layer,)))
        values = {
            "calls_per_sweep": t.sweep_calls / sweeps,
            "ms_per_sweep": t.run_ns / sweeps / 1e6,
            "self_ms_per_sweep": t.run_self_ns / sweeps / 1e6,
            "ms": t.ns / iterations / 1e6,
            "self_ms": t.self_ns / iterations / 1e6,
            "s": t.ns / iterations / 1e9,
            # each matrix file of a traced iteration is written once and read once
            "mb_per_s": mtx_bytes / 1e6 / (t.ns / 1e9) if t.ns else 0.0,
            "share_of_run": t.run_self_ns / run_ns if run_ns else 0.0,
        }
        out.update({f"{layer}.{q}": values[q] for q in quantities})
    out["trace.overhead_ratio"] = overhead
    return out


# ---------------------------------------------------------------- runs


@dataclass
class Report:
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict
    recorder: tracer.SpanRecorder | None = None


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def warm_up(work: Path) -> None:
    """One tiny iteration of every code path, so that lazy imports and
    first-call costs fall outside the timed iterations."""
    w = replace(WORKLOADS["file-roundtrip"], m=8, r=2, max_iters=5)
    inp = make_inputs(w, 0)
    schedule = reference_schedule(w, inp)
    with iteration_dir(work, -1) as it:
        library_iteration(w, inp, schedule, it, repeat=False)


def reference_schedule(w: Workload, inp: Inputs):
    """The step schedule ``solve_instance`` derives; the audit checks against it."""
    inst = stf.SymTriInstance(inp.X, w.r)
    return solver.derive_schedule((inst.L1, inst.L2), (inst.sigma1, inst.sigma2),
                                  kappa=w.kappa, rho=RHO)


def _paced(deadline: float, minimum: int):
    """Yield 0, 1, ...: at least ``minimum`` times, then while one more
    iteration as long as the last still ends before ``deadline``."""
    n, last = 0, 0.0
    while n < minimum or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        yield n
        last = time.perf_counter() - start
        n += 1


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Report:
    """Run ``w`` on the inputs of ``seed`` for ``seconds`` (at least
    MIN_ITERATIONS untraced iterations, or one traced pair)."""
    work.mkdir(parents=True, exist_ok=True)
    inp = make_inputs(w, seed)
    schedule = reference_schedule(w, inp)
    warm_up(work)
    deadline = time.perf_counter() + seconds
    if trace:
        return _traced_run(w, inp, schedule, work, deadline)

    samples: list[Sample] = []
    with hostspeed.Probe() as probe:
        for n in _paced(deadline, MIN_ITERATIONS):
            with iteration_dir(work, n) as it:
                s = library_iteration(w, inp, schedule, it, repeat=True)
            samples.append(s)
            _log(f"{w.name}: total {s.total_s:.4f} s, solve {s.solve_s:.4f} s, "
                 f"{s.sweeps} sweeps{'; FAILED: ' + '; '.join(s.failures) if s.failures else ''}")
        time.sleep(probe.window)  # bursts after the last interval
    ref = probe.normalise
    for s in samples:
        if s.sweeps != samples[0].sweeps:
            s.failures.append(f"{s.sweeps} sweeps, first solve took {samples[0].sweeps}")
    last = samples[-1]
    metrics = {
        "setup_s": statistics.median([ref(*t) for s in samples for t in s.setups]),
        "solve_s": statistics.median(ref(*s.solve) for s in samples),
        "total_s": statistics.median(ref(*s.total) for s in samples),
        "sweeps_to_tol": float(last.sweeps),
        "sweeps_per_s": statistics.median(s.sweeps / ref(*s.solve) for s in samples),
        "rel_error": last.rel_error,
        "residual_rel": last.residual_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(1 for s in samples if s.failures)
    detail = {
        "wall_s": {
            "setup_s": statistics.median([b - a for s in samples for a, b in s.setups]),
            "solve_s": statistics.median(s.solve_s for s in samples),
            "total_s": statistics.median(s.total_s for s in samples),
        },
        "probe": {"bursts": len(probe.starts),
                  "burst_s": probe.burst_s(probe.starts[0], probe.ends[-1])},
        "samples": [{**vars(s), "solve_at_reference_s": ref(*s.solve),
                     "total_at_reference_s": ref(*s.total)} for s in samples],
    }
    return Report(attempted=len(samples), failed=failed, metrics=metrics, detail=detail)


def _traced_run(w: Workload, inp: Inputs, schedule, work: Path, deadline: float) -> Report:
    recorder = tracer.SpanRecorder()
    ratios: list[float] = []
    failures: list[list[str]] = []
    mtx_bytes = 0
    for n in _paced(deadline, 1):
        with iteration_dir(work, 2 * n) as it:
            plain = library_iteration(w, inp, schedule, it, repeat=False)
        recorder.run = n
        with iteration_dir(work, 2 * n + 1) as it:
            with tracer.patched(recorder, TARGETS):
                if w.via_file:
                    wall, traced_failures = cli_iteration(w, inp, schedule, it)
                else:
                    traced = library_iteration(w, inp, schedule, it, repeat=False)
                    wall, traced_failures = traced.total_s, traced.failures
                    if traced.sweeps != plain.sweeps:
                        traced_failures.append(
                            f"{traced.sweeps} sweeps traced, {plain.sweeps} untraced")
            mtx_bytes += sum(p.stat().st_size for p in it.glob("*.mtx"))
        failures += [plain.failures, traced_failures]
        ratios.append(wall / plain.total_s)
        _log(f"{w.name}: untraced {plain.total_s:.4f} s, traced {wall:.4f} s, "
             f"{len(recorder)} spans")
    summary = tracer.SpanSummary(recorder, loop="solver.run", step="solver.sweep_with_partials")
    metrics = layer_metrics(summary, len(ratios), mtx_bytes, statistics.median(ratios))
    detail = {"overhead_ratios": ratios, "failures": [f for f in failures if f]}
    return Report(attempted=len(failures), failed=sum(1 for f in failures if f),
                  metrics=metrics, detail=detail, recorder=recorder)


# ---------------------------------------------------------------- environment


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment(root: Path) -> dict:
    config = getattr(np, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "bregblock": bregblock.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
