"""Command-line interface: synth, solve, check, and bench subcommands.

Exit codes: 0 on success, 1 when a run fails (bad file, diverged check),
2 on argument errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import io as mio
from . import symtrinmf as stf
from .blocks import ParameterError, model_value
from .diagnostics import (
    finite_difference_block_grad,
    numeric_subproblem_oracle,
    verify_relative_smoothness,
)
from .solver import ConfigurationError, InfeasibleError, derive_schedule, trace_to_json

KAPPA_GRID = (0.0, 0.3, 0.6, 0.9)


@dataclass
class SolveConfig:
    """Bundle of everything a solve needs; SymTriInstance, derive_schedule
    and run check the values."""

    input: str
    rank: int
    a1: float = 6.0
    b1: float = 2.0
    a2: float = 1.0
    eps1: float = 1.0
    eps2: float = 1.0
    kappa: float = 0.0
    rho: float = 0.9
    max_iters: int = 5000
    residual_tol: float = 1e-8
    stall_tol: float = 0.0
    seed: int = 0
    symmetrize: bool = False
    trace_out: str | None = None
    factors_out: str | None = None
    labels_out: str | None = None
    timing: bool = True


_CONFIG_TYPES = {f.name: f.type for f in fields(SolveConfig)}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    kind = _CONFIG_TYPES.get(name)
    if kind in ("int",):
        return int(raw)
    if kind in ("float",):
        return float(raw)
    if kind in ("bool",):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"config key {name}: expected a boolean, got {raw!r}")
    return raw


def _read_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment, dashes equal underscores."""
    values = {}
    with open(path, "r") as fh:
        for no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParameterError(f"{path}:{no}: expected key=value, got {text!r}")
            key, raw = text.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ParameterError(f"{path}:{no}: unknown config key {key!r}")
            values[key] = _coerce(key, raw)
    return values


def _build_solve_config(args: argparse.Namespace) -> SolveConfig:
    values: dict = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for f in fields(SolveConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "input" not in values or values.get("rank") is None:
        raise ParameterError("solve requires --input and --rank (flags or config file)")
    return SolveConfig(**values)


def _parse_float_list(raw: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"bad {what} list: {raw!r}") from None


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"bad {what} list: {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregblock",
        description="Inertial block Bregman proximal solver for symmetric "
        "nonnegative tri-factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a planted-community instance")
    p_synth.add_argument("--m", type=int, required=True, help="matrix size")
    p_synth.add_argument("--r", type=int, required=True, help="number of planted communities")
    p_synth.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    p_synth.add_argument("--density", type=float, default=1.0, help="off-community fill-in probability")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output path for X (MatrixMarket)")

    p_solve = sub.add_parser("solve", help="factor a matrix from file")
    p_solve.add_argument("--input", help="square matrix (MatrixMarket or CSV)")
    p_solve.add_argument("--rank", type=int, help="factorization rank")
    for name in ("a1", "b1", "a2", "eps1", "eps2", "kappa", "rho", "residual-tol", "stall-tol"):
        p_solve.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float)
    p_solve.add_argument("--max-iters", dest="max_iters", type=int)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--symmetrize", action="store_const", const=True, dest="symmetrize")
    p_solve.add_argument("--trace-out", dest="trace_out")
    p_solve.add_argument("--factors-out", dest="factors_out", help="path prefix; writes <prefix>_U.mtx and <prefix>_V.mtx")
    p_solve.add_argument("--labels-out", dest="labels_out")
    p_solve.add_argument("--no-timing", action="store_const", const=False, dest="timing",
                         help="zero the seconds field in the trace for byte-reproducible output")
    p_solve.add_argument("--config", help="flat key=value config file; flags win")

    p_check = sub.add_parser("check", help="run the verification suite on an instance")
    p_check.add_argument("--input", help="matrix file; omit for a built-in synthetic instance")
    p_check.add_argument("--rank", type=int, default=2)
    p_check.add_argument("--samples", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=1)

    p_bench = sub.add_parser("bench", help="kappa x seed grid on one instance")
    p_bench.add_argument("--input", help="matrix file; omit to synthesize")
    p_bench.add_argument("--rank", type=int, default=3)
    p_bench.add_argument("--m", type=int, default=30)
    p_bench.add_argument("--noise", type=float, default=0.0)
    p_bench.add_argument("--density", type=float, default=1.0)
    p_bench.add_argument("--instance-seed", dest="instance_seed", type=int, default=7)
    p_bench.add_argument("--seeds", default="1,2,3", help="comma-separated init seeds")
    p_bench.add_argument("--kappas", default=",".join(str(k) for k in KAPPA_GRID))
    p_bench.add_argument("--max-iters", dest="max_iters", type=int, default=5000)
    p_bench.add_argument("--residual-tol", dest="residual_tol", type=float, default=1e-8)
    p_bench.add_argument("--rho", type=float, default=0.9)
    p_bench.add_argument("--out", required=True, help="output CSV path")
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    if args.m < 1 or not 1 <= args.r <= args.m:
        raise ParameterError(f"need 1 <= r <= m, got m={args.m}, r={args.r}")
    X, U, V = mio.synth_instance(args.m, args.r, args.noise, args.density, args.seed)
    out = Path(args.out)
    mio.write_matrix_market(out, X)
    stem = out.with_suffix("")
    mio.write_matrix_market(f"{stem}_U.mtx", U)
    mio.write_matrix_market(f"{stem}_V.mtx", V)
    print(f"wrote: {out}")
    print(f"planted_factors: {stem}_U.mtx {stem}_V.mtx")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _build_solve_config(args)
    X = mio.read_matrix(cfg.input)
    inst = stf.SymTriInstance(
        X, cfg.rank, a1=cfg.a1, b1=cfg.b1, a2=cfg.a2, eps1=cfg.eps1, eps2=cfg.eps2,
        symmetrize=cfg.symmetrize,
    )
    result, factors = stf.solve_instance(
        inst,
        kappa=cfg.kappa,
        rho=cfg.rho,
        seed=cfg.seed,
        max_iters=cfg.max_iters,
        residual_tol=cfg.residual_tol,
        stall_tol=cfg.stall_tol,
    )
    final = result.trace[-1]
    print(f"iterations: {final.k}")
    print(f"termination: {result.termination}")
    print(f"phi: {final.phi:.17g}")
    print(f"residual: {final.residual_norm:.17g}")
    print(f"relative_error: {stf.relative_error(inst, factors.U, factors.V):.17g}")
    if cfg.trace_out:
        Path(cfg.trace_out).write_text(trace_to_json(result.trace, with_timing=cfg.timing))
    if cfg.factors_out:
        mio.write_matrix_market(f"{cfg.factors_out}_U.mtx", factors.U)
        mio.write_matrix_market(f"{cfg.factors_out}_V.mtx", factors.V)
    if cfg.labels_out:
        mio.write_labels(cfg.labels_out, stf.community_assignment(factors.U))
    return 0


GRAD_CHECK_TOL = 1e-6
ORACLE_GAP_TOL = 1e-8


def cmd_check(args: argparse.Namespace) -> int:
    if args.input:
        X = mio.read_matrix(args.input)
        rank = args.rank
    else:
        X, _, _ = mio.synth_instance(m=8, r=2, noise_level=0.25, density=1.0, seed=args.seed)
        rank = args.rank
    inst = stf.SymTriInstance(X, rank)
    problem = stf.as_block_problem(inst)
    rng = np.random.default_rng(args.seed)

    report = verify_relative_smoothness(problem, samples=args.samples, seed=args.seed)

    grad_err = 0.0
    for _ in range(5):
        U = rng.random((inst.m, inst.r))
        V = rng.random((inst.r, inst.r))
        x = stf.pack_factors(inst, U, V)
        for i, (analytic, func) in enumerate(
            (
                (stf.grad_U(inst, U, V), problem.f_value),
                (stf.grad_V(inst, U, V), problem.f_value),
            )
        ):
            fd = finite_difference_block_grad(func, i, x, step=1e-5)
            grad_err = max(grad_err, _rel_err(analytic, fd))
        for i, kern in enumerate(problem.kernels):
            fd = finite_difference_block_grad(kern.value, i, x, step=1e-5)
            grad_err = max(grad_err, _rel_err(kern.block_grad(i, x), fd))

    schedule = derive_schedule((inst.L1, inst.L2), (inst.sigma1, inst.sigma2), kappa=0.5)
    oracle_gap = 0.0
    for _ in range(3):
        x = stf.pack_factors(inst, rng.random((inst.m, inst.r)), rng.random((inst.r, inst.r)))
        x_prev = stf.pack_factors(inst, rng.random((inst.m, inst.r)), rng.random((inst.r, inst.r)))
        for i in (0, 1):
            closed = problem.g[i].solver(problem, schedule, i, x, x_prev)
            loose = numeric_subproblem_oracle(problem, schedule, i, x, x_prev)
            mc = model_value(problem, schedule.gamma[i], schedule.alpha[i], i, x, x_prev, closed)
            mo = model_value(problem, schedule.gamma[i], schedule.alpha[i], i, x, x_prev, loose)
            oracle_gap = max(oracle_gap, abs(mc - mo))

    payload = {
        "violations": report["violations"],
        "worst_slack": report["worst_slack"],
        "grad_max_rel_err": grad_err,
        "oracle_max_model_gap": oracle_gap,
    }
    print(json.dumps(payload, indent=2))
    ok = report["violations"] == 0 and grad_err <= GRAD_CHECK_TOL and oracle_gap <= ORACLE_GAP_TOL
    return 0 if ok else 1


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def cmd_bench(args: argparse.Namespace) -> int:
    if args.input:
        X = mio.read_matrix(args.input)
    else:
        X, _, _ = mio.synth_instance(
            args.m, args.rank, args.noise, args.density, args.instance_seed
        )
    inst = stf.SymTriInstance(X, args.rank)
    kappas = _parse_float_list(args.kappas, "kappa")
    seeds = _parse_int_list(args.seeds, "seed")
    for kappa in kappas:
        if not 0.0 <= kappa < 1.0:
            raise ParameterError(f"kappa must lie in [0, 1), got {kappa}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kappa", "seed", "iters_to_tol", "final_phi", "wall_seconds"])
        for kappa in kappas:
            for seed in seeds:
                start = time.perf_counter()
                result, _ = stf.solve_instance(
                    inst,
                    kappa=kappa,
                    rho=args.rho,
                    seed=seed,
                    max_iters=args.max_iters,
                    residual_tol=args.residual_tol,
                )
                wall = time.perf_counter() - start
                final = result.trace[-1]
                writer.writerow([kappa, seed, final.k, f"{final.phi:.17g}", f"{wall:.6f}"])
    print(f"wrote: {args.out} ({len(kappas) * len(seeds)} rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"synth": cmd_synth, "solve": cmd_solve, "check": cmd_check, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (mio.ParseError, mio.ShapeError, InfeasibleError, ConfigurationError,
            ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
