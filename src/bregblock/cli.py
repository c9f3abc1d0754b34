"""Command-line interface: synth, solve and check subcommands.

Exit codes: 0 on success, 1 when a run fails (bad file, diverged check),
2 on argument errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import warnings
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
from .solver import (
    ConfigurationError,
    InfeasibleError,
    check_run_limits,
    derive_schedule,
    trace_to_json,
)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse: "invalid int value"
    return parse


_SEED = _int_at_least(0)
_RANK = _int_at_least(1)


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads -1e-8, -inf and -nan, like -5 and -.5,
    as values, not flags, through argparse's private negative-number pattern
    (checked with Python 3.11; TestNegativeValues runs on every CI Python)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"(?i)^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$")


def build_parser() -> argparse.ArgumentParser:
    """The bregblock parser, with the subcommands synth, solve and check; its
    solve subparser's actions are the one table of solve option names, types
    and defaults.  A kappa x seed grid is a shell loop over solve."""
    parser = _Parser(
        prog="bregblock",
        description="Inertial block Bregman proximal solver for symmetric "
        "nonnegative tri-factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that builds an instance
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--input", required=True, help="square matrix (MatrixMarket or CSV)")
    instance.add_argument("--rank", type=_RANK, required=True, help="factorization rank")
    instance.add_argument("--symmetrize", action="store_true",
                          help="replace a matrix that is not exactly symmetric by (X + X^T)/2")

    # every command refuses abbreviated flags: `solve --m 7` is an error, not --max-iters 7
    p_synth = sub.add_parser("synth", help="generate a planted-community instance", allow_abbrev=False)
    p_synth.add_argument("--m", type=int, required=True, help="matrix size")
    p_synth.add_argument("--r", type=int, required=True, help="number of planted communities")
    p_synth.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    p_synth.add_argument("--density", type=float, default=1.0, help="off-community fill-in probability")
    p_synth.add_argument("--seed", type=_SEED, default=0)
    p_synth.add_argument("--out", required=True, help="output path for X (MatrixMarket)")

    p_solve = sub.add_parser("solve", help="factor a matrix from file", allow_abbrev=False,
                             parents=[instance], fromfile_prefix_chars="@", description="@FILE "
                             "reads arguments from FILE, one per line as is; blank lines and '#' "
                             "lines are skipped")
    p_solve.convert_arg_line_to_args = lambda line: [] if line.strip()[:1] in ("", "#") else [line]
    for name, kind, default in (("rho", float, 0.9), ("max-iters", int, 5000), ("residual-tol", float, 1e-8)):
        p_solve.add_argument(f"--{name}", type=kind, default=default)
    for name, default in (("a1", 6.0), ("eps1", 1.0), ("eps2", 1.0), ("kappa", 0.0)):
        p_solve.add_argument(f"--{name}", type=float, default=default)
    p_solve.add_argument("--seed", type=_SEED, default=0)
    p_solve.add_argument("--trace-out")
    p_solve.add_argument("--factors-out", help="path prefix; writes <prefix>_U.mtx and <prefix>_V.mtx")
    p_solve.add_argument("--labels-out")
    p_solve.add_argument("--no-timing", action="store_false", dest="timing",
                         help="zero the seconds field in the trace for byte-reproducible output")

    p_check = sub.add_parser("check", help="run the verification suite on an instance",
                             allow_abbrev=False, parents=[instance])
    p_check.add_argument("--samples", type=_int_at_least(1), default=200)
    p_check.add_argument("--seed", type=_SEED, default=1)
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    X, U, V = mio.synth_instance(args.m, args.r, args.noise, args.density, args.seed)
    out = Path(args.out)
    mio.write_matrix_market(out, X)
    stem = out.with_suffix("")
    mio.write_matrix_market(f"{stem}_U.mtx", U)
    mio.write_matrix_market(f"{stem}_V.mtx", V)
    print(f"wrote: {out}")
    print(f"planted_factors: {stem}_U.mtx {stem}_V.mtx")
    return 0


def read_instance(args: argparse.Namespace, **kernel) -> stf.SymTriInstance:
    """--input's instance at --rank.  The instance refuses an X that is not
    exactly symmetric; --symmetrize replaces such an X by (X + X^T)/2 and
    warns once the instance has accepted it."""
    X = mio.read_matrix(args.input)
    if not args.symmetrize or (X == X.T).all():
        return stf.SymTriInstance(X, args.rank, **kernel)
    X *= 0.5
    X = X + X.T  # X/2 + X^T/2: no finite X overflows
    inst = stf.SymTriInstance(X, args.rank, **kernel)
    warnings.warn("input matrix is not symmetric; X was replaced by (X + X^T)/2")
    return inst


def cmd_solve(args: argparse.Namespace) -> int:
    kernel = {"a1": args.a1, "eps1": args.eps1, "eps2": args.eps2}
    # before the read: the kernel, the schedule at --kappa, the run limits,
    # and each output path, which fails with the error its write would give
    L1, L2, s1, s2 = stf.check_kernel_parameters(**kernel)
    with warnings.catch_warnings():  # solve_instance gives derive_schedule's warnings
        warnings.simplefilter("ignore")
        derive_schedule((L1, L2), (s1, s2), kappa=args.kappa, rho=args.rho)
    check_run_limits(args.max_iters, args.residual_tol)
    factors_out = [f"{args.factors_out}_{b}.mtx" for b in "UV"] if args.factors_out else []
    for out in filter(None, [args.trace_out, *factors_out, args.labels_out]):
        try:  # the trailing slash fails as open does on a directory missing or under a file
            os.stat(f"{Path(out).parent}/")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, out) from None
        if Path(out).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    inst = read_instance(args, **kernel)
    result, factors = stf.solve_instance(
        inst,
        kappa=args.kappa,
        rho=args.rho,
        seed=args.seed,
        max_iters=args.max_iters,
        residual_tol=args.residual_tol,
    )
    final = result.trace[-1]
    print(f"iterations: {final.k}")
    print(f"termination: {result.termination}")
    print(f"phi: {final.phi:.17g}")
    print(f"residual: {final.residual_norm:.17g}")
    print(f"relative_error: {stf.relative_error(inst, factors.U, factors.V):.17g}")
    if args.trace_out:
        Path(args.trace_out).write_text(trace_to_json(result.trace, with_timing=args.timing))
    for out, block in zip(factors_out, factors):
        mio.write_matrix_market(out, block)
    if args.labels_out:
        mio.write_labels(args.labels_out, stf.community_assignment(factors.U))
    return 0


GRAD_CHECK_TOL = 1e-6
ORACLE_GAP_TOL = 1e-8
PRODUCT_FORM_TOL = 1e-10
CLOSED_FORM_TOL = 1e-10


def cmd_check(args: argparse.Namespace) -> int:
    inst = read_instance(args)
    problem = stf.as_block_problem(inst)
    rng = np.random.default_rng(args.seed)

    report = verify_relative_smoothness(problem, samples=args.samples, seed=args.seed)

    grad_err = 0.0
    form_gap = 0.0
    for _ in range(5):
        U = rng.random((inst.m, inst.r))
        V = rng.random((inst.r, inst.r))
        x = stf.pack_factors(inst, U, V)
        f, gU, gV = stf.f_value(inst, U, V), stf.grad_U(inst, U, V), stf.grad_V(inst, U, V)
        for got, ref in zip((f, gU, gV), stf.dense_fit(inst, U, V)):
            form_gap = max(form_gap, _rel_err(got, ref))
        for i, (f_grad, kern) in enumerate(zip((gU, gV), problem.kernels)):
            for func, grad in ((problem.f_value, f_grad), (kern.value, kern.block_grad(x))):
                grad_err = max(grad_err, _rel_err(grad, finite_difference_block_grad(func, i, x)))

    schedule = derive_schedule((inst.L1, inst.L2), (inst.sigma1, inst.sigma2), kappa=0.5)
    oracle_gap = 0.0
    eta_gap = 0.0
    for _ in range(3):
        # about half the entries of x are 0, so the clamps act and eta_i has
        # nonzero entries off the support
        U, V = (rng.random(s) * (rng.random(s) < 0.5) for s in ((inst.m, inst.r), (inst.r, inst.r)))
        x = stf.pack_factors(inst, U, V)
        x_prev = stf.pack_factors(inst, rng.random((inst.m, inst.r)), rng.random((inst.r, inst.r)))
        for i in (0, 1):
            ga, al = schedule.gamma[i], schedule.alpha[i]
            # read-only, as a sweep passes it, since the reference reuses it
            gf = problem.f_block_grad(i, x)
            gf.setflags(write=False)
            closed, eta = problem.g[i].solver(problem, schedule, i, x, x_prev, f_grad=gf)
            loose = numeric_subproblem_oracle(problem, schedule, i, x, x_prev)
            mc = model_value(problem, ga, al, i, x, x_prev, closed, f_grad=gf)
            mo = model_value(problem, ga, al, i, x, x_prev, loose, f_grad=gf)
            oracle_gap = max(oracle_gap, abs(mc - mo))
            # the first-order condition's subgradient, from kernel gradients
            terms = (
                problem.kernels[i].block_grad(x) / ga,
                -problem.kernels[i].block_grad(x.with_block(i, closed)) / ga,
                (al / ga) * (x.block(i) - x_prev.block(i)),
                -gf,
            )
            scale = sum(float(np.abs(t).max()) for t in terms) or 1.0
            eta_gap = max(eta_gap, float(np.abs(eta - sum(terms)).max()) / scale)

    checks = {  # name: (value, bound); a check fails unless value <= bound
        "violations": (report["violations"], 0),
        "worst_slack": (report["worst_slack"], None),  # reported only
        "grad_max_rel_err": (grad_err, GRAD_CHECK_TOL),
        "oracle_max_model_gap": (oracle_gap, ORACLE_GAP_TOL),
        "product_form_max_rel_gap": (form_gap, PRODUCT_FORM_TOL),
        "bregman_closed_form_max_rel_gap": (report["bregman_max_rel_gap"], CLOSED_FORM_TOL),
        "subgradient_max_gap": (eta_gap, CLOSED_FORM_TOL),
    }
    print(json.dumps({name: value for name, (value, _) in checks.items()}, indent=2))
    failed = [name for name, (value, bound) in checks.items() if bound is not None and not value <= bound]
    if failed:
        print(f"error: failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def main(argv=None) -> int:
    handlers = {"synth": cmd_synth, "solve": cmd_solve, "check": cmd_check}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (mio.ParseError, mio.ShapeError, InfeasibleError, ConfigurationError,
            ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
