"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import dataclasses
import itertools
import time

import numpy as np

from bregblock import (
    SymTriInstance,
    audit_trace,
    community_assignment,
    cubic_positive_root,
    derive_schedule,
    fit_rate,
    model_value,
    run,
    update_U,
    update_V,
    verify_relative_smoothness,
)
from bregblock import symtrinmf as stf
from bregblock.blocks import full_gradient
from bregblock.diagnostics import finite_difference_block_grad, numeric_subproblem_oracle
from bregblock.io import synth_instance


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def random_small_instance(seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((5, 5))
    return SymTriInstance(0.5 * (raw + raw.T), 2), rng


def planted_instance():
    X, U_star, V_star = synth_instance(30, 3, noise_level=0.0, density=1.0, seed=7)
    return SymTriInstance(X, 3), U_star, V_star


def labels_match_up_to_permutation(got, planted, r):
    for perm in itertools.permutations(range(r)):
        if np.array_equal(np.array([perm[g] for g in got]), planted):
            return True
    return False


def test_criterion_1_closed_form_matches_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1, 51):
        inst, rng = random_small_instance(seed)
        problem = stf.as_block_problem(inst)
        for kappa in (0.0, 0.5):
            sched = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=0.9)
            x = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            xp = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            for i in (0, 1):
                closed = problem.g[i].solver(problem, sched, i, x, xp)
                oracle = numeric_subproblem_oracle(problem, sched, i, x, xp)
                ga, al = sched.gamma[i], sched.alpha[i]
                gap = abs(
                    model_value(problem, ga, al, i, x, xp, closed)
                    - model_value(problem, ga, al, i, x, xp, oracle)
                )
                worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-form updates match the projected-gradient oracle to 1e-8 "
        "on 50 random 5x2 instances",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_lyapunov_descent_audits():
    start = time.perf_counter()
    sizes = [(5, 2), (10, 2), (20, 3), (30, 3), (50, 5)]
    kappas = [0.0, 0.3, 0.6, 0.9]
    runs = 0
    all_pass = True
    first_bad = None
    for (m, r), kappa in itertools.product(sizes, kappas):
        noise = 0.0 if runs % 2 == 0 else 0.3
        X, _, _ = synth_instance(m, r, noise_level=noise, density=1.0, seed=runs + 1)
        inst = SymTriInstance(X, r)
        problem = stf.as_block_problem(inst)
        sched = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=0.9)
        U0, V0 = stf.initial_factors(inst, seed=runs)
        result = run(problem, sched, stf.pack_factors(inst, U0, V0), max_iters=250)
        verdict = audit_trace(result.trace, sched)
        if not verdict["passed"] and first_bad is None:
            first_bad = (m, r, kappa, verdict["first_fail_k"])
        all_pass = all_pass and verdict["passed"]
        runs += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        f"Lyapunov descent bound holds on every one of {runs} solver runs "
        "(mixed sizes up to 50x5)",
        all_pass and runs >= 20 and elapsed < 60.0,
        f"first failure {first_bad}, {elapsed:.1f}s" if first_bad else f"{elapsed:.1f}s",
    )


def test_criterion_3_relative_smoothness_certification():
    start = time.perf_counter()
    X = np.array([[0.0, 4.0], [4.0, 0.0]])  # strongly indefinite adjacency
    problem = stf.as_block_problem(SymTriInstance(X, 1))
    halved = dataclasses.replace(problem, L=(problem.L[0] / 2.0, problem.L[1]))
    total_violations = 0
    control_ok = True
    for seed in range(1, 6):
        total_violations += verify_relative_smoothness(problem, samples=200, seed=seed)[
            "violations"
        ]
        control_ok = control_ok and (
            verify_relative_smoothness(halved, samples=200, seed=seed)["violations"] >= 1
        )
    elapsed = time.perf_counter() - start
    report(
        3,
        "smoothness constants certify (0 violations, 200 samples x 5 seeds) "
        "and the halved-L1 negative control is caught",
        total_violations == 0 and control_ok and elapsed < 30.0,
        f"violations {total_violations}, control {'ok' if control_ok else 'missed'}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(4)
    raw = rng.random((4, 4))
    inst = SymTriInstance(0.5 * (raw + raw.T), 2)
    problem = stf.as_block_problem(inst)
    for _ in range(20):
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        checks = [
            (stf.grad_U(inst, U, V), problem.f_value, 0),
            (stf.grad_V(inst, U, V), problem.f_value, 1),
            (np.asarray(problem.kernels[0].block_grad(0, x)), problem.kernels[0].value, 0),
            (np.asarray(problem.kernels[1].block_grad(1, x)), problem.kernels[1].value, 1),
        ]
        for analytic, func, i in checks:
            fd = finite_difference_block_grad(func, i, x, step=1e-5)
            err = float(np.linalg.norm(analytic - fd)) / max(float(np.linalg.norm(fd)), 1e-12)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        4,
        "grad_U, grad_V and both kernel gradients match central finite "
        "differences to 1e-6 relative on 20 points each",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_cubic_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_residual = 0.0
    for _ in range(10000):
        t1, t2 = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=2))
        t = cubic_positive_root(t1, t2)
        worst_residual = max(
            worst_residual, abs(t * t * (t - t1) - t2) / max(1.0, t1**3, t2)
        )

    def bisect(t1, t2):
        lo = max(t1, t2 ** (1.0 / 3.0))
        hi = t1 + t2 ** (1.0 / 3.0) + 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * mid * (mid - t1) - t2 > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    worst_rel = 0.0
    for _ in range(100):
        t1, t2 = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=2))
        t = cubic_positive_root(t1, t2)
        worst_rel = max(worst_rel, abs(t - bisect(t1, t2)) / bisect(t1, t2))
    elapsed = time.perf_counter() - start
    report(
        5,
        "cubic root residual <= 1e-10 * max(1, tau1^3, tau2) over 1e4 "
        "log-uniform pairs; matches bisection to 1e-9 on 100 cases",
        worst_residual <= 1e-10 and worst_rel <= 1e-9 and elapsed < 5.0,
        f"residual {worst_residual:.2e}, bisection {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_and_8_planted_recovery_and_stationarity():
    start = time.perf_counter()
    inst, U_star, V_star = planted_instance()

    # criterion 6: relative error and exact community recovery in 5000 sweeps
    result, factors = stf.solve_instance(inst, kappa=0.0, seed=0, max_iters=5000)
    rel = stf.relative_error(inst, factors.U, factors.V)
    got = community_assignment(factors.U)
    planted = np.arange(30) % 3
    recovered = labels_match_up_to_permutation(got, planted, 3)
    elapsed6 = time.perf_counter() - start
    report(
        6,
        "noiseless planted m=30 r=3 seed 7: relative error <= 1e-3 within "
        "5000 iterations and exact community recovery",
        rel <= 1e-3 and recovered and elapsed6 < 60.0,
        f"rel {rel:.2e}, labels {'ok' if recovered else 'wrong'}, {elapsed6:.1f}s",
    )

    # criterion 8: run to the certified-residual threshold 1e-6 (1 + ||X||_F)
    problem = stf.as_block_problem(inst)
    sched = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
    U0, V0 = stf.initial_factors(inst, seed=0)
    x0 = stf.pack_factors(inst, U0, V0)
    target = 1e-6 * (1.0 + inst.norm_X)
    scale = 1.0 + float(np.linalg.norm(full_gradient(problem, x0)))
    deep = run(problem, sched, x0, max_iters=40000, residual_tol=target / scale)
    elapsed = time.perf_counter() - start
    ok = (
        deep.termination == "residual_tol"
        and deep.trace[-1].residual_norm <= target
        and elapsed < 60.0
    )
    report(
        8,
        "termination by residual tolerance with certified subgradient "
        "residual <= 1e-6 (1 + ||X||_F)",
        ok,
        f"residual {deep.trace[-1].residual_norm:.2e} vs {target:.2e} at "
        f"k={deep.trace[-1].k}, total {elapsed:.1f}s",
    )


def test_criterion_7_inertia_reduction_and_engine_equivalence():
    start = time.perf_counter()
    X, _, _ = synth_instance(10, 2, noise_level=0.2, density=1.0, seed=1)
    inst = SymTriInstance(X, 2)
    problem = stf.as_block_problem(inst)
    U0, V0 = stf.initial_factors(inst, seed=2)
    x0 = stf.pack_factors(inst, U0, V0)

    base = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
    forced = dataclasses.replace(base, alpha=(0.0, 0.0))
    r1 = run(problem, base, x0, max_iters=80)
    r2 = run(problem, forced, x0, max_iters=80)
    bitwise = all(map(np.array_equal, r1.x_final.blocks, r2.x_final.blocks)) and [
        (t.phi, t.lyapunov, t.residual_norm, t.gaps) for t in r1.trace
    ] == [(t.phi, t.lyapunov, t.residual_norm, t.gaps) for t in r2.trace]

    sched = derive_schedule(problem.L, problem.sigma, kappa=0.6, rho=0.9)
    engine = run(problem, sched, x0, max_iters=80)
    U, V = U0, V0
    U_prev, V_prev = U0, V0
    phis = [stf.f_value(inst, U, V)]
    for _ in range(80):
        U_next = update_U(inst, sched.gamma[0], sched.alpha[0], U, U_prev, V)
        V_next = update_V(inst, sched.gamma[1], sched.alpha[1], U_next, V, V_prev)
        U_prev, V_prev = U, V
        U, V = U_next, V_next
        phis.append(stf.f_value(inst, U, V))
    direct_equal = [t.phi for t in engine.trace] == phis and np.array_equal(
        engine.x_final.block(0), U
    ) and np.array_equal(engine.x_final.block(1), V)
    elapsed = time.perf_counter() - start
    report(
        7,
        "kappa=0 is bitwise identical to forced zero inertia; the generic "
        "engine reproduces the direct update alternation exactly",
        bitwise and direct_equal and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_9_rate_diagnostic_sanity():
    start = time.perf_counter()
    geo = fit_rate([100.0 * 0.5**k for k in range(41)] + [0.0])
    power = fit_rate([2.0] + [k**-2.0 for k in range(1, 61)] + [0.0])
    synthetic_ok = (
        geo.regime == "geometric"
        and abs(geo.tau - 0.5) <= 1e-6
        and geo.r_squared > 0.999
        and power.regime == "sublinear"
        and abs(power.exponent + 2.0) <= 1e-6
        and power.r_squared > 0.999
    )

    # on a real run the fit is reported, never asserted
    X, _, _ = synth_instance(12, 2, noise_level=0.0, density=1.0, seed=3)
    inst = SymTriInstance(X, 2)
    result, _ = stf.solve_instance(inst, kappa=0.3, seed=0, max_iters=400)
    real = fit_rate([r.lyapunov for r in result.trace])
    real_ok = real.regime in ("finite", "geometric", "sublinear", "inconclusive")
    elapsed = time.perf_counter() - start
    report(
        9,
        "rate fitter classifies exact geometric (tau=0.5) and power (k^-2) "
        "series with r_squared > 0.999; real runs only reported",
        synthetic_ok and real_ok and elapsed < 5.0,
        f"real run regime: {real.regime} (r2={real.r_squared:.3f}), {elapsed:.1f}s",
    )
