"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [criterion NN] PASS/FAIL line (bypassing capture so
the lines appear under any pytest invocation) and enforces the stated
runtime budget where one exists.
"""

import time

import numpy as np
import pytest

import conftest

from otmatch.bridge import bridge_grid_for, make_demo_instance
from otmatch.cli import main as cli_main
from otmatch.semidual import semidual_value
from otmatch.solvers import SolverConfig, default_bound, oracle_solve, run
from otmatch.verify import (
    _centered_box_potential,
    check_acc_rate,
    check_bridge_marginal,
    check_concavity,
    check_flow,
    check_gradient_fd,
    check_ksga_rate,
    check_linf_lower,
    check_momentum_counters,
    check_proj_rate,
    check_sign_ascent,
    check_sinkhorn_conformance,
    check_update_equivalences,
    check_variance_identity,
    check_weighted_lower,
    random_instance,
)

SEED = 42


def _announce(tag: str, ok: bool, elapsed: float, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def ksga_checks():
    """Kernel-ascent checks shared by criteria 1-2: 64x64, eps in {0.05, 0.5},
    two kernels each, 2000 iterations; returns the results and their time."""
    t0 = time.perf_counter()
    reps = [
        check_ksga_rate(random_instance(np.random.default_rng([SEED, int(100 * eps)]), 64, 64, eps), 2000)
        for eps in (0.05, 0.5)
    ]
    return reps, time.perf_counter() - t0


@pytest.fixture(scope="session")
def proj_setup():
    """Shared 32x32 instance with oracle and box radius for criteria 3-4."""
    inst = random_instance(np.random.default_rng([SEED, 32]), 32, 32, 0.5)
    phi_star = oracle_solve(inst, tol=1e-12)
    return inst, phi_star, default_bound(inst)


# check_ksga_rate checks the rate bound and the per-step MMD descent of the
# same runs together, so criteria 01 and 02 read the same two results.
def test_criterion_01_kernel_ascent_rate(ksga_checks):
    reps, elapsed = ksga_checks
    _announce(
        "criterion 01", all(rep.passed for rep in reps) and elapsed <= 60.0, elapsed,
        "kernel-ascent rate bound, 4 runs x 2000 iterations: " + "; ".join(rep.detail for rep in reps),
    )


def test_criterion_02_mmd_monotonicity(ksga_checks):
    reps, elapsed = ksga_checks
    _announce(
        "criterion 02", all(rep.passed for rep in reps), elapsed,
        "per-iteration squared-MMD descent of the same runs: " + "; ".join(rep.detail for rep in reps),
    )


def test_criterion_03_projected_rate(proj_setup):
    t0 = time.perf_counter()
    inst, phi_star, _ = proj_setup
    rep = check_proj_rate(inst, 1000, phi_star, ascent_tol=1e-12)
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 03", rep.passed and elapsed <= 60.0, elapsed,
        f"projected-ascent gap bound and J ascent: {rep.detail}",
    )


def rate_fit(iters: np.ndarray, values: np.ndarray, window: tuple[int, int]) -> float:
    """Least-squares slope of log(values) against log(iters).

    ``window`` is the inclusive iteration range; values in the window must
    be strictly positive.
    """
    lo, hi = window
    iters = np.asarray(iters)
    vals = np.asarray(values, dtype=np.float64)
    keep = (iters >= lo) & (iters <= hi) & (iters >= 1)
    if keep.sum() < 2:
        raise ValueError(f"window [{lo}, {hi}] selects fewer than two records")
    x = iters[keep].astype(np.float64)
    y = vals[keep]
    if np.any(~(y > 0.0)):
        raise ValueError("rate fitting needs strictly positive metric values in the window")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)


def test_criterion_04_accelerated_rate(proj_setup):
    t0 = time.perf_counter()
    inst, phi_star, B = proj_setup
    rep = check_acc_rate(inst, 1000)
    # the empirical slope needs the trace, which the checker does not return
    res = run(inst, SolverConfig(method="proj_sga_pp", max_iter=1000, tol_l1=0.0))
    j_star = semidual_value(_centered_box_potential(phi_star, B), inst)
    slope = rate_fit(res.trace.column("iter"), j_star - res.trace.column("J"), (50, 500))
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 04", rep.passed and slope <= -1.0, elapsed,
        f"accelerated gap bound (margin {rep.margin:.3e}), empirical slope {slope:.2f}",
    )


def test_criterion_05_sign_ascent_mechanism():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 16]), 16, 16, 0.5)
    rep = check_sign_ascent(inst, 1000)
    _announce(
        "criterion 05", rep.passed, time.perf_counter() - t0,
        f"sign-ascent per-step gain and fixed anchor: {rep.detail}",
    )


def test_criterion_06_update_equivalences():
    t0 = time.perf_counter()
    result = check_update_equivalences(SEED, instances=100)
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 06", result.passed and elapsed <= 10.0, elapsed,
        f"dual/projection/root/mirror agreement on 100 instances x 4 links x 2 steps; {result.detail}",
    )


def test_criterion_07_semidual_calculus():
    t0 = time.perf_counter()
    fd = check_gradient_fd(SEED)
    conc = check_concavity(SEED, pairs=1000)
    linf = check_linf_lower(SEED, pairs=1000)
    weighted = check_weighted_lower(SEED, pairs=1000)
    var = check_variance_identity(SEED)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in (fd, conc, linf, weighted, var)) and elapsed <= 20.0
    _announce(
        "criterion 07", ok, elapsed,
        "gradient vs central differences, Bregman envelopes on 1000 pairs, variance identity "
        f"(fd {fd.detail}; var {var.detail})",
    )


def test_criterion_08_classical_conformance():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 8]), 16, 16, 0.5)
    res = run(
        inst,
        SolverConfig(method="sinkhorn", max_iter=50, tol_l1=0.0, record_every=1),
    )
    assert res.trace.column("iter")[-1] == 50
    rep = check_sinkhorn_conformance(inst, 50)
    _announce(
        "criterion 08", rep.passed, time.perf_counter() - t0,
        f"identity-link unit-step run matches independent classical solver: {rep.detail}",
    )


def test_criterion_09_mirror_flow():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 9]), 16, 16, 0.5)
    phi_star = oracle_solve(inst)
    reps = [check_flow(inst, r, 50.0, 50, phi_star) for r in (2.0, 3.0)]
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 09", all(rep.passed for rep in reps) and elapsed <= 120.0, elapsed,
        "; ".join(rep.detail for rep in reps),
    )


def test_criterion_10_bridge_consistency():
    t0 = time.perf_counter()
    inst = make_demo_instance(n_points=64)
    rep = check_bridge_marginal(inst, 101, 100_000, SEED)
    # heat-semigroup composition on the same grid
    grid = bridge_grid_for(inst, n_t=101)
    rng = np.random.default_rng(SEED)
    phi_smooth = -0.5 * ((grid.x - 0.2) / 0.6) ** 2
    margin = 6.0 * np.sqrt(2.0 * grid.T)
    interior = (grid.x > grid.x[0] + margin) & (grid.x < grid.x[-1] - margin)
    semi_err = 0.0
    for _ in range(10):
        s1, s2 = rng.uniform(0.05, 0.45, 2)
        mid = np.log(conftest.heat(phi_smooth, s1, grid.x))
        two = conftest.heat(mid, s2, grid.x)
        direct = conftest.heat(phi_smooth, s1 + s2, grid.x)
        semi_err = max(semi_err, float(np.max(np.abs(two - direct)[interior] / direct[interior])))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and semi_err <= 1e-8 and elapsed <= 120.0
    _announce("criterion 10", ok, elapsed, f"{rep.detail}; semigroup err {semi_err:.1e}")


def test_criterion_11_momentum_counter_sequence():
    t0 = time.perf_counter()
    rep = check_momentum_counters(1_000_000)
    _announce(
        "criterion 11", rep.passed, time.perf_counter() - t0,
        f"counter growth t_N >= (N+1)/2 and momentum coefficient in [0,1) up to N=1e6: {rep.detail}",
    )


def test_criterion_12_verify_determinism(tmp_path):
    t0 = time.perf_counter()
    a, b = tmp_path / "report_a.json", tmp_path / "report_b.json"
    code_a = cli_main(["verify", "--seed", "42", "--report", str(a)])
    code_b = cli_main(["verify", "--seed", "42", "--report", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    _announce(
        "criterion 12", code_a == 0 and code_b == 0 and identical,
        time.perf_counter() - t0,
        f"two seeded verify reports byte-identical ({len(a.read_bytes())} bytes)",
    )
