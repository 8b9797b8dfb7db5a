"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [criterion NN] PASS/FAIL line (bypassing capture so
the lines appear under any pytest invocation) and enforces the stated
runtime budget where one exists.
"""

import time

import numpy as np
import pytest

import conftest

from otmatch.bridge import (
    bridge_from_potential,
    bridge_grid_for,
    heat_propagate,
    make_demo_instance,
    simulate_em,
    terminal_histogram,
)
from otmatch.cli import main as cli_main
from otmatch.diagnostics import (
    centered_box_potential,
    check_thm_acc_rate,
    check_thm_ksga_rate,
    check_thm_proj_rate,
    rate_fit,
)
from otmatch.kernels import KernelSpec, gram
from otmatch.mirrorflow import flow_run
from otmatch.semidual import first_variation, marginal_y, semidual_value
from otmatch.solvers import (
    SolverConfig,
    Trace,
    TraceRecord,
    default_bound,
    oracle_solve,
    run,
    sign_sga_step,
    t_next,
)
from otmatch.verify import (
    check_concavity,
    check_gradient_fd,
    check_linf_lower,
    check_update_equivalences,
    check_variance_identity,
    check_weighted_lower,
    classic_log_sinkhorn,
    random_instance,
)

SEED = 42


def _announce(tag: str, ok: bool, elapsed: float, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def ksga_runs():
    """Shared kernel-ascent runs: 64x64, eps in {0.05, 0.5}, two kernels."""
    t0 = time.perf_counter()
    out = {}
    for eps in (0.05, 0.5):
        inst = random_instance(np.random.default_rng([SEED, int(100 * eps)]), 64, 64, eps)
        phi_star = oracle_solve(inst, tol=1e-12)
        for spec in (KernelSpec("identity"), KernelSpec("gaussian", 0.25)):
            g = gram(spec, inst.nu.points)
            res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=2000, tol_l1=0.0, record_every=1))
            out[(eps, spec.kind)] = (inst, g, res, phi_star)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def proj_setup():
    """Shared 32x32 instance with oracle and box radius for criteria 3-4."""
    inst = random_instance(np.random.default_rng([SEED, 32]), 32, 32, 0.5)
    phi_star = oracle_solve(inst, tol=1e-12)
    return inst, phi_star, default_bound(inst)


def test_criterion_01_kernel_ascent_rate(ksga_runs):
    t0 = time.perf_counter()
    worst = np.inf
    for (eps, kind), (inst, g, res, phi_star) in (
        (k, v) for k, v in ksga_runs.items() if k != "elapsed"
    ):
        rep = check_thm_ksga_rate(res.trace, inst, g, np.zeros(inst.m), phi_star)
        assert rep.passed, f"rate bound violated for eps={eps}, kernel={kind}"
        worst = min(worst, rep.worst_slack)
    elapsed = ksga_runs["elapsed"] + (time.perf_counter() - t0)
    _announce(
        "criterion 01", elapsed <= 60.0 and worst >= -1e-10, elapsed,
        f"kernel-ascent rate bound, 4 runs x 2000 iterations, min slack {worst:.3e}",
    )


def test_criterion_02_mmd_monotonicity(ksga_runs):
    t0 = time.perf_counter()
    worst = -np.inf
    for key, val in ksga_runs.items():
        if key == "elapsed":
            continue
        mmd = val[2].trace.column("mmd_sq")
        worst = max(worst, float(np.max(np.diff(mmd))))
    _announce(
        "criterion 02", worst <= 1e-12, time.perf_counter() - t0,
        f"per-iteration squared-MMD descent, max increase {worst:.3e}",
    )


def test_criterion_03_projected_rate(proj_setup):
    t0 = time.perf_counter()
    inst, phi_star, B = proj_setup
    res = run(inst, SolverConfig(method="proj_sga", max_iter=1000, tol_l1=0.0))
    assert res.bound_B == pytest.approx(B)
    rep = check_thm_proj_rate(res.trace, inst, B, np.zeros(inst.m), phi_star)
    j_dips = float(np.min(np.diff(res.trace.column("J"))))
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 03",
        rep.passed and not rep.inconclusive and j_dips >= -1e-12 and elapsed <= 60.0,
        elapsed,
        f"projected-ascent gap bound (slack {rep.worst_slack:.3e}), J dips {j_dips:.1e}",
    )


def test_criterion_04_accelerated_rate(proj_setup):
    t0 = time.perf_counter()
    inst, phi_star, B = proj_setup
    res = run(inst, SolverConfig(method="proj_sga_pp", max_iter=1000, tol_l1=0.0))
    rep = check_thm_acc_rate(res.trace, inst, B, np.zeros(inst.m), phi_star)
    target = centered_box_potential(phi_star, B)
    j_star = semidual_value(target, inst)
    gaps = j_star - res.trace.column("J")
    gap_trace = Trace(
        records=[
            TraceRecord(int(n), 0.0, 0.0, float(gv), 0.0, 0.0)
            for n, gv in zip(res.trace.iterations(), gaps)
            if n >= 1
        ]
    )
    slope = rate_fit(gap_trace, "mmd_sq", (50, 500))
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 04",
        rep.passed and not rep.inconclusive and slope <= -1.0,
        elapsed,
        f"accelerated gap bound (slack {rep.worst_slack:.3e}), empirical slope {slope:.2f}",
    )


def test_criterion_05_sign_ascent_mechanism():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 16]), 16, 16, 0.5)
    anchor = int(np.argmax(inst.b))
    phi = np.zeros(inst.m)
    anchor_value = phi[anchor]
    worst = np.inf
    for _ in range(1000):
        delta = first_variation(phi, inst)
        j_before = semidual_value(phi, inst)
        phi = sign_sga_step(phi, inst, 1.0, anchor)
        gain = semidual_value(phi, inst) - j_before
        worst = min(worst, gain - 0.5 * float(np.abs(delta).sum()) ** 2)
        assert phi[anchor] == anchor_value
    _announce(
        "criterion 05", worst >= -1e-10, time.perf_counter() - t0,
        f"sign-ascent per-step gain and fixed anchor over 1000 iterations, min slack {worst:.3e}",
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
        f"(fd {fd.worst:.1e}, var {var.worst:.1e})",
    )


def test_criterion_08_classical_conformance():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 8]), 16, 16, 0.5)
    reference = classic_log_sinkhorn(inst.a, inst.b, inst.cost, inst.epsilon, 50)
    res = run(
        inst,
        SolverConfig(method="sinkhorn", max_iter=50, tol_l1=0.0, record_every=1),
    )
    from otmatch.solvers import Link, match_step

    phi = np.zeros(inst.m)
    worst = 0.0
    for ref in reference:
        phi = match_step(phi, inst, Link.identity(), 1.0)
        worst = max(worst, float(np.max(np.abs(phi - ref))))
    assert res.trace.iterations()[-1] == 50
    _announce(
        "criterion 08", worst <= 1e-12, time.perf_counter() - t0,
        f"identity-link unit-step run matches independent classical solver, max dev {worst:.2e}",
    )


def test_criterion_09_mirror_flow():
    t0 = time.perf_counter()
    inst = random_instance(np.random.default_rng([SEED, 9]), 16, 16, 0.5)
    phi_star = oracle_solve(inst)
    ok = True
    details = []
    for r in (2.0, 3.0):
        res = flow_run(
            inst, np.zeros(inst.m), r=r, t0=0.01, t_end=50.0, dt=1e-3,
            record_every=50, phi_star=phi_star,
        )
        slack = 1e-8 * (1.0 + res.vs[0])
        ok = ok and res.v_increase_max <= slack
        ok = ok and res.rate_violation_swapped_max <= slack  # bound with KL(init, opt)
        ok = ok and res.rate_violation_max <= slack  # bound with KL(opt, init)
        details.append(f"r={r:g}: dV {res.v_increase_max:.1e}, rate {res.rate_violation_max:.1e}")
    elapsed = time.perf_counter() - t0
    _announce("criterion 09", ok and elapsed <= 120.0, elapsed, "; ".join(details))


def test_criterion_10_bridge_consistency():
    t0 = time.perf_counter()
    inst = make_demo_instance(n_points=64)
    grid = bridge_grid_for(inst, n_t=101)
    phi_star = oracle_solve(inst)
    n_particles = 100_000
    dx = float(inst.nu.points[1, 0] - inst.nu.points[0, 0])
    tol = 3.0 / np.sqrt(n_particles) + 2.0 * dx
    tvs = []
    for phi in (np.zeros(inst.m), phi_star):
        field = bridge_from_potential(phi, inst, grid)
        sim = simulate_em(field, inst.mu, n_particles, seed=SEED)
        hist = terminal_histogram(sim.positions, inst.nu.points[:, 0])
        tvs.append(0.5 * float(np.abs(hist - marginal_y(phi, inst)).sum()))
    # heat-semigroup composition on the same grid
    rng = np.random.default_rng(SEED)
    phi_smooth = -0.5 * ((grid.x - 0.2) / 0.6) ** 2
    margin = 6.0 * np.sqrt(2.0 * grid.T)
    interior = (grid.x > grid.x[0] + margin) & (grid.x < grid.x[-1] - margin)
    semi_err = 0.0
    for _ in range(10):
        s1, s2 = rng.uniform(0.05, 0.45, 2)
        mid = np.log(heat_propagate(phi_smooth, t=grid.T - s1, T=grid.T, x=grid.x))
        two = heat_propagate(mid, t=0.0, T=s2, x=grid.x)
        direct = heat_propagate(phi_smooth, t=grid.T - s1 - s2, T=grid.T, x=grid.x)
        semi_err = max(semi_err, float(np.max(np.abs(two - direct)[interior] / direct[interior])))
    elapsed = time.perf_counter() - t0
    ok = max(tvs) <= tol and semi_err <= 1e-8 and elapsed <= 120.0
    _announce(
        "criterion 10", ok, elapsed,
        f"terminal TV {tvs[0]:.4f}/{tvs[1]:.4f} vs tol {tol:.4f}; semigroup err {semi_err:.1e}",
    )


def test_criterion_11_momentum_counter_sequence():
    t0 = time.perf_counter()
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    ok = abs(t_next(1.0) - golden) <= 1e-12
    t = 1.0
    for n in range(1, 1_000_001):
        t_new = t_next(t)
        if not (0.0 <= (t - 1.0) / t_new < 1.0) or t_new < (n + 2) / 2.0:
            ok = False
            break
        t = t_new
    _announce(
        "criterion 11", ok, time.perf_counter() - t0,
        "counter growth t_N >= (N+1)/2 and momentum coefficient in [0,1) up to N=1e6",
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
