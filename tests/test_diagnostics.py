import dataclasses
import math
import re

import numpy as np
import pytest

from otmatch import solvers, verify
from otmatch.bridge import bridge_from_potential, make_demo_instance
from otmatch.kernels import KernelSpec, gram
from otmatch.logops import kl
from otmatch.mirrorflow import flow_run
from otmatch.semidual import _induced_kl, coupling, induced_marginal, plus_transform, semidual_value
from otmatch.solvers import SolverConfig, Trace, TraceRecord, default_bound, oracle_solve, run
from otmatch.verify import (
    CheckResult,
    _centered_box_potential,
    _descent_margin,
    check_kernel_smoothness,
    check_thm_acc_rate,
    check_thm_ksga_rate,
    check_thm_proj_rate,
    random_instance,
)

from conftest import zero_cost_instance
from test_acceptance import rate_fit


def log(masses):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(masses, dtype=np.float64))


class TestKl:
    # kl takes log masses; a zero mass enters as -inf
    def test_equal_is_zero(self):
        lp = log([0.2, 0.8])
        assert kl(lp, lp) == 0.0

    def test_point_mass_against_uniform(self):
        assert kl(log([1.0, 0.0]), log([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_matches_termwise_oracle(self):
        rng = np.random.default_rng(0)
        p, q = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        expected = sum(p[i] * math.log(p[i] / q[i]) for i in range(6))
        assert kl(log(p), log(q)) == pytest.approx(expected, rel=1e-13)

    def test_absolute_continuity_violation_is_infinite(self):
        assert kl(log([0.5, 0.5]), log([1.0, 0.0])) == math.inf
        assert kl(log([0.5, 0.0, 0.5]), log([0.5, 0.5, 0.0])) == math.inf

    def test_zero_log_zero_convention(self):
        assert kl(log([0.0, 1.0]), log([0.5, 0.5])) == pytest.approx(math.log(2))
        assert kl(log([[0.0, 0.5], [0.0, 0.5]]), log([[0.0, 0.25], [0.5, 0.25]])) == pytest.approx(math.log(2))

    def test_given_masses_are_summed_in_one_pass(self):
        # the masses given, not exp(log p), weigh the terms, and a zero mass
        # holds a 0 in its place of the one sum
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.dirichlet(np.ones(12)), rng.dirichlet(np.ones(12))
            p[rng.integers(12)] = 0.0
            lp, lq = log(p), log(q)
            live = p > 0.0
            terms = np.zeros(12)
            terms[live] = (lp[live] - lq[live]) * p[live]
            assert kl(lp, lq, p) == float(terms.sum())

    def test_nonnegative_and_faithful(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
            assert kl(log(p), log(q)) >= 0.0
        lp = log(rng.dirichlet(np.ones(5)))
        assert kl(lp, lp.copy()) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000])
    def test_row_form_is_the_one_dimensional_call_on_each_row(self, m):
        # rows with a zero mass count it as 0, and rows with mass where q
        # has none are infinite, row by row as in the 1-D call
        rng = np.random.default_rng(m)
        p = rng.dirichlet(np.ones(m), size=70) * rng.choice([1e-300, 1.0], size=(70, 1))
        q = rng.dirichlet(np.ones(m))
        p[::5, 0] = 0.0
        if m > 1:
            q[-1] = 0.0
            p[1::3, -1] = 0.0
        lp, lq = log(p), log(q)
        rows = kl(lp, lq, p, axis=-1)
        each = [kl(lp[i], lq, p[i]) for i in range(70)]
        assert rows.shape == (70,)
        assert rows.tobytes() == np.array(each).tobytes()
        assert np.isnan(rows).sum() == 0
        if m > 1:
            assert np.isinf(rows).any() and np.isfinite(rows).any()

    def test_coupling_form_matches_objective_difference(self, oracle_cache):
        # for two induced couplings, KL(opt||other) telescopes to a J gap
        inst = random_instance(np.random.default_rng(2), 5, 6, 0.5)
        phi_star = oracle_cache("diag-5x6", inst)
        phi0 = np.zeros(inst.m)
        d = kl(coupling(phi_star, inst).log_masses, coupling(phi0, inst).log_masses)
        gap = semidual_value(phi_star, inst) - semidual_value(phi0, inst)
        assert d == pytest.approx(gap, rel=1e-10)


class TestKsgaRateCheck:
    def test_zero_cost_passes_trivially(self):
        inst = zero_cost_instance()
        g = gram(KernelSpec("identity"), inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=1, tol_l1=0.0))
        rep = check_thm_ksga_rate(res.trace, inst, g, np.zeros(inst.m), oracle_solve(inst))
        assert rep.passed and not rep.inconclusive

    def test_real_run_passes_with_slack(self, oracle_cache):
        inst = random_instance(np.random.default_rng(3), 16, 16, 0.4)
        phi_star = oracle_cache("diag-16x16", inst)
        g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=200, tol_l1=0.0))
        rep = check_thm_ksga_rate(res.trace, inst, g, np.zeros(inst.m), phi_star)
        assert rep.passed and rep.margin >= 0.0

    def test_corrupted_trace_fails(self, oracle_cache):
        inst = random_instance(np.random.default_rng(3), 16, 16, 0.4)
        phi_star = oracle_cache("diag-16x16", inst)
        g = gram(KernelSpec("identity"), inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=100, tol_l1=0.0))
        doubled = Trace(
            records=[
                TraceRecord(r.iteration, r.J, r.l1_residual, 40.0 * r.mmd_sq, r.kl_y, r.elapsed_s)
                for r in res.trace.records
            ]
        )
        rep = check_thm_ksga_rate(doubled, inst, g, np.zeros(inst.m), phi_star)
        assert not rep.passed and rep.margin < 0.0

    def test_missing_mmd_column_rejected(self):
        inst = zero_cost_instance()
        g = gram(KernelSpec("identity"), inst.nu.points)
        res = run(inst, SolverConfig(method="sinkhorn", max_iter=1, tol_l1=0.0))
        with pytest.raises(ValueError):
            check_thm_ksga_rate(res.trace, inst, g, np.zeros(inst.m), oracle_solve(inst))


class TestGapChecks:
    def test_proj_rate_passes(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        res = run(inst, SolverConfig(method="proj_sga", max_iter=200, tol_l1=0.0))
        rep = check_thm_proj_rate(res.trace, inst, res.bound_B, np.zeros(inst.m), phi_star)
        assert rep.passed and rep.margin >= 0.0

    def test_acc_rate_passes(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        res = run(inst, SolverConfig(method="proj_sga_pp", max_iter=200, tol_l1=0.0))
        rep = check_thm_acc_rate(res.trace, inst, res.bound_B, np.zeros(inst.m), phi_star)
        assert rep.passed and rep.margin >= 0.0

    def test_corrupted_gap_fails(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        res = run(inst, SolverConfig(method="proj_sga", max_iter=50, tol_l1=0.0))
        sabotaged = Trace(
            records=[
                TraceRecord(r.iteration, r.J - 10.0, r.l1_residual, r.mmd_sq, r.kl_y, r.elapsed_s)
                for r in res.trace.records
            ]
        )
        rep = check_thm_proj_rate(sabotaged, inst, res.bound_B, np.zeros(inst.m), phi_star)
        assert not rep.passed and rep.margin < 0.0

    def test_small_box_is_inconclusive_not_failed(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        res = run(inst, SolverConfig(method="proj_sga", bound_B=1e-6, max_iter=20, tol_l1=0.0))
        rep = check_thm_proj_rate(res.trace, inst, 1e-6, np.zeros(inst.m), phi_star)
        assert rep.inconclusive and not rep.passed

    def test_centered_potential_respects_box(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        B = default_bound(inst)
        centered = _centered_box_potential(phi_star, B)
        assert centered is not None
        assert np.max(np.abs(centered)) <= B
        assert semidual_value(centered, inst) == pytest.approx(
            semidual_value(phi_star, inst), abs=1e-11
        )

    def test_report_is_reproducible(self, oracle_cache):
        inst = random_instance(np.random.default_rng(4), 12, 12, 0.5)
        phi_star = oracle_cache("diag-12x12", inst)
        res = run(inst, SolverConfig(method="proj_sga", max_iter=50, tol_l1=0.0))
        r1 = check_thm_proj_rate(res.trace, inst, res.bound_B, np.zeros(inst.m), phi_star)
        r2 = check_thm_proj_rate(res.trace, inst, res.bound_B, np.zeros(inst.m), phi_star)
        assert r1.as_dict() == r2.as_dict()


class TestRateFit:
    def test_recovers_slope_minus_one(self):
        ns = np.arange(1, 400)
        assert rate_fit(ns, 1.0 / ns, (1, 399)) == pytest.approx(-1.0, abs=1e-6)

    def test_recovers_slope_minus_two(self):
        ns = np.arange(1, 400)
        assert rate_fit(ns, 1.0 / ns**2, (1, 399)) == pytest.approx(-2.0, abs=1e-6)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            rate_fit(np.arange(1, 4), [1.0, 0.0, 1.0], (1, 3))

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            rate_fit(np.arange(1, 4), [1.0, 0.5, 0.25], (7, 9))

    def test_benchmark_run_decays_at_least_linearly(self):
        inst = random_instance(np.random.default_rng(5), 16, 16, 0.4)
        g = gram(KernelSpec("identity"), inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=300, tol_l1=0.0))
        slope = rate_fit(res.trace.column("iter"), res.trace.column("mmd_sq"), (20, 300))
        assert slope <= -1.0 + 0.2


class TestKernelSmoothnessCheck:
    def test_reports_the_upper_side_margin(self):
        # the lower side -gap sets the margin; the detail also
        # shows how close the 2 c_k KL upper bound comes
        res = check_kernel_smoothness(42, pairs=60)
        upper = float(re.search(r"upper side max\(gap - 2 c_k KL\) (\S+),", res.detail).group(1))
        lower = float(re.search(r"lower side max\(-gap\) (\S+)$", res.detail).group(1))
        assert res.passed
        assert upper < lower < 0.0
        assert res.margin == pytest.approx(1e-10 - lower, rel=1e-3)


class TestSignAscentCheck:
    # the check reads the trace of run itself, so a broken update in run fails it

    def test_a_descending_step_fails_instead_of_raising(self, monkeypatch):
        real = solvers._sign_update
        monkeypatch.setattr(solvers, "_sign_update", lambda phi, d, l1, eta, anchor: real(phi, -d, l1, eta, anchor))
        res = verify.check_sign_ascent(random_instance(np.random.default_rng(9), 6, 6, 0.5), 5)
        assert res.margin == -np.inf and not res.passed
        assert "objective fell" in res.detail

    def test_a_moved_anchor_fails(self, monkeypatch):
        real = solvers._sign_update

        def drifting(phi, d, l1, eta, anchor):
            out = real(phi, d, l1, eta, anchor)
            out[anchor] += 1e-9
            return out

        monkeypatch.setattr(solvers, "_sign_update", drifting)
        res = verify.check_sign_ascent(random_instance(np.random.default_rng(9), 6, 6, 0.5), 5)
        assert res.margin == -np.inf and res.detail.startswith("anchor entry moved")


class TestCheckResult:
    @pytest.mark.parametrize("name", verify.all_property_names())
    def test_passed_is_the_sign_of_a_finite_margin(self, name):
        res = verify._CHECKS[name](3)
        assert res.name == name
        assert np.isfinite(res.margin)
        assert res.passed == (res.margin >= 0.0 and not res.inconclusive)

    def test_inconclusive_never_passes(self):
        assert not CheckResult("x", 1.0, inconclusive=True).passed
        assert not CheckResult("x", float("nan")).passed
        assert CheckResult("x", 0.0).passed

    def test_a_nan_part_gives_a_failing_nan_margin(self, monkeypatch):
        # sabotage one part of each combined margin; the combination must keep the NaN
        nan = float("nan")
        real_flow_run = verify.flow_run
        monkeypatch.setattr(verify, "_descent_margin", lambda values, tol: nan)
        monkeypatch.setattr(
            verify, "flow_run",
            lambda *a, **k: dataclasses.replace(real_flow_run(*a, **k), rate_violation_max=nan),
        )
        monkeypatch.setattr(verify, "_bregman_gap", lambda phi, phi_bar, inst: nan)
        inst = random_instance(np.random.default_rng(4), 8, 8, 0.5)
        results = [
            verify.check_ksga_rate(inst, 20),
            verify.check_proj_rate(inst, 20),
            verify.check_flow(inst, 2.0, 0.2, 20),
            verify.check_concavity(1, pairs=3),
            verify.check_linf_lower(1, pairs=3),
            verify.check_weighted_lower(1, pairs=3),
        ]
        for res in results:
            assert not res.inconclusive, res.name
            assert math.isnan(res.margin) and not res.passed, res.name

    def test_descent_margin_is_signed(self):
        assert _descent_margin(np.array([3.0, 2.0, 2.0]), 0.0) == 0.0
        assert _descent_margin(np.array([3.0, 2.0, 2.5]), 0.1) == pytest.approx(-0.4)


class TestGaugeFreeReaders:
    """Every reader of the oracle's potential gives the same answer on phi* + c:
    the three rate checks (J in the gap checks), ``_induced_kl``, the flow and
    the bridge drift.  Shifting by c rounds each entry of phi* at about u |c|
    (u = 2^-53).  Measured on ``random_instance(rng(seed), 8, 9, 0.5)`` for
    seeds 0-5 (the test runs seed 0) and on the 16-point bridge demo at eps
    0.1, the shift moved the margins by at most 1.9 u |c|, ``_induced_kl`` by
    2.9 u |c|, the flow's maxima by 14 u |c| and the drift by 11 u |c| (in
    drift units); each tolerance is that figure rounded up to a power of
    two, times four."""

    U = 2.0**-53

    @pytest.mark.parametrize("c", [37.5, -1e3])
    def test_rate_checks_and_induced_kl(self, oracle_cache, c):
        inst = random_instance(np.random.default_rng(0), 8, 9, 0.5)
        star, phi0 = oracle_cache("gauge-8x9", inst), np.zeros(inst.m)
        g = gram(KernelSpec("gaussian", 0.25), inst.nu.points)
        ksga = run(inst, SolverConfig("ksga", gram=g, max_iter=50, tol_l1=0.0))
        proj = run(inst, SolverConfig("proj_sga", max_iter=50, tol_l1=0.0))
        acc = run(inst, SolverConfig("proj_sga_pp", max_iter=50, tol_l1=0.0))
        base, shifted = ([
            check_thm_ksga_rate(ksga.trace, inst, g, phi0, phi),
            check_thm_proj_rate(proj.trace, inst, proj.bound_B, phi0, phi),
            check_thm_acc_rate(acc.trace, inst, acc.bound_B, phi0, phi),
        ] for phi in (star, star + c))
        assert all(r.passed for r in base)
        for old, new in zip(base, shifted, strict=True):
            assert (new.passed, new.inconclusive) == (old.passed, old.inconclusive), new.name
            assert abs(new.margin - old.margin) <= 8 * self.U * abs(c), new.name
        psi = np.random.default_rng(1).normal(0.0, 1.0, inst.m)
        psi_plus = plus_transform(psi, inst)
        kls = [_induced_kl(inst, phi, *induced_marginal(phi, inst), psi, psi_plus) for phi in (star, star + c)]
        assert abs(kls[1] - kls[0]) <= 16 * self.U * abs(c)

    @pytest.mark.parametrize("c", [37.5, -1e3])
    def test_flow_maxima(self, oracle_cache, c):
        inst = random_instance(np.random.default_rng(0), 8, 9, 0.5)
        star = oracle_cache("gauge-8x9", inst)
        phi0 = np.zeros(inst.m)
        old, new = (flow_run(inst, phi0, r=3.0, t_end=1.0, record_every=50, phi_star=phi) for phi in (star, star + c))
        assert abs(new.v_increase_max - old.v_increase_max) <= 64 * self.U * abs(c)
        assert abs(new.rate_violation_max - old.rate_violation_max) <= 64 * self.U * abs(c)

    @pytest.mark.parametrize("c", [37.5, -1e3])
    def test_bridge_drift(self, oracle_cache, c):
        inst = make_demo_instance(16, 0.1)
        star = oracle_cache("gauge-demo-16", inst)
        old, new = (bridge_from_potential(phi, inst, 11).values for phi in (star, star + c))
        assert np.max(np.abs(new - old)) <= 64 * self.U * abs(c)
