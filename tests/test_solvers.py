import numpy as np
import pytest

from otmatch.kernels import Gram, KernelSpec, gram
from otmatch.semidual import coupling, first_variation, marginal_y, semidual_value
from otmatch.solvers import (
    Link,
    OracleError,
    SolverConfig,
    auto_eta_kernel,
    default_bound,
    lambda_bound,
    log_link,
    match_step,
    oracle_solve,
    proj_sga_step,
    run,
    sign_sga_step,
    t_next,
)
from otmatch.verify import classic_log_sinkhorn, random_instance

from conftest import single_cell_instance, zero_cost_instance


class TestLogLink:
    # links take log masses: the target b enters as log b
    def test_exp_on_target_returns_target(self, small_instance):
        lb = small_instance.log_b
        np.testing.assert_array_equal(log_link(Link.exp(), lb, lb), np.exp(lb))
        np.testing.assert_allclose(log_link(Link.exp(), lb, lb), small_instance.b, rtol=1e-15)

    def test_identity_on_target_is_log(self, small_instance):
        lb = small_instance.log_b
        np.testing.assert_array_equal(log_link(Link.identity(), lb, lb), np.log(small_instance.b))

    def test_chi_square_on_target_is_zero(self, small_instance):
        lb = small_instance.log_b
        np.testing.assert_allclose(log_link(Link.chi_square(), lb, lb), 0.0, atol=1e-16)

    def test_kernel_link_applies_gram(self):
        g = gram(KernelSpec("gaussian", 0.5), np.arange(3.0))
        xi = np.array([0.2, 0.3, 0.5])
        lx = np.log(xi)
        np.testing.assert_allclose(log_link(Link.exp_kernel(g), lx, lx), g.matrix @ xi, rtol=1e-15)

    def test_positivity_requirements(self):
        with np.errstate(divide="ignore"):
            bad = np.log(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError):
            log_link(Link.identity(), bad, bad)
        with pytest.raises(ValueError):
            log_link(Link.chi_square(), bad, bad)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            Link(kind="exp_kernel")
        with pytest.raises(ValueError):
            Link(kind="exp", gram=gram(KernelSpec("identity"), np.arange(2.0)))
        with pytest.raises(ValueError):
            Link(kind="softplus")


class TestMatchStep:
    def test_zero_cost_identity_converges_in_one_step(self):
        inst = zero_cost_instance()
        rng = np.random.default_rng(0)
        phi0 = rng.normal(0, 1, inst.m)
        phi1 = match_step(phi0, inst, Link.identity(), 1.0)
        assert np.ptp(phi1) <= 1e-12  # constant vector
        assert np.max(np.abs(first_variation(phi1, inst))) <= 1e-13

    def test_all_links_fix_the_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(20), 6, 8, 0.5)
        phi = oracle_cache("fixed-6x8", inst)
        g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        for link in (Link.identity(), Link.exp(), Link.exp_kernel(g), Link.chi_square()):
            for eta in (0.3, 1.0):
                moved = match_step(phi, inst, link, eta)
                assert np.max(np.abs(moved - phi)) <= 1e-11, link.kind

    def test_exp_equals_first_variation_path(self, medium_instance):
        rng = np.random.default_rng(1)
        phi = rng.normal(0, 1, medium_instance.m)
        out = match_step(phi, medium_instance, Link.exp(), 0.5)
        expected = phi + 0.5 * first_variation(phi, medium_instance)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_exp_equals_identity_gram_kernel(self, medium_instance):
        rng = np.random.default_rng(2)
        phi = rng.normal(0, 1, medium_instance.m)
        g = gram(KernelSpec("identity"), medium_instance.nu.points)
        np.testing.assert_allclose(
            match_step(phi, medium_instance, Link.exp(), 0.7),
            match_step(phi, medium_instance, Link.exp_kernel(g), 0.7),
            atol=1e-12,
        )

    def test_step_size_range(self, small_instance):
        with pytest.raises(ValueError):
            match_step(np.zeros(small_instance.m), small_instance, Link.exp(), 1.5)


class TestStepRules:
    def test_identity_gram_gives_half(self):
        g = gram(KernelSpec("identity"), np.arange(4.0))
        assert auto_eta_kernel(g) == 0.5

    def test_gaussian_gram_gives_half(self):
        g = gram(KernelSpec("gaussian", 0.7), np.arange(4.0))
        assert auto_eta_kernel(g) == 0.5

    def test_small_constant_capped_at_one(self):
        g = Gram(matrix=np.diag([0.25, 0.25]))
        assert auto_eta_kernel(g) == 1.0

    def test_lambda_zero_cost(self):
        inst = zero_cost_instance()
        assert lambda_bound(inst, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_lambda_constant_cost(self):
        inst = single_cell_instance(cost=3.0, epsilon=1.0)
        assert np.exp(lambda_bound(inst, 0.0)) == pytest.approx(np.exp(3.0), rel=1e-12)

    def test_lambda_matches_extended_precision_sum(self, small_instance):
        inst = small_instance
        acc = np.zeros((), dtype=np.longdouble)
        for i in range(inst.n):
            for j in range(inst.m):
                acc += np.longdouble(inst.a[i]) * np.longdouble(inst.b[j]) * np.exp(
                    np.longdouble(inst.cost[i, j]) / np.longdouble(inst.epsilon)
                )
        expected = 2.0 * 0.8 + float(np.log(acc))
        assert lambda_bound(inst, 0.8) == pytest.approx(expected, rel=1e-13)

    def test_lambda_rejects_negative_cost(self):
        inst = zero_cost_instance()
        neg = type(inst)(mu=inst.mu, nu=inst.nu, cost=inst.cost - 1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            lambda_bound(neg, 1.0)

    def test_default_bound(self):
        inst = zero_cost_instance()
        assert default_bound(inst) == 0.0
        two = type(inst)(mu=inst.mu, nu=inst.nu, cost=np.full((inst.n, inst.m), -2.0), epsilon=1.0)
        assert default_bound(two) == 3.0

    def test_default_bound_explicit_row(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 1, 2, 1.0)
        signed = type(inst)(mu=inst.mu, nu=inst.nu, cost=np.array([[1.0, -4.0]]), epsilon=1.0)
        assert default_bound(signed) == 6.0


class TestMomentumCounter:
    def test_golden_ratio(self):
        assert t_next(1.0) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)

    def test_coefficient_range_and_growth(self):
        t = 1.0
        for n in range(1, 10_000):
            t_new = t_next(t)
            assert 0.0 <= (t - 1.0) / t_new < 1.0
            assert t_new >= (n + 2) / 2.0
            t = t_new

    def test_domain(self):
        with pytest.raises(ValueError):
            t_next(0.5)


class TestSignStep:
    def test_anchor_exactly_preserved(self, medium_instance):
        rng = np.random.default_rng(4)
        phi = rng.normal(0, 1, medium_instance.m)
        out = sign_sga_step(phi, medium_instance, 1.0, anchor=3)
        assert out[3] == phi[3]

    def test_near_fixed_point_barely_moves(self, oracle_cache):
        inst = random_instance(np.random.default_rng(21), 6, 8, 0.5)
        phi = oracle_cache("fixed-6x8-sign", inst, tol=1e-12)
        out = sign_sga_step(phi, inst, 1.0, anchor=0)
        assert np.max(np.abs(out - phi)) <= 1e-11

    def test_unit_step_ascent_amount(self, medium_instance):
        rng = np.random.default_rng(5)
        phi = rng.normal(0, 0.5, medium_instance.m)
        delta = first_variation(phi, medium_instance)
        before = semidual_value(phi, medium_instance)
        after = semidual_value(sign_sga_step(phi, medium_instance, 1.0, 0), medium_instance)
        assert after - before >= 0.5 * np.abs(delta).sum() ** 2 - 1e-10

    def test_eta_range(self, small_instance):
        with pytest.raises(ValueError):
            sign_sga_step(np.zeros(small_instance.m), small_instance, 2.0, 0)


class TestProjStep:
    def test_no_clamp_inside_box(self, medium_instance):
        phi = np.zeros(medium_instance.m)
        p = marginal_y(phi, medium_instance)
        eta = 1e-3
        out = proj_sga_step(phi, medium_instance, B=10.0, eta=eta)
        np.testing.assert_allclose(
            out, phi + eta * (medium_instance.b - p) / medium_instance.b, atol=1e-15
        )

    def test_clamps_to_box(self, medium_instance):
        phi = np.zeros(medium_instance.m)
        out = proj_sga_step(phi, medium_instance, B=1e-9, eta=1.0)
        assert np.max(np.abs(out)) <= 1e-9

    def test_theorem_step_never_decreases_objective(self):
        for seed in range(4):
            inst = random_instance(np.random.default_rng(seed), 6, 6, 0.5)
            B = default_bound(inst)
            eta = float(np.exp(-lambda_bound(inst, B)))
            phi = np.zeros(inst.m)
            for _ in range(10):
                new = proj_sga_step(phi, inst, B, eta)
                assert semidual_value(new, inst) >= semidual_value(phi, inst) - 1e-10
                phi = new

    def test_requires_start_inside_box(self, small_instance):
        with pytest.raises(ValueError):
            proj_sga_step(np.full(small_instance.m, 5.0), small_instance, B=1.0, eta=0.1)


class TestRunner:
    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig.sinkhorn(),
            SolverConfig(method="match", link=Link.identity(), eta=0.8),
            SolverConfig.sga(),
            SolverConfig.chi2(),
            SolverConfig(method="sign_sga"),
            SolverConfig(method="proj_sga"),
            SolverConfig(method="proj_sga_pp"),
        ],
        ids=["sinkhorn", "eta_sinkhorn", "sga", "chi2", "sign_sga", "proj_sga", "proj_sga_pp"],
    )
    def test_zero_cost_converges_within_two_iterations(self, cfg):
        import dataclasses

        inst = zero_cost_instance()
        cfg = dataclasses.replace(cfg, max_iter=2, tol_l1=1e-12)
        res = run(inst, cfg)
        assert res.converged and res.iterations <= 2

    def test_zero_cost_ksga(self):
        inst = zero_cost_instance()
        g = gram(KernelSpec("identity"), inst.nu.points)
        res = run(inst, SolverConfig.ksga(g, max_iter=2, tol_l1=1e-12))
        assert res.converged and res.iterations <= 2

    def test_matches_independent_classical_solver(self):
        inst = random_instance(np.random.default_rng(30), 16, 16, 0.5)
        reference = classic_log_sinkhorn(inst.a, inst.b, inst.cost, inst.epsilon, 50)
        phi = np.zeros(inst.m)
        link = Link.identity()
        for ref in reference:
            phi = match_step(phi, inst, link, 1.0)
            assert np.max(np.abs(phi - ref)) <= 1e-12

    def test_trace_cadence_and_final_record(self):
        inst = random_instance(np.random.default_rng(31), 6, 6, 0.5)
        res = run(inst, SolverConfig.sga(max_iter=47, tol_l1=0.0, record_every=10))
        iters = res.trace.iterations()
        assert iters[0] == 0 and iters[-1] == 47
        assert np.all(np.diff(iters) > 0)
        assert set(iters[:-1]) == {0, 10, 20, 30, 40}

    def test_trace_csv_columns(self):
        inst = random_instance(np.random.default_rng(32), 4, 4, 0.8)
        res = run(inst, SolverConfig.sinkhorn(max_iter=3, tol_l1=0.0))
        lines = res.trace.to_csv().strip().split("\n")
        assert lines[0] == "iter,J,l1_residual,mmd_sq,kl_y,elapsed_s"
        # no gram configured, no timings requested: both fields empty
        assert lines[1].split(",")[3] == ""
        assert lines[1].split(",")[5] == ""
        timed = res.trace.to_csv(include_timings=True).strip().split("\n")
        assert timed[1].split(",")[5] != ""

    def test_mmd_column_present_with_gram(self):
        inst = random_instance(np.random.default_rng(33), 5, 5, 0.6)
        g = gram(KernelSpec("gaussian", 0.4), inst.nu.points)
        res = run(inst, SolverConfig.ksga(g, max_iter=5, tol_l1=0.0))
        assert not np.any(np.isnan(res.trace.column("mmd_sq")))

    def test_x_marginal_invariant_along_iterates(self):
        inst = random_instance(np.random.default_rng(34), 6, 7, 0.4)
        phi = np.zeros(inst.m)
        for _ in range(5):
            phi = match_step(phi, inst, Link.exp(), 0.5)
            np.testing.assert_allclose(coupling(phi, inst).marginal_x(), inst.a, atol=1e-12)

    def test_one_step_stability_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(35), 8, 8, 0.5)
        tol = 1e-13
        phi = oracle_cache("stability-8x8", inst, tol=tol)
        B = default_bound(inst)
        centered = phi - (phi.max() + phi.min()) / 2.0
        g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        moves = {
            "sinkhorn": match_step(phi, inst, Link.identity(), 1.0) - phi,
            "sga": match_step(phi, inst, Link.exp(), 0.5) - phi,
            "ksga": match_step(phi, inst, Link.exp_kernel(g), 0.5) - phi,
            "chi2": match_step(phi, inst, Link.chi_square(), 0.5) - phi,
            "sign": sign_sga_step(phi, inst, 1.0, 0) - phi,
            "proj": proj_sga_step(centered, inst, B, float(np.exp(-lambda_bound(inst, B)))) - centered,
        }
        for name, move in moves.items():
            assert np.max(np.abs(move)) <= 10 * tol, name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="match")
        with pytest.raises(ValueError):
            SolverConfig(method="sign_sga", link=Link.exp())
        with pytest.raises(ValueError):
            SolverConfig(method="match", link=Link.exp(), eta="fast")
        with pytest.raises(ValueError):
            SolverConfig(method="match", link=Link.exp(), record_every=0)

    def test_projected_methods_reject_negative_cost(self):
        inst = zero_cost_instance()
        neg = type(inst)(mu=inst.mu, nu=inst.nu, cost=inst.cost - 1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            run(neg, SolverConfig(method="proj_sga", max_iter=3))


class TestOracle:
    def test_zero_cost_gives_zero_potential(self):
        inst = zero_cost_instance()
        np.testing.assert_allclose(oracle_solve(inst), 0.0, atol=1e-13)

    def test_single_cell(self):
        inst = single_cell_instance()
        np.testing.assert_array_equal(oracle_solve(inst), [0.0])

    def test_symmetric_two_by_two_constant(self):
        from otmatch.measures import DiscreteMeasure, Instance

        mu = DiscreteMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]))
        inst = Instance(mu=mu, nu=mu, cost=np.array([[0.0, 1.0], [1.0, 0.0]]), epsilon=1.0)
        phi = oracle_solve(inst)
        np.testing.assert_allclose(phi, 0.0, atol=1e-12)  # constant, anchored to zero

    def test_first_entry_zero_and_residual(self):
        inst = random_instance(np.random.default_rng(36), 10, 12, 0.3)
        phi = oracle_solve(inst, tol=1e-12)
        assert phi[0] == 0.0
        assert np.abs(inst.b - marginal_y(phi, inst)).sum() <= 1e-12

    def test_budget_exhaustion_reports_residual(self):
        inst = random_instance(np.random.default_rng(37), 8, 8, 0.05)
        with pytest.raises(OracleError, match="residual"):
            oracle_solve(inst, tol=1e-14, max_iter=2)
