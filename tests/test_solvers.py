import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from otmatch import semidual, solvers
from otmatch.bridge import make_demo_instance
from otmatch.logops import kl, logsumexp
from otmatch.measures import DiscreteMeasure, Instance, _block_rows
from otmatch.kernels import Gram, KernelSpec, gram
from otmatch.semidual import KL_BLOCK_BYTES, coupling, first_variation, marginal_y, semidual_value
from otmatch.solvers import (
    METHODS,
    TRACE_COLUMNS,
    OracleError,
    SolverConfig,
    auto_eta_kernel,
    default_bound,
    lambda_bound,
    link_correction,
    oracle_solve,
    run,
    t_next,
)
from otmatch.verify import classic_log_sinkhorn, random_instance

from conftest import (
    NON_FINITE,
    SHIFTS,
    certified_run_phi,
    cost_of,
    floor_path_log_mass,
    one_step,
    poison_update,
    single_cell_instance,
    underflow_instance,
    zero_cost_instance,
)


class TestLinkCorrection:
    P = np.array([0.1, 0.0, 0.6, 0.3])
    B = np.array([0.25, 0.25, 0.2, 0.3])

    @pytest.fixture()
    def inst(self):
        from otmatch.measures import DiscreteMeasure, Instance

        mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
        nu = DiscreteMeasure(points=np.arange(4.0)[:, None], weights=self.B)
        return Instance(mu=mu, nu=nu, cost=np.arange(4.0)[None, :], epsilon=1.0)

    @pytest.fixture()
    def g(self):
        return gram(KernelSpec("gaussian", 0.5), np.arange(4.0)[:, None])

    def test_closed_forms(self, inst, g):
        # the zero mass is an underflowed column: only the identity link reads log p
        p, b = self.P, inst.b
        log_p = np.array([np.log(0.1), -1200.0, np.log(0.6), np.log(0.3)])
        np.testing.assert_array_equal(link_correction("identity", p, log_p, inst), log_p - inst.log_b)
        np.testing.assert_array_equal(link_correction("exp", p, log_p, inst), p - b)
        np.testing.assert_array_equal(link_correction("exp_kernel", p, log_p, inst, g), g.matrix @ (p - b))
        np.testing.assert_array_equal(link_correction("chi_square", p, log_p, inst), (p - b) / b)

    @pytest.mark.parametrize("kind", ["identity", "exp", "exp_kernel", "chi_square"])
    def test_zero_at_the_target(self, inst, g, kind):
        got = link_correction(kind, inst.b, inst.log_b, inst, g)
        np.testing.assert_array_equal(got, np.zeros(inst.m))

    def test_rejects_unknown_kind_and_kernel_without_gram(self, inst):
        with pytest.raises(ValueError, match="unknown link kind"):
            link_correction("softplus", inst.b, inst.log_b, inst)
        with pytest.raises(ValueError, match="needs a Gram"):
            link_correction("exp_kernel", inst.b, inst.log_b, inst)


class TestMatchStep:
    def test_zero_cost_identity_converges_in_one_step(self):
        inst = zero_cost_instance()
        rng = np.random.default_rng(0)
        phi0 = rng.normal(0, 1, inst.m)
        phi1 = one_step("sinkhorn", phi0, inst)
        assert np.ptp(phi1) <= 1e-12  # constant vector
        assert np.max(np.abs(first_variation(phi1, inst))) <= 1e-13

    def test_all_links_fix_the_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(20), 6, 8, 0.5)
        phi = oracle_cache("fixed-6x8", inst)
        g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        for method in ("eta_sinkhorn", "sga", "ksga", "chi2"):
            for eta in (0.3, 1.0):
                moved = one_step(method, phi, inst, eta=eta, gram=g if method == "ksga" else None)
                assert np.max(np.abs(moved - phi)) <= 1e-11, method

    def test_exp_equals_first_variation_path(self, medium_instance):
        rng = np.random.default_rng(1)
        phi = rng.normal(0, 1, medium_instance.m)
        out = one_step("sga", phi, medium_instance, eta=0.5)
        expected = phi + 0.5 * first_variation(phi, medium_instance)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_exp_equals_identity_gram_kernel(self, medium_instance):
        rng = np.random.default_rng(2)
        phi = rng.normal(0, 1, medium_instance.m)
        g = gram(KernelSpec("identity"), medium_instance.nu.points)
        np.testing.assert_allclose(
            one_step("sga", phi, medium_instance, eta=0.7),
            one_step("ksga", phi, medium_instance, eta=0.7, gram=g),
            atol=1e-12,
        )

    def test_step_size_range(self, small_instance):
        with pytest.raises(ValueError, match=r"sga step size must be finite in \(0, 1\], got 1.5"):
            SolverConfig(method="sga", eta=1.5)


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
        inst, cost = small_instance, cost_of(small_instance)
        acc = np.zeros((), dtype=np.longdouble)
        for i in range(inst.n):
            for j in range(inst.m):
                acc += np.longdouble(inst.a[i]) * np.longdouble(inst.b[j]) * np.exp(
                    np.longdouble(cost[i, j]) / np.longdouble(inst.epsilon)
                )
        expected = 2.0 * 0.8 + float(np.log(acc))
        assert lambda_bound(inst, 0.8) == pytest.approx(expected, rel=1e-13)

    def test_lambda_is_infinite_where_c_over_eps_overflows(self):
        # 1e300 / 1e-10 is inf in float64; the constant is +inf, not NaN, so
        # the projected methods' auto step is 0.0
        mu = DiscreteMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.3, 0.7]))
        inst = Instance(mu=mu, nu=mu, cost=np.array([[0.0, 1e300], [1e300, 0.0]]), epsilon=1e-10)
        assert lambda_bound(inst, 1.0) == math.inf
        for method in ("proj_sga", "proj_sga_pp"):
            assert METHODS[method].auto_eta(None, inst, default_bound(inst)) == 0.0

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
        out = one_step("sign_sga", phi, medium_instance, eta=1.0, anchor_index=3)
        assert out[3] == phi[3]

    def test_near_fixed_point_barely_moves(self, oracle_cache):
        inst = random_instance(np.random.default_rng(21), 6, 8, 0.5)
        phi = oracle_cache("fixed-6x8-sign", inst, tol=1e-12)
        out = one_step("sign_sga", phi, inst, eta=1.0, anchor_index=0)
        assert np.max(np.abs(out - phi)) <= 1e-11

    def test_unit_step_ascent_amount(self, medium_instance):
        rng = np.random.default_rng(5)
        phi = rng.normal(0, 0.5, medium_instance.m)
        delta = first_variation(phi, medium_instance)
        before = semidual_value(phi, medium_instance)
        after = semidual_value(one_step("sign_sga", phi, medium_instance, eta=1.0, anchor_index=0), medium_instance)
        assert after - before >= 0.5 * np.abs(delta).sum() ** 2 - 1e-10

    def test_eta_range(self, small_instance):
        with pytest.raises(ValueError, match=r"sign_sga step size must be finite in \(0, 2\), got 2.0"):
            SolverConfig(method="sign_sga", eta=2.0)


class TestProjStep:
    def test_no_clamp_inside_box(self, medium_instance):
        phi = np.zeros(medium_instance.m)
        p = marginal_y(phi, medium_instance)
        eta = 1e-3
        out = one_step("proj_sga", phi, medium_instance, bound_B=10.0, eta=eta)
        np.testing.assert_allclose(
            out, phi + eta * (medium_instance.b - p) / medium_instance.b, atol=1e-15
        )

    def test_clamps_to_box(self, medium_instance):
        phi = np.zeros(medium_instance.m)
        out = one_step("proj_sga", phi, medium_instance, bound_B=1e-9, eta=1.0)
        assert np.max(np.abs(out)) <= 1e-9

    def test_theorem_step_never_decreases_objective(self):
        for seed in range(4):
            inst = random_instance(np.random.default_rng(seed), 6, 6, 0.5)
            B = default_bound(inst)
            eta = float(np.exp(-lambda_bound(inst, B)))
            phi = np.zeros(inst.m)
            for _ in range(10):
                new = one_step("proj_sga", phi, inst, bound_B=B, eta=eta)
                assert semidual_value(new, inst) >= semidual_value(phi, inst) - 1e-10
                phi = new

    def test_requires_start_inside_box(self, small_instance):
        with pytest.raises(ValueError):
            one_step("proj_sga", np.full(small_instance.m, 5.0), small_instance, bound_B=1.0, eta=0.1)

    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_a_step_the_clamp_never_reaches_is_the_chi2_step(self, eta):
        # the projected methods take the chi-square matching step, then clamp
        rng = np.random.default_rng(39)
        for _ in range(20):
            inst = random_instance(rng, 7, 9, 0.5)
            phi = rng.normal(size=inst.m)
            chi2 = one_step("chi2", phi, inst, eta=eta)
            np.testing.assert_array_equal(one_step("proj_sga", phi, inst, eta=eta, bound_B=1e6), chi2)
            # the extrapolated point's p is E @ 1 from the cached matrix, not
            # the exponential pass's row sums
            pp = one_step("proj_sga_pp", phi, inst, eta=eta, bound_B=1e6)
            np.testing.assert_allclose(pp, chi2, rtol=0.0, atol=1e-15)


class TestRunner:
    @pytest.mark.parametrize(
        "cfg",
        [
            SolverConfig(method="sinkhorn"),
            SolverConfig(method="eta_sinkhorn", eta=0.8),
            SolverConfig(method="sga"),
            SolverConfig(method="chi2"),
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
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=2, tol_l1=1e-12))
        assert res.converged and res.iterations <= 2

    def test_matches_independent_classical_solver(self):
        inst = random_instance(np.random.default_rng(30), 16, 16, 0.5)
        reference = classic_log_sinkhorn(inst.a, inst.b, cost_of(inst), inst.epsilon, 50)
        phi = np.zeros(inst.m)
        for ref in reference:
            phi = one_step("sinkhorn", phi, inst)
            assert np.max(np.abs(phi - ref)) <= 1e-12

    def test_trace_cadence_and_final_record(self):
        inst = random_instance(np.random.default_rng(31), 6, 6, 0.5)
        res = run(inst, SolverConfig(method="sga", max_iter=47, tol_l1=0.0, record_every=10))
        iters = res.trace.column("iter")
        assert iters[0] == 0 and iters[-1] == 47
        assert np.all(np.diff(iters) > 0)
        assert set(iters[:-1]) == {0, 10, 20, 30, 40}

    def test_trace_csv_columns(self):
        inst = random_instance(np.random.default_rng(32), 4, 4, 0.8)
        res = run(inst, SolverConfig(method="sinkhorn", max_iter=3, tol_l1=0.0))
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
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=5, tol_l1=0.0))
        assert not np.any(np.isnan(res.trace.column("mmd_sq")))

    def test_x_marginal_invariant_along_iterates(self):
        inst = random_instance(np.random.default_rng(34), 6, 7, 0.4)
        phi = np.zeros(inst.m)
        for _ in range(5):
            phi = one_step("sga", phi, inst, eta=0.5)
            np.testing.assert_allclose(np.exp(logsumexp(coupling(phi, inst).log_masses, axis=1)), inst.a, atol=1e-12)

    def test_one_step_stability_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(35), 8, 8, 0.5)
        tol = 1e-13
        phi = oracle_cache("stability-8x8", inst, tol=tol)
        B = default_bound(inst)
        centered = phi - (phi.max() + phi.min()) / 2.0
        g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        moves = {
            "sinkhorn": one_step("sinkhorn", phi, inst) - phi,
            "sga": one_step("sga", phi, inst, eta=0.5) - phi,
            "ksga": one_step("ksga", phi, inst, eta=0.5, gram=g) - phi,
            "chi2": one_step("chi2", phi, inst, eta=0.5) - phi,
            "sign": one_step("sign_sga", phi, inst, eta=1.0, anchor_index=0) - phi,
            "proj": one_step("proj_sga", centered, inst, bound_B=B, eta=float(np.exp(-lambda_bound(inst, B))))
            - centered,
        }
        for name, move in moves.items():
            assert np.max(np.abs(move)) <= 10 * tol, name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="match")
        with pytest.raises(ValueError, match="ksga needs a kernel"):
            SolverConfig(method="ksga")
        with pytest.raises(ValueError, match="sinkhorn runs at unit step"):
            SolverConfig(method="sinkhorn", eta=0.5)
        with pytest.raises(ValueError):
            SolverConfig(method="sga", eta="fast")
        with pytest.raises(ValueError):
            SolverConfig(method="sga", record_every=0)
        for method, eta in [("sga", 1.5), ("sign_sga", 2.0), ("proj_sga", 0.0), ("proj_sga", np.inf)]:
            with pytest.raises(ValueError, match="step size"):
                SolverConfig(method=method, eta=eta)

    def test_projected_methods_reject_negative_cost(self):
        inst = zero_cost_instance()
        neg = type(inst)(mu=inst.mu, nu=inst.nu, cost=inst.cost - 1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            run(neg, SolverConfig(method="proj_sga", max_iter=3))

    @pytest.mark.parametrize("method", ["proj_sga", "proj_sga_pp"])
    @pytest.mark.parametrize("eta", ["auto", 1e-3])
    def test_one_lambda_bound_per_projected_run(self, method, eta, small_instance, monkeypatch):
        calls = []

        def counted(inst, B):
            calls.append(B)
            return lambda_bound(inst, B)

        monkeypatch.setattr(solvers, "lambda_bound", counted)
        run(small_instance, SolverConfig(method=method, eta=eta, max_iter=3))
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["proj_sga", "proj_sga_pp"])
    def test_negative_cost_rejected_with_explicit_step(self, method):
        inst = zero_cost_instance()
        neg = type(inst)(mu=inst.mu, nu=inst.nu, cost=inst.cost - 1.0, epsilon=1.0)
        with pytest.raises(ValueError, match="nonnegative cost"):
            run(neg, SolverConfig(method=method, eta=1e-3, max_iter=3))


class TestLogPOnlyForTheIdentityLink:
    """Only the identity link reads log p, so only its runs take the exact
    column fallback; every method's kl_y reads p."""

    @pytest.mark.parametrize("method", ["sga", "ksga", "chi2", "sign_sga", "proj_sga", "proj_sga_pp"])
    def test_other_links_never_take_the_column_fallback(self, method, monkeypatch):
        def refuse(*args):
            raise AssertionError("the column logsumexp ran for a link that reads p")

        monkeypatch.setattr(semidual, "_log_marginal_cols", refuse)
        inst = underflow_instance()
        g = gram(KernelSpec("gaussian", 1.0), inst.nu.points) if method == "ksga" else None
        # the projected methods' auto step underflows to 0.0 here; a given one iterates
        eta = 0.5 if method.startswith("proj") else "auto"
        res = run(inst, SolverConfig(method, eta=eta, max_iter=500, tol_l1=0.0, gram=g))
        assert res.iterations == 500

    @pytest.mark.parametrize("method", ["sinkhorn", "eta_sinkhorn"])
    def test_identity_link_takes_it_at_iteration_zero(self, method):
        inst = underflow_instance()
        cols = mock.patch.object(semidual, "_log_marginal_cols", wraps=semidual._log_marginal_cols)
        with cols as spy:
            phi = one_step(method, np.zeros(inst.m), inst)
        assert spy.call_count == 1
        np.testing.assert_array_equal(spy.call_args.args[3], [1])
        assert np.all(np.isfinite(phi))

    @pytest.mark.parametrize("method", list(METHODS))
    def test_kl_y_is_finite_without_warnings(self, method):
        inst = underflow_instance()
        g = gram(KernelSpec("gaussian", 1.0), inst.nu.points) if method == "ksga" else None
        eta = 0.5 if method.startswith("proj") else "auto"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(inst, SolverConfig(method, eta=eta, max_iter=500, tol_l1=1e-9, gram=g))
        assert np.all(np.isfinite(res.trace.column("kl_y")))


class _ReferenceCache:
    """The cached evaluation as first written: every call checks phi and
    returns ``(phi_plus, p)``."""

    def __init__(self, inst):
        self.inst, self.e = inst, None

    def __call__(self, phi):
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite everywhere")
        inst = self.inst
        if self.e is not None:
            delta = phi - self.phi_ref
            if delta.dot(delta) <= semidual.ABSORB_AT**2 or abs(delta).max() <= semidual.ABSORB_AT:
                v = np.exp(delta)
                t = self.e @ v
                phi_plus = self.rowmax + np.log(t)
                return phi_plus, v * ((inst.a / t) @ self.e)
        self.e, self.rowmax, phi_plus, p = semidual._absorb(phi, inst)
        self.phi_ref = phi.copy()
        return phi_plus, p


def _reference_run(inst, cfg):
    """The runner's loop as first written, with each link's correction
    written out, log p taken by the floor path for the identity link only,
    and every ``inst`` attribute taken afresh each iteration.  Returns the
    trace CSV, the final phi, the iteration count and whether the run
    converged."""
    spec = METHODS[cfg.method]
    phi = np.zeros(inst.m)
    B = default_bound(inst) if spec.family in ("proj", "proj_pp") else None
    anchor = int(np.argmax(inst.b)) if spec.family == "sign" else None
    eta = spec.auto_eta(cfg.gram, inst, B)
    max_iter = 0 if eta == 0.0 else cfg.max_iter
    bar_prev, inner, t_mom = phi.copy(), phi.copy(), 1.0
    evaluate = _ReferenceCache(inst)
    lines, it = [",".join(TRACE_COLUMNS)], 0
    while True:
        phi_plus, p = evaluate(phi)
        resid = float(np.abs(inst.b - p).sum())
        j_val = float(inst.b @ phi - inst.a @ phi_plus)
        converged = resid <= cfg.tol_l1
        final = converged or it >= max_iter
        if final or it % cfg.record_every == 0:
            mmd = ""
            if cfg.gram is not None:
                d = p - inst.b
                mmd = repr(0.5 * float(d @ cfg.gram.matrix @ d))
            live = p > 0.0  # 0 log 0 = 0
            kl_y = float(np.sum(p[live] * (np.log(p[live]) - inst.log_b[live])))
            lines.append(f"{it},{j_val!r},{resid!r},{mmd},{kl_y!r},")
        if final:
            break
        if spec.family == "match":
            correction = {
                "identity": lambda: floor_path_log_mass(p, phi, phi_plus, inst) - inst.log_b,
                "exp": lambda: p - inst.b,
                "exp_kernel": lambda: cfg.gram.matrix @ (p - inst.b),
                "chi_square": lambda: (p - inst.b) / inst.b,
            }[spec.link]()
            phi = phi - eta * correction
        elif spec.family == "sign":
            delta = inst.b - p
            half = phi + eta * np.abs(delta).sum() * np.sign(delta)
            out = half - (half[anchor] - phi[anchor])
            out[anchor] = phi[anchor]
            phi = out
        elif spec.family == "proj":
            phi = np.clip(phi - eta * ((p - inst.b) / inst.b), -B, B)
        else:
            p_inner = evaluate(inner)[1]
            bar = np.clip(inner - eta * ((p_inner - inst.b) / inst.b), -B, B)
            t_new = (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom)) / 2.0
            inner = bar + ((t_mom - 1.0) / t_new) * (bar - bar_prev)
            bar_prev, t_mom, phi = bar, t_new, bar
        it += 1
    return "\n".join(lines) + "\n", phi, it, converged


class TestRunnerBits:
    """The runner gives the bits of its loop as first written."""

    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("which", ["cloud", "underflow"])
    def test_trace_and_phi_match_the_reference_loop(self, method, which, monkeypatch):
        if which == "cloud":
            inst = random_instance(np.random.default_rng(38), 12, 16, 0.05)
            # a small radius makes the cache re-absorb along the run
            monkeypatch.setattr(semidual, "ABSORB_AT", 0.3)
        else:
            inst = underflow_instance()
        spec = KernelSpec("gaussian", 0.25) if method == "ksga" else KernelSpec("identity")
        for g, record_every in ((gram(spec, inst.nu.points), 1), (None, 7)):
            if g is None and method == "ksga":
                continue
            cfg = SolverConfig(method=method, max_iter=300, tol_l1=1e-6, record_every=record_every, gram=g)
            res = run(inst, cfg)
            csv, phi, iterations, converged = _reference_run(inst, cfg)
            assert res.trace.to_csv() == csv
            np.testing.assert_array_equal(res.phi, phi)
            assert (res.iterations, res.converged) == (iterations, converged)


def spy_marginals(monkeypatch):
    """Make run's cache keep the p of its every call, in order; returns that list."""
    marginals = []

    class Spy(semidual.InducedCache):
        def __call__(self, phi):
            phi_plus, p = super().__call__(phi)
            marginals.append(p)
            return phi_plus, p

    monkeypatch.setattr(solvers, "InducedCache", Spy)
    return marginals


def record_marginals(res, marginals, method):
    """The p each record of ``res`` read: the accelerated method evaluates twice per iteration."""
    per_iteration = 2 if METHODS[method].family == "proj_pp" else 1
    return [marginals[per_iteration * rec.iteration] for rec in res.trace.records]


class TestKlBlock:
    """run takes kl_y for a block of records at once; every record's value
    is the 1-D kl of its own p, bit for bit, whatever the block's size and
    fill."""

    @staticmethod
    def assert_own_kl(res, marginals, inst, method="sga"):
        for rec, p in zip(res.trace.records, record_marginals(res, marginals, method), strict=True):
            assert type(rec.kl_y) is float
            with np.errstate(divide="ignore"):
                log_p = np.log(p)
            assert repr(rec.kl_y) == repr(kl(log_p, inst.log_b, p))

    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000])
    def test_every_target_size(self, monkeypatch, m, every):
        # a block holds 32 KiB: the 129 records fit one block up to m = 31 and
        # fill blocks of 32 rows at m = 128, 31 at m = 129 and 4 at m = 1000.
        # A single target atom converges early
        inst = random_instance(np.random.default_rng(m), 3, m, 0.02)
        marginals = spy_marginals(monkeypatch)
        res = run(inst, SolverConfig("sga", max_iter=128 * every, tol_l1=0.0, record_every=every))
        assert len(res.trace.records) == 129 or m == 1
        self.assert_own_kl(res, marginals, inst)

    @pytest.mark.parametrize("every", [1, 7])
    # at m = 16 a block holds 256 rows, at m = 1000 four
    @pytest.mark.parametrize("records", [1, 2, 63, 64, 65, 129, 256, 257])
    @pytest.mark.parametrize("m", [16, 1000])
    def test_every_record_count(self, monkeypatch, m, records, every):
        inst = random_instance(np.random.default_rng(records), 4, m, 0.5)
        marginals = spy_marginals(monkeypatch)
        res = run(inst, SolverConfig("sga", max_iter=(records - 1) * every, tol_l1=0.0, record_every=every))
        assert len(res.trace.records) == records
        self.assert_own_kl(res, marginals, inst)

    @pytest.mark.parametrize("every", [1, 7])
    def test_a_run_converged_in_the_middle_of_a_block(self, monkeypatch, every):
        # at m = 256 a block holds 16 rows; the run converges after 123 records
        # (every = 1) or 19 (every = 7), so it fills a block and stops inside the next
        inst = random_instance(np.random.default_rng(0), 16, 256, 0.02)
        rows = _block_rows(inst.m, KL_BLOCK_BYTES)
        marginals = spy_marginals(monkeypatch)
        res = run(inst, SolverConfig("sinkhorn", max_iter=1000, tol_l1=1e-9, record_every=every))
        assert res.converged and len(res.trace.records) > rows
        assert len(res.trace.records) % rows not in (0, 1)  # the final record is not a block's first
        self.assert_own_kl(res, marginals, inst, "sinkhorn")

    def test_a_block_holds_at_most_32_kib(self):
        # at m = 4096 one marginal fills 32 KiB, so the block has one row;
        # the run holds about 13 m-vectors
        inst = random_instance(np.random.default_rng(1), 2, 4096, 0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(inst, SolverConfig("sga", max_iter=100, tol_l1=0.0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * inst.m

    @pytest.mark.parametrize("method", list(METHODS))
    def test_marginals_with_exact_zeros(self, monkeypatch, method):
        inst = underflow_instance()
        g = gram(KernelSpec("gaussian", 1.0), inst.nu.points) if method == "ksga" else None
        eta = 0.5 if method.startswith("proj") else "auto"
        marginals = spy_marginals(monkeypatch)
        res = run(inst, SolverConfig(method, eta=eta, max_iter=100, tol_l1=1e-9, gram=g))
        assert any(np.any(p == 0.0) for p in record_marginals(res, marginals, method))
        self.assert_own_kl(res, marginals, inst, method)


class _CountingMatrix(np.ndarray):
    """A Gram matrix that counts the products taken with it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingMatrix.products += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


class TestIdentityGramMmd:
    """A Gram that is exactly the identity gives mmd_sq = d.d / 2 with no
    m x m product, bit for bit the product with the Gram; any other Gram
    takes the product."""

    @pytest.mark.parametrize("method", list(METHODS))
    def test_equals_the_product_with_the_gram(self, monkeypatch, method):
        rng = np.random.default_rng(list(METHODS).index(method))
        marginals = spy_marginals(monkeypatch)
        for _ in range(50):
            n, m = rng.integers(1, 30, size=2)
            inst = random_instance(rng, int(n), int(m), float(rng.choice([0.05, 0.5])))
            g = gram(KernelSpec("identity"), inst.nu.points)
            marginals.clear()
            res = run(inst, SolverConfig(method, max_iter=20, tol_l1=0.0, gram=g))
            for rec, p in zip(res.trace.records, record_marginals(res, marginals, method), strict=True):
                d = p - inst.b
                assert repr(rec.mmd_sq) == repr(0.5 * float(d @ g.matrix @ d))

    @pytest.mark.parametrize("kind", ["identity", "identity_plus_1e-300", "gaussian"])
    def test_only_an_exact_identity_skips_the_product(self, monkeypatch, kind):
        inst = random_instance(np.random.default_rng(5), 8, 8, 0.5)
        if kind == "gaussian":
            g = gram(KernelSpec("gaussian", 0.3), inst.nu.points)
        else:
            k = np.eye(inst.m)
            if kind == "identity_plus_1e-300":
                k[0, 1] = k[1, 0] = 1e-300
            g = Gram(k)
        matrix = g.matrix
        object.__setattr__(g, "matrix", matrix.view(_CountingMatrix))
        monkeypatch.setattr(_CountingMatrix, "products", 0)
        marginals = spy_marginals(monkeypatch)
        res = run(inst, SolverConfig("sga", max_iter=10, tol_l1=0.0, gram=g))
        assert _CountingMatrix.products == (0 if kind == "identity" else len(res.trace.records))
        for rec, p in zip(res.trace.records, marginals, strict=True):
            d = p - inst.b
            assert repr(rec.mmd_sq) == repr(0.5 * float(d @ matrix @ d))


class TestNonFiniteIterate:
    """run checks phi0 alone and the cache checks nothing, so a NaN or
    infinite iterate shows as a NaN objective, with no numpy warning, which
    stops the run."""

    @NON_FINITE
    @SHIFTS
    def test_raises_divergence_at_that_iteration(self, medium_instance, monkeypatch, bad, shift):
        poison_update(monkeypatch, bad, shift, at=3)
        cfg = SolverConfig("sga", eta=1.0, max_iter=10, tol_l1=0.0)
        with pytest.raises(solvers.DivergenceError, match="non-finite .* to nan at iteration 3$"):
            run(medium_instance, cfg)


def _tightening_instance():
    # |<b - p, phi>| at residual 1e-12 is above 1e-11, which made the
    # oracle's former stopping test tighten the residual target
    return random_instance(np.random.default_rng(4), 24, 24, 0.01)


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
        np.testing.assert_allclose(phi, 0.0, atol=1e-12)  # phi = 0, the start, is optimal

    def test_returns_the_certified_run_iterate_and_residual(self):
        inst = random_instance(np.random.default_rng(36), 10, 12, 0.3)
        phi = oracle_solve(inst, tol=1e-12)
        assert np.array_equal(phi, certified_run_phi(inst, 1e-12))
        assert np.abs(inst.b - marginal_y(phi, inst)).sum() <= 1e-12

    def test_budget_exhaustion_reports_residual(self, monkeypatch):
        inst = random_instance(np.random.default_rng(37), 8, 8, 0.05)
        monkeypatch.setattr(solvers, "ORACLE_MAX_ITER", 2)
        with pytest.raises(OracleError, match="residual"):
            oracle_solve(inst, tol=1e-14)

    def test_certifies_in_one_run(self):
        inst = _tightening_instance()
        with mock.patch.object(solvers, "run", wraps=solvers.run) as runs:
            phi = oracle_solve(inst, tol=1e-12)
        assert runs.call_count == 1
        assert np.abs(inst.b - marginal_y(phi, inst)).sum() <= 1e-12

    @pytest.mark.parametrize("epsilon", [1e-3, 3e-4, 1e-4])
    def test_certifies_the_small_eps_demo(self, epsilon):
        # phi oscillates by about 2.6 / eps; |<b - p, phi>| grew with it and never met an absolute 1e-11
        inst = make_demo_instance(64, epsilon)
        phi = oracle_solve(inst)
        j = semidual_value(phi, inst)  # |J| is about 0.44 / eps
        assert np.array_equal(phi, certified_run_phi(inst, 1e-12))
        assert semidual._rounded_primal(phi, inst) - j <= 1e-11 * abs(j)

    @pytest.mark.parametrize(
        "far, bound", [(1e300, r"inf"), (1e-7, r"[3-4]\.\d+e-10")], ids=["infinite", "finite"]
    )
    def test_a_remainder_on_a_far_entry_is_refused(self, far, bound):
        # Known limitation.  On a tridiagonal 3x3 cost (entries 0 and 1e-10 at
        # eps 1e-10) the run converges, since the gate is reached, but the
        # rounding's rank-one remainder lands on the far corners.  C = 1e300
        # (C/eps = +inf) gives them zero reference mass and a bound of inf;
        # C/eps = 1e3 gives a bound of about 3.5e-10.  The former stopping
        # test |<b - p, phi>| <= 1e-11, which is not a bound, passed on both
        cost = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        cost = np.where(cost > 1.0, far, cost * 1e-10)
        mu = DiscreteMeasure(points=np.zeros((3, 1)), weights=np.array([0.3, 0.3, 0.4]))
        nu = DiscreteMeasure(points=np.zeros((3, 1)), weights=np.array([0.4, 0.35, 0.25]))
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=1e-10)
        with pytest.raises(OracleError, match=rf"^duality bound {bound} above the gate 1e-11$"):
            oracle_solve(inst)

    def test_a_bound_above_the_gate_is_reported(self, monkeypatch):
        # the single cell has residual exactly 0 and J = 0 at cost 0, so the gate is 10 * tol
        monkeypatch.setattr(solvers, "_rounded_primal", lambda phi, inst: 1.0)
        with pytest.raises(OracleError, match=r"^duality bound 1\.0 above the gate 1e-11$"):
            oracle_solve(single_cell_instance(cost=0.0))
