import numpy as np
import pytest

from otmatch import mirrorflow, semidual
from otmatch.logops import kl
from otmatch.mirrorflow import FlowBlowupError, _dp_step, flow_run
from otmatch.semidual import InducedCache, coupling, log_reference
from otmatch.solvers import oracle_solve
from otmatch.verify import random_instance

from conftest import zero_cost_instance


@pytest.fixture()
def inst():
    return random_instance(np.random.default_rng(60), 6, 6, 0.5)


def _q(phi, inst):
    """Y-marginal of the coupling induced by phi."""
    return np.exp(coupling(phi, inst).log_masses).sum(axis=0)


def _dp_steps(t, q, g, h, n, inst, r):
    """``n`` Dormand-Prince steps of size ``h`` from (t, q, g) on the closed
    flow; returns the new (q, g) and the error estimate of the last step."""
    cache = InducedCache(inst)

    def field(s, y):
        q, g = y[: inst.m], y[inst.m :]
        return np.concatenate(((r / s) * (cache(g)[1] - q), -(s / r) * (q - inst.b)))

    y = np.concatenate((q, g))
    for k in range(n):
        y, _, est, _ = _dp_step(t + k * h, y, field(t + k * h, y), h, field)
    return y[: inst.m], y[inst.m :], est


class TestFlowInit:
    def test_initial_average_is_induced_coupling(self, inst, oracle_cache):
        # the first record holds (q, g) = (p(phi0), phi0): Lk from the induced
        # coupling's Y-marginal, V's KL term from rho(phi0)
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        phi0 = np.random.default_rng(61).normal(0, 1, inst.m)
        res = flow_run(inst, phi0, r=2.0, t0=0.01, t_end=0.02, dt=1e-2, phi_star=phi_star)
        assert res.ts[0] == 0.01
        d = _q(phi0, inst) - inst.b
        assert res.lks[0] == pytest.approx(0.5 * float(d @ d), rel=1e-14)
        kl0 = kl(coupling(phi_star, inst).log_masses, coupling(phi0, inst).log_masses)
        assert res.vs[0] == pytest.approx(0.01**2 / 2.0 * res.lks[0] + 2.0 * kl0, rel=1e-14)

    def test_zero_cost_zero_potential_is_product(self):
        # the product coupling a x b has Y-marginal b, so Lk starts at zero
        inst = zero_cost_instance()
        res = flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.1, t_end=0.2, dt=1e-1)
        assert res.lks[0] <= 1e-30

    def test_rejects_zero_start_time(self, inst):
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.0, t_end=1.0)

    @pytest.mark.parametrize("bad", ["nan", "shape"])
    def test_rejects_a_non_finite_or_misshapen_start(self, inst, bad):
        # the cache checks nothing, so the flow checks its start
        phi0 = np.zeros(inst.m + 1) if bad == "shape" else np.full(inst.m, np.nan)
        with pytest.raises(ValueError, match="phi0"):
            flow_run(inst, phi0, r=2.0, t0=0.1, t_end=1.0, phi_star=np.zeros(inst.m))


class TestFlowStep:
    def test_fixed_point_is_stationary(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        q = _q(phi_star, inst)
        q1, g1, _ = _dp_steps(1.0, q, phi_star, 1e-3, 1, inst, 2.0)
        assert np.max(np.abs(q1 - q)) <= 1e-12
        assert np.max(np.abs(g1 - phi_star)) <= 1e-12

    def test_fifth_order_convergence(self, inst):
        # away from the r/t singularity, halving h divides the error of the
        # 5th-order solution over a fixed window by ~32, and the embedded
        # error estimate of one step (5th minus 4th order, O(h^5)) by ~32 too
        q, g = _q(np.zeros(inst.m), inst), np.zeros(inst.m)

        def integrate(h):
            return _dp_steps(2.0, q, g, h, round(4.0 / h), inst, 2.0)[0]

        ref = integrate(0.02)
        err1 = np.max(np.abs(integrate(0.2) - ref))
        err2 = np.max(np.abs(integrate(0.1) - ref))
        assert 26.0 <= err1 / err2 <= 40.0
        est1, est2 = (np.max(np.abs(_dp_steps(2.0, q, g, h, 1, inst, 2.0)[2])) for h in (0.4, 0.2))
        assert 26.0 <= est1 / est2 <= 40.0

    @pytest.mark.parametrize("lam", [0.5, 40.0])
    def test_stiffness_estimate_is_h_lambda_on_a_linear_field(self, lam):
        # on y' = -lam y every stage field is -lam times its state, so the
        # estimate from the 6th stage and the new state is h * lam exactly
        # up to rounding, on either side of the stability boundary 3.25
        y, h = np.array([1.0, -2.0, 0.5]), 0.1
        *_, h_lambda = _dp_step(0.0, y, -lam * y, h, lambda s, state: -lam * state)
        assert h_lambda == pytest.approx(h * lam, rel=1e-12)

    def test_mass_conserved_over_many_steps(self, inst):
        q, g = _q(np.zeros(inst.m), inst), np.zeros(inst.m)
        q, g, _ = _dp_steps(0.01, q, g, 5e-3, 2_000, inst, 2.0)
        assert abs(q.sum() - 1.0) <= 1e-10

    def test_parameter_validation(self, inst):
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), r=1.5, t0=0.1, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.1, t_end=1.0, dt=0.0)


class TestLyapunov:
    def test_zero_at_fixed_point(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        res = flow_run(inst, phi_star, r=2.0, t0=2.0, t_end=2.001, dt=1e-3, phi_star=phi_star)
        assert res.vs[0] <= 1e-11

    def test_small_time_limit_is_kl_term(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        rng = np.random.default_rng(63)
        phi0 = rng.normal(0, 0.5, inst.m)
        r = 2.0
        res = flow_run(inst, phi0, r=r, t0=1e-8, t_end=2e-8, dt=1e-8, phi_star=phi_star)
        expected = r * kl(
            coupling(phi_star, inst).log_masses, coupling(phi0, inst).log_masses
        )
        assert res.vs[0] == pytest.approx(expected, rel=1e-9)

    def test_matches_component_oracles(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        rng = np.random.default_rng(64)
        g_vec = rng.normal(0, 0.5, inst.m)
        res = flow_run(inst, g_vec, r=2.0, t0=1.7, t_end=1.8, dt=0.1, phi_star=phi_star)
        lk = 0.5 * float(np.sum((_q(g_vec, inst) - inst.b) ** 2))
        d = kl(coupling(phi_star, inst).log_masses, coupling(g_vec, inst).log_masses)
        assert res.vs[0] == pytest.approx(1.7**2 / 2.0 * lk + 2.0 * d, rel=1e-12)

    def test_conjugate_bregman_equals_kl(self, inst, oracle_cache):
        # the potential value at h = 0 (+) g is <h, rho> - KL(rho || reference);
        # its Bregman divergence between two potentials collapses to a KL
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        rng = np.random.default_rng(65)
        g_vec = rng.normal(0, 0.7, inst.m)

        def conj_value(g):
            pi = coupling(g, inst)
            h = np.tile(g, (inst.n, 1))
            return float(np.sum(np.exp(pi.log_masses) * h)) - kl(pi.log_masses, log_reference(inst))

        pi_star = coupling(phi_star, inst)
        h_g = np.tile(g_vec, (inst.n, 1))
        h_star = np.tile(phi_star, (inst.n, 1))
        bregman = conj_value(g_vec) - conj_value(phi_star) - float(
            np.sum(np.exp(pi_star.log_masses) * (h_g - h_star))
        )
        direct = kl(pi_star.log_masses, coupling(g_vec, inst).log_masses)
        assert bregman == pytest.approx(direct, rel=1e-10)


class TestFlowRun:
    def test_zero_cost_marginal_error_stays_zero(self):
        inst = zero_cost_instance()
        res = flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.01, t_end=1.0, dt=1e-3)
        assert np.max(res.lks) <= 1e-20

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_lyapunov_decay_and_rate(self, inst, oracle_cache, r):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        res = flow_run(
            inst, np.zeros(inst.m), r=r, t0=0.01, t_end=4.0, dt=1e-3,
            record_every=20, phi_star=phi_star,
        )
        assert res.v_increase_max <= res.slack
        assert res.rate_violation_max <= res.slack
        # the violation is the worse of the two readings of the KL
        log_pi0, log_star = coupling(np.zeros(inst.m), inst).log_masses, coupling(phi_star, inst).log_masses
        readings = [np.max(res.lks - (r**2 / res.ts**2) * d) for d in (kl(log_star, log_pi0), kl(log_pi0, log_star))]
        assert res.rate_violation_max == pytest.approx(max(readings), rel=1e-12, abs=0.0)

    def test_csv_format(self, inst):
        res = flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.1, t_end=0.2, dt=1e-2)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "t,Lk,V"
        assert len(lines[1].split(",")) == 3

    def test_validation(self, inst):
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), r=1.0, t0=0.1, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), r=2.0, t0=1.0, t_end=0.5, dt=1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": -1.0}, {"dt": 0.0}, {"dt": np.nan}, {"dt": np.inf},
            {"record_every": 0}, {"t_end": np.inf}, {"t0": np.nan}, {"t0": -np.inf}, {"t_end": 1e308},
            {"dt": 1e-300}, {"t_end": 1e300},
        ],
        ids=["dt_negative", "dt_zero", "dt_nan", "dt_inf", "record_every_zero", "t_end_inf", "t0_nan", "t0_minus_inf",
             "record_grid_t_end", "record_spacing_dt", "record_spacing_t_end"],
    )
    def test_rejects_bad_step_arguments(self, inst, kwargs):
        args = {"r": 2.0, "t0": 0.1, "t_end": 1.0, "dt": 1e-3, **kwargs}
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), **args)

    def test_matches_full_coupling_integration(self, inst, oracle_cache):
        # reference: textbook RK4 on the full (pi_hat, g) state at a step of
        # 2^-11; the closed (q, g) flow must give the Lk of its column sums.
        # RK4's error here is about 6e-15 (a sixteenth of its 9e-14 at
        # 2^-10) and the flow's about 1e-15, so atol 2e-14 covers both.
        # Binary t0 and steps keep both time grids exact.
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        r, t0, dt, n = 2.0, 2.0**-7, 2.0**-11, 1000
        phi0 = np.random.default_rng(66).normal(0, 0.5, inst.m)

        def rhs(t, ph, g):
            return (r / t) * (np.exp(coupling(g, inst).log_masses) - ph), -(t / r) * (ph.sum(axis=0) - inst.b)

        t, ph, g, lks = t0, np.exp(coupling(phi0, inst).log_masses), phi0.copy(), []
        for k in range(1, n + 1):
            k1 = rhs(t, ph, g)
            k2 = rhs(t + dt / 2, ph + dt / 2 * k1[0], g + dt / 2 * k1[1])
            k3 = rhs(t + dt / 2, ph + dt / 2 * k2[0], g + dt / 2 * k2[1])
            k4 = rhs(t + dt, ph + dt * k3[0], g + dt * k3[1])
            ph = ph + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            g = g + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += dt
            if k % 2 == 0:
                lks.append(0.5 * float(np.sum((ph.sum(axis=0) - inst.b) ** 2)))
        res = flow_run(inst, phi0, r=r, t0=t0, t_end=t0 + n * dt, dt=2 * dt, record_every=1, phi_star=phi_star)
        assert len(res.lks) == n // 2 + 1
        assert max(lks) > 1e-4
        np.testing.assert_allclose(res.lks[1:], lks, rtol=0, atol=2e-14)

    def test_matches_textbook_rk4_on_the_coupling_marginal(self, inst, oracle_cache):
        # reference: the classical stages written out on (q, g) at a step of
        # 2^-11, with p(g) summed from the induced coupling.  RK4's error
        # here is about 5e-15 (a fifteenth of its distance to a 2^-10 run);
        # the flow's is about 2e-14 in Lk (RTOL times Lk's scale), so atol
        # 5e-14 covers both, on Lk and on V.
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        r, t0, dt, n = 3.0, 2.0**-7, 2.0**-11, 2000
        phi0 = np.random.default_rng(67).normal(0, 0.5, inst.m)
        lps = coupling(phi_star, inst).log_masses

        def rhs(t, q, g):
            return (r / t) * (_q(g, inst) - q), -(t / r) * (q - inst.b)

        t, q, g, lks, vs = t0, _q(phi0, inst), phi0.copy(), [], []
        for k in range(1, n + 1):
            k1 = rhs(t, q, g)
            k2 = rhs(t + dt / 2, q + dt / 2 * k1[0], g + dt / 2 * k1[1])
            k3 = rhs(t + dt / 2, q + dt / 2 * k2[0], g + dt / 2 * k2[1])
            k4 = rhs(t + dt, q + dt * k3[0], g + dt * k3[1])
            q = q + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            g = g + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += dt
            if k % 20 == 0:
                lks.append(0.5 * float(np.sum((q - inst.b) ** 2)))
                vs.append(t**2 / r * lks[-1] + r * kl(lps, coupling(g, inst).log_masses))
        res = flow_run(inst, phi0, r=r, t0=t0, t_end=t0 + n * dt, dt=2 * dt, record_every=10, phi_star=phi_star)
        assert len(res.lks) == n // 20 + 1
        assert max(lks) > 1e-4
        np.testing.assert_allclose(res.lks[1:], lks, rtol=0, atol=5e-14)
        np.testing.assert_allclose(res.vs[1:], vs, rtol=0, atol=5e-14)

    def test_records_fall_on_the_record_grid_and_t_end(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        t0, dt, every, t_end = 0.01, 1e-3, 7, 0.5
        res = flow_run(inst, np.zeros(inst.m), r=2.0, t0=t0, t_end=t_end, dt=dt, record_every=every, phi_star=phi_star)
        k = len(res.ts) - 1
        assert k == 70  # 0.49 / 0.007: grid times up to 0.483, then t_end
        assert res.ts.tolist() == [t0 + i * (every * dt) for i in range(k)] + [t_end]

    def test_criterion_sized_run_makes_few_evaluations(self, monkeypatch):
        # criterion 09's instance and horizon: a step of 1e-3 would take
        # 49,990 steps of four evaluations each
        inst = random_instance(np.random.default_rng([42, 9]), 16, 16, 0.5)
        phi_star = oracle_solve(inst)
        calls = []
        evaluate = InducedCache.__call__
        monkeypatch.setattr(InducedCache, "__call__", lambda self, g: calls.append(1) or evaluate(self, g))
        res = flow_run(inst, np.zeros(inst.m), r=2.0, t_end=50.0, record_every=50, phi_star=phi_star)
        assert len(calls) <= 10_000
        assert res.v_increase_max <= res.slack and res.rate_violation_max <= res.slack

    @pytest.mark.filterwarnings("error")
    def test_non_finite_field_stops_at_the_step_floor(self, inst, oracle_cache, monkeypatch):
        # every NaN error estimate is a rejection that shrinks the step by 5,
        # so the run stops after the few rejections that reach MIN_STEP * dt
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        calls = []
        evaluate = InducedCache.__call__

        def nan_after_the_start(self, g):  # the start's q is finite, every later p is NaN
            calls.append(1)
            g_plus, p = evaluate(self, g)
            return g_plus, p if len(calls) == 1 else np.full(g.shape, np.nan)

        monkeypatch.setattr(InducedCache, "__call__", nan_after_the_start)
        with pytest.raises(FlowBlowupError, match="step size fell below"):
            flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.01, t_end=50.0, dt=1e-3, phi_star=phi_star)
        assert len(calls) <= 6 * 10

    @pytest.mark.parametrize("calm", [5, 6])
    def test_six_calm_steps_reset_the_stiffness_count(self, monkeypatch, calm):
        # the zero-cost flow from phi = 0 is stationary, so each of its 99
        # steps is accepted; 14 steps beyond 3.25, then `calm` within, then
        # 14 beyond reach 15 unless a run of 6 calm steps reset the count
        h_lambdas = iter([4.0] * 14 + [0.0] * calm + [4.0] * 14 + [0.0] * 100)

        def step(*args):
            return (*_dp_step(*args)[:3], next(h_lambdas))

        monkeypatch.setattr(mirrorflow, "_dp_step", step)
        inst = zero_cost_instance()
        args = dict(r=2.0, t0=0.01, t_end=1.0, dt=0.01, record_every=1, phi_star=np.zeros(inst.m))
        if calm == 6:
            assert flow_run(inst, np.zeros(inst.m), **args).ts.size == 100
        else:
            with pytest.raises(FlowBlowupError, match=r"stiff at t=0\.2[0-9]*: h\*lambda > 3\.25 on 15 steps"):
                flow_run(inst, np.zeros(inst.m), **args)

    def test_reabsorbing_often_changes_nothing(self, inst, oracle_cache, monkeypatch):
        # a small radius makes the cache re-absorb every few steps; each
        # absorption only moves the reference, not the marginal it gives
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        args = dict(r=2.0, t0=0.01, t_end=4.0, dt=1e-3, record_every=20, phi_star=phi_star)
        default = flow_run(inst, np.zeros(inst.m), **args)
        absorb = semidual._absorb
        calls = []
        monkeypatch.setattr(semidual, "_absorb", lambda phi, inst: calls.append(1) or absorb(phi, inst))
        monkeypatch.setattr(semidual, "ABSORB_AT", 1e-3)
        small = flow_run(inst, np.zeros(inst.m), **args)
        assert len(calls) > 100
        np.testing.assert_array_equal(small.ts, default.ts)
        np.testing.assert_allclose(small.lks, default.lks, rtol=0, atol=1e-12)
        np.testing.assert_allclose(small.vs, default.vs, rtol=0, atol=1e-12)
