import numpy as np
import pytest

from otmatch import semidual
from otmatch.logops import kl
from otmatch.mirrorflow import _rk4_steps, flow_run
from otmatch.semidual import InducedCache, coupling, log_reference
from otmatch.verify import random_instance

from conftest import zero_cost_instance


@pytest.fixture()
def inst():
    return random_instance(np.random.default_rng(60), 6, 6, 0.5)


def _q(phi, inst):
    """Y-marginal of the coupling induced by phi."""
    return np.exp(coupling(phi, inst).log_masses).sum(axis=0)


def _rk4_step(t, q, g, h, inst, r, cache):
    """One step of the flow's integrator; returns the new (q, g)."""
    _, q, g = _rk4_steps(t, q, g, [h], r, inst.b, cache.marginal)
    return q, g


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


class TestFlowStep:
    def test_fixed_point_is_stationary(self, inst, oracle_cache):
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        q = _q(phi_star, inst)
        q1, g1 = _rk4_step(1.0, q, phi_star, 1e-3, inst, 2.0, InducedCache(inst))
        assert np.max(np.abs(q1 - q)) <= 1e-12
        assert np.max(np.abs(g1 - phi_star)) <= 1e-12

    def test_fourth_order_convergence(self, inst):
        # integrate a fixed window at dt and dt/2; global error should drop ~16x
        def integrate(dt):
            t, q, g, cache = 0.2, _q(np.zeros(inst.m), inst), np.zeros(inst.m), InducedCache(inst)
            while t < 0.7 - 1e-12:
                q, g = _rk4_step(t, q, g, dt, inst, 2.0, cache)
                t += dt
            return q

        ref = integrate(0.5e-3)
        err1 = np.max(np.abs(integrate(0.02) - ref))
        err2 = np.max(np.abs(integrate(0.01) - ref))
        assert 10.0 <= err1 / err2 <= 24.0

    def test_mass_conserved_over_many_steps(self, inst):
        q, g = _q(np.zeros(inst.m), inst), np.zeros(inst.m)
        _, q, g = _rk4_steps(0.01, q, g, np.full(10_000, 1e-3), 2.0, inst.b, InducedCache(inst).marginal)
        assert abs(q.sum() - 1.0) <= 1e-10

    def test_stale_buffer_memory_never_enters_a_step(self, inst, monkeypatch):
        # a fresh buffer may hold NaN bits; the stage rows not yet written
        # enter the first dot product with coefficient 0, and 0 * NaN = NaN
        real_full = np.full
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: real_full(shape, np.nan, dtype))
        q, g = _q(np.zeros(inst.m), inst), np.zeros(inst.m)
        _, q, g = _rk4_steps(0.01, q, g, np.full(3, 1e-3), 2.0, inst.b, InducedCache(inst).marginal)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(g))

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
            {"record_every": 0}, {"t_end": np.inf}, {"t0": np.nan}, {"t0": -np.inf},
        ],
        ids=["dt_negative", "dt_zero", "dt_nan", "dt_inf", "record_every_zero", "t_end_inf", "t0_nan", "t0_minus_inf"],
    )
    def test_rejects_bad_step_arguments(self, inst, kwargs):
        args = {"r": 2.0, "t0": 0.1, "t_end": 1.0, "dt": 1e-3, **kwargs}
        with pytest.raises(ValueError):
            flow_run(inst, np.zeros(inst.m), **args)

    def test_matches_full_coupling_integration(self, inst, oracle_cache):
        # reference: RK4 on the full (pi_hat, g) state; the closed (q, g)
        # flow must give the Lk of its column sums.  Binary t0 and dt keep
        # both time grids exact.
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        r, t0, dt, n = 2.0, 2.0**-7, 2.0**-10, 500
        phi0 = np.random.default_rng(66).normal(0, 0.5, inst.m)

        def rhs(t, ph, g):
            return (r / t) * (np.exp(coupling(g, inst).log_masses) - ph), -(t / r) * (ph.sum(axis=0) - inst.b)

        t, ph, g, lks = t0, np.exp(coupling(phi0, inst).log_masses), phi0.copy(), []
        for _ in range(n):
            k1 = rhs(t, ph, g)
            k2 = rhs(t + dt / 2, ph + dt / 2 * k1[0], g + dt / 2 * k1[1])
            k3 = rhs(t + dt / 2, ph + dt / 2 * k2[0], g + dt / 2 * k2[1])
            k4 = rhs(t + dt, ph + dt * k3[0], g + dt * k3[1])
            ph = ph + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            g = g + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t += dt
            lks.append(0.5 * float(np.sum((ph.sum(axis=0) - inst.b) ** 2)))
        res = flow_run(inst, phi0, r=r, t0=t0, t_end=t0 + n * dt, dt=dt, record_every=1, phi_star=phi_star)
        assert len(res.lks) == n + 1
        assert max(lks) > 1e-4
        np.testing.assert_allclose(res.lks[1:], lks, rtol=0, atol=1e-15)

    def test_matches_textbook_rk4_on_the_coupling_marginal(self, inst, oracle_cache):
        # reference: the classical stages written out on (q, g), with p(g)
        # summed from the induced coupling; the stage-coefficient form on
        # the cached Gibbs matrix must follow it step by step
        phi_star = oracle_cache("flow-6x6", inst, tol=1e-13)
        r, t0, dt, n = 3.0, 2.0**-7, 2.0**-10, 2000
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
            if k % 10 == 0:
                lks.append(0.5 * float(np.sum((q - inst.b) ** 2)))
                vs.append(t**2 / r * lks[-1] + r * kl(lps, coupling(g, inst).log_masses))
        res = flow_run(inst, phi0, r=r, t0=t0, t_end=t0 + n * dt, dt=dt, record_every=10, phi_star=phi_star)
        assert len(res.lks) == n // 10 + 1
        assert max(lks) > 1e-4
        np.testing.assert_allclose(res.lks[1:], lks, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.vs[1:], vs, rtol=0, atol=1e-12)

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
