"""Stress settings: extreme cost/regularization ratios, tiny weights,
large potentials, shared-instance concurrency."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch import semidual
from otmatch.logops import logsumexp
from otmatch.measures import DiscreteMeasure, Instance
from otmatch.semidual import coupling, marginal_y, plus_transform, semidual_value
from otmatch.kernels import KernelSpec, gram
from otmatch.solvers import METHODS, SolverConfig, lambda_bound, oracle_solve, run
from otmatch.verify import random_instance

from conftest import extreme_instance, one_step


def harsh_instance(eps=1e-3, n=6, m=7, seed=0):
    # cost of order one against eps of order 1e-3: raw exponentials would
    # overflow at exp(1000)
    return random_instance(np.random.default_rng(seed), n, m, eps)


class TestExtremeRatio:
    def test_transforms_stay_finite(self):
        inst = harsh_instance()
        assert float(np.max(inst.cost / inst.epsilon)) > 100.0
        rng = np.random.default_rng(1)
        for _ in range(5):
            phi = rng.normal(0, 50, inst.m)
            ph = plus_transform(phi, inst)
            assert np.all(np.isfinite(ph))
            p = marginal_y(phi, inst)
            assert np.all(np.isfinite(p)) and np.all(p > 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_coupling_rows_exact_under_extreme_ratio(self):
        inst = harsh_instance()
        rng = np.random.default_rng(2)
        pi = coupling(rng.normal(0, 20, inst.m), inst)
        np.testing.assert_allclose(np.exp(logsumexp(pi.log_masses, axis=1)), inst.a, atol=1e-12)

    def test_identity_step_well_defined(self):
        inst = harsh_instance()
        phi = one_step("sinkhorn", np.zeros(inst.m), inst)
        assert np.all(np.isfinite(phi))
        assert np.isfinite(semidual_value(phi, inst))

    def test_smoothness_constant_never_materializes_huge_exponential(self):
        inst = harsh_instance()
        log_lam = lambda_bound(inst, 1.0)
        assert np.isfinite(log_lam)
        assert log_lam > 100.0  # the plain value would overflow float64

    def test_large_potential_offsets(self):
        inst = random_instance(np.random.default_rng(3), 4, 5, 0.5)
        phi = np.array([500.0, -500.0, 250.0, 0.0, -125.0])
        assert np.all(np.isfinite(plus_transform(phi, inst)))
        p = marginal_y(phi, inst)
        assert abs(p.sum() - 1.0) <= 1e-12


class TestSmallRegularizationSolve:
    def test_sinkhorn_converges(self):
        inst = random_instance(np.random.default_rng(4), 10, 10, 0.02)
        res = run(inst, SolverConfig(method="sinkhorn", max_iter=20_000, tol_l1=1e-10))
        assert res.converged
        assert res.trace.records[-1].l1_residual <= 1e-10

    def test_oracle_meets_gap_requirement(self):
        inst = random_instance(np.random.default_rng(5), 8, 8, 0.05)
        phi = oracle_solve(inst, tol=1e-12)
        assert np.abs(inst.b - marginal_y(phi, inst)).sum() <= 1e-12


class TestAbsorption:
    def test_small_eps_run_reabsorbs_and_matches_oracle(self):
        # potentials move by hundreds at eps = 1e-3, several times the radius
        # of the cached evaluation, so the run absorbs again and again
        inst = harsh_instance()
        tol = 1e-12
        with mock.patch.object(semidual, "_row_pass", wraps=semidual._row_pass) as passes:
            res = run(inst, SolverConfig(method="sinkhorn", max_iter=20_000, tol_l1=tol))
        assert passes.call_count >= 3
        assert res.converged
        # the cached evaluation's residual is the exact two-pass one to rounding
        residual = float(np.abs(inst.b - marginal_y(res.phi, inst)).sum())
        assert abs(residual - res.trace.records[-1].l1_residual) <= 1e-14
        phi = oracle_solve(inst, tol=tol)
        oracle_residual = float(np.abs(inst.b - marginal_y(phi, inst)).sum())
        # J is concave and every transform oscillates by at most R, so
        # |J - J*| <= |b - p|_1 * R at either point
        spread = float(np.ptp(inst.cost / inst.epsilon))
        gap = abs(semidual_value(res.phi, inst) - semidual_value(phi, inst))
        assert gap <= (residual + oracle_residual) * spread + 1e-12
        # anchored potentials agree to 7e-11 here; 1e-9 leaves room for BLAS
        np.testing.assert_allclose(res.phi - res.phi[0], phi - phi[0], atol=1e-9)


class TestSkewedWeights:
    def test_concentrated_dirichlet_weights(self):
        rng = np.random.default_rng(6)
        n = 8
        w = rng.dirichlet(np.full(n, 0.05))  # a few atoms carry almost all mass
        w = np.maximum(w, 1e-14)
        w = w / w.sum()
        mu = DiscreteMeasure(points=rng.uniform(0, 1, (n, 2)), weights=w)
        nu = DiscreteMeasure(points=rng.uniform(0, 1, (n, 2)), weights=rng.dirichlet(np.ones(n)))
        from otmatch.measures import cost_matrix

        inst = Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=0.3)
        res = run(inst, SolverConfig(method="sinkhorn", max_iter=5000, tol_l1=1e-11))
        assert res.converged


class TestExtremeInstances:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        m=st.integers(1, 11),
        epsilon=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_method_stays_finite(self, seed, n, m, epsilon):
        # masses that underflow to 0 reach the links as p = 0 (the identity
        # link's log p stays finite), so no method may raise or produce a
        # non-finite number, and kl_y counts a zero mass as 0 log 0 = 0
        inst = extreme_instance(np.random.default_rng(seed), n, m, epsilon)
        g = gram(KernelSpec("gaussian", 0.25), inst.nu.points)
        for method in METHODS:
            res = run(inst, SolverConfig(method, max_iter=50, tol_l1=0.0, gram=g if method == "ksga" else None))
            assert res.iterations == 50 or res.converged or res.eta == 0.0, method
            assert np.all(np.isfinite(res.phi)), method
            for column in ("J", "l1_residual", "kl_y"):
                assert np.all(np.isfinite(res.trace.column(column))), (method, column)


class TestReentrancy:
    def test_concurrent_runs_on_shared_instance_match_serial(self):
        inst = random_instance(np.random.default_rng(7), 12, 12, 0.4)
        serial = [
            run(inst, SolverConfig(method="sinkhorn", max_iter=40, tol_l1=0.0)).phi,
            run(inst, SolverConfig(method="sga", max_iter=40, tol_l1=0.0)).phi,
        ]
        results = [None, None]

        def work(k, cfg):
            results[k] = run(inst, cfg).phi

        threads = [
            threading.Thread(target=work, args=(0, SolverConfig(method="sinkhorn", max_iter=40, tol_l1=0.0))),
            threading.Thread(target=work, args=(1, SolverConfig(method="sga", max_iter=40, tol_l1=0.0))),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        np.testing.assert_array_equal(results[0], serial[0])
        np.testing.assert_array_equal(results[1], serial[1])
