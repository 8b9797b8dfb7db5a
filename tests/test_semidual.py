from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.logops import logsumexp
from otmatch.measures import DiscreteMeasure, Instance, cost_matrix
from otmatch import semidual
from otmatch.semidual import (
    ABSORB_AT,
    CACHED_P_FLOOR,
    P_FLOOR,
    Coupling,
    InducedCache,
    coupling,
    first_variation,
    induced_marginal,
    log_marginal_y,
    log_reference,
    marginal_y,
    minus_transform,
    plus_transform,
    primal_value,
    semidual_value,
)
from otmatch.verify import random_instance, variance_identity_residual

from conftest import single_cell_instance, zero_cost_instance


def naive_plus(phi, inst):
    out = np.empty(inst.n)
    for i in range(inst.n):
        out[i] = np.log(sum(inst.b[j] * np.exp(phi[j] - inst.cost[i, j] / inst.epsilon) for j in range(inst.m)))
    return out


def naive_coupling(phi, inst):
    ph = naive_plus(phi, inst)
    out = np.empty((inst.n, inst.m))
    for i in range(inst.n):
        for j in range(inst.m):
            out[i, j] = inst.a[i] * inst.b[j] * np.exp(phi[j] - ph[i] - inst.cost[i, j] / inst.epsilon)
    return out


class TestTransforms:
    def test_plus_zero_cost_zero_potential(self):
        inst = zero_cost_instance()
        np.testing.assert_allclose(plus_transform(np.zeros(inst.m), inst), 0.0, atol=1e-15)

    def test_plus_single_cell(self):
        inst = single_cell_instance(cost=2.0, epsilon=1.0)
        assert plus_transform(np.array([0.5]), inst)[0] == pytest.approx(-1.5, abs=1e-15)

    def test_plus_matches_naive_sum(self, small_instance):
        rng = np.random.default_rng(1)
        phi = rng.normal(0, 1, small_instance.m)
        np.testing.assert_allclose(
            plus_transform(phi, small_instance), naive_plus(phi, small_instance), rtol=1e-12
        )

    def test_plus_shift_covariance(self, small_instance):
        rng = np.random.default_rng(2)
        phi = rng.normal(0, 1, small_instance.m)
        shift = 3.7
        np.testing.assert_allclose(
            plus_transform(phi + shift, small_instance),
            plus_transform(phi, small_instance) + shift,
            rtol=1e-12,
        )

    def test_minus_zero_cost_zero_potential(self):
        inst = zero_cost_instance()
        np.testing.assert_allclose(minus_transform(np.zeros(inst.n), inst), 0.0, atol=1e-15)

    def test_minus_single_cell(self):
        inst = single_cell_instance(cost=2.0, epsilon=1.0)
        assert minus_transform(np.array([1.0]), inst)[0] == pytest.approx(-3.0, abs=1e-15)

    def test_minus_matches_naive_sum(self, small_instance):
        inst = small_instance
        rng = np.random.default_rng(3)
        psi = rng.normal(0, 1, inst.n)
        naive = np.array([
            -np.log(sum(inst.a[i] * np.exp(psi[i] + inst.cost[i, j] / inst.epsilon) for i in range(inst.n)))
            for j in range(inst.m)
        ])
        np.testing.assert_allclose(minus_transform(psi, inst), naive, rtol=1e-12)

    def test_rejects_nonfinite(self, small_instance):
        with pytest.raises(ValueError):
            plus_transform(np.array([np.nan] * small_instance.m), small_instance)


class TestSemidualValue:
    def test_single_cell_shift_cancellation(self):
        inst = single_cell_instance(cost=2.0, epsilon=1.0)
        for phi in (-4.0, 0.0, 11.5):
            assert semidual_value(np.array([phi]), inst) == pytest.approx(2.0, abs=1e-12)

    def test_shift_invariance(self, medium_instance):
        rng = np.random.default_rng(4)
        phi = rng.normal(0, 1, medium_instance.m)
        for shift in rng.normal(0, 5, 4):
            assert semidual_value(phi + shift, medium_instance) == pytest.approx(
                semidual_value(phi, medium_instance), abs=1e-11
            )

    def test_matches_two_potential_dual_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(9), 4, 5, 0.6)
        phi = oracle_cache("dual-opt-4x5", inst)
        psi = plus_transform(phi, inst)
        log_mass = (
            inst.log_a[:, None] + inst.log_b[None, :] + phi[None, :] - psi[:, None] - inst.cost_over_eps
        )
        dual = float(inst.b @ phi - inst.a @ psi - logsumexp(log_mass.reshape(-1)))
        assert semidual_value(phi, inst) == pytest.approx(dual, abs=1e-10)


def skewed_instance(rng, n: int, m: int, max_cost_over_eps: float) -> Instance:
    """Dirichlet(0.05) weights floored at 1e-100 and a given max C/eps."""

    def measure(k):
        w = np.maximum(rng.dirichlet(np.full(k, 0.05)), 1e-100)
        return DiscreteMeasure(points=rng.uniform(size=(k, 2)), weights=w / w.sum())

    mu, nu = measure(n), measure(m)
    cost = cost_matrix(mu, nu, "half_sqeuclidean")
    return Instance(mu=mu, nu=nu, cost=cost, epsilon=max(cost.max(), 1e-12) / max_cost_over_eps)


def underflow_instance() -> Instance:
    """2+2 atoms whose Y-marginal mass at y = 5 is exp(-1200.69): 0 in float64."""
    mu = DiscreteMeasure(points=np.array([[0.0], [0.1]]), weights=np.array([0.5, 0.5]))
    nu = DiscreteMeasure(points=np.array([[0.0], [5.0]]), weights=np.array([0.5, 0.5]))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=0.01)


class TestInducedMarginal:
    @given(seed=st.integers(0, 2**32 - 1), zero_phi=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_reference(self, seed, zero_phi):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40, size=2)
        inst = skewed_instance(rng, int(n), int(m), 1e3)
        phi = np.zeros(inst.m) if zero_phi else rng.normal(0, 3, inst.m)
        phi_plus, log_p = induced_marginal(phi, inst)
        np.testing.assert_array_equal(phi_plus, plus_transform(phi, inst))
        ref = log_marginal_y(phi, inst)
        # the reference adds log b_j + phi_j to a column term as large as
        # |log p_j| + |log b_j + phi_j|, so it is exact only to a few ulps of
        # that sum (one ulp is 1.1e-13 once it passes 512)
        scale = 1.0 + np.abs(inst.log_b + phi) + np.abs(ref)
        assert np.all(np.abs(log_p - ref) <= 1e-13 * scale)

    def test_underflowed_column_falls_back_to_exact_logsumexp(self):
        inst = underflow_instance()
        phi = np.zeros(inst.m)
        assert np.exp(log_marginal_y(phi, inst))[1] < P_FLOOR
        phi_plus, log_p = induced_marginal(phi, inst)
        assert log_p[1] == pytest.approx(-1200.693, abs=1e-3)
        assert log_p[1] == log_marginal_y(phi, inst)[1]
        np.testing.assert_array_equal(phi_plus, plus_transform(phi, inst))

    def test_rejects_non_finite_potential(self, small_instance):
        with pytest.raises(ValueError):
            induced_marginal(np.full(small_instance.m, np.nan), small_instance)


def counting_row_pass():
    """Patch that counts the exponential passes (absorptions) of a cache."""
    return mock.patch.object(semidual, "_row_pass", wraps=semidual._row_pass)


class TestInducedCache:
    @given(seed=st.integers(0, 2**32 - 1), zero_phi=st.booleans(), edge=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cached_branch_matches_one_shot_pass(self, seed, zero_phi, edge):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40, size=2)
        inst = skewed_instance(rng, int(n), int(m), 1e3)
        phi0 = np.zeros(inst.m) if zero_phi else rng.normal(0, 3, inst.m)
        delta = rng.uniform(-ABSORB_AT, ABSORB_AT, inst.m)
        if edge:  # one entry 1e-9 inside the radius, more than phi0 + delta can round off
            delta[rng.integers(inst.m)] = ABSORB_AT * (1 - 1e-9) * rng.choice([-1, 1])
        phi = phi0 + delta
        cache = InducedCache(inst)
        with counting_row_pass() as passes:
            cache(phi0)
            phi_plus, log_p = cache(phi)
        assert passes.call_count == 1  # the second call took the two-GEMV branch
        ref_plus, ref_log_p = induced_marginal(phi, inst)
        assert np.all(np.abs(phi_plus - ref_plus) <= 1e-13 * (1.0 + np.abs(ref_plus)))
        scale = 1.0 + np.abs(inst.log_b + phi) + np.abs(ref_log_p)
        assert np.all(np.abs(log_p - ref_log_p) <= 1e-13 * scale)

    def test_first_call_is_the_one_shot_pass(self, medium_instance):
        phi = np.random.default_rng(15).normal(0, 2, medium_instance.m)
        got = InducedCache(medium_instance)(phi)
        ref = induced_marginal(phi, medium_instance)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_cached_branch_falls_back_to_exact_logsumexp(self):
        inst = underflow_instance()
        phi = np.zeros(inst.m)
        cache = InducedCache(inst)
        with counting_row_pass() as passes:
            cache(phi)
            _, log_p = cache(phi.copy())
        assert passes.call_count == 1
        assert np.exp(log_p[1]) < CACHED_P_FLOOR
        assert log_p[1] == pytest.approx(-1200.693, abs=1e-3)
        # the cached phi_plus may differ from the exact one in its last bit
        assert log_p[1] == pytest.approx(log_marginal_y(phi, inst)[1], abs=1e-12)

    def test_absorbs_when_the_potential_leaves_the_radius(self, small_instance):
        cache = InducedCache(small_instance)
        phi = np.zeros(small_instance.m)
        with counting_row_pass() as passes:
            cache(phi)
            cache(phi + ABSORB_AT)
            assert passes.call_count == 1
            far = phi + np.eye(small_instance.m)[0] * 2.0 * ABSORB_AT
            got = cache(far)
            assert passes.call_count == 2
            cache(far - 0.5 * ABSORB_AT)
            assert passes.call_count == 2  # within the radius of the new point
        ref = induced_marginal(far, small_instance)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_rejects_non_finite_potential(self, small_instance):
        cache = InducedCache(small_instance)
        cache(np.zeros(small_instance.m))
        with pytest.raises(ValueError):
            cache(np.full(small_instance.m, np.inf))


class TestMarginalAndVariation:
    def test_zero_cost_marginal_is_target(self):
        inst = zero_cost_instance()
        np.testing.assert_allclose(marginal_y(np.zeros(inst.m), inst), inst.b, atol=1e-15)

    def test_marginal_at_optimum_is_target(self, oracle_cache):
        inst = random_instance(np.random.default_rng(10), 6, 7, 0.4)
        phi = oracle_cache("marg-6x7", inst)
        np.testing.assert_allclose(marginal_y(phi, inst), inst.b, atol=1e-12)

    def test_marginal_matches_naive_coupling_columns(self, small_instance):
        rng = np.random.default_rng(5)
        phi = rng.normal(0, 1, small_instance.m)
        np.testing.assert_allclose(
            marginal_y(phi, small_instance),
            naive_coupling(phi, small_instance).sum(axis=0),
            rtol=1e-12,
        )

    def test_marginal_is_probability_vector(self, medium_instance):
        rng = np.random.default_rng(6)
        for _ in range(5):
            p = marginal_y(rng.normal(0, 2, medium_instance.m), medium_instance)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_variation_sums_to_zero(self, medium_instance):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = first_variation(rng.normal(0, 2, medium_instance.m), medium_instance)
            assert abs(d.sum()) <= 1e-12

    def test_variation_vanishes_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(10), 6, 7, 0.4)
        phi = oracle_cache("marg-6x7", inst)
        assert np.max(np.abs(first_variation(phi, inst))) <= 1e-12

    def test_variation_against_central_differences(self, small_instance):
        inst = small_instance
        rng = np.random.default_rng(8)
        phi = rng.normal(0, 0.8, inst.m)
        chi = rng.normal(0, 1, inst.m)
        chi -= chi.mean()
        h = 1e-5
        fd = (semidual_value(phi + h * chi, inst) - semidual_value(phi - h * chi, inst)) / (2 * h)
        exact = float(first_variation(phi, inst) @ chi)
        assert abs(exact - fd) / abs(exact) <= 1e-5


class TestCoupling:
    def test_zero_cost_zero_potential_is_product(self):
        inst = zero_cost_instance()
        np.testing.assert_allclose(
            coupling(np.zeros(inst.m), inst).masses, np.outer(inst.a, inst.b), rtol=1e-14
        )

    def test_single_cell(self):
        inst = single_cell_instance()
        np.testing.assert_allclose(coupling(np.array([3.3]), inst).masses, [[1.0]], rtol=1e-15)

    def test_row_sums_equal_first_marginal(self, medium_instance):
        rng = np.random.default_rng(9)
        pi = coupling(rng.normal(0, 2, medium_instance.m), medium_instance)
        np.testing.assert_allclose(pi.marginal_x(), medium_instance.a, atol=1e-12)

    def test_column_sums_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(10), 6, 7, 0.4)
        phi = oracle_cache("marg-6x7", inst)
        np.testing.assert_allclose(coupling(phi, inst).marginal_y(), inst.b, atol=1e-12)

    def test_two_code_paths_for_marginal_agree(self, medium_instance):
        rng = np.random.default_rng(11)
        phi = rng.normal(0, 1, medium_instance.m)
        np.testing.assert_allclose(
            coupling(phi, medium_instance).marginal_y(),
            marginal_y(phi, medium_instance),
            atol=1e-12,
        )

    def test_coupling_type_rejects_wrong_mass(self):
        with pytest.raises(ValueError):
            Coupling(log_masses=np.log(np.full((2, 2), 0.3)))


class TestPrimalValue:
    def test_reference_has_zero_divergence(self, small_instance):
        pi = Coupling(log_masses=log_reference(small_instance))
        assert primal_value(pi, small_instance) == pytest.approx(0.0, abs=1e-13)

    def test_zero_cost_product_coupling(self):
        inst = zero_cost_instance()
        pi = coupling(np.zeros(inst.m), inst)
        assert primal_value(pi, inst) == pytest.approx(0.0, abs=1e-13)

    def test_matches_term_by_term_sum(self):
        inst = random_instance(np.random.default_rng(12), 2, 2, 0.8)
        rng = np.random.default_rng(13)
        pi = coupling(rng.normal(0, 1, 2), inst)
        ref = np.exp(log_reference(inst))
        masses = pi.masses
        expected = sum(
            masses[i, j] * np.log(masses[i, j] / ref[i, j]) for i in range(2) for j in range(2)
        )
        assert primal_value(pi, inst) == pytest.approx(expected, rel=1e-12)


class TestBregmanStructure:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_concave_and_linf_bounded(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, 3, 5, float(rng.uniform(0.2, 2.0)))
        phi = rng.normal(0, 1, inst.m)
        phi_bar = phi + rng.normal(0, 1, inst.m)
        gap = (
            semidual_value(phi_bar, inst)
            - semidual_value(phi, inst)
            - float(first_variation(phi, inst) @ (phi_bar - phi))
        )
        assert gap <= 1e-10
        assert gap >= -0.5 * float(np.max(np.abs(phi_bar - phi))) ** 2 - 1e-10

    def test_variance_identity_quadrature(self, small_instance):
        rng = np.random.default_rng(14)
        phi = rng.normal(0, 1, small_instance.m)
        phi_bar = phi + rng.normal(0, 1, small_instance.m)
        assert variance_identity_residual(phi, phi_bar, small_instance) <= 1e-6
