import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.bridge import bridge_from_potential, make_demo_instance
from otmatch.logops import kl, logsumexp
from otmatch.measures import DiscreteMeasure, Instance, cost_matrix
from otmatch import semidual
from otmatch.mirrorflow import flow_run
from otmatch.semidual import (
    ABSORB_AT,
    P_FLOOR,
    Coupling,
    InducedCache,
    _induced_kl,
    coupling,
    first_variation,
    induced_marginal,
    log_reference,
    marginal_y,
    plus_transform,
    semidual_value,
)
from otmatch.solvers import _duality_gap, default_bound, lambda_bound, oracle_solve
from otmatch.verify import random_instance, variance_identity_residual

from conftest import (
    NON_FINITE, extreme_instance, floor_path_log_mass, single_cell_instance, underflow_instance, zero_cost_instance,
)


def bridge_drift(phi, inst):
    """The bridge's drift from phi on 11 time nodes: the one entry of a potential outside the semi-dual calculus."""
    return bridge_from_potential(phi, inst, 11)


def with_log_p(cache, phi, inst):
    """The cache's pair at phi and the ``log p`` that ``semidual._log_mass`` forms from it."""
    phi_plus, p = cache(phi)
    return phi_plus, p, semidual._log_mass(p, phi, phi_plus, inst)


def naive_plus(phi, inst):
    out = np.empty(inst.n)
    for i in range(inst.n):
        out[i] = np.log(sum(inst.b[j] * np.exp(phi[j] - inst.cost[i, j] / inst.epsilon) for j in range(inst.m)))
    return out


def two_pass_log_p(phi, inst):
    """Reference log p: the column logsumexp of the induced coupling's log masses."""
    return logsumexp(coupling(phi, inst).log_masses, axis=0)


def written_out_plus(phi, inst):
    """Reference phi_plus: the row logsumexp of log b + phi - C/eps, written out."""
    return logsumexp(inst.log_b[None, :] + phi[None, :] - inst.cost / inst.epsilon, axis=1)


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
            inst.log_a[:, None] + inst.log_b[None, :] + phi[None, :] - psi[:, None] - inst.cost / inst.epsilon
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


class TestInducedMarginal:
    @given(seed=st.integers(0, 2**32 - 1), zero_phi=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_reference(self, seed, zero_phi):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40, size=2)
        inst = skewed_instance(rng, int(n), int(m), 1e3)
        phi = np.zeros(inst.m) if zero_phi else rng.normal(0, 3, inst.m)
        phi_plus, _, log_p = with_log_p(InducedCache(inst), phi, inst)
        np.testing.assert_array_equal(phi_plus, written_out_plus(phi, inst))
        ref = two_pass_log_p(phi, inst)
        # each log mass of the reference adds log b_j + phi_j to a row term
        # as large as |log p_j| + |log b_j + phi_j|, so it is exact only to a
        # few ulps of that sum (one ulp is 1.1e-13 once it passes 512)
        scale = 1.0 + np.abs(inst.log_b + phi) + np.abs(ref)
        assert np.all(np.abs(log_p - ref) <= 1e-13 * scale)

    def test_underflowed_column_falls_back_to_exact_logsumexp(self):
        inst = underflow_instance()
        phi = np.zeros(inst.m)
        assert np.exp(two_pass_log_p(phi, inst))[1] < P_FLOOR
        phi_plus, p, log_p = with_log_p(InducedCache(inst), phi, inst)
        assert p[1] < P_FLOOR
        assert log_p[1] == pytest.approx(-1200.693, abs=1e-3)
        assert log_p[1] == two_pass_log_p(phi, inst)[1]
        np.testing.assert_array_equal(phi_plus, written_out_plus(phi, inst))

    @pytest.mark.filterwarnings("error")
    @NON_FINITE
    @pytest.mark.parametrize("fn", [induced_marginal, bridge_drift])
    def test_rejects_non_finite_potential(self, small_instance, fn, bad):
        # one ValueError before any pass, so numpy has no inf - inf to warn about
        inst = make_demo_instance(n_points=5) if fn is bridge_drift else small_instance
        phi = np.zeros(inst.m)
        phi[1] = bad
        with pytest.raises(ValueError, match="^phi must be finite everywhere$"):
            fn(phi, inst)

    @pytest.mark.parametrize(
        "fn", [induced_marginal, plus_transform, semidual_value, marginal_y, first_variation, coupling, bridge_drift]
    )
    def test_one_shot_evaluators_reject_a_potential_of_the_wrong_shape(self, fn):
        # a length-1 phi used to broadcast into the constant potential
        rng = np.random.default_rng(1)
        inst = make_demo_instance(n_points=5) if fn is bridge_drift else random_instance(rng, 4, 5, 0.5)
        for shape in [(1,), (inst.m + 1,), (inst.m, inst.m)]:
            with pytest.raises(ValueError, match=rf"^phi has shape {re.escape(str(shape))}, expected \(5,\)$"):
                fn(np.full(shape, 0.5), inst)


def _traced_bytes(fn):
    """``(held, peak)`` bytes that ``fn()`` allocates, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()  # kept alive while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before


class TestAllocation:
    N = 256
    ARRAY = N * N * 8  # bytes of one n x m float64 array

    @pytest.fixture
    def parts(self):
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure(points=rng.normal(size=(self.N, 2)), weights=np.full(self.N, 1 / self.N))
        nu = DiscreteMeasure(points=rng.normal(size=(self.N, 2)), weights=np.full(self.N, 1 / self.N))
        return mu, nu, cost_matrix(mu, nu, "half_sqeuclidean")

    def test_instance_stores_one_cost_array(self, parts):
        mu, nu, cost = parts
        held, _ = _traced_bytes(lambda: Instance(mu=mu, nu=nu, cost=cost, epsilon=0.5))
        assert held <= 1.1 * self.ARRAY

    def test_induced_marginal_forms_c_over_eps_in_its_one_buffer(self, parts):
        # (log b + phi) - C/eps written as two operations would hold two
        # n x m arrays at once
        mu, nu, cost = parts
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=0.5)
        phi = np.random.default_rng(6).normal(0, 1, inst.m)
        _, peak = _traced_bytes(lambda: induced_marginal(phi, inst))
        assert peak < 1.5 * self.ARRAY

    def test_oracle_holds_one_array_at_peak(self, parts):
        # the duality gap is read from one marginal pass, not from couplings
        mu, nu, cost = parts
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=0.5)
        _, peak = _traced_bytes(lambda: oracle_solve(inst))
        assert peak <= 1.2 * self.ARRAY

    def test_flow_holds_one_array_at_peak(self, parts):
        # the cache's Gibbs matrix alone: the start and every record read
        # the transform from the cache, not from a second pass
        mu, nu, cost = parts
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=0.5)
        phi_star = oracle_solve(inst)
        phi0 = np.random.default_rng(7).normal(0, 1, inst.m)
        _, peak = _traced_bytes(
            lambda: flow_run(inst, phi0, 3.0, 0.02, dt=2e-3, record_every=2, phi_star=phi_star)
        )
        assert peak <= 1.25 * self.ARRAY

    def test_box_constants_hold_at_most_one_array(self, parts):
        # lambda_bound reads one scalar from one exponent buffer, and
        # default_bound reads the cost's extremes in place.  A broadcasting
        # ufunc also takes numpy's fixed buffer of getbufsize() doubles
        # (64 KiB, an eighth of an array at this size)
        mu, nu, cost = parts
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=0.05)
        _, peak = _traced_bytes(lambda: lambda_bound(inst, 1.0))
        assert peak <= 1.05 * self.ARRAY + 8 * np.getbufsize()
        _, peak = _traced_bytes(lambda: default_bound(inst))
        assert peak <= 0.1 * self.ARRAY


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
            phi_plus, _, log_p = with_log_p(cache, phi, inst)
        assert passes.call_count == 1  # the second call took the two-GEMV branch
        ref_plus, _, ref_log_p = with_log_p(InducedCache(inst), phi, inst)
        assert np.all(np.abs(phi_plus - ref_plus) <= 1e-13 * (1.0 + np.abs(ref_plus)))
        scale = 1.0 + np.abs(inst.log_b + phi) + np.abs(ref_log_p)
        assert np.all(np.abs(log_p - ref_log_p) <= 1e-13 * scale)

    def test_first_call_is_the_one_shot_pass(self, medium_instance):
        phi = np.random.default_rng(15).normal(0, 2, medium_instance.m)
        got = InducedCache(medium_instance)(phi)
        ref = induced_marginal(phi, medium_instance)
        for got_part, ref_part in zip(got, ref, strict=True):
            np.testing.assert_array_equal(got_part, ref_part)

    def test_cached_branch_falls_back_to_exact_logsumexp(self):
        inst = underflow_instance()
        phi = np.zeros(inst.m)
        cache = InducedCache(inst)
        with counting_row_pass() as passes:
            cache(phi)
            _, _, log_p = with_log_p(cache, phi.copy(), inst)
        assert passes.call_count == 1
        assert np.exp(log_p[1]) < P_FLOOR
        assert log_p[1] == pytest.approx(-1200.693, abs=1e-3)
        # the cached phi_plus may differ from the exact one in its last bit
        assert log_p[1] == pytest.approx(two_pass_log_p(phi, inst)[1], abs=1e-12)

    def test_absorbs_when_the_potential_leaves_the_radius(self, small_instance):
        cache = InducedCache(small_instance)
        phi = np.zeros(small_instance.m)
        with counting_row_pass() as passes:
            cache(phi)
            cache(phi + ABSORB_AT)
            assert passes.call_count == 1
            far = phi + np.eye(small_instance.m)[0] * 2.0 * ABSORB_AT
            got = with_log_p(cache, far, small_instance)
            assert passes.call_count == 2
            cache(far - 0.5 * ABSORB_AT)
            assert passes.call_count == 2  # within the radius of the new point
        ref = with_log_p(InducedCache(small_instance), far, small_instance)
        for got_part, ref_part in zip(got, ref, strict=True):
            np.testing.assert_array_equal(got_part, ref_part)


class TestLogMass:
    @given(seed=st.integers(0, 2**32 - 1), cached=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_floor_path(self, seed, cached):
        # with every mass above the floor the fast return must give the
        # floor path's bits; below it both take the column logsumexp.  The
        # masses come from an absorbing pass or from a cached call
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40, size=2)
        inst = skewed_instance(rng, int(n), int(m), 10.0 ** rng.uniform(0, 4))
        phi = rng.normal(0, 3, inst.m)
        cache = InducedCache(inst)
        if cached:
            cache(phi + rng.uniform(-ABSORB_AT, ABSORB_AT, inst.m))
        phi_plus, p = cache(phi)
        got = semidual._log_mass(p, phi, phi_plus, inst)
        np.testing.assert_array_equal(got, floor_path_log_mass(p, phi, phi_plus, inst))

    def test_underflow_instance_takes_the_column_logsumexp(self):
        inst = underflow_instance()
        phi = np.zeros(inst.m)
        cols = mock.patch.object(semidual, "_log_marginal_cols", wraps=semidual._log_marginal_cols)
        with cols as spy:
            _, _, log_p = with_log_p(InducedCache(inst), phi, inst)
        assert spy.call_count == 1
        np.testing.assert_array_equal(spy.call_args.args[3], [1])
        assert log_p[1] == two_pass_log_p(phi, inst)[1]
        assert log_p[1] == pytest.approx(-1200.693, abs=1e-3)

    def test_absorbing_pass_takes_the_column_logsumexp_below_the_one_floor(self):
        # column 1 holds mass e^-600, about 2.6e-261: a normal double, but
        # below the floor the cached branch needs, which the absorbing pass
        # (the cached branch at v = 1) shares
        mu = DiscreteMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]))
        inst = Instance(mu=mu, nu=mu, cost=np.array([[0.0, 600.0], [0.0, 600.0]]), epsilon=1.0)
        phi = np.zeros(inst.m)
        cols = mock.patch.object(semidual, "_log_marginal_cols", wraps=semidual._log_marginal_cols)
        with cols as spy, counting_row_pass() as passes:
            _, p, log_p = with_log_p(InducedCache(inst), phi, inst)
        assert passes.call_count == 1
        assert 1e-280 < p[1] < P_FLOOR
        assert spy.call_count == 1
        np.testing.assert_array_equal(spy.call_args.args[3], [1])
        assert log_p[1] == two_pass_log_p(phi, inst)[1]
        assert log_p[1] == pytest.approx(-600.0, abs=1e-12)


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
            np.exp(coupling(np.zeros(inst.m), inst).log_masses), np.outer(inst.a, inst.b), rtol=1e-14
        )

    def test_single_cell(self):
        inst = single_cell_instance()
        np.testing.assert_allclose(np.exp(coupling(np.array([3.3]), inst).log_masses), [[1.0]], rtol=1e-15)

    def test_row_sums_equal_first_marginal(self, medium_instance):
        rng = np.random.default_rng(9)
        pi = coupling(rng.normal(0, 2, medium_instance.m), medium_instance)
        np.testing.assert_allclose(np.exp(logsumexp(pi.log_masses, axis=1)), medium_instance.a, atol=1e-12)

    def test_column_sums_at_optimum(self, oracle_cache):
        inst = random_instance(np.random.default_rng(10), 6, 7, 0.4)
        phi = oracle_cache("marg-6x7", inst)
        np.testing.assert_allclose(np.exp(two_pass_log_p(phi, inst)), inst.b, atol=1e-12)

    def test_two_code_paths_for_marginal_agree(self, medium_instance):
        rng = np.random.default_rng(11)
        phi = rng.normal(0, 1, medium_instance.m)
        np.testing.assert_allclose(
            np.exp(two_pass_log_p(phi, medium_instance)),
            marginal_y(phi, medium_instance),
            atol=1e-12,
        )

    def test_coupling_type_rejects_wrong_mass(self):
        with pytest.raises(ValueError):
            Coupling(log_masses=np.log(np.full((2, 2), 0.3)))


def materialized_gap(phi, inst):
    """|J(phi) - KL(pi(phi) || a x b e^{-C/eps})| summed over the n x m coupling, in extended precision.

    In double precision each log mass carries an error of about ulp(C/eps),
    and the log ratio phi_j - phi_plus_i to the Gibbs reference, itself of
    order C/eps, multiplies it: near 1e-12 relative at eps = 1e-3, the size
    of the tolerance.
    """
    ld = np.longdouble
    log_a, log_b, phi = np.log(inst.a.astype(ld)), np.log(inst.b.astype(ld)), phi.astype(ld)
    c_over_eps = inst.cost.astype(ld) / ld(inst.epsilon)
    w = log_b + phi - c_over_eps
    rowmax = w.max(axis=1)
    phi_plus = np.log(np.exp(w - rowmax[:, None]).sum(axis=1)) + rowmax
    log_pi = w + (log_a - phi_plus)[:, None]
    log_gibbs = log_a[:, None] + log_b - c_over_eps
    primal = (np.exp(log_pi) * (log_pi - log_gibbs)).sum()
    return float(abs(inst.b @ phi - inst.a @ phi_plus - primal))


class TestClosedForms:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        m=st.integers(1, 11),
        epsilon=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_match_the_materialized_couplings(self, seed, n, m, epsilon):
        rng = np.random.default_rng(seed)
        inst = extreme_instance(rng, n, m, epsilon)
        phi, psi = rng.normal(0, 3, m), rng.normal(0, 3, m)
        tol = 1e-12 * max(1.0, abs(semidual_value(phi, inst)))
        pi_phi, pi_psi = coupling(phi, inst).log_masses, coupling(psi, inst).log_masses
        phi_plus, psi_plus = plus_transform(phi, inst), plus_transform(psi, inst)
        closed = _induced_kl(inst, phi, phi_plus, marginal_y(phi, inst), psi, psi_plus)
        assert abs(closed - kl(pi_phi, pi_psi)) <= tol
        closed = _induced_kl(inst, psi, psi_plus, marginal_y(psi, inst), phi, phi_plus)
        assert abs(closed - kl(pi_psi, pi_phi)) <= tol
        assert abs(_duality_gap(phi, inst) - materialized_gap(phi, inst)) <= tol


def primal_value(pi, inst):
    """Primal value of a coupling: its KL divergence from the Gibbs reference."""
    return kl(pi.log_masses, log_reference(inst))


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
        masses = np.exp(pi.log_masses)
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
