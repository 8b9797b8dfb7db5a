import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.bridge import bridge_from_potential, make_demo_instance
from otmatch.kernels import KernelSpec, gram
from otmatch.logops import kl, logsumexp
from otmatch.measures import ROW_BLOCK_BYTES, SLICE_BYTES, DiscreteMeasure, Instance, _block_rows, _row_blocks, cost_matrix
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
from otmatch.solvers import SolverConfig, default_bound, lambda_bound, oracle_solve, run
from otmatch.verify import random_instance, variance_identity_residual

from conftest import (
    LONGDOUBLE, NON_FINITE, cost_of, extreme_instance, floor_path_log_mass, longdouble_pair, single_cell_instance,
    underflow_instance, zero_cost_instance,
)


def bridge_drift(phi, inst):
    """The bridge's drift from phi on 11 time nodes: the one entry of a potential outside the semi-dual calculus."""
    return bridge_from_potential(phi, inst, 11)


def with_log_p(cache, phi, inst):
    """The cache's pair at phi and the ``log p`` that ``semidual._log_mass`` forms from it."""
    phi_plus, p = cache(phi)
    return phi_plus, p, semidual._log_mass(p, phi, phi_plus, inst)


def naive_plus(phi, inst):
    out, cost = np.empty(inst.n), cost_of(inst)
    for i in range(inst.n):
        out[i] = np.log(sum(inst.b[j] * np.exp(phi[j] - cost[i, j] / inst.epsilon) for j in range(inst.m)))
    return out


def two_pass_log_p(phi, inst):
    """Reference log p: the column logsumexp of the induced coupling's log masses."""
    return logsumexp(coupling(phi, inst).log_masses, axis=0)


def written_out_plus(phi, inst):
    """Reference phi_plus: the row logsumexp of log b + phi - C/eps, written out."""
    return logsumexp(inst.log_b[None, :] + phi[None, :] - cost_of(inst) / inst.epsilon, axis=1)


def naive_coupling(phi, inst):
    ph, cost = naive_plus(phi, inst), cost_of(inst)
    out = np.empty((inst.n, inst.m))
    for i in range(inst.n):
        for j in range(inst.m):
            out[i, j] = inst.a[i] * inst.b[j] * np.exp(phi[j] - ph[i] - cost[i, j] / inst.epsilon)
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
            inst.log_a[:, None] + inst.log_b[None, :] + phi[None, :] - psi[:, None] - cost_of(inst) / inst.epsilon
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

    @pytest.mark.parametrize("n", [256, 1024])
    def test_a_named_cost_holds_no_array_and_absorbs_in_one(self, n):
        # the instance keeps the cost's kind and no n x m array; its absorbing
        # pass builds each row block of C/eps in E's own array, beside a slice
        # of scratch and numpy's buffers (measured 1.13 arrays at 256², one
        # block, with the Gibbs subtraction's 64 KiB buffer; 1.01 at 1024²)
        rng = np.random.default_rng(8)
        mu = DiscreteMeasure(points=rng.normal(size=(n, 2)), weights=np.full(n, 1 / n))
        nu = DiscreteMeasure(points=rng.normal(size=(n, 2)), weights=np.full(n, 1 / n))
        held, peak = _traced_bytes(lambda: Instance(mu=mu, nu=nu, cost="half_sqeuclidean", epsilon=0.5))
        assert held <= 0.05 * n * n * 8 and peak <= 0.05 * n * n * 8
        inst = Instance(mu=mu, nu=nu, cost="half_sqeuclidean", epsilon=0.5)
        phi = rng.normal(0, 1, n)
        _, peak = _traced_bytes(lambda: induced_marginal(phi, inst))
        assert peak <= 1.15 * n * n * 8

    def test_instance_from_a_nested_list_holds_one_array_at_peak(self, parts):
        # the list becomes the array the instance keeps, with no second copy;
        # the finiteness check's boolean temporary is an eighth of an array
        mu, nu, cost = parts
        nested = cost.tolist()
        _, peak = _traced_bytes(lambda: Instance(mu=mu, nu=nu, cost=nested, epsilon=0.5))
        assert peak <= 1.2 * self.ARRAY

    def test_induced_marginal_forms_c_over_eps_in_its_one_buffer(self, parts):
        # (log b + phi) - C/eps written as two operations would hold two
        # n x m arrays at once
        mu, nu, cost = parts
        inst = Instance(mu=mu, nu=nu, cost=cost, epsilon=0.5)
        phi = np.random.default_rng(6).normal(0, 1, inst.m)
        _, peak = _traced_bytes(lambda: induced_marginal(phi, inst))
        assert peak < 1.5 * self.ARRAY

    def test_absorbing_pass_over_row_blocks_holds_one_array(self):
        # E is written one row block at a time into its one n x m array: no
        # block-sized or whole-matrix temporary beside it
        n = 1024
        rng = np.random.default_rng(9)
        inst = random_instance(rng, n, n, 0.5)
        assert len(_row_blocks(n, n)) == 8
        phi = rng.normal(0, 1, n)
        _, peak = _traced_bytes(lambda: induced_marginal(phi, inst))
        assert peak <= 1.1 * n * n * 8

    def test_oracle_holds_one_array_at_peak(self, parts):
        # run's cache holds E; the certificate then makes its one exact pass,
        # after the cache is freed, and rounds the plan in row blocks of
        # SLICE_BYTES
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

    def test_gram_symmetry_check_takes_one_temporary(self, parts):
        # the kernel matrix, the kept copy and one difference whose absolute
        # value is taken in place; the transposed operand takes numpy's
        # fixed ufunc buffer
        mu, _, _ = parts
        _, peak = _traced_bytes(lambda: gram(KernelSpec("gaussian", 1.0), mu.points))
        assert peak <= 3.1 * self.ARRAY + 8 * np.getbufsize()


def whole_matrix_row_pass(phi, inst):
    """``(E, s, rowmax)`` written out over the whole matrix."""
    with np.errstate(over="ignore"):
        w = (inst.log_b + phi) - cost_of(inst) / inst.epsilon
    rowmax = w.max(axis=1)
    e = np.exp(w - rowmax[:, None])
    return e, e.sum(axis=1), rowmax


def overflowing_instance(rng, n, m, share):
    """An explicit cost on [0, 1] with about ``share`` of its entries at 1e308,
    whose C/eps overflows to +inf; row 0 and column 0 stay finite."""
    cost = rng.uniform(0.0, 1.0, (n, m))
    far = rng.random((n, m)) < share
    far[0, :] = far[:, 0] = False
    cost[far] = 1e308
    mu = DiscreteMeasure(points=np.zeros(n), weights=rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(points=np.zeros(m), weights=rng.dirichlet(np.ones(m)))
    return Instance(mu=mu, nu=nu, cost=cost, epsilon=float(10 ** rng.uniform(-2, -0.5)))


def counting_row_pass():
    """Patch that counts the exponential passes (absorptions) of a cache."""
    return mock.patch.object(semidual, "_row_pass", wraps=semidual._row_pass)


def cached_step(rng, inst, zero_phi=False, edge=True):
    """``(phi0, phi)``: a start and a point within ``ABSORB_AT`` of it in every entry."""
    phi0 = np.zeros(inst.m) if zero_phi else rng.normal(0, 3, inst.m)
    delta = rng.uniform(-ABSORB_AT, ABSORB_AT, inst.m)
    if edge:  # one entry 1e-9 inside the radius, more than phi0 + delta can round off
        delta[rng.integers(inst.m)] = ABSORB_AT * (1 - 1e-9) * rng.choice([-1, 1])
    return phi0, phi0 + delta


def cached_pair(inst, phi0, phi):
    """The pair at phi from the cached branch of a cache absorbed at phi0, with its ``log p``."""
    cache = InducedCache(inst)
    with counting_row_pass() as passes:
        cache(phi0)
        got = with_log_p(cache, phi, inst)
    assert passes.call_count == 1  # the second call took the two-GEMV branch
    return got


def assert_cached_branch_matches_one_shot_pass(rng, n, m, zero_phi, edge):
    inst = skewed_instance(rng, n, m, 1e3)
    phi0, phi = cached_step(rng, inst, zero_phi, edge)
    phi_plus, _, log_p = cached_pair(inst, phi0, phi)
    ref_plus, _, ref_log_p = with_log_p(InducedCache(inst), phi, inst)
    assert np.all(np.abs(phi_plus - ref_plus) <= 1e-13 * (1.0 + np.abs(ref_plus)))
    scale = 1.0 + np.abs(inst.log_b + phi) + np.abs(ref_log_p)
    assert np.all(np.abs(log_p - ref_log_p) <= 1e-13 * scale)


class TestInducedCache:
    @given(seed=st.integers(0, 2**32 - 1), zero_phi=st.booleans(), edge=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cached_branch_matches_one_shot_pass(self, seed, zero_phi, edge):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40, size=2)
        assert_cached_branch_matches_one_shot_pass(rng, int(n), int(m), zero_phi, edge)

    @given(seed=st.integers(0, 2**32 - 1), zero_phi=st.booleans(), edge=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_cached_branch_over_row_blocks_matches_one_shot_pass(self, seed, zero_phi, edge):
        # n m 8 > ROW_BLOCK_BYTES: the products run over two to five row blocks
        rng = np.random.default_rng(seed)
        n = int(rng.integers(128, 400))
        m = int(rng.integers(ROW_BLOCK_BYTES // (8 * n) + 1, 1400))
        assert len(_row_blocks(n, m)) > 1
        assert_cached_branch_matches_one_shot_pass(rng, n, m, zero_phi, edge)

    @pytest.mark.parametrize("n,m", [(362, 362), (128, 1024), (1, 5)])
    def test_one_block_takes_the_two_whole_matrix_products(self, n, m):
        # every sweep and proofs instance is one block: its outputs keep their bits
        rng = np.random.default_rng(16)
        inst = random_instance(rng, n, m, 0.1)
        assert len(_row_blocks(n, m)) == 1
        phi0, phi = cached_step(rng, inst)
        e, rowmax, _, _ = semidual._absorb(phi0, inst)
        cache = InducedCache(inst)
        cache(phi0)
        phi_plus, p = cache(phi)
        v = np.exp(phi - phi0)
        t = e @ v
        np.testing.assert_array_equal(phi_plus, rowmax + np.log(t))
        np.testing.assert_array_equal(p, v * ((inst.a / t) @ e))

    @given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_absorbing_pass_over_row_blocks_is_the_whole_matrix_formula(self, seed, share):
        # E, its row sums and row maxima keep every bit over two to five row blocks,
        # +inf entries of C/eps included (they give E_ij = 0)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(200, 1400))
        n = int(rng.integers(_block_rows(m) + 1, 5 * _block_rows(m) + 1))
        assert 2 <= len(_row_blocks(n, m)) <= 5
        inst = overflowing_instance(rng, n, m, share)
        with np.errstate(over="ignore"):
            assert (share > 0) == bool(np.isinf(cost_of(inst) / inst.epsilon).any())
        phi = rng.normal(0, 3, m)
        with np.errstate(over="ignore"):  # the scope every caller of _row_pass holds
            got_pass = semidual._row_pass(phi, inst)
        for got, ref in zip(got_pass, whole_matrix_row_pass(phi, inst), strict=True):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n,m", [(4, 6), (16, 16), (362, 362), (128, 1024)])
    def test_one_block_absorbs_by_the_whole_matrix_operations(self, n, m):
        rng = np.random.default_rng(17)
        inst = overflowing_instance(rng, n, m, 0.3)
        assert len(_row_blocks(n, m)) == 1
        phi = rng.normal(0, 3, m)
        with mock.patch.object(semidual, "_gibbs_exponent", wraps=semidual._gibbs_exponent) as exponent:
            with np.errstate(over="ignore"):  # the scope every caller of _row_pass holds
                got = semidual._row_pass(phi, inst)
        exponent.assert_called_once_with(phi, inst)  # one exponent over the whole matrix
        for got_part, ref_part in zip(got, whole_matrix_row_pass(phi, inst), strict=True):
            assert got_part.tobytes() == ref_part.tobytes()

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


# Forward error budget of (phi_plus, p) against the long double reference, in
# units of u = 2^-53, on random_instance draws with eps in [0.01, 1] and phi
# ~ N(0, 3), with one cached step of up to ABSORB_AT per entry: the relative
# error of p on masses above 1e-250, and |phi_plus - ref| / max(1, |ref|).
# The error of p is mostly the float64 rounding of each Gibbs exponent, some
# |C/eps| + |log b + phi| ulps, so it grows as eps falls.  Worst seen over the
# first 40 seeds of each size: p 59 u one-shot, 43 u cached; phi_plus 2.2 u.
U = 2.0**-53
P_BUDGET_U = 96.0
PHI_PLUS_BUDGET_U = 4.0


def named_twins(kind, d, n, m):
    """A named-cost instance and its explicit twin, the same matrix written out."""
    rng = np.random.default_rng([d, n, m])
    mu = DiscreteMeasure(points=rng.normal(size=(n, d)), weights=rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(points=rng.normal(size=(m, d)), weights=rng.dirichlet(np.ones(m)))
    # at eps = 0.45 a division and a product by the reciprocal differ in about 40% of entries
    named = Instance(mu=mu, nu=nu, cost=kind, epsilon=0.45)
    return named, Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, kind), epsilon=0.45), rng


def assert_same_bits(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


class TestNamedCostTwin:
    # a named cost is built block by block from the points wherever it is
    # read; every reader gives the bits its explicit twin gives, on one row
    # block (7 x 9) and on two (200 x 700)
    @pytest.mark.parametrize("n,m", [(7, 9), (200, 700)], ids=["one_block", "two_blocks"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["half_sqeuclidean", "euclidean"])
    def test_every_reader_matches_the_explicit_twin(self, kind, d, n, m):
        named, explicit, rng = named_twins(kind, d, n, m)
        assert len(_row_blocks(n, m)) == (1 if n == 7 else 2)
        assert named.cost == kind and explicit.cost_kind is None
        phi = rng.normal(0, 1, m)
        phi[:2] = -800.0  # two columns whose mass falls below P_FLOOR
        pairs = [induced_marginal(phi, inst) for inst in (named, explicit)]
        assert_same_bits(*pairs)
        phi_plus, p = pairs[0]
        assert p[:2].max() < P_FLOOR
        assert_same_bits(*(semidual._log_mass(p, phi, phi_plus, inst) for inst in (named, explicit)))
        # the cache's first pass, a cached evaluation, and a re-absorption
        steps = (phi, phi + rng.normal(0, 0.5, m), phi + 2 * ABSORB_AT * rng.random(m))
        caches = [InducedCache(inst) for inst in (named, explicit)]
        for step in steps:
            assert_same_bits(*(cache(step) for cache in caches))
        for fn in (semidual._certificate, lambda _, inst: lambda_bound(inst, 1.5), lambda _, inst: default_bound(inst)):
            assert fn(phi, named) == fn(phi, explicit)


def rounded_primal(phi, inst):
    """The rounded plan's primal value formed apart from the certificate: its own marginal_y pass, 32 KiB row blocks."""
    cols = marginal_y(phi, inst)
    y, c = inst.b / np.maximum(cols, inst.b), np.maximum(inst.b - cols, 0.0)
    c /= c.sum() or 1.0
    total = 0.0
    for rows in _row_blocks(inst.n, inst.m, 32 * 1024):
        w = (inst.log_b + phi) - cost_of(inst)[rows] / inst.epsilon
        pi = np.exp(w - w.max(axis=1, keepdims=True))
        pi *= (inst.a[rows] / pi.sum(axis=1))[:, None]
        pi *= y
        pi += np.maximum(inst.a[rows] - pi.sum(axis=1), 0.0)[:, None] * c
        log_ref = w - phi + inst.log_a[rows, None]
        total += kl(np.log(pi, out=np.full_like(pi, -np.inf), where=pi > 0.0), log_ref, pi)
    return total


class TestCertificate:
    # one exact pass gives J, the residual and the rounded plan's value, each
    # with the bits of the separate evaluation it replaces, on one row block
    # of the plan (7 x 9) and on 40 (200 x 700)
    @pytest.mark.parametrize("n,m", [(7, 9), (200, 700)], ids=["one_block", "forty_blocks"])
    @pytest.mark.parametrize("cost", ["named", "explicit"])
    def test_matches_the_separate_evaluations(self, cost, n, m):
        named, explicit, rng = named_twins("half_sqeuclidean", 2, n, m)
        inst = explicit if cost == "explicit" else named
        assert len(_row_blocks(n, m, SLICE_BYTES)) == (1 if n == 7 else 40)
        phi = rng.normal(0, 1, m)
        j, residual, primal = semidual._certificate(phi, inst)
        assert repr(j) == repr(semidual_value(phi, inst))
        assert repr(residual) == repr(float(np.abs(inst.b - marginal_y(phi, inst)).sum()))
        assert repr(primal) == repr(rounded_primal(phi, inst))


class TestOverflowScopes:
    # _gibbs_exponent holds no errstate of its own: every entry point that
    # reaches it lets C/eps overflow to +inf (an entry of mass 0) without a
    # numpy warning, which tier-1's filter would turn into an error
    @staticmethod
    def instances():
        """A named cost whose C/eps overflows between the far atom and the
        near ones, and its explicit twin; every row and column keeps its
        diagonal 0, and the near atoms' costs are near eps."""
        pts = np.array([[0.0], [1e-5], [1e150]])
        mu = DiscreteMeasure(points=pts, weights=np.array([0.3, 0.3, 0.4]))
        nu = DiscreteMeasure(points=pts, weights=np.array([0.2, 0.4, 0.4]))
        named = Instance(mu=mu, nu=nu, cost="half_sqeuclidean", epsilon=1e-10)
        return named, Instance(mu=mu, nu=nu, cost=cost_of(named), epsilon=1e-10)

    ENTRY_POINTS = {
        "induced_marginal": lambda inst, phi: induced_marginal(phi, inst),
        "plus_transform": lambda inst, phi: plus_transform(phi, inst),
        "semidual_value": lambda inst, phi: semidual_value(phi, inst),
        "marginal_y": lambda inst, phi: marginal_y(phi, inst),
        "first_variation": lambda inst, phi: first_variation(phi, inst),
        "coupling": lambda inst, phi: coupling(phi, inst),
        "log_reference": lambda inst, phi: log_reference(inst),
        "run": lambda inst, phi: [
            run(inst, SolverConfig(method, max_iter=5, tol_l1=0.0), phi) for method in ("sinkhorn", "sga", "proj_sga")
        ],
        "oracle_solve": lambda inst, phi: oracle_solve(inst),
        "flow_run": lambda inst, phi: flow_run(inst, phi, 2.0, 0.05, dt=1e-2, record_every=2),
        "lambda_bound": lambda inst, phi: lambda_bound(inst, 1.0),
        "default_bound": lambda inst, phi: default_bound(inst),
        "variance_identity_residual": lambda inst, phi: variance_identity_residual(phi, phi + 0.5, inst),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_an_overflowing_c_over_eps_warns_nowhere(self, entry):
        for inst in self.instances():
            with pytest.warns(RuntimeWarning, match="overflow"):
                ratio = cost_of(inst) / inst.epsilon  # unscoped, the ratio warns
            assert np.isinf(ratio).sum() == 4
            self.ENTRY_POINTS[entry](inst, np.array([0.5, -0.25, 1.0]))


def forward_errors_u(pair, ref):
    """Worst relative errors of p (masses above 1e-250) and of phi_plus against ``ref``, in units of u."""
    (phi_plus, p), (ref_plus, ref_p) = pair, ref
    seen = ref_p > 1e-250
    err_p = np.abs(p[seen] - ref_p[seen]) / ref_p[seen]
    err_plus = np.abs(phi_plus - ref_plus) / np.maximum(1.0, np.abs(ref_plus))
    return float(err_p.max()) / U, float(err_plus.max()) / U


@LONGDOUBLE
class TestErrorBudget:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n,m,blocks", [(128, 128, 1), (384, 1000, 3)], ids=["one_block", "three_blocks"])
    def test_evaluators_stay_within_the_budget(self, n, m, blocks, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n, m, float(10 ** rng.uniform(-2, 0)))
        assert len(_row_blocks(n, m)) == blocks
        phi0, phi = cached_step(rng, inst)
        ref = longdouble_pair(phi, inst)
        for name, pair in (("one-shot", induced_marginal(phi, inst)), ("cached", cached_pair(inst, phi0, phi)[:2])):
            err_p, err_plus = forward_errors_u(pair, ref)
            assert err_p <= P_BUDGET_U, f"{name}: p off by {err_p:.1f} u"
            assert err_plus <= PHI_PLUS_BUDGET_U, f"{name}: phi_plus off by {err_plus:.1f} u"


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


def rounded_plan(phi, inst):
    """pi(phi) rounded onto U(a, b) by Altschuler-Weed-Rigollet's Alg. 2, materialized.

    Rows scaled down to a, then columns down to b, then the rank-one
    remainder of the missing masses, its factors clipped at 0.
    """
    pi = np.exp(coupling(phi, inst).log_masses)
    with np.errstate(divide="ignore", over="ignore"):  # a row or column of (almost) no mass is not scaled
        pi *= np.minimum(inst.a / pi.sum(axis=1), 1.0)[:, None]
        pi *= np.minimum(inst.b / pi.sum(axis=0), 1.0)
    err_a, err_b = np.maximum(inst.a - pi.sum(axis=1), 0.0), np.maximum(inst.b - pi.sum(axis=0), 0.0)
    return pi + np.outer(err_a, err_b) / (err_a.sum() or 1.0)


def log_normalizer(inst):
    """log Z of the Gibbs reference a x b e^{-C/eps}, which ``log_reference`` divides out."""
    return logsumexp((np.log(inst.a)[:, None] + np.log(inst.b) - cost_of(inst) / inst.epsilon).reshape(-1))


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
        pi = rounded_plan(phi, inst)
        np.testing.assert_allclose(pi.sum(axis=1), inst.a, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(pi.sum(axis=0), inst.b, rtol=0.0, atol=1e-15)
        value = semidual._certificate(phi, inst)[2]
        with np.errstate(divide="ignore"):
            materialized = primal_value(Coupling(log_masses=np.log(pi)), inst) - log_normalizer(inst)
        assert abs(materialized - value) <= 1e-12 * max(1.0, abs(value))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 11),
        m=st.integers(1, 11),
        epsilon=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_rounded_plan_bounds_every_objective_value(self, seed, n, m, epsilon):
        # weak duality: the rounded plan is feasible, so its primal value is at least J(psi) for any psi
        rng = np.random.default_rng(seed)
        inst = extreme_instance(rng, n, m, epsilon)
        phi, psi = rng.normal(0, 3, m), rng.normal(0, 3, m)
        j = semidual_value(psi, inst)
        assert semidual._certificate(phi, inst)[2] >= j - 1e-12 * max(1.0, abs(j))


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
