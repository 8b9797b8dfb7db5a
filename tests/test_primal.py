import numpy as np
import pytest

from otmatch.kernels import KernelSpec, gram
from otmatch.logops import logsumexp
from otmatch.primal import (
    mirror_bwd,
    mirror_fwd,
    project_x,
    project_y,
    root_step,
    separability_residual,
    v_link,
)
from otmatch.semidual import Coupling, coupling, log_reference, plus_transform
from otmatch.verify import random_instance

from conftest import one_step

ALL_LINKS = ["identity", "exp", "exp_kernel", "chi_square"]
# the runner's method that updates through each link kind
METHOD_OF = {"identity": "eta_sinkhorn", "exp": "sga", "exp_kernel": "ksga", "chi_square": "chi2"}


def make_gram(kind, inst):
    """The kernel of the ``exp_kernel`` link; the other links take none."""
    if kind == "exp_kernel":
        return gram(KernelSpec("gaussian", 0.4), inst.nu.points)
    return None


@pytest.fixture()
def inst():
    return random_instance(np.random.default_rng(50), 5, 7, 0.6)


@pytest.fixture()
def pi_random(inst):
    rng = np.random.default_rng(51)
    return coupling(rng.normal(0, 0.8, inst.m), inst)


class TestProjectY:
    def test_identity_link_hits_target_exactly(self, inst, pi_random):
        out = project_y(pi_random, inst, "identity")
        np.testing.assert_allclose(np.exp(logsumexp(out.log_masses, axis=0)), inst.b, atol=1e-14)

    def test_already_matched_is_untouched(self, inst, oracle_cache):
        phi = oracle_cache("primal-5x7", inst)
        pi = coupling(phi, inst)
        out = project_y(pi, inst, "exp")
        np.testing.assert_allclose(out.log_masses, pi.log_masses, atol=1e-11)

    def test_exp_link_matches_direct_scaling(self, inst, pi_random):
        p = np.exp(logsumexp(pi_random.log_masses, axis=0))
        w = np.exp(inst.b - p)  # exp-link weights
        scaled = np.exp(pi_random.log_masses) * w[None, :]
        scaled /= scaled.sum()
        out = project_y(pi_random, inst, "exp")
        np.testing.assert_allclose(np.exp(out.log_masses), scaled, rtol=1e-12)

    def test_preserves_x_given_y_conditionals(self, inst, pi_random):
        out = project_y(pi_random, inst, "chi_square")
        before = pi_random.log_masses - logsumexp(pi_random.log_masses, axis=0)[None, :]
        after = out.log_masses - logsumexp(out.log_masses, axis=0)[None, :]
        np.testing.assert_allclose(after, before, atol=1e-12)


class TestProjectX:
    def test_eta_zero_returns_original(self, inst, pi_random):
        half = project_y(pi_random, inst, "identity")
        out = project_x(half, pi_random, inst, 0.0)
        np.testing.assert_allclose(out.log_masses, pi_random.log_masses, atol=1e-12)

    def test_eta_one_returns_renormalized_half(self, inst, pi_random):
        half = project_y(pi_random, inst, "identity")
        out = project_x(half, pi_random, inst, 1.0)
        lh = half.log_masses
        expected = lh - logsumexp(lh, axis=1)[:, None] + inst.log_a[:, None]
        np.testing.assert_allclose(out.log_masses, expected, atol=1e-12)

    def test_midpoint_matches_log_domain_oracle(self, inst, pi_random):
        half = project_y(pi_random, inst, "exp")
        out = project_x(half, pi_random, inst, 0.5)
        lh, lm = half.log_masses, pi_random.log_masses
        cond_h = lh - logsumexp(lh, axis=1)[:, None]
        cond_m = lm - logsumexp(lm, axis=1)[:, None]
        mix = 0.5 * cond_h + 0.5 * cond_m
        expected = mix - logsumexp(mix, axis=1)[:, None] + inst.log_a[:, None]
        np.testing.assert_allclose(out.log_masses, expected, atol=1e-13)

    def test_output_x_marginal_is_exact(self, inst, pi_random):
        half = project_y(pi_random, inst, "chi_square")
        for eta in (0.0, 0.3, 0.7, 1.0):
            out = project_x(half, pi_random, inst, eta)
            np.testing.assert_allclose(np.exp(logsumexp(out.log_masses, axis=1)), inst.a, atol=1e-12)

    def test_eta_out_of_range(self, inst, pi_random):
        with pytest.raises(ValueError):
            project_x(pi_random, pi_random, inst, 1.2)


class TestVLink:
    def test_zero_at_matched_marginal(self, inst, oracle_cache):
        phi = oracle_cache("primal-5x7", inst)
        pi = coupling(phi, inst)
        assert np.max(np.abs(v_link(pi, inst, "exp"))) <= 1e-11

    def test_exp_rows_are_marginal_gap(self, inst, pi_random):
        p = np.exp(logsumexp(pi_random.log_masses, axis=0))
        v = v_link(pi_random, inst, "exp")
        np.testing.assert_allclose(v, np.tile(p - inst.b, (inst.n, 1)), atol=1e-14)

    def test_chi_square_rows(self, inst, pi_random):
        p = np.exp(logsumexp(pi_random.log_masses, axis=0))
        v = v_link(pi_random, inst, "chi_square")
        np.testing.assert_allclose(v, np.tile(p / inst.b - 1.0, (inst.n, 1)), atol=1e-13)


class TestRootStep:
    def test_eta_zero_identity(self, inst, pi_random):
        out = root_step(pi_random, inst, "exp", 0.0)
        np.testing.assert_allclose(out.log_masses, pi_random.log_masses, atol=1e-12)

    def test_fixed_point_at_optimum(self, inst, oracle_cache):
        phi = oracle_cache("primal-5x7", inst)
        pi = coupling(phi, inst)
        out = root_step(pi, inst, "identity", 1.0)
        np.testing.assert_allclose(out.log_masses, pi.log_masses, atol=1e-11)

    @pytest.mark.parametrize("kind", ALL_LINKS)
    @pytest.mark.parametrize("eta", [0.3, 1.0])
    def test_equals_dual_step_coupling(self, inst, kind, eta):
        rng = np.random.default_rng(52)
        phi = rng.normal(0, 0.8, inst.m)
        g = make_gram(kind, inst)
        pi = coupling(phi, inst)
        via_primal = root_step(pi, inst, kind, eta, g).log_masses
        via_dual = coupling(one_step(METHOD_OF[kind], phi, inst, eta=eta, gram=g), inst).log_masses
        np.testing.assert_allclose(via_primal, via_dual, atol=1e-10)


class TestMirrorMaps:
    def test_forward_of_reference_is_zero(self, inst):
        pi = Coupling(log_masses=log_reference(inst))
        assert np.max(np.abs(mirror_fwd(pi, inst))) <= 1e-14

    def test_forward_of_induced_coupling_is_separable(self, inst):
        rng = np.random.default_rng(53)
        phi = rng.normal(0, 1, inst.m)
        h = mirror_fwd(coupling(phi, inst), inst)
        assert separability_residual(h) <= 1e-12
        z_ref = logsumexp(inst.log_a[:, None] + inst.log_b[None, :] - inst.cost / inst.epsilon)
        expected = (z_ref - plus_transform(phi, inst))[:, None] + phi[None, :]
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_forward_matches_elementwise_oracle(self, inst, pi_random):
        ref = np.exp(log_reference(inst))
        expected = np.log(np.exp(pi_random.log_masses) / ref)
        np.testing.assert_allclose(mirror_fwd(pi_random, inst), expected, rtol=1e-10)

    def test_backward_of_zero_is_row_normalized_reference(self, inst):
        out = mirror_bwd(np.zeros((inst.n, inst.m)), inst)
        lr = log_reference(inst)
        expected = lr - logsumexp(lr, axis=1)[:, None] + inst.log_a[:, None]
        np.testing.assert_allclose(out.log_masses, expected, atol=1e-13)

    def test_backward_inverts_forward(self, inst, pi_random):
        out = mirror_bwd(mirror_fwd(pi_random, inst), inst)
        np.testing.assert_allclose(out.log_masses, pi_random.log_masses, atol=1e-12)

    def test_backward_of_potential_pair_is_induced_coupling(self, inst):
        rng = np.random.default_rng(54)
        phi = rng.normal(0, 1, inst.m)
        h = np.zeros(inst.n)[:, None] + phi[None, :]
        np.testing.assert_allclose(
            mirror_bwd(h, inst).log_masses, coupling(phi, inst).log_masses, atol=1e-12
        )

    @pytest.mark.parametrize("kind", ALL_LINKS)
    def test_mirror_update_equals_dual_step(self, inst, kind):
        rng = np.random.default_rng(55)
        phi = rng.normal(0, 0.8, inst.m)
        g = make_gram(kind, inst)
        pi = coupling(phi, inst)
        for eta in (0.3, 1.0):
            via_mirror = mirror_bwd(mirror_fwd(pi, inst) - eta * v_link(pi, inst, kind, g), inst)
            via_dual = coupling(one_step(METHOD_OF[kind], phi, inst, eta=eta, gram=g), inst)
            np.testing.assert_allclose(via_mirror.log_masses, via_dual.log_masses, atol=1e-10)

    def test_outputs_live_in_factorized_class(self, inst, pi_random):
        base = -(inst.cost / inst.epsilon) + inst.log_a[:, None] + inst.log_b[None, :]
        for link in ("identity", "exp"):
            out = root_step(pi_random, inst, link, 0.7)
            assert separability_residual(out.log_masses - base) <= 1e-10
            np.testing.assert_allclose(np.exp(logsumexp(out.log_masses, axis=1)), inst.a, atol=1e-12)


class TestSeparabilityResidual:
    def test_separability_residual_detects_nonseparable(self):
        m = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert separability_residual(m) == 1.0
