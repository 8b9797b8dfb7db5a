import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.kernels import (
    Gram,
    KernelSpec,
    gram,
    median_pairwise_distance,
    parse_kernel_spec,
)
from otmatch.logops import kl
from otmatch.measures import DiscreteMeasure, Instance
from otmatch.semidual import marginal_y
from otmatch.solvers import SolverConfig, run


def kernel_mean(g, xi):
    """Kernel mean (K xi)_j of a mass vector."""
    return g.matrix @ xi


def trace_mmd(g, inst, phi):
    """The runner's mmd_sq trace entry at phi: (1/2)(p - b)^T K (p - b)."""
    cfg = SolverConfig(method="sga", gram=g, max_iter=0, tol_l1=0.0)
    return run(inst, cfg, phi).trace.records[0].mmd_sq


def one_point_instance(m, rng):
    """1 x m instance: the marginal of phi is softmax(log b + phi - C/eps)."""
    mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
    nu = DiscreteMeasure(points=rng.normal(size=(m, 1)), weights=rng.dirichlet(np.ones(m)))
    return Instance(mu=mu, nu=nu, cost=rng.uniform(0.0, 1.0, (1, m)), epsilon=0.5)


class TestGram:
    def test_identity_three_points(self):
        g = gram(KernelSpec("identity"), np.array([[0.0], [1.0], [5.0]]))
        np.testing.assert_array_equal(g.matrix, np.eye(3))
        assert g.c_k == 1.0

    def test_gaussian_identical_points_all_ones(self):
        g = gram(KernelSpec("gaussian", 1.0), np.array([[0.7], [0.7]]))
        np.testing.assert_allclose(g.matrix, np.ones((2, 2)), rtol=1e-15)

    def test_gaussian_unit_separation(self):
        g = gram(KernelSpec("gaussian", 1.0), np.array([[0.0], [1.0]]))
        assert g.matrix[0, 1] == pytest.approx(0.60653065971, abs=1e-11)
        assert g.c_k == 1.0

    def test_laplace_form(self):
        g = gram(KernelSpec("laplace", 0.5), np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert g.matrix[0, 1] == pytest.approx(math.exp(-3.0 / 1.0), rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian")
        # an infinite bandwidth gives the all-ones Gram, of rank one
        for kind in ("gaussian", "laplace"):
            with pytest.raises(ValueError, match="strictly positive bandwidth"):
                KernelSpec(kind, math.inf)
        with pytest.raises(ValueError):
            KernelSpec("identity", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("sobolev", 1.0)

    def test_gram_validation(self):
        with pytest.raises(ValueError):
            Gram(matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            Gram(matrix=np.array([[0.0, 0.0], [0.0, 1.0]]))  # zero diagonal

    def test_c_k_is_max_diagonal(self):
        g = Gram(matrix=np.diag([0.25, 0.75]))
        assert g.c_k == 0.75


class TestMeanEmbedding:
    def test_identity_returns_input(self):
        g = gram(KernelSpec("identity"), np.zeros((4, 1)) + np.arange(4)[:, None])
        xi = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(kernel_mean(g, xi), xi, rtol=1e-15)

    def test_zero_vector(self):
        g = gram(KernelSpec("gaussian", 0.5), np.arange(3.0))
        np.testing.assert_array_equal(kernel_mean(g, np.zeros(3)), np.zeros(3))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 2))
        g = gram(KernelSpec("gaussian", 0.8), pts)
        xi = rng.dirichlet(np.ones(5))
        expected = np.array(
            [
                sum(
                    math.exp(-np.sum((pts[j] - pts[k]) ** 2) / (2 * 0.8**2)) * xi[k]
                    for k in range(5)
                )
                for j in range(5)
            ]
        )
        np.testing.assert_allclose(kernel_mean(g, xi), expected, rtol=1e-12)

    def test_additivity(self):
        rng = np.random.default_rng(1)
        g = gram(KernelSpec("gaussian", 0.5), rng.normal(size=(6, 1)))
        xi, zeta = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        np.testing.assert_allclose(
            kernel_mean(g, xi + zeta),
            kernel_mean(g, xi) + kernel_mean(g, zeta),
            atol=1e-12,
        )


class TestMmd:
    def test_equal_vectors_zero(self):
        # a single target atom: p = b = [1] at any potential
        inst = Instance(
            mu=DiscreteMeasure(points=np.zeros((2, 1)), weights=np.array([0.5, 0.5])),
            nu=DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1)),
            cost=np.array([[0.0], [1.0]]),
            epsilon=1.0,
        )
        g = gram(KernelSpec("gaussian", 0.5), inst.nu.points)
        assert trace_mmd(g, inst, np.array([0.3])) == 0.0

    def test_identity_swap(self):
        # identity kernel: half the squared Euclidean distance of p and b
        rng = np.random.default_rng(1)
        inst = one_point_instance(2, rng)
        g = gram(KernelSpec("identity"), inst.nu.points)
        phi = rng.normal(size=2)
        d = marginal_y(phi, inst) - inst.b
        assert trace_mmd(g, inst, phi) == pytest.approx(0.5 * float(d @ d), rel=1e-12)

    def test_matches_quadratic_form_loop(self):
        rng = np.random.default_rng(2)
        inst = one_point_instance(5, rng)
        g = gram(KernelSpec("gaussian", 0.6), inst.nu.points)
        phi = rng.normal(size=5)
        d = marginal_y(phi, inst) - inst.b
        expected = 0.5 * sum(d[i] * g.matrix[i, j] * d[j] for i in range(5) for j in range(5))
        assert trace_mmd(g, inst, phi) == pytest.approx(expected, rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_smoothness_envelope(self, seed):
        # convexity from below, 2 c_k KL from above
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (6, 2))
        g = gram(KernelSpec("gaussian", float(rng.uniform(0.2, 1.0))), pts)
        target = rng.dirichlet(np.ones(6))
        xi = rng.dirichlet(np.ones(6))
        xi_bar = rng.dirichlet(np.ones(6))

        def half_mmd(z):
            d = z - target
            return 0.5 * float(d @ g.matrix @ d)

        gap = half_mmd(xi_bar) - half_mmd(xi) - float((g.matrix @ (xi - target)) @ (xi_bar - xi))
        assert gap >= -1e-10
        assert gap <= 2.0 * g.c_k * kl(np.log(xi_bar), np.log(xi)) + 1e-10


class TestSpecParsing:
    def test_parse_identity(self):
        assert parse_kernel_spec("identity") == KernelSpec("identity")

    def test_parse_gaussian(self):
        assert parse_kernel_spec("gaussian:0.2") == KernelSpec("gaussian", 0.2)

    def test_parse_laplace(self):
        assert parse_kernel_spec("laplace:1.5") == KernelSpec("laplace", 1.5)

    def test_parse_median(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        spec = parse_kernel_spec("gaussian:median", pts)
        assert spec.bandwidth == median_pairwise_distance(pts) == 2.0

    def test_median_bandwidth_takes_the_scale_rule(self):
        # a median distance of 1e154 gives 2 sigma^2 past the largest double
        # and 2 sigma well inside it
        pts = np.array([[0.0], [1e154]])
        with pytest.raises(ValueError, match=r"finite positive scale 2\*sigma\^2, got 1e\+154$"):
            parse_kernel_spec("gaussian:median", pts)
        assert parse_kernel_spec("laplace:median", pts) == KernelSpec("laplace", 1e154)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_kernel_spec("gaussian")
        with pytest.raises(ValueError):
            parse_kernel_spec("identity:3")
        with pytest.raises(ValueError):
            parse_kernel_spec("gaussian:median")
