import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.measures import (
    DiscreteMeasure,
    Instance,
    InstanceError,
    cost_matrix,
    load_instance,
    make_grid_measure,
    save_instance,
)
from otmatch.verify import random_instance


class TestDiscreteMeasure:
    def test_rejects_zero_weight(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.zeros((2, 1)), weights=np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.zeros((2, 1)), weights=np.array([0.6, 0.5]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.array([[0.0], [1.0], [2.0]]), weights=np.array([0.5, 0.5]))

    def test_rejects_nonfinite_points(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.array([[np.inf]]), weights=np.array([1.0]))

    def test_immutable(self):
        m = DiscreteMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            m.weights[0] = 0.3


class TestMakeGridMeasure:
    def test_two_point_uniform(self):
        m = make_grid_measure(0.0, 1.0, 2, lambda x: 1.0)
        assert m.points[:, 0].tolist() == [0.0, 1.0]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_single_atom_forced_to_unit_mass(self):
        m = make_grid_measure(0.0, 1.0, 1, lambda x: 17.3)
        assert m.n_atoms == 1
        assert m.weights[0] == 1.0

    def test_gaussian_density_matches_direct_evaluation(self):
        pdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        m = make_grid_measure(-3.0, 3.0, 64, pdf)
        xs = np.linspace(-3.0, 3.0, 64)
        expected = np.array([pdf(x) for x in xs])
        expected /= expected.sum()
        np.testing.assert_allclose(m.weights, expected, rtol=1e-14)

    def test_rejects_zero_density(self):
        with pytest.raises(InstanceError):
            make_grid_measure(0.0, 1.0, 4, lambda x: 0.0)

    def test_rejects_negative_density(self):
        with pytest.raises(InstanceError):
            make_grid_measure(0.0, 1.0, 4, lambda x: -x)

    def test_rejects_bad_interval(self):
        with pytest.raises(InstanceError):
            make_grid_measure(1.0, 0.0, 4, lambda x: 1.0)

    @given(
        n=st.integers(1, 24),
        lo=st.floats(-5, 0),
        width=st.floats(0.1, 10),
        shift=st.floats(0.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_always_normalized(self, n, lo, width, shift):
        m = make_grid_measure(lo, lo + width, n, lambda x: 1.0 + (x - lo + shift) ** 2)
        assert abs(m.weights.sum() - 1.0) <= 1e-12
        assert np.all(m.weights > 0)


class TestCostMatrix:
    def test_identical_single_points(self):
        m = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
        assert cost_matrix(m, m, "half_sqeuclidean").tolist() == [[0.0]]

    def test_half_square_distance_two(self):
        mu = DiscreteMeasure(points=np.array([[0.0]]), weights=np.ones(1))
        nu = DiscreteMeasure(points=np.array([[2.0]]), weights=np.ones(1))
        assert cost_matrix(mu, nu, "half_sqeuclidean").tolist() == [[2.0]]

    def test_matches_per_pair_brute_force(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(points=rng.normal(size=(3, 2)), weights=rng.dirichlet(np.ones(3)))
        nu = DiscreteMeasure(points=rng.normal(size=(4, 2)), weights=rng.dirichlet(np.ones(4)))
        half = cost_matrix(mu, nu, "half_sqeuclidean")
        eucl = cost_matrix(mu, nu, "euclidean")
        for i in range(3):
            for j in range(4):
                d2 = sum((mu.points[i, k] - nu.points[j, k]) ** 2 for k in range(2))
                assert half[i, j] == pytest.approx(0.5 * d2, rel=1e-15)
                assert eucl[i, j] == pytest.approx(math.sqrt(d2), rel=1e-15)

    def test_transpose_symmetry_exact(self):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure(points=rng.normal(size=(5, 3)), weights=rng.dirichlet(np.ones(5)))
        nu = DiscreteMeasure(points=rng.normal(size=(6, 3)), weights=rng.dirichlet(np.ones(6)))
        assert np.array_equal(cost_matrix(mu, nu, "half_sqeuclidean"), cost_matrix(nu, mu, "half_sqeuclidean").T)
        assert np.array_equal(cost_matrix(mu, nu, "euclidean"), cost_matrix(nu, mu, "euclidean").T)

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_broadcast_formula(self, d):
        # the cost is accumulated one dimension at a time, while the formula
        # sums an (n, m, d) array pairwise: the same terms in another order
        # for d > 2, so each side is within (d - 1) roundings of the exact sum
        rng = np.random.default_rng(40 + d)
        mu = DiscreteMeasure(points=rng.normal(size=(7, d)), weights=np.full(7, 1 / 7))
        nu = DiscreteMeasure(points=rng.normal(size=(5, d)) * 3.0, weights=np.full(5, 0.2))
        diff = mu.points[:, None, :] - nu.points[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        for kind, ref in (("half_sqeuclidean", 0.5 * sq), ("euclidean", np.sqrt(sq))):
            got = cost_matrix(mu, nu, kind)
            if d <= 2:
                np.testing.assert_array_equal(got, ref)
            else:
                assert np.all(np.abs(got - ref) <= (d - 1) * np.finfo(float).eps * ref), kind

    def test_explicit_matrix_passthrough_and_checks(self):
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        nu = DiscreteMeasure(points=np.zeros((3, 1)), weights=np.full(3, 1 / 3))
        c = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(cost_matrix(mu, nu, c), c)
        with pytest.raises(InstanceError):
            cost_matrix(mu, nu, np.zeros((3, 2)))
        with pytest.raises(InstanceError):
            cost_matrix(mu, nu, np.full((2, 3), np.nan))

    def test_dimension_mismatch(self):
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        nu = DiscreteMeasure(points=np.zeros((2, 2)), weights=np.full(2, 0.5))
        with pytest.raises(InstanceError):
            cost_matrix(mu, nu, "euclidean")


class TestInstance:
    def test_rejects_nonpositive_epsilon(self):
        mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
        with pytest.raises(InstanceError):
            Instance(mu=mu, nu=mu, cost=np.zeros((1, 1)), epsilon=0.0)

    def test_rejects_nonfinite_cost(self):
        mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
        with pytest.raises(InstanceError):
            Instance(mu=mu, nu=mu, cost=np.array([[np.inf]]), epsilon=1.0)

    def test_rejects_shape_mismatch(self):
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        with pytest.raises(InstanceError):
            Instance(mu=mu, nu=mu, cost=np.zeros((2, 3)), epsilon=1.0)


class TestInstanceFiles:
    def test_roundtrip_is_identity(self, tmp_path):
        inst = random_instance(np.random.default_rng(0), 4, 5, 0.3)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.mu.points, inst.mu.points)
        np.testing.assert_array_equal(back.nu.points, inst.nu.points)
        np.testing.assert_allclose(back.mu.weights, inst.mu.weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(back.nu.weights, inst.nu.weights, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(back.cost, inst.cost)
        assert back.epsilon == inst.epsilon

    def test_roundtrip_keeps_accepted_weights_bit_exact(self, tmp_path):
        # these weights sum to 1 - 1.1e-16; dividing by that sum would move
        # them, so a reloaded instance would differ from the saved one
        mu = DiscreteMeasure(points=np.arange(3.0), weights=np.array([0.7, 0.2, 0.1]))
        nu = DiscreteMeasure(points=np.arange(4.0), weights=np.array([0.3, 0.3, 0.3, 0.1]))
        assert mu.weights.sum() != 1.0
        inst = Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=0.5)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.mu.weights, inst.mu.weights)
        np.testing.assert_array_equal(back.nu.weights, inst.nu.weights)

    def test_minimal_single_atom_file(self, tmp_path):
        doc = {
            "x_points": [[0.0]],
            "x_weights": [1.0],
            "y_points": [[1.0]],
            "y_weights": [1.0],
            "cost": "half_sqeuclidean",
            "epsilon": 0.5,
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path)
        assert (inst.n, inst.m) == (1, 1)
        assert inst.cost[0, 0] == 0.5

    def test_small_weight_drift_renormalized(self, tmp_path):
        doc = {
            "x_points": [[0.0], [1.0]],
            "x_weights": [0.5, 0.5 + 1e-10],
            "y_points": [[0.0]],
            "y_weights": [1.0],
            "cost": "euclidean",
            "epsilon": 1.0,
        }
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path)
        assert abs(inst.mu.weights.sum() - 1.0) <= 1e-12

    def test_large_weight_drift_rejected(self, tmp_path):
        doc = {
            "x_points": [[0.0], [1.0]],
            "x_weights": [0.5, 0.51],
            "y_points": [[0.0]],
            "y_weights": [1.0],
            "cost": "euclidean",
            "epsilon": 1.0,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_zero_epsilon_rejected(self, tmp_path):
        doc = {
            "x_points": [[0.0]],
            "x_weights": [1.0],
            "y_points": [[0.0]],
            "y_weights": [1.0],
            "cost": "euclidean",
            "epsilon": 0.0,
        }
        path = tmp_path / "eps0.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(InstanceError):
            load_instance(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"x_points": [[0.0]], "x_weights": [1.0]}))
        with pytest.raises(InstanceError):
            load_instance(path)
