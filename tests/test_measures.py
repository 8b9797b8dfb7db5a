import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otmatch.cli import _digest, main
from otmatch import measures
from otmatch.kernels import Gram, KernelSpec, gram, median_pairwise_distance
from otmatch.measures import (
    DiscreteMeasure,
    Instance,
    InstanceError,
    _pairwise_sum,
    _row_blocks,
    cost_matrix,
    load_instance,
    make_grid_measure,
)
from otmatch.semidual import Coupling
from otmatch.verify import random_instance

from conftest import write_instance


class TestDiscreteMeasure:
    def test_rejects_zero_weight(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.zeros((2, 1)), weights=np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InstanceError, match=r"weights sum to 1\.1, expected"):
            DiscreteMeasure(points=np.zeros((2, 1)), weights=np.array([0.6, 0.5]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.array([[0.0], [1.0], [2.0]]), weights=np.array([0.5, 0.5]))

    def test_rejects_nonfinite_points(self):
        with pytest.raises(InstanceError):
            DiscreteMeasure(points=np.array([[np.inf]]), weights=np.array([1.0]))

    @pytest.mark.parametrize(
        "points, weights", [([[0.0], [0.0]], ["0.5", "0.5"]), ([[0.0]], [True])], ids=["strings", "boolean"]
    )
    def test_rejects_non_numeric_weights(self, points, weights):
        # an instance file or Instance.cost holding these values is rejected too
        with pytest.raises(InstanceError, match="weights must be numbers"):
            DiscreteMeasure(points=points, weights=weights)

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

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_blocks_add_the_terms_of_one_whole_matrix_pass(self, d, power):
        # 300 x 600 is two row blocks, the second one short; every entry adds
        # its d terms in dimension order, as one pass over the whole matrix does
        rng = np.random.default_rng(50 + d)
        x, y = rng.normal(size=(300, d)), rng.normal(size=(600, d))
        assert len(_row_blocks(300, 600)) == 2
        ref = np.zeros((300, 600))
        for k in range(d):
            diff = np.subtract.outer(x[:, k], y[:, k])
            ref += diff * diff if power == 2 else np.abs(diff)
        np.testing.assert_array_equal(_pairwise_sum(x, y, power), ref)

    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_matches_broadcast_formula(self, d):
        # the cost is accumulated one dimension at a time, while the formula
        # sums an (n, m, d) array pairwise: the same terms in another order
        # for d > 2, so each side is within (d - 1) roundings of the exact sum
        rng = np.random.default_rng(40 + d)
        mu = DiscreteMeasure(points=rng.normal(size=(7, d)), weights=np.full(7, 1 / 7))
        nu = DiscreteMeasure(points=rng.normal(size=(5, d)) * 3.0, weights=np.full(5, 0.2))
        bound = (d - 1) * np.finfo(float).eps
        diff = mu.points[:, None, :] - nu.points[None, :, :]
        sq = np.sum(diff * diff, axis=2)
        for kind, ref in (("half_sqeuclidean", 0.5 * sq), ("euclidean", np.sqrt(sq))):
            got = cost_matrix(mu, nu, kind)
            if d <= 2:
                np.testing.assert_array_equal(got, ref)
            else:
                assert np.all(np.abs(got - ref) <= bound * ref), kind
        # the kernels build their distances the same way; a Gram entry
        # exp(-x) inherits the exponent's relative error as x times it, and
        # the exp's own rounding is covered by the added 1
        for pts in (mu.points, nu.points):
            diff = pts[:, None, :] - pts[None, :, :]
            sq = np.sum(diff * diff, axis=2)
            iu = np.triu_indices(pts.shape[0], k=1)
            med_ref = float(np.median(np.sqrt(sq)[iu]))
            med = median_pairwise_distance(pts)
            l1 = np.sum(np.abs(diff), axis=2)
            for kind, x in (("gaussian", sq / (2.0 * 2.5**2)), ("laplace", l1 / (2.0 * 2.5))):
                got = gram(KernelSpec(kind, 2.5), pts).matrix
                ref = np.exp(-x)
                if d <= 2:
                    np.testing.assert_array_equal(got, ref)
                else:
                    assert np.all(np.abs(got - ref) <= bound * (1.0 + x) * ref), kind
            if d <= 2:
                assert med == med_ref
            else:
                assert abs(med - med_ref) <= bound * med_ref

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

    @pytest.mark.parametrize(
        "cost, epsilon, message",
        [
            ([[1e308, 1e308], [1e308, 1e308]], 0.5, "on a whole row"),
            ([[0.0, 1e300], [0.0, 1e300]], 1e-10, "on a whole column"),
            ([[-1e308, 0.0], [0.0, 0.0]], 0.5, "to -inf"),
        ],
        ids=["row_inf", "col_inf", "minus_inf"],
    )
    def test_rejects_cost_over_eps_that_overflows(self, cost, epsilon, message):
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        with pytest.raises(InstanceError, match=f"C/eps overflows float64 {message}"):
            Instance(mu=mu, nu=mu, cost=np.array(cost), epsilon=epsilon)

    def test_accepts_overflow_away_from_every_row_minimum(self):
        # each row keeps a finite C/eps at its minimum, which the Gibbs
        # exponent is normalized by
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        inst = Instance(mu=mu, nu=mu, cost=np.array([[0.0, 1e300], [1e300, 0.0]]), epsilon=1e-10)
        assert inst.cost[0, 1] == 1e300

    def test_rejects_shape_mismatch(self):
        mu = DiscreteMeasure(points=np.zeros((2, 1)), weights=np.full(2, 0.5))
        with pytest.raises(InstanceError):
            Instance(mu=mu, nu=mu, cost=np.zeros((2, 3)), epsilon=1.0)

    def test_rejects_string_cost(self):
        # float64 conversion would read "0.5" as a number; a file with that
        # cost is rejected too, so a matrix handed over directly must be
        mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
        with pytest.raises(InstanceError, match="cost must be numbers"):
            Instance(mu=mu, nu=mu, cost=[["0.5"]], epsilon=1.0)


MU2 = DiscreteMeasure(points=np.zeros(2), weights=np.full(2, 0.5))

# what the caller hands over, the object built from it, and the array it stores
OWNED = {
    "measure_points_1d": (
        lambda: np.array([0.0, 1.0, 2.0]),
        lambda x: DiscreteMeasure(points=x, weights=np.full(3, 1 / 3)),
        lambda obj: obj.points,
    ),
    "measure_points_2d": (
        lambda: np.arange(6.0).reshape(3, 2),
        lambda x: DiscreteMeasure(points=x, weights=np.full(3, 1 / 3)),
        lambda obj: obj.points,
    ),
    "measure_weights": (
        lambda: np.full(3, 1 / 3),
        lambda x: DiscreteMeasure(points=np.zeros(3), weights=x),
        lambda obj: obj.weights,
    ),
    "instance_cost_array": (
        lambda: np.array([[0.0, 1.0], [1.0, 0.0]]),
        lambda x: Instance(mu=MU2, nu=MU2, cost=x, epsilon=1.0),
        lambda obj: obj.cost,
    ),
    "instance_cost_nested_list": (
        lambda: [[0.0, 1.0], [1.0, 0.0]],
        lambda x: Instance(mu=MU2, nu=MU2, cost=x, epsilon=1.0),
        lambda obj: obj.cost,
    ),
    "gram": (
        lambda: np.array([[1.0, 0.5], [0.5, 1.0]]),
        lambda x: Gram(matrix=x),
        lambda obj: obj.matrix,
    ),
    "coupling": (
        lambda: np.log(np.full((2, 2), 0.25)),
        lambda x: Coupling(log_masses=x),
        lambda obj: obj.log_masses,
    ),
}


class TestOwnership:
    @pytest.mark.parametrize("case", list(OWNED))
    def test_a_stored_array_is_the_objects_own(self, case):
        # a type validated at construction keeps what it validated: the
        # caller's array stays writable, and writing to it afterwards reaches
        # nothing stored, the measure's log weights included
        make, build, stored = OWNED[case]
        given = make()
        obj = build(given)
        kept = stored(obj).copy()
        assert not stored(obj).flags.writeable
        if isinstance(given, np.ndarray):
            assert given.flags.writeable
            assert not np.shares_memory(given, stored(obj))
            given.flat[0] = -5.0
        else:
            given[0][0] = -5.0
        assert stored(obj).tobytes() == kept.tobytes()
        if isinstance(obj, DiscreteMeasure):
            assert obj.log_weights.tobytes() == np.log(obj.weights).tobytes()

    @pytest.mark.parametrize("kind", ["half_sqeuclidean", "euclidean"])
    def test_a_cost_kind_is_built_by_the_instance(self, kind):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(points=rng.normal(size=(5, 2)), weights=rng.dirichlet(np.ones(5)))
        nu = DiscreteMeasure(points=rng.normal(size=(4, 2)), weights=rng.dirichlet(np.ones(4)))
        built = cost_matrix(mu, nu, kind)
        by_kind = Instance(mu=mu, nu=nu, cost=kind, epsilon=0.5)
        assert by_kind.cost.tobytes() == built.tobytes() and not by_kind.cost.flags.writeable
        explicit = Instance(mu=mu, nu=nu, cost=built, epsilon=0.5)
        assert (by_kind.cost_kind, explicit.cost_kind) == (kind, None)
        # the digest hashes a named cost's kind, an explicit twin's matrix
        assert _digest(by_kind) != _digest(explicit)

    def test_an_unknown_cost_kind_is_an_instance_error(self):
        with pytest.raises(InstanceError, match=r"^unknown cost kind 'manhattan'; expected"):
            Instance(mu=MU2, nu=MU2, cost="manhattan", epsilon=1.0)


class TestInstanceFiles:
    def test_roundtrip_is_identity(self, tmp_path):
        inst = random_instance(np.random.default_rng(0), 4, 5, 0.3)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
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
        write_instance(inst, path)
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
        with pytest.raises(InstanceError, match=r"weights sum to 1\.01;"):
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


_VALID_DOC = {
    "x_points": [[0.0], [1.0]],
    "x_weights": [0.5, 0.5],
    "y_points": [[0.0]],
    "y_weights": [1.0],
    "cost": "euclidean",
    "epsilon": 0.5,
}
_HUGE = "9" * 401  # an integer literal far beyond the largest double


def _doc_bytes(**fields) -> bytes:
    return json.dumps({**_VALID_DOC, **fields}).encode()


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "data",
        [
            _doc_bytes(epsilon=0.25).replace(b"0.25", _HUGE.encode()),
            _doc_bytes(y_points=[[0.25]]).replace(b"0.25", _HUGE.encode()),
            _doc_bytes(cost={"a": 1}),
            _doc_bytes(x_points={"a": 1}),
            _doc_bytes(x_weights={"a": 1}),
            _doc_bytes(x_points=[[0.0], [1.0, 2.0]]),
            _doc_bytes(cost=[["a"]]),
            _doc_bytes(epsilon=True),
            _doc_bytes().replace(b'"cost"', b'"co\xffst"'),
            # numbers written as JSON strings, or booleans, are not numbers
            _doc_bytes(x_points=[["0.5"], ["1"]]),
            _doc_bytes(x_weights=["0.5", 0.5]),
            _doc_bytes(epsilon="0.5"),
            _doc_bytes(y_points=[[0.0], [1.0]], y_weights=[0.5, 0.5], cost=[["1", 0], [0, 1]]),
            _doc_bytes(x_points=[[True], [False]]),
            _doc_bytes(x_points=[[True], [0.5]]),
            _doc_bytes(x_points=[[False], [0.5]]),
            _doc_bytes(x_weights=[0.5, False], cost="half_sqeuclidean"),
            _doc_bytes(cost="manhattan"),
        ],
        ids=[
            "huge_epsilon", "huge_point", "cost_object", "points_object", "weights_object",
            "ragged_points", "string_cost", "boolean_epsilon", "non_utf8",
            "string_points", "string_weights", "string_epsilon", "string_explicit_cost", "boolean_points",
            "boolean_among_numbers", "false_among_numbers", "false_beside_a_cost_kind", "unknown_cost_kind",
        ],
    )
    def test_rejected_with_a_one_line_error(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(InstanceError):
            load_instance(path)
        assert main(["validate", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"y_points": [[0.0], [1.0]]}, "y_points/y_weights: 2 points but 1 weights"),
            ({"x_weights": [1.5, -0.5]}, "x_points/x_weights: all weights must be strictly positive"),
            ({"x_points": [[0.0, 1.0]]}, "x_points/x_weights: 1 points but 2 weights"),
        ],
    )
    def test_measure_errors_name_their_keys(self, tmp_path, fields, message):
        # the measure's own checks run once, and the load names the keys they read
        path = tmp_path / "bad.json"
        path.write_bytes(_doc_bytes(**fields))
        with pytest.raises(InstanceError, match=f"^{message}$"):
            load_instance(path)


    @pytest.mark.parametrize("kind", ["half_sqeuclidean", "euclidean"])
    def test_no_boolean_walk_without_a_boolean_literal(self, tmp_path, kind):
        # both cost kinds hold bytes of "true" and "false", not the words
        path = tmp_path / "ok.json"
        path.write_bytes(_doc_bytes(cost=kind))
        with mock.patch.object(measures, "_holds_bool", wraps=measures._holds_bool) as walk:
            load_instance(path)
        assert walk.call_count == 0


_FMAX = int(np.finfo(float).max)
# every finite double (subnormals, -0.0, both extremes) and integer literals
# beyond 2^63, which stdlib json keeps as Python ints
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(2**63, _FMAX) | st.integers(-_FMAX, -(2**63))


class TestParserParity:
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.floats(min_value=1.0, allow_infinity=False) | st.integers(2**64, _FMAX),
    )
    @settings(max_examples=150, deadline=None)
    def test_loads_what_stdlib_json_reads(self, tmp_path_factory, data, n, m, seed, epsilon):
        # files are written by stdlib json, as write_instance writes them
        rng = np.random.default_rng(seed)
        doc = {
            "x_points": data.draw(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=n, max_size=n)),
            "x_weights": rng.dirichlet(np.ones(n)).tolist(),
            "y_points": data.draw(st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=m, max_size=m)),
            "y_weights": rng.dirichlet(np.ones(m)).tolist(),
            "cost": data.draw(st.lists(st.lists(_NUMBERS, min_size=m, max_size=m), min_size=n, max_size=n)),
            "epsilon": epsilon,
        }
        text = json.dumps(doc)
        path = tmp_path_factory.mktemp("parity") / "inst.json"
        path.write_text(text)
        got = load_instance(path)
        ref = {k: np.asarray(v, dtype=np.float64) for k, v in json.loads(text).items() if k != "epsilon"}
        for arr, key in (
            (got.mu.points, "x_points"),
            (got.mu.weights, "x_weights"),
            (got.nu.points, "y_points"),
            (got.nu.weights, "y_weights"),
            (got.cost, "cost"),
        ):
            np.testing.assert_array_equal(arr.view(np.int64), ref[key].view(np.int64), err_msg=key)
        assert repr(got.epsilon) == repr(float(json.loads(text)["epsilon"]))
        mu = DiscreteMeasure(points=ref["x_points"], weights=ref["x_weights"])
        nu = DiscreteMeasure(points=ref["y_points"], weights=ref["y_weights"])
        assert _digest(got) == _digest(Instance(mu=mu, nu=nu, cost=ref["cost"], epsilon=json.loads(text)["epsilon"]))

    def test_non_finite_literal_message_names_the_rule(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(_VALID_DOC, y_points=[[math.nan]])))
        with pytest.raises(InstanceError, match="non-finite numbers such as NaN and Infinity are not allowed"):
            load_instance(path)
        assert main(["validate", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["x_points", "y_weights", "cost", "epsilon"])
    def test_non_finite_literals_rejected(self, tmp_path, key, value):
        doc = dict(_VALID_DOC, cost=[[1.0], [2.0]])
        doc[key] = value if key == "epsilon" else np.full(np.shape(doc[key]), value).tolist()
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceError):
            load_instance(path)
