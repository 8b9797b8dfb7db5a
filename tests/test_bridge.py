import numpy as np
import pytest

from otmatch.bridge import (
    DriftField,
    GridError,
    SpaceTimeGrid,
    _interp_uniform,
    _log_heat,
    _neg_half_sq,
    _slopes,
    bridge_from_potential,
    bridge_grid_for,
    make_demo_instance,
    simulate_em,
    terminal_histogram,
)
from otmatch.measures import DiscreteMeasure, Instance, cost_matrix, make_grid_measure
from otmatch.semidual import marginal_y
from otmatch.solvers import oracle_solve

from conftest import heat


def small_grid(T=1.0, n_t=21, span=8.0, n_x=161):
    return SpaceTimeGrid(x=np.linspace(-span, span, n_x), times=np.linspace(0.0, T, n_t))


def grid_instance(n_points, mu_center=-0.5, mu_width=0.4, uniform_target=True):
    """Quadratic-cost instance on [-2, 2] at epsilon 1: a Gaussian source and
    a uniform or sinusoidally modulated target on the same grid."""
    mu = make_grid_measure(-2.0, 2.0, n_points, lambda x: np.exp(-0.5 * ((x - mu_center) / mu_width) ** 2))
    target = (lambda x: 1.0) if uniform_target else (lambda x: 1.0 + 0.5 * np.sin(2.0 * x))
    nu = make_grid_measure(-2.0, 2.0, n_points, target)
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=1.0)


class TestSpaceTimeGrid:
    def test_properties(self):
        g = small_grid()
        assert g.dx == pytest.approx(0.1)
        assert g.dt == pytest.approx(0.05)
        assert g.T == 1.0

    def test_covering_contains_margin(self):
        g = bridge_grid_for(make_demo_instance(n_points=41, epsilon=1.0), n_t=11)  # spacing 0.1
        assert g.dx == pytest.approx(0.1)
        margin = 6.0 * np.sqrt(2.0)
        assert g.x[0] <= -2.0 - margin + 0.1
        assert g.x[-1] >= 2.0 + margin - 0.1
        # support endpoints land on nodes
        assert np.min(np.abs(g.x - (-2.0))) <= 1e-12
        assert np.min(np.abs(g.x - 2.0)) <= 1e-9

    @pytest.mark.parametrize("inst", [
        *(make_demo_instance(n_points=n, epsilon=eps) for n in (2, 17, 64) for eps in (0.05, 1.0, 4.0)),
        grid_instance(64, mu_center=0.3, mu_width=0.5, uniform_target=False),
    ])
    def test_bridge_grid_geometry(self, inst):
        # what bridge_from_potential relies on: time nodes on [0, epsilon],
        # the 6 sqrt(2 eps) margin past both supports, every atom on a node
        g = bridge_grid_for(inst, n_t=11)
        assert g.times[0] == 0.0 and g.times[-1] == inst.epsilon
        atoms = np.concatenate([inst.mu.points[:, 0], inst.nu.points[:, 0]])
        margin = 6.0 * np.sqrt(2.0 * inst.epsilon)
        assert g.x[0] <= atoms.min() - margin + 1e-9 and g.x[-1] >= atoms.max() + margin - 1e-9
        assert g.x[0] > atoms.min() - margin - g.dx and g.x[-1] < atoms.max() + margin + g.dx
        off_node = np.min(np.abs(atoms[:, None] - g.x[None, :]), axis=1)
        assert np.max(off_node) <= 1e-9 * g.dx

    def test_validation(self):
        with pytest.raises(GridError):
            SpaceTimeGrid(x=np.array([0.0, 1.0, 1.5]), times=np.array([0.0, 1.0]))
        with pytest.raises(GridError):
            SpaceTimeGrid(x=np.array([0.0, 1.0]), times=np.array([0.5, 1.0]))


class TestHeatPropagate:
    def test_constant_data_is_preserved_interior(self):
        g = small_grid()
        kappa = 0.3
        out = heat(np.full(g.n_x, kappa), 1.0, g.x)
        interior = np.abs(g.x) <= 2.0
        np.testing.assert_allclose(out[interior], np.exp(kappa), rtol=1e-9)

    def test_semigroup_composition(self):
        g = small_grid(span=12.0, n_x=241)
        rng = np.random.default_rng(0)
        phi = -0.5 * ((g.x - 0.3) / 0.5) ** 2
        margin = 6.0 * np.sqrt(2.0)
        interior = (g.x > g.x[0] + margin) & (g.x < g.x[-1] - margin)
        for _ in range(10):
            s1, s2 = rng.uniform(0.05, 0.45, 2)
            mid = np.log(heat(phi, s1, g.x))
            # propagate the intermediate data by s2 more
            two_step = heat(mid, s2, g.x)
            direct = heat(phi, s1 + s2, g.x)
            rel = np.abs(two_step[interior] - direct[interior]) / direct[interior]
            assert np.max(rel) <= 1e-8

    def test_positivity(self):
        g = small_grid()
        phi = np.full(g.n_x, -np.inf)
        phi[g.n_x // 2] = 0.0
        out = heat(phi, 0.5, g.x)
        assert np.all(out > 0.0)


class TestDriftField:
    def test_gaussian_bump_matches_analytic_gradient(self):
        # one target atom: g_t is a Gaussian bump around it whose log is
        # quadratic, so central differences give grad log g_t = (y - x)/(T - t)
        # exactly at interior nodes
        T, y = 0.5, 0.25
        grid = SpaceTimeGrid(x=y + 0.05 * np.arange(-120, 121), times=np.linspace(0.0, T, 11))
        s = np.maximum(T - grid.times, grid.dt)[:, None]  # the last node reuses the step before
        neg_half_sq = _neg_half_sq(grid.x, np.array([y]))
        rows = np.array([_log_heat(neg_half_sq, np.array([0.7]), float(sk), grid.dx) for sk in s[:, 0]])
        drift = np.gradient(rows, grid.dx, axis=1)
        analytic = (y - grid.x)[None, :] / s
        np.testing.assert_allclose(drift[:, 1:-1], analytic[:, 1:-1], rtol=1e-9, atol=1e-9)

    def test_csv_header(self):
        g = small_grid(n_t=3, n_x=5, span=2.0)
        field = DriftField(grid=g, values=np.zeros((3, 5)))
        lines = field.to_csv().strip().split("\n")
        assert lines[0].startswith("# n_t=3 n_x=5")
        assert len(lines) == 2 + 3


class TestSimulate:
    def test_pure_diffusion_statistics(self):
        g = small_grid(T=1.0, n_t=101, span=10.0, n_x=201)
        field = DriftField(grid=g, values=np.zeros((g.n_t, g.n_x)))
        mu = DiscreteMeasure(points=np.array([[0.0]]), weights=np.array([1.0]))
        n = 100_000
        sim = simulate_em(field, mu, n, seed=5)
        assert sim.positions.mean() == pytest.approx(0.0, abs=3.0 / np.sqrt(n))
        assert sim.positions.var() == pytest.approx(1.0, rel=0.1)  # unit diffusion over T=1
        assert sim.clamp_fraction == 0 and not sim.clamp_excessive

    def test_seed_determinism(self):
        g = small_grid(n_t=11)
        field = DriftField(grid=g, values=np.zeros((g.n_t, g.n_x)))
        mu = DiscreteMeasure(points=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5]))
        a = simulate_em(field, mu, 1000, seed=7).positions
        b = simulate_em(field, mu, 1000, seed=7).positions
        np.testing.assert_array_equal(a, b)

    def test_outward_drift_gets_clamped_and_flagged(self):
        g = SpaceTimeGrid(x=np.linspace(-1, 1, 21), times=np.linspace(0, 1, 41))
        field = DriftField(grid=g, values=np.full((41, 21), 50.0))
        mu = DiscreteMeasure(points=np.array([[0.0]]), weights=np.array([1.0]))
        sim = simulate_em(field, mu, 200, seed=1)
        assert sim.clamp_fraction > 0
        assert sim.clamp_excessive


class TestInterpolation:
    @pytest.mark.parametrize("n_x", [2, 3, 64, 333])
    def test_equals_np_interp(self, n_x):
        rng = np.random.default_rng(n_x)
        x0, dx = rng.uniform(-3.0, 3.0), rng.uniform(0.01, 0.5)
        x = SpaceTimeGrid(x=x0 + dx * np.arange(n_x), times=[0.0, 1.0]).x
        vals = rng.normal(size=(2, n_x))
        lo, hi = x[0], x[-1]
        pts = np.concatenate([
            rng.uniform(lo - 3 * dx, hi + 3 * dx, 20_000),  # inside and beyond both ends
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),  # at and next to every node
            [lo, hi, lo - 1e9, hi + 1e9],
        ])
        work = (np.empty(pts.size), np.empty(pts.size), np.empty(pts.size, np.intp), np.empty(pts.size, bool))
        slopes = _slopes(x, vals)
        for k in range(2):
            got = _interp_uniform(pts, x, vals[k], slopes[k], work)
            np.testing.assert_array_equal(got, np.interp(pts, x, vals[k]))


class TestBridgeFromPotential:
    @pytest.mark.parametrize("uniform_target", [True, False])
    def test_support_columns_match_full_grid_heat_pass(self, uniform_target):
        # the terminal data is -inf off the target nodes; propagating it over
        # the whole grid must give the same drift as over the targets only
        inst = grid_instance(48, uniform_target=uniform_target)
        phi = oracle_solve(inst)
        field = bridge_from_potential(phi, inst, 31)
        grid = field.grid
        y_idx = np.round((inst.nu.points[:, 0] - grid.x[0]) / grid.dx).astype(int)
        log_term = np.full(grid.n_x, -np.inf)
        log_term[y_idx] = phi + inst.log_b + np.log(inst.m)
        full = _neg_half_sq(grid.x, grid.x)
        rows = np.array([
            _log_heat(full, log_term, max(grid.T - float(t), grid.dt), grid.dx) for t in grid.times
        ])
        expected = np.gradient(rows, grid.dx, axis=1)
        got = field.values
        assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))

    def test_zero_potential_drift_antisymmetric_for_symmetric_instance(self):
        inst = grid_instance(33, mu_center=0.0, mu_width=0.5)
        field = bridge_from_potential(np.zeros(inst.m), inst, 21)
        grid = field.grid
        # nu symmetric about 0 and grid symmetric: v(t, -x) == -v(t, x)
        center = np.argmin(np.abs(grid.x))
        assert abs(grid.x[center]) <= 1e-9
        left = field.values[:, center - 30 : center]
        right = field.values[:, center + 1 : center + 31]
        np.testing.assert_allclose(left, -right[:, ::-1], atol=1e-9)

    def test_constant_potential_small_horizon_drift_vanishes_inside(self):
        # edge effects decay like exp(-d^2 / 2T) with distance d from the
        # support ends, so a short horizon leaves the interior drift-free
        inst = make_demo_instance(n_points=65, epsilon=0.05)
        field = bridge_from_potential(np.full(inst.m, 1.3), inst, 21)
        x = field.grid.x
        assert np.max(np.abs(field.values[0][np.abs(x) <= 1.0])) <= 1e-3
        assert np.max(np.abs(field.values[0][np.abs(x) <= 0.5])) <= 1e-6

    def test_correspondence_validation(self):
        inst = make_demo_instance(n_points=17)
        with pytest.raises(GridError):
            bridge_from_potential(np.zeros(inst.m + 1), inst, 11)
        bad_cost = Instance(mu=inst.mu, nu=inst.nu, cost=cost_matrix(inst.mu, inst.nu, "euclidean"), epsilon=1.0)
        with pytest.raises(GridError):
            bridge_from_potential(np.zeros(inst.m), bad_cost, 11)

    @pytest.mark.parametrize(
        "inst", [make_demo_instance(n_points=17, epsilon=0.3), grid_instance(32, uniform_target=False)]
    )
    def test_field_grid_is_bridge_grid_for(self, inst):
        field = bridge_from_potential(np.zeros(inst.m), inst, 11)
        expected = bridge_grid_for(inst, 11)
        np.testing.assert_array_equal(field.grid.x, expected.x)
        np.testing.assert_array_equal(field.grid.times, expected.times)

    def test_one_target_atom_raises_grid_error(self):
        mu = DiscreteMeasure(points=np.array([[0.0], [0.5]]), weights=np.array([0.5, 0.5]))
        nu = DiscreteMeasure(points=np.array([[0.25]]), weights=np.array([1.0]))
        inst = Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=1.0)
        with pytest.raises(GridError, match="at least two distinct target atoms, got 1"):
            bridge_from_potential(np.zeros(1), inst, 11)

    def test_terminal_marginal_matches_static_with_nonuniform_target(self):
        inst = grid_instance(32, uniform_target=False)
        phi_star = oracle_solve(inst)
        n = 20_000
        for phi in (np.zeros(inst.m), phi_star):
            field = bridge_from_potential(phi, inst, 51)
            sim = simulate_em(field, inst.mu, n, seed=11)
            hist = terminal_histogram(sim.positions, inst.nu.points[:, 0])
            tv = 0.5 * np.abs(hist - marginal_y(phi, inst)).sum()
            dx = inst.nu.points[1, 0] - inst.nu.points[0, 0]
            assert tv <= 3.0 / np.sqrt(n) + 2.0 * dx


class TestHistogram:
    def test_counts_nearest_atom(self):
        support = np.array([0.0, 1.0, 2.0])
        pos = np.array([0.1, 0.9, 1.2, 2.4, -5.0])
        np.testing.assert_allclose(terminal_histogram(pos, support), [0.4, 0.4, 0.2])
