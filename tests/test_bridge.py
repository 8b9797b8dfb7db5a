import numpy as np
import pytest

from otmatch.bridge import (
    DriftField,
    GridError,
    SpaceTimeGrid,
    _interp_uniform,
    _slopes,
    bridge_from_potential,
    bridge_grid_for,
    make_demo_instance,
    simulate_em,
    terminal_histogram,
    tv_tolerance_terms,
)
from otmatch.logops import logsumexp
from otmatch.measures import DiscreteMeasure, Instance, cost_matrix, make_grid_measure
from otmatch.semidual import marginal_y
from otmatch.solvers import oracle_solve

from conftest import OFF_LATTICE_TARGETS, heat, two_source_instance


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
        # spacing sqrt(1/10) whatever the 41 atoms' gap, nodes k dx about 0
        # for |k| up to ceil((2 + 6 sqrt 2) / dx) = 34
        g = bridge_grid_for(make_demo_instance(n_points=41, epsilon=1.0), n_t=11)
        assert g.dx == pytest.approx(np.sqrt(0.1), rel=1e-12)
        assert g.n_x == 69 and g.x[34] == 0.0
        margin = 6.0 * np.sqrt(2.0)
        assert g.x[0] <= -2.0 - margin < g.x[1]
        assert g.x[-2] < 2.0 + margin <= g.x[-1]

    @pytest.mark.parametrize("n_t", [1, 0, -3])
    def test_fewer_than_two_time_nodes_raise_grid_error(self, n_t):
        with pytest.raises(GridError, match=f"at least two time nodes, got {n_t}"):
            bridge_grid_for(make_demo_instance(n_points=8), n_t)

    @pytest.mark.parametrize("inst", [
        *(make_demo_instance(n_points=n, epsilon=eps) for n in (2, 17, 64) for eps in (0.05, 1.0, 4.0)),
        grid_instance(64, mu_center=0.3, mu_width=0.5, uniform_target=False),
    ])
    def test_bridge_grid_geometry(self, inst):
        # the contract: time nodes on [0, epsilon], spacing sqrt(eps / (n_t - 1))
        # whatever the atoms, the 6 sqrt(2 eps) margin past both supports
        # (by less than one more spacing), symmetry about the supports' midpoint
        g = bridge_grid_for(inst, n_t=11)
        assert g.times[0] == 0.0 and g.times[-1] == inst.epsilon and g.n_t == 11
        assert g.dx == pytest.approx(np.sqrt(inst.epsilon / 10), rel=1e-12)
        atoms = np.concatenate([inst.mu.points[:, 0], inst.nu.points[:, 0]])
        margin = 6.0 * np.sqrt(2.0 * inst.epsilon)
        assert g.x[0] <= atoms.min() - margin + 1e-9 and g.x[-1] >= atoms.max() + margin - 1e-9
        assert g.x[0] > atoms.min() - margin - g.dx and g.x[-1] < atoms.max() + margin + g.dx
        mid = 0.5 * (atoms.min() + atoms.max())
        np.testing.assert_allclose(g.x - mid, -(g.x[::-1] - mid), rtol=0, atol=1e-12 * (g.x[-1] - g.x[0]))

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
        # one target atom: g_t is a Gaussian bump around it, so
        # grad log g_t = (y - x)/s at every node, the ends included
        y = 0.25
        mu = DiscreteMeasure(points=np.array([[-0.3], [0.9]]), weights=np.array([0.4, 0.6]))
        nu = DiscreteMeasure(points=np.array([[y]]), weights=np.array([1.0]))
        inst = Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=0.5)
        field = bridge_from_potential(np.array([0.7]), inst, 11)
        grid = field.grid
        s = np.maximum(grid.T - grid.times, grid.dt)[:, None]  # the last node reuses the step before
        np.testing.assert_allclose(field.values, (y - grid.x)[None, :] / s, rtol=1e-12, atol=0)

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
    def test_drift_is_central_difference_of_log_mixture(self, uniform_target):
        # the closed form against d/dx of log sum_j exp(phi_j + log b_j - (x - y_j)^2 / (2s))
        # by a central difference of step h = 1e-5 at every node and time; its
        # truncation and rounding errors were 8.7e-11 of the largest |v| (258)
        inst = grid_instance(48, uniform_target=uniform_target)
        phi = oracle_solve(inst)
        field = bridge_from_potential(phi, inst, 31)
        grid, y, h = field.grid, inst.nu.points[:, 0], 1e-5

        def log_g(x, s):
            return logsumexp(phi + inst.log_b - (x[:, None] - y[None, :]) ** 2 / (2.0 * s), axis=1)

        expected = np.array([
            (log_g(grid.x + h, s) - log_g(grid.x - h, s)) / (2.0 * h)
            for s in np.maximum(grid.T - grid.times, grid.dt)
        ])
        assert np.max(np.abs(field.values - expected)) <= 1e-9 * np.max(np.abs(field.values))

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

    def test_one_target_atom_takes_all_the_mass(self):
        # the grid no longer needs a gap between target atoms
        mu = DiscreteMeasure(points=np.array([[0.0], [0.5]]), weights=np.array([0.5, 0.5]))
        nu = DiscreteMeasure(points=np.array([[0.25]]), weights=np.array([1.0]))
        inst = Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=1.0)
        sim = simulate_em(bridge_from_potential(np.zeros(1), inst, 11), inst.mu, 1000, seed=3)
        np.testing.assert_array_equal(terminal_histogram(sim.positions, inst.nu.points[:, 0]), [1.0])

    def test_coincident_target_atoms_raise_grid_error(self):
        inst = two_source_instance([-1.0, 0.0, 0.0, 1.0])
        with pytest.raises(GridError, match="distinct target atoms"):
            bridge_from_potential(np.zeros(inst.m), inst, 11)

    def test_terminal_marginal_matches_static_with_nonuniform_target(self):
        inst = grid_instance(32, uniform_target=False)
        phi_star = oracle_solve(inst)
        n = 20_000
        for phi in (np.zeros(inst.m), phi_star):
            field = bridge_from_potential(phi, inst, 51)
            sim = simulate_em(field, inst.mu, n, seed=11)
            hist = terminal_histogram(sim.positions, inst.nu.points[:, 0])
            tv = 0.5 * np.abs(hist - marginal_y(phi, inst)).sum()
            assert tv <= sum(tv_tolerance_terms(n, 51))

    @OFF_LATTICE_TARGETS
    def test_terminal_marginal_matches_static_off_the_lattice(self, targets):
        inst = two_source_instance(targets)
        n, n_t = 20_000, 51
        tol = sum(tv_tolerance_terms(n, n_t))
        assert tol < 1.0
        for phi in (np.zeros(inst.m), oracle_solve(inst)):
            sim = simulate_em(bridge_from_potential(phi, inst, n_t), inst.mu, n, seed=5)
            hist = terminal_histogram(sim.positions, inst.nu.points[:, 0])
            assert 0.5 * np.abs(hist - marginal_y(phi, inst)).sum() <= tol


class TestHistogram:
    def test_counts_nearest_atom(self):
        support = np.array([0.0, 1.0, 2.0])
        pos = np.array([0.1, 0.9, 1.2, 2.4, -5.0])
        np.testing.assert_allclose(terminal_histogram(pos, support), [0.4, 0.4, 0.2])

    def test_unequal_and_unsorted_atoms(self):
        # the boundaries are the midpoints of neighbours in sorted order
        support = np.array([1.0, -0.9, 0.0, -1.0])
        pos = np.array([-1.2, -0.96, -0.94, -0.5, -0.4, 0.49, 0.51, 0.3])
        np.testing.assert_allclose(terminal_histogram(pos, support), [0.125, 0.25, 0.375, 0.25])


class TestToleranceTerms:
    def test_terms(self):
        mc_term, disc_term = tv_tolerance_terms(10_000, 101)
        assert mc_term == pytest.approx(0.03, rel=1e-15) and disc_term == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize(
        "particles, n_t, error, message",
        [
            (0, 101, ValueError, "at least one particle, got 0"),
            (100, 1, GridError, "at least two time nodes, got 1"),
            (100_000, 2, ValueError, "TV tolerance 1.009 of 100000 particles and 2 time nodes is at least 1"),
            (9, 101, ValueError, "TV tolerance 1.1 of 9 particles"),
        ],
        ids=["no_particles", "one_time_node", "one_step", "few_particles"],
    )
    def test_inputs_whose_tolerance_is_undefined_or_cannot_fail(self, particles, n_t, error, message):
        with pytest.raises(error, match=message):
            tv_tolerance_terms(particles, n_t)
