"""Dynamic bridge realization of a solved 1-D transport problem.

A potential solved on a 1-D grid with quadratic cost |x-y|^2/2 and
regularization epsilon induces a diffusion bridge on the horizon
T = epsilon: propagate the terminal data backward through the heat
semigroup of the unit-diffusion reference process dX = dB, take the drift
grad log g_t, and simulate dX = v dt + dB forward from the first marginal.
The simulated terminal law then reproduces the Y-marginal of the induced
static coupling.

The unit-diffusion convention is what makes the static/dynamic pair agree
exactly: the reference transition exp(-(x-y)^2 / (2(T-t))) at full horizon
matches the Gibbs factor exp(-c/eps) of the static problem.  Terminal data
enters weighted by the target atoms' masses, which for a uniform target
reduces to plain exp(phi) on the grid.

Propagation uses grid convolution with the exact heat kernel (spectrally
accurate for smooth data, unconditionally stable); Gaussian tails beyond
the grid are dropped, so grids must extend well past the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logops import logsumexp
from .measures import DiscreteMeasure, Instance, cost_matrix, make_grid_measure

__all__ = [
    "SpaceTimeGrid",
    "DriftField",
    "SimulationResult",
    "heat_propagate",
    "drift_field",
    "simulate_em",
    "bridge_from_potential",
    "terminal_histogram",
    "make_demo_instance",
    "GridError",
]

# grid must extend this many widths of the full-horizon transition beyond
# the measures' support so that dropped Gaussian tails stay below 1e-8
GRID_MARGIN_FACTOR = 6.0
CLAMP_REPORT_FRACTION = 0.01


class GridError(ValueError):
    """Raised when grid geometry or the cost/epsilon correspondence is violated."""


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Equispaced spatial nodes plus uniform time nodes on [0, T]."""

    x: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        ts = np.asarray(self.times, dtype=np.float64)
        if x.ndim != 1 or x.size < 2 or ts.ndim != 1 or ts.size < 2:
            raise GridError("need at least two spatial nodes and two time nodes")
        dx = np.diff(x)
        if np.any(dx <= 0) or np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0]:
            raise GridError("spatial nodes must be strictly increasing and equispaced")
        dt = np.diff(ts)
        if ts[0] != 0.0 or np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise GridError("time nodes must run from 0 with uniform positive spacing")
        x = x.copy()
        ts = ts.copy()
        x.setflags(write=False)
        ts.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "times", ts)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def n_x(self) -> int:
        return self.x.size

    @property
    def n_t(self) -> int:
        return self.times.size

    @classmethod
    def covering(
        cls,
        support_lo: float,
        support_hi: float,
        spacing: float,
        T: float,
        n_t: int,
        margin: float | None = None,
    ) -> "SpaceTimeGrid":
        """Grid whose lattice contains [support_lo, support_hi] and extends
        past it by ``margin`` (default 6 sqrt(2T)) on each side."""
        if margin is None:
            margin = GRID_MARGIN_FACTOR * np.sqrt(2.0 * T)
        k = int(np.ceil(margin / spacing))
        n_right = int(np.round((support_hi - support_lo) / spacing)) + k
        x = support_lo + spacing * np.arange(-k, n_right + 1)
        return cls(x=x, times=np.linspace(0.0, T, n_t))


@dataclass(frozen=True)
class DriftField:
    """Drift values on the space-time grid (rows = time nodes)."""

    grid: SpaceTimeGrid
    values: np.ndarray  # (n_t, n_x)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_t, self.grid.n_x):
            raise GridError(f"drift shape {v.shape} does not match grid ({self.grid.n_t}, {self.grid.n_x})")
        if not np.all(np.isfinite(v)):
            raise GridError("drift field must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def to_csv(self) -> str:
        g = self.grid
        lines = [
            f"# n_t={g.n_t} n_x={g.n_x} T={g.T!r} dt={g.dt!r} dx={g.dx!r} x0={g.x[0]!r}",
            ",".join(["t"] + [repr(float(xx)) for xx in g.x]),
        ]
        for k in range(g.n_t):
            row = [repr(float(g.times[k]))] + [repr(float(v)) for v in self.values[k]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _log_heat(log_terminal: np.ndarray, s: float, x: np.ndarray, dx: float) -> np.ndarray:
    """log of the heat propagation of exp(log_terminal) dx by time s (variance s)."""
    d2 = (x[:, None] - x[None, :]) ** 2
    kern = -0.5 * d2 / s - 0.5 * np.log(2.0 * np.pi * s)
    return logsumexp(kern + log_terminal[None, :] + np.log(dx), axis=1)


def heat_propagate(phi_T: np.ndarray, t: float, T: float, x: np.ndarray) -> np.ndarray:
    """Backward heat propagation of the terminal density exp(phi_T).

    Returns g_t(y) = sum_k N(x_k; y, T - t) exp(phi_T(x_k)) dx on the nodes
    ``x`` (unit-diffusion transition, variance T - t); t = T returns
    exp(phi_T) exactly.  Entries of ``phi_T`` may be -inf (zero terminal
    density there); the result is strictly positive for t < T as long as
    some entry is finite.
    """
    if not 0.0 <= t <= T:
        raise GridError(f"need 0 <= t <= T, got t={t}, T={T}")
    phi_T = np.asarray(phi_T, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if phi_T.shape != x.shape:
        raise GridError(f"terminal values shape {phi_T.shape} does not match grid {x.shape}")
    if t == T:
        return np.exp(phi_T)
    dx = float(x[1] - x[0])
    return np.exp(_log_heat(phi_T, T - t, x, dx))


def drift_field(g_values: np.ndarray, grid: SpaceTimeGrid) -> DriftField:
    """Drift grad log g_t by central differences (one-sided at the ends).

    ``g_values`` holds g_t on the grid, one row per time node, strictly
    positive everywhere.  Differencing log g makes the result exact for
    log-linear data.
    """
    g = np.asarray(g_values, dtype=np.float64)
    if g.shape != (grid.n_t, grid.n_x):
        raise GridError(f"g has shape {g.shape}, expected ({grid.n_t}, {grid.n_x})")
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)):
        raise GridError("g must be strictly positive and finite")
    v = np.gradient(np.log(g), grid.dx, axis=1)
    return DriftField(grid=grid, values=v)


@dataclass(frozen=True)
class SimulationResult:
    positions: np.ndarray
    n_clamped: int
    clamp_fraction: float
    clamp_excessive: bool  # more than 1% of particle-steps clamped


def simulate_em(
    drift: DriftField, mu: DiscreteMeasure, n_particles: int, seed: int
) -> SimulationResult:
    """Euler-Maruyama simulation of dX = v dt + dB from the atoms of mu.

    Drift is linearly interpolated on the spatial grid (held constant
    beyond the ends).  A particle that leaves the grid by more than one
    spacing is clamped to the boundary node and counted; a clamp fraction
    above 1% is flagged.  Output is bit-identical for a fixed seed.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if mu.dim != 1:
        raise ValueError("simulation is one-dimensional")
    g = drift.grid
    rng = np.random.default_rng(seed)
    idx = rng.choice(mu.n_atoms, size=n_particles, p=mu.weights)
    x_pos = mu.points[:, 0][idx].astype(np.float64)
    lo, hi = g.x[0], g.x[-1]
    dt = g.dt
    sqdt = np.sqrt(dt)
    n_clamped = 0
    for k in range(g.n_t - 1):
        v = np.interp(x_pos, g.x, drift.values[k])
        x_pos = x_pos + v * dt + sqdt * rng.standard_normal(n_particles)
        low = x_pos < lo - g.dx
        high = x_pos > hi + g.dx
        n_clamped += int(low.sum() + high.sum())
        x_pos[low] = lo
        x_pos[high] = hi
    frac = n_clamped / (n_particles * (g.n_t - 1))
    return SimulationResult(
        positions=x_pos,
        n_clamped=n_clamped,
        clamp_fraction=frac,
        clamp_excessive=frac > CLAMP_REPORT_FRACTION,
    )


def _support_node_indices(points: np.ndarray, grid: SpaceTimeGrid, what: str) -> np.ndarray:
    xs = points[:, 0]
    idx = np.round((xs - grid.x[0]) / grid.dx).astype(int)
    ok = (idx >= 0) & (idx < grid.n_x)
    if not np.all(ok) or np.max(np.abs(grid.x[np.clip(idx, 0, grid.n_x - 1)] - xs)) > 1e-9 * grid.dx:
        raise GridError(f"{what} atoms must sit on spatial grid nodes")
    return idx


def bridge_from_potential(phi: np.ndarray, inst: Instance, grid: SpaceTimeGrid) -> DriftField:
    """Drift field of the bridge induced by a solved potential.

    Requires the quadratic-cost correspondence: cost |x-y|^2/2 between the
    instance supports, epsilon equal to the grid horizon, both supports on
    grid nodes, and the grid extending 6 sqrt(2T) past them.  Terminal data
    is exp(phi) weighted by the target masses (uniform targets reduce to
    exp(phi) alone); the last time node reuses the bandwidth of the
    preceding one, since the terminal data is atomic and grad log g is only
    defined for positive propagation time.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (inst.m,):
        raise GridError(f"phi has shape {phi.shape}, expected ({inst.m},)")
    T = grid.T
    if abs(inst.epsilon - T) > 1e-12 * max(1.0, T):
        raise GridError(f"epsilon {inst.epsilon} must equal the grid horizon {T}")
    if inst.mu.dim != 1 or inst.nu.dim != 1:
        raise GridError("bridge construction is one-dimensional")
    quad = 0.5 * (inst.mu.points[:, 0][:, None] - inst.nu.points[:, 0][None, :]) ** 2
    if np.max(np.abs(inst.cost - quad)) > 1e-12 * max(1.0, float(np.max(quad))):
        raise GridError("cost must be |x - y|^2 / 2 between the instance supports")
    y_idx = _support_node_indices(inst.nu.points, grid, "target")
    _support_node_indices(inst.mu.points, grid, "source")
    margin = GRID_MARGIN_FACTOR * np.sqrt(2.0 * T)
    support_lo = min(inst.mu.points[:, 0].min(), inst.nu.points[:, 0].min())
    support_hi = max(inst.mu.points[:, 0].max(), inst.nu.points[:, 0].max())
    if grid.x[0] > support_lo - margin + 1e-9 or grid.x[-1] < support_hi + margin - 1e-9:
        raise GridError(f"grid must extend {margin:.3f} beyond the supports on each side")

    log_term = np.full(grid.n_x, -np.inf)
    log_term[y_idx] = phi + inst.log_b + np.log(inst.m)
    rows = np.empty((grid.n_t, grid.n_x))
    for k, t in enumerate(grid.times):
        s = max(T - float(t), grid.dt)
        rows[k] = _log_heat(log_term, s, grid.x, grid.dx)
    v = np.gradient(rows, grid.dx, axis=1)
    return DriftField(grid=grid, values=v)


def terminal_histogram(positions: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Empirical mass vector over equispaced support atoms (nearest-atom binning)."""
    s = np.asarray(support, dtype=np.float64).reshape(-1)
    step = s[1] - s[0]
    j = np.clip(np.round((positions - s[0]) / step).astype(int), 0, s.size - 1)
    return np.bincount(j, minlength=s.size) / positions.size


def make_demo_instance(
    n_points: int = 64,
    lo: float = -2.0,
    hi: float = 2.0,
    epsilon: float = 1.0,
    mu_center: float = -0.5,
    mu_width: float = 0.4,
    uniform_target: bool = True,
) -> Instance:
    """1-D quadratic-cost instance on a shared grid, ready for the bridge demo."""
    mu = make_grid_measure(lo, hi, n_points, lambda x: np.exp(-0.5 * ((x - mu_center) / mu_width) ** 2))
    if uniform_target:
        nu = make_grid_measure(lo, hi, n_points, lambda x: 1.0)
    else:
        nu = make_grid_measure(lo, hi, n_points, lambda x: 1.0 + 0.5 * np.sin(2.0 * x))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=epsilon)


def bridge_grid_for(inst: Instance, n_t: int = 101) -> SpaceTimeGrid:
    """Covering grid for an instance built by :func:`make_demo_instance`."""
    xs = np.concatenate([inst.mu.points[:, 0], inst.nu.points[:, 0]])
    spacing = float(np.diff(np.unique(inst.nu.points[:, 0])).min())
    return SpaceTimeGrid.covering(float(xs.min()), float(xs.max()), spacing, inst.epsilon, n_t)
