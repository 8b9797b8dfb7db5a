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
the grid are dropped, so :func:`bridge_grid_for` extends the grid well
past the supports.  The bridge's terminal data vanishes off the m target
nodes, so its heat pass sums over those columns only, with the squared
distances built once for all time nodes.  The simulation interpolates the
drift by grid index on the uniform nodes, with the values ``np.interp``
gives.
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
    "simulate_em",
    "bridge_from_potential",
    "terminal_histogram",
    "tv_tolerance_terms",
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


def _neg_half_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``-0.5 (x_i - y_k)^2``, the exponent of the heat kernel at unit time."""
    return -0.5 * (x[:, None] - y[None, :]) ** 2


def _log_heat(neg_half_sq: np.ndarray, log_terminal: np.ndarray, s: float, dx: float) -> np.ndarray:
    """log of the heat propagation of exp(log_terminal) dx by time s (variance s).

    ``neg_half_sq`` is :func:`_neg_half_sq` between the output nodes and
    the nodes that carry ``log_terminal``.
    """
    kern = neg_half_sq / s - 0.5 * np.log(2.0 * np.pi * s)
    return logsumexp(kern + log_terminal[None, :] + np.log(dx), axis=1)


@dataclass(frozen=True)
class SimulationResult:
    positions: np.ndarray
    clamp_fraction: float
    clamp_excessive: bool  # more than 1% of particle-steps clamped


def simulate_em(
    drift: DriftField, mu: DiscreteMeasure, n_particles: int, seed: int
) -> SimulationResult:
    """Euler-Maruyama simulation of dX = v dt + dB from the atoms of mu.

    Drift is linearly interpolated on the spatial grid (held constant
    beyond the ends) by :func:`_interp_uniform`, which gives the values of
    ``np.interp`` without its search.  A particle that leaves the grid by
    more than one spacing is clamped to the boundary node and counted; a
    clamp fraction above 1% is flagged.  Output is bit-identical for a
    fixed seed.
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
    slopes = _slopes(g.x, drift.values)
    work = (np.empty(n_particles), np.empty(n_particles), np.empty(n_particles, np.intp),
            np.empty(n_particles, bool))
    noise = np.empty(n_particles)
    low = np.empty(n_particles, bool)
    high = np.empty(n_particles, bool)
    n_clamped = 0
    for k in range(g.n_t - 1):
        # x + v dt + sqrt(dt) z, in place and in that order
        step = _interp_uniform(x_pos, g.x, drift.values[k], slopes[k], work)
        step *= dt
        x_pos += step
        rng.standard_normal(out=noise)
        noise *= sqdt
        x_pos += noise
        np.less(x_pos, lo - g.dx, out=low)
        np.greater(x_pos, hi + g.dx, out=high)
        n_clamped += int(np.count_nonzero(low) + np.count_nonzero(high))
        x_pos[low] = lo
        x_pos[high] = hi
    frac = n_clamped / (n_particles * (g.n_t - 1))
    return SimulationResult(
        positions=x_pos,
        clamp_fraction=frac,
        clamp_excessive=frac > CLAMP_REPORT_FRACTION,
    )


def _slopes(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row slopes of ``values`` over the segments of ``x``, with 0 after the last node."""
    slopes = np.zeros_like(values)
    slopes[:, :-1] = np.diff(values, axis=1) / np.diff(x)
    return slopes


def _interp_uniform(pts, x, vals, slopes, work):
    """``np.interp(pts, x, vals)`` on equispaced nodes ``x``, by index arithmetic.

    Points are clamped into [x_0, x_last], so the ends hold their values.
    The segment index comes from the uniform spacing and is then moved by
    one where rounding put it next to the segment ``np.interp`` finds (the
    largest j with x_j <= pt).  The value is ``vals[j] + (pt - x[j]) *
    slopes[j]``, the operations of ``np.interp`` with its precomputed
    slopes, so the results agree exactly.  ``work`` holds two float, one
    index and one boolean array of ``pts``' shape, reused across calls so
    that no large temporary is allocated; the result is its first array.
    """
    out, c, j, mask = work
    np.clip(pts, x[0], x[-1], out=c)
    np.subtract(c, x[0], out=out)
    out *= (x.size - 1) / (x[-1] - x[0])
    np.copyto(j, out, casting="unsafe")  # truncation: the floor of a value >= 0
    np.minimum(j, x.size - 2, out=j)
    # j is in range from here on, so mode="clip" only skips the bounds check
    np.greater(x.take(j, out=out, mode="clip"), c, out=mask)
    j -= mask
    np.less_equal(x[1:].take(j, out=out, mode="clip"), c, out=mask)
    j += mask
    c -= x.take(j, out=out, mode="clip")
    c *= slopes.take(j, out=out, mode="clip")
    out = vals.take(j, out=out, mode="clip")
    out += c
    return out


def _support_node_indices(points: np.ndarray, grid: SpaceTimeGrid, what: str) -> np.ndarray:
    xs = points[:, 0]
    idx = np.round((xs - grid.x[0]) / grid.dx).astype(int)
    ok = (idx >= 0) & (idx < grid.n_x)
    if not np.all(ok) or np.max(np.abs(grid.x[np.clip(idx, 0, grid.n_x - 1)] - xs)) > 1e-9 * grid.dx:
        raise GridError(f"{what} atoms must sit on spatial grid nodes")
    return idx


def bridge_from_potential(phi: np.ndarray, inst: Instance, n_t: int) -> DriftField:
    """Drift field of the bridge induced by a solved potential, on the grid
    of :func:`bridge_grid_for` with ``n_t`` time nodes and horizon T = epsilon.

    Requires a 1-D instance with cost |x-y|^2/2 between its supports.
    Terminal data is exp(phi) weighted by the target masses (uniform targets
    reduce to exp(phi) alone); the last time node reuses the bandwidth of
    the preceding one, since the terminal data is atomic and grad log g is
    only defined for positive propagation time.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (inst.m,):
        raise GridError(f"phi has shape {phi.shape}, expected ({inst.m},)")
    if inst.mu.dim != 1 or inst.nu.dim != 1:
        raise GridError("bridge construction is one-dimensional")
    quad = cost_matrix(inst.mu, inst.nu, "half_sqeuclidean")
    if np.max(np.abs(inst.cost - quad)) > 1e-12 * max(1.0, float(np.max(quad))):
        raise GridError("cost must be |x - y|^2 / 2 between the instance supports")
    grid = bridge_grid_for(inst, n_t)
    y_idx = _support_node_indices(inst.nu.points, grid, "target")
    _support_node_indices(inst.mu.points, grid, "source")

    # the terminal data is -inf off the target nodes, so propagate from those only
    neg_half_sq = _neg_half_sq(grid.x, grid.x[y_idx])
    log_term = phi + inst.log_b + np.log(inst.m)
    rows = np.empty((grid.n_t, grid.n_x))
    for k, t in enumerate(grid.times):
        s = max(grid.T - float(t), grid.dt)
        rows[k] = _log_heat(neg_half_sq, log_term, s, grid.dx)
    v = np.gradient(rows, grid.dx, axis=1)
    return DriftField(grid=grid, values=v)


def terminal_histogram(positions: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Empirical mass vector over equispaced support atoms (nearest-atom binning)."""
    s = np.asarray(support, dtype=np.float64).reshape(-1)
    step = s[1] - s[0]
    j = np.clip(np.round((positions - s[0]) / step).astype(int), 0, s.size - 1)
    return np.bincount(j, minlength=s.size) / positions.size


def tv_tolerance_terms(particles: int, support: np.ndarray) -> tuple[float, float]:
    """Monte Carlo term 3/sqrt(particles) and discretization term 2 dx of the
    tolerance on the TV distance between a simulated terminal law and the
    static marginal over equispaced ``support``; the tolerance is their sum."""
    return float(3.0 / np.sqrt(particles)), 2.0 * float(support[1] - support[0])


def make_demo_instance(n_points: int = 64, epsilon: float = 1.0) -> Instance:
    """1-D quadratic-cost instance on [-2, 2] for the bridge demo: a Gaussian
    source around -0.5 (width 0.4) and a uniform target on the same grid."""
    mu = make_grid_measure(-2.0, 2.0, n_points, lambda x: np.exp(-0.5 * ((x + 0.5) / 0.4) ** 2))
    nu = make_grid_measure(-2.0, 2.0, n_points, lambda x: 1.0)
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=epsilon)


def bridge_grid_for(inst: Instance, n_t: int) -> SpaceTimeGrid:
    """The bridge's grid: nodes spaced by the least gap between distinct
    target atoms, through the least atom of either support and 6 sqrt(2T)
    past both supports (dropped heat-kernel tails stay below 1e-8), and
    ``n_t`` time nodes on [0, T], T = epsilon.  One target atom is an input error."""
    ys = np.unique(inst.nu.points[:, 0])
    if ys.size < 2:
        raise GridError(f"the bridge needs at least two distinct target atoms, got {ys.size}")
    xs = np.concatenate([inst.mu.points[:, 0], ys])
    spacing = float(np.diff(ys).min())
    support_lo, support_hi = float(xs.min()), float(xs.max())
    k = int(np.ceil(GRID_MARGIN_FACTOR * np.sqrt(2.0 * inst.epsilon) / spacing))
    n_right = int(np.round((support_hi - support_lo) / spacing)) + k
    x = support_lo + spacing * np.arange(-k, n_right + 1)
    return SpaceTimeGrid(x=x, times=np.linspace(0.0, inst.epsilon, n_t))
