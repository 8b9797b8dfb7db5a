"""Dynamic bridge realization of a solved 1-D transport problem.

A potential solved on a 1-D instance with quadratic cost |x-y|^2/2 and
regularization epsilon induces a diffusion bridge on the horizon
T = epsilon: propagate the terminal data, exp(phi) weighted by the target
masses, backward through the heat semigroup of the unit-diffusion reference
process dX = dB, take the drift grad log g_t, and simulate dX = v dt + dB
forward from the first marginal.  Its terminal law is the Y-marginal of
the induced static coupling, since the reference transition
exp(-(x-y)^2 / (2(T-t))) at full horizon is the Gibbs factor exp(-c/eps).

The terminal data is atomic, so g_t is a Gaussian mixture over the target
atoms and the drift has a closed form, tabulated on a uniform grid set by
epsilon and the number of time nodes, not by the atoms.  The simulation
interpolates it by grid index, with the values ``np.interp`` gives, and
bins each particle to its nearest target atom.  Inputs are checked where
they enter, in :func:`bridge_from_potential` and :func:`simulate_em`; the
grid and the drift they build need no second check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, Instance, cost_matrix, make_grid_measure
from .semidual import _potential

__all__ = [
    "DriftField",
    "SimulationResult",
    "simulate_em",
    "bridge_from_potential",
    "terminal_histogram",
    "tv_tolerance_terms",
    "make_demo_instance",
    "GridError",
]

# the grid reaches this many widths sqrt(2 eps) past both supports, where the
# drift points back inward, so a particle reaches the clamp with probability < 1e-15
GRID_MARGIN_FACTOR = 6.0
CLAMP_REPORT_FRACTION = 0.01


class GridError(ValueError):
    """Raised when the bridge's instance or time grid is unusable: not 1-D,
    a cost other than |x-y|^2/2, coincident target atoms or fewer than two
    time nodes."""


@dataclass(frozen=True)
class DriftField:
    """The drift of :func:`bridge_from_potential`: ``values[k]`` on the
    equispaced nodes ``x`` at the uniform time ``times[k]`` of [0, T]."""

    x: np.ndarray
    times: np.ndarray
    values: np.ndarray  # (times.size, x.size)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def to_csv(self) -> str:
        lines = [
            f"# n_t={self.times.size} n_x={self.x.size} T={self.T!r} dt={self.dt!r} dx={self.dx!r} "
            f"x0={float(self.x[0])!r}",
            ",".join(["t"] + [repr(float(xx)) for xx in self.x]),
        ]
        for t, row in zip(self.times, self.values):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimulationResult:
    positions: np.ndarray
    clamp_fraction: float
    clamp_excessive: bool  # more than 1% of particle-steps clamped


def simulate_em(drift: DriftField, mu: DiscreteMeasure, n_particles: int, seed: int) -> SimulationResult:
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
    rng = np.random.default_rng(seed)
    idx = rng.choice(mu.n_atoms, size=n_particles, p=mu.weights)
    x_pos = mu.points[:, 0][idx].astype(np.float64)
    x, lo, hi = drift.x, drift.x[0], drift.x[-1]
    dt = drift.dt
    sqdt = np.sqrt(dt)
    slopes = _slopes(x, drift.values)
    work = (np.empty(n_particles), np.empty(n_particles), np.empty(n_particles, np.intp),
            np.empty(n_particles, bool))
    noise = np.empty(n_particles)
    low = np.empty(n_particles, bool)
    high = np.empty(n_particles, bool)
    n_clamped = 0
    for k in range(drift.times.size - 1):
        # x + v dt + sqrt(dt) z, in place and in that order
        step = _interp_uniform(x_pos, x, drift.values[k], slopes[k], work)
        step *= dt
        x_pos += step
        rng.standard_normal(out=noise)
        noise *= sqdt
        x_pos += noise
        np.less(x_pos, lo - drift.dx, out=low)
        np.greater(x_pos, hi + drift.dx, out=high)
        n_clamped += int(np.count_nonzero(low) + np.count_nonzero(high))
        x_pos[low] = lo
        x_pos[high] = hi
    frac = n_clamped / (n_particles * (drift.times.size - 1))
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


def bridge_from_potential(phi: np.ndarray, inst: Instance, n_t: int) -> DriftField:
    """Drift field of the bridge induced by a solved potential, on the grid
    of :func:`bridge_grid_for` with ``n_t`` time nodes and horizon T = epsilon.

    Requires a finite potential of shape (m,), a 1-D instance with cost
    |x-y|^2/2 between its supports and distinct target atoms (no binning
    can split coincident atoms' mass); then the drift is finite.
    g_t is a Gaussian mixture over the target atoms, so its log-gradient is
    v = (sum_j w_j y_j - x)/s with w = softmax_j(phi_j + log b_j -
    (x - y_j)^2/(2s)) and s = max(T - t, dt): the last time node reuses the
    preceding bandwidth, since the drift needs positive remaining time.
    """
    phi = _potential(phi, inst.m, "phi")
    if inst.mu.dim != 1 or inst.nu.dim != 1:
        raise GridError("bridge construction is one-dimensional")
    quad = cost_matrix(inst.mu, inst.nu, "half_sqeuclidean")
    if np.max(np.abs(inst.cost - quad)) > 1e-12 * max(1.0, float(np.max(quad))):
        raise GridError("cost must be |x - y|^2 / 2 between the instance supports")
    y = inst.nu.points[:, 0]
    if np.unique(y).size < y.size:
        raise GridError("the bridge needs distinct target atoms: no binning can split the mass of coincident ones")
    x, times = bridge_grid_for(inst, n_t)
    field = DriftField(x=x, times=times, values=np.empty((times.size, x.size)))
    neg_half_sq = -0.5 * (x[:, None] - y[None, :]) ** 2
    log_weight = phi + inst.log_b
    for t, v in zip(times, field.values):
        s = max(field.T - float(t), field.dt)
        w = neg_half_sq / s + log_weight
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        v[:] = (w @ y / w.sum(axis=1) - x) / s
    return field


def terminal_histogram(positions: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Empirical mass vector over the distinct atoms of ``support``, in any
    order: each position counts for its nearest atom, found by
    ``np.searchsorted`` on the midpoints of the sorted atoms, so no
    positions x atoms array is built."""
    s = np.asarray(support, dtype=np.float64).reshape(-1)
    order = np.argsort(s)
    j = np.searchsorted(0.5 * (s[order][:-1] + s[order][1:]), positions)
    hist = np.empty(s.size)
    hist[order] = np.bincount(j, minlength=s.size) / positions.size
    return hist


def tv_tolerance_terms(particles: int, n_t: int) -> tuple[float, float]:
    """Monte Carlo term 3/sqrt(particles) and discretization term
    1/sqrt(n_t - 1) = sqrt(dt/eps) of the TV tolerance between a simulated
    terminal law and the static marginal; the tolerance is their sum.  Near
    t = T the drift is (y - x)/dt, so the chain resolves the atoms to one
    step's diffusive length sqrt(dt), here measured against the horizon's
    sqrt(eps); like TV, the term is unchanged when the instance is rescaled.
    Fewer than one particle or two time nodes is an input error, and so is
    a tolerance of 1 or more, which no TV can exceed."""
    if particles < 1:
        raise ValueError(f"need at least one particle, got {particles}")
    mc_term, disc_term = float(3.0 / np.sqrt(particles)), float(1.0 / np.sqrt(_steps(n_t)))
    if mc_term + disc_term >= 1.0:
        raise ValueError(f"the TV tolerance {mc_term + disc_term:.4g} of {particles} particles and "
                         f"{n_t} time nodes is at least 1, so the bridge check could never fail")
    return mc_term, disc_term


def make_demo_instance(n_points: int = 64, epsilon: float = 1.0) -> Instance:
    """1-D quadratic-cost instance on [-2, 2] for the bridge demo: a Gaussian
    source around -0.5 (width 0.4) and a uniform target on the same grid."""
    mu = make_grid_measure(-2.0, 2.0, n_points, lambda x: np.exp(-0.5 * ((x + 0.5) / 0.4) ** 2))
    nu = make_grid_measure(-2.0, 2.0, n_points, lambda x: 1.0)
    return Instance(mu=mu, nu=nu, cost="half_sqeuclidean", epsilon=epsilon)


def _steps(n_t: int) -> int:
    """The number of Euler-Maruyama steps between ``n_t`` >= 2 time nodes."""
    if n_t < 2:
        raise GridError(f"the bridge needs at least two time nodes, got {n_t}")
    return n_t - 1


def bridge_grid_for(inst: Instance, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """The bridge's grid ``(x, times)``: ``n_t`` time nodes on [0, T],
    T = epsilon, and spatial nodes spaced by one Euler-Maruyama step's
    diffusive length dx = sqrt(eps / (n_t - 1)), symmetric about the
    supports' midpoint and reaching 6 sqrt(2 eps) past both; atoms need not
    sit on nodes.  Supports of width W get about (W + 12 sqrt(2 eps))
    sqrt(n_t - 1) / sqrt(eps) nodes: 211 at eps 1 and 4,171 at eps 1e-4 on
    [-2, 2] with n_t = 101."""
    dx = np.sqrt(inst.epsilon / _steps(n_t))
    xs = np.concatenate([inst.mu.points[:, 0], inst.nu.points[:, 0]])
    lo, hi = float(xs.min()), float(xs.max())
    k = int(np.ceil((0.5 * (hi - lo) + GRID_MARGIN_FACTOR * np.sqrt(2.0 * inst.epsilon)) / dx))
    x = 0.5 * (lo + hi) + dx * np.arange(-k, k + 1)
    return x, np.linspace(0.0, inst.epsilon, n_t)
