"""Accelerated mirror-flow ODE for the coupling-space objective.

The system couples a running primal average ``pi_hat`` with a dual
accumulator ``g``:

    pi_hat' = (r/t) (rho(g) - pi_hat),      rho(g) = coupling induced by g
    g'      = -(t/r) (pi_hat_Y - b)

for a momentum parameter r >= 2, integrated with a fixed-step classical
4th-order scheme from a small positive start time (the r/t coefficient is
singular at zero).  Along exact trajectories the functional

    V(t) = (t^2 / r) * Lk(pi_hat_Y; b) + r * KL(pi_opt || rho(g))

is non-increasing, where Lk is half the squared counting-measure MMD; this
yields Lk <= (r^2/t^2) KL(pi_opt || rho(g_0)).  The second term is the
Bregman divergence of the conjugate potential between the current and
optimal dual pairs, which reduces to that KL (verified in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import kl_couplings
from .measures import Instance
from .semidual import _row_pass, coupling
from .solvers import oracle_solve

__all__ = [
    "FlowState",
    "FlowRunResult",
    "flow_init",
    "flow_step",
    "lyapunov",
    "flow_run",
    "FlowBlowupError",
]

FLOW_COLUMNS = ("t", "Lk", "V")


class FlowBlowupError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass(frozen=True)
class FlowState:
    """Flow variables at time t: averaged primal matrix, dual accumulator,
    and the frozen X-side of the initial dual pair (it cancels in the
    row-normalized mirror map, but it is part of the state contract)."""

    t: float
    pi_hat: np.ndarray  # (n, m) masses
    g: np.ndarray  # (m,)
    f0: np.ndarray  # (n,)


def _rho_masses(g: np.ndarray, inst: Instance) -> np.ndarray:
    """Masses of the coupling induced by g (mirror image of 0 (+) g)."""
    e, s, _ = _row_pass(g, inst)
    e *= (inst.a / s)[:, None]
    return e


def flow_init(phi0: np.ndarray, inst: Instance, t0: float) -> FlowState:
    """Initial state: dual accumulator phi0, primal average at its coupling."""
    if not t0 > 0.0:
        raise ValueError("start time must be positive; the r/t coefficient is singular at 0")
    phi0 = np.asarray(phi0, dtype=np.float64)
    return FlowState(
        t=float(t0),
        pi_hat=coupling(phi0, inst).masses,
        g=phi0.copy(),
        f0=np.zeros(inst.n),
    )


def _rhs(t: float, pi_hat: np.ndarray, g: np.ndarray, inst: Instance, r: float):
    rho = _rho_masses(g, inst)
    dpi = (r / t) * (rho - pi_hat)
    dg = -(t / r) * (pi_hat.sum(axis=0) - inst.b)
    return dpi, dg, rho


def flow_step(state: FlowState, inst: Instance, r: float, dt: float) -> FlowState:
    """One classical 4-stage explicit step of size dt."""
    if r < 2.0:
        raise ValueError(f"momentum parameter must satisfy r >= 2, got {r}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t, ph, g = state.t, state.pi_hat, state.g
    k1p, k1g, _ = _rhs(t, ph, g, inst, r)
    k2p, k2g, _ = _rhs(t + dt / 2, ph + dt / 2 * k1p, g + dt / 2 * k1g, inst, r)
    k3p, k3g, _ = _rhs(t + dt / 2, ph + dt / 2 * k2p, g + dt / 2 * k2g, inst, r)
    k4p, k4g, _ = _rhs(t + dt, ph + dt * k3p, g + dt * k3g, inst, r)
    return FlowState(
        t=t + dt,
        pi_hat=ph + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p),
        g=g + dt / 6 * (k1g + 2 * k2g + 2 * k3g + k4g),
        f0=state.f0,
    )


def _lk(pi_hat: np.ndarray, inst: Instance) -> float:
    d = pi_hat.sum(axis=0) - inst.b
    return 0.5 * float(d @ d)


def lyapunov(state: FlowState, inst: Instance, r: float, phi_star: np.ndarray) -> float:
    """V = (t^2/r) Lk(pi_hat_Y; b) + r KL(pi_opt || coupling(g))."""
    lps = coupling(np.asarray(phi_star, dtype=np.float64), inst).log_masses
    lg = coupling(state.g, inst).log_masses
    return (state.t**2 / r) * _lk(state.pi_hat, inst) + r * kl_couplings(lps, lg)


@dataclass
class FlowRunResult:
    """Recorded flow trace plus worst-case deviations from the proven facts."""

    ts: np.ndarray
    lks: np.ndarray
    vs: np.ndarray
    kl_star_vs_init: float  # KL(pi_opt || pi_0): constant in the proven bound
    kl_init_vs_star: float  # KL(pi_0 || pi_opt): the swapped reading
    v_increase_max: float  # max of V(t_{k+1}) - V(t_k); <= 0 means monotone
    rate_violation_max: float  # max of Lk - (r^2/t^2) kl_star_vs_init
    rate_violation_swapped_max: float  # same against kl_init_vs_star
    average_identity_dev_max: float | None = None

    def to_csv(self) -> str:
        lines = [",".join(FLOW_COLUMNS)]
        for t, lk, v in zip(self.ts, self.lks, self.vs):
            lines.append(f"{float(t)!r},{float(lk)!r},{float(v)!r}")
        return "\n".join(lines) + "\n"


def flow_run(
    inst: Instance,
    phi0: np.ndarray,
    r: float,
    t_end: float,
    t0: float = 0.01,
    dt: float = 1e-3,
    record_every: int = 50,
    phi_star: np.ndarray | None = None,
    check_average: bool = False,
) -> FlowRunResult:
    """Integrate the flow on [t0, t_end] and check rate and monotonicity.

    Records every ``record_every``-th step plus the final one.  With
    ``check_average`` the run carries an auxiliary integral of
    t^{r-1} rho(g) using the same stages and reports the worst relative
    deviation of pi_hat from the implied weighted running average.
    """
    if r < 2.0:
        raise ValueError(f"momentum parameter must satisfy r >= 2, got {r}")
    if not 0.0 < t0 < t_end:
        raise ValueError("need 0 < t0 < t_end")
    phi0 = np.asarray(phi0, dtype=np.float64)
    if phi_star is None:
        phi_star = oracle_solve(inst)
    lps = coupling(phi_star, inst).log_masses
    log_pi0 = coupling(phi0, inst).log_masses
    d_star_init = kl_couplings(lps, log_pi0)
    d_init_star = kl_couplings(log_pi0, lps)

    t = float(t0)
    ph = np.exp(log_pi0)
    g = phi0.copy()
    acc = np.zeros_like(ph) if check_average else None
    pi0_weight = t0**r  # t^r pi_hat(t) = t0^r pi_hat(t0) + r * integral
    avg_dev = 0.0 if check_average else None

    n_full = int(np.floor((t_end - t0) / dt + 1e-12))
    last = (t_end - t0) - n_full * dt
    steps = [dt] * n_full + ([last] if last > 1e-12 * dt else [])

    ts, lks, vs = [], [], []

    def record(t, ph, g, acc):
        nonlocal avg_dev
        if not (np.all(np.isfinite(ph)) and np.all(np.isfinite(g))):
            raise FlowBlowupError(f"non-finite state; last good time {ts[-1] if ts else t0}")
        lg = coupling(g, inst).log_masses
        ts.append(t)
        lks.append(_lk(ph, inst))
        vs.append((t**2 / r) * lks[-1] + r * kl_couplings(lps, lg))
        if check_average:
            implied = (pi0_weight * np.exp(log_pi0) + r * acc) / t**r
            dev = np.max(np.abs(implied - ph)) / max(np.max(np.abs(ph)), 1e-300)
            avg_dev = max(avg_dev, float(dev))

    record(t, ph, g, acc)
    for k, h in enumerate(steps):
        k1p, k1g, rho1 = _rhs(t, ph, g, inst, r)
        k2p, k2g, rho2 = _rhs(t + h / 2, ph + h / 2 * k1p, g + h / 2 * k1g, inst, r)
        k3p, k3g, rho3 = _rhs(t + h / 2, ph + h / 2 * k2p, g + h / 2 * k2g, inst, r)
        k4p, k4g, rho4 = _rhs(t + h, ph + h * k3p, g + h * k3g, inst, r)
        ph = ph + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        g = g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
        if check_average:
            acc = acc + h / 6 * (
                t ** (r - 1) * rho1
                + 2 * (t + h / 2) ** (r - 1) * rho2
                + 2 * (t + h / 2) ** (r - 1) * rho3
                + (t + h) ** (r - 1) * rho4
            )
        t = t + h
        if (k + 1) % record_every == 0 or k == len(steps) - 1:
            record(t, ph, g, acc)

    ts_a = np.array(ts)
    lks_a = np.array(lks)
    vs_a = np.array(vs)
    v_inc = float(np.max(np.diff(vs_a))) if len(vs_a) > 1 else 0.0
    viol = float(np.max(lks_a - (r**2 / ts_a**2) * d_star_init))
    viol_sw = float(np.max(lks_a - (r**2 / ts_a**2) * d_init_star))
    return FlowRunResult(
        ts=ts_a,
        lks=lks_a,
        vs=vs_a,
        kl_star_vs_init=d_star_init,
        kl_init_vs_star=d_init_star,
        v_increase_max=v_inc,
        rate_violation_max=viol,
        rate_violation_swapped_max=viol_sw,
        average_identity_dev_max=avg_dev,
    )
