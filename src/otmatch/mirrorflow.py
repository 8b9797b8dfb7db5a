"""Accelerated mirror-flow ODE for the coupling-space objective.

The flow couples a running primal average ``pi_hat`` with a dual
accumulator ``g``:

    pi_hat' = (r/t) (rho(g) - pi_hat),      rho(g) = coupling induced by g
    g'      = -(t/r) (pi_hat_Y - b)

for a momentum parameter r >= 2 (the averaged mirror-descent ODE of
Krichene, Bayen and Bartlett, NeurIPS 2015).  Along exact trajectories the
functional

    V(t) = (t^2 / r) * Lk(pi_hat_Y; b) + r * KL(pi_opt || rho(g))

is non-increasing, where Lk is half the squared counting-measure MMD; this
yields Lk <= (r^2/t^2) KL(pi_opt || rho(g_0)).  The second term is the
Bregman divergence of the conjugate potential between the current and
optimal dual pairs, which reduces to that KL (verified in the tests).

``pi_hat`` enters g', V and the rate only through its Y-marginal
``q = pi_hat_Y``, and summing the first equation over rows gives a closed
system in 2m unknowns:

    q' = (r/t) (p(g) - q),      g' = -(t/r) (q - b),

where ``p(g)`` is the Y-marginal of rho(g).  The classical 4th-order scheme
is linear in the state, so integrating (q, g) gives the column sums of the
(pi_hat, g) integration up to rounding.  It runs with a fixed step from a
small positive start time (the r/t coefficient is singular at zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logops import kl
from .measures import Instance
from .semidual import _row_pass, coupling
from .solvers import oracle_solve

__all__ = ["FlowRunResult", "flow_run", "FlowBlowupError"]

FLOW_COLUMNS = ("t", "Lk", "V")


class FlowBlowupError(RuntimeError):
    """The integrator produced a non-finite state."""


def _marginal(g: np.ndarray, inst: Instance) -> np.ndarray:
    """Y-marginal p(g) of the coupling induced by g: the column sums of rho(g)."""
    e, s, _ = _row_pass(g, inst)
    return (inst.a / s) @ e


def _rk4_step(t, q, g, h, inst: Instance, r: float, acc=None):
    """One classical 4-stage step of size h from (t, q, g).

    With ``acc`` it also advances the integral of s^(r-1) p(g(s)) ds with
    the same stages; returns ``(q, g, acc)``.
    """

    def field(t, q, g):
        p = _marginal(g, inst)
        return (r / t) * (p - q), -(t / r) * (q - inst.b), p

    k1q, k1g, p1 = field(t, q, g)
    k2q, k2g, p2 = field(t + h / 2, q + h / 2 * k1q, g + h / 2 * k1g)
    k3q, k3g, p3 = field(t + h / 2, q + h / 2 * k2q, g + h / 2 * k2g)
    k4q, k4g, p4 = field(t + h, q + h * k3q, g + h * k3g)
    q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
    g = g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
    if acc is not None:
        acc = acc + h / 6 * (
            t ** (r - 1) * p1 + 2 * (t + h / 2) ** (r - 1) * (p2 + p3) + (t + h) ** (r - 1) * p4
        )
    return q, g, acc


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
    """Integrate the flow from (q, g) = (p(phi0), phi0) on [t0, t_end].

    Takes full steps of ``dt`` plus a short last one, records every
    ``record_every``-th step plus the final one, and checks rate and
    monotonicity.  With ``check_average`` the run carries the integral of
    t^{r-1} p(g) on the same stages and reports the worst relative
    deviation of q from the running average it implies,
    t^r q(t) = t0^r q(t0) + r * integral.
    """
    if r < 2.0:
        raise ValueError(f"momentum parameter must satisfy r >= 2, got {r}")
    if not (np.isfinite(t0) and np.isfinite(t_end) and 0.0 < t0 < t_end):
        raise ValueError(f"need finite 0 < t0 < t_end, got t0={t0}, t_end={t_end}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    phi0 = np.asarray(phi0, dtype=np.float64)
    if phi_star is None:
        phi_star = oracle_solve(inst)
    lps = coupling(phi_star, inst).log_masses
    log_pi0 = coupling(phi0, inst).log_masses
    d_star_init = kl(lps, log_pi0)
    d_init_star = kl(log_pi0, lps)

    t = float(t0)
    q = q0 = _marginal(phi0, inst)
    g = phi0.copy()
    acc = np.zeros_like(q) if check_average else None
    avg_dev = 0.0 if check_average else None

    n_full = int(np.floor((t_end - t0) / dt + 1e-12))
    last = (t_end - t0) - n_full * dt
    n_steps = n_full + (last > 1e-12 * dt)

    ts, lks, vs = [], [], []

    def record():
        nonlocal avg_dev
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(g))):
            raise FlowBlowupError(f"non-finite state; last good time {ts[-1] if ts else t0}")
        d = q - inst.b
        ts.append(t)
        lks.append(0.5 * float(d @ d))
        vs.append((t**2 / r) * lks[-1] + r * kl(lps, coupling(g, inst).log_masses))
        if check_average:
            implied = (t0**r * q0 + r * acc) / t**r
            dev = np.max(np.abs(implied - q)) / max(np.max(np.abs(q)), 1e-300)
            avg_dev = max(avg_dev, float(dev))

    record()
    for k in range(n_steps):
        h = dt if k < n_full else last
        q, g, acc = _rk4_step(t, q, g, h, inst, r, acc)
        t = t + h
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            record()

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
