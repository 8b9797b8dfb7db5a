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

The only nonlinearity is p(g), so every stage's g and the new (q, g) of a
step are fixed scalar combinations of the rows (q, g, b, p1, p2, p3, p4),
where p_i is the marginal at stage i.  The run computes these stage
coefficients for a block of steps at once and then takes each step as
three stage combinations, four evaluations of p and one combination for
the new state.  p(g) comes from one :class:`~otmatch.semidual.InducedCache`:
``v * ((a / (E @ v)) @ E)`` with ``v = exp(g - g_ref)`` on the Gibbs
matrix ``E`` of a reference potential, re-absorbed once g moves farther
than ``ABSORB_AT`` from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logops import kl
from .measures import Instance
from .semidual import InducedCache, coupling, plus_transform
from .solvers import oracle_solve

__all__ = ["FlowRunResult", "flow_run", "FlowBlowupError"]

FLOW_COLUMNS = ("t", "Lk", "V")


class FlowBlowupError(RuntimeError):
    """The integrator produced a non-finite state."""


# Basis rows of the stage form: the state (q, g), the target b and the
# marginals p1..p4 of the four stages.
_Q, _G, _B, _P1, _P2, _P3, _P4 = np.eye(7)


def _stage_coefficients(t, h, r):
    """Classical RK4 tableau over the basis rows, for steps from times ``t`` of sizes ``h``.

    Returns the rows of the stage potentials g2, g3, g4 (each (k, 7)) and of
    the new q, the new g and the step's increment of the integral of
    s^(r-1) p(g(s)) ds ((k, 3, 7)).  Once the stage marginals are fixed the
    field is linear, so the textbook stages applied to basis rows are exact.
    """
    t, h = t[:, None], h[:, None]

    def field(s, q, p):
        return (r / s) * (p - q), -(s / r) * (q - _B)

    k1q, k1g = field(t, _Q, _P1)
    k2q, k2g = field(t + h / 2, _Q + h / 2 * k1q, _P2)
    g2 = _G + h / 2 * k1g
    k3q, k3g = field(t + h / 2, _Q + h / 2 * k2q, _P3)
    g3 = _G + h / 2 * k2g
    k4q, k4g = field(t + h, _Q + h * k3q, _P4)
    g4 = _G + h * k3g
    q_new = _Q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
    g_new = _G + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
    acc = h / 6 * (
        t ** (r - 1) * _P1 + 2 * (t + h / 2) ** (r - 1) * (_P2 + _P3) + (t + h) ** (r - 1) * _P4
    )
    return g2, g3, g4, np.stack([q_new, g_new, acc], axis=1)


def _rk4_steps(t, q, g, hs, r, b, marginal, acc=None):
    """Classical 4-stage steps of sizes ``hs`` from (t, q, g); returns ``(t, q, g, acc)``.

    ``marginal(g)`` evaluates p(g).  Times advance by repeated addition of
    the steps.  With ``acc`` it also advances the integral of
    s^(r-1) p(g(s)) ds with the same stages.
    """
    hs = np.asarray(hs, dtype=np.float64)
    ts = np.add.accumulate(np.concatenate(([t], hs)))
    g2, g3, g4, new = _stage_coefficients(ts[:-1], hs, r)
    new = new[:, : 2 if acc is None else 3]
    rows = np.empty((7, q.size))
    rows[0], rows[1], rows[2] = q, g, b
    for c2, c3, c4, c_new in zip(g2, g3, g4, new):
        rows[3] = marginal(rows[1])
        rows[4] = marginal(c2.dot(rows))
        rows[5] = marginal(c3.dot(rows))
        rows[6] = marginal(c4.dot(rows))
        out = c_new.dot(rows)
        rows[:2] = out[:2]
        if acc is not None:
            acc = acc + out[2]
    return float(ts[-1]), rows[0].copy(), rows[1].copy(), acc


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
    if not (np.isfinite(r) and r >= 2.0):
        raise ValueError(f"momentum parameter must be finite with r >= 2, got {r}")
    if not (np.isfinite(t0) and np.isfinite(t_end) and 0.0 < t0 < t_end):
        raise ValueError(f"need finite 0 < t0 < t_end, got t0={t0}, t_end={t_end}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    phi0 = np.asarray(phi0, dtype=np.float64)
    if phi_star is None:
        phi_star = oracle_solve(inst)
    pi_star = coupling(phi_star, inst)
    lps = pi_star.log_masses
    log_pi0 = coupling(phi0, inst).log_masses
    d_star_init = kl(lps, log_pi0)
    d_init_star = kl(log_pi0, lps)
    # log(pi_star / rho(g))_ij = (phi_star_j - g_j) - (phi_star_plus_i - g_plus_i),
    # and pi_star has marginals a and q_star, so
    # KL(pi_star || rho(g)) = kl_const - <q_star, g> + <a, g_plus>
    q_star = pi_star.marginal_y()
    kl_const = float(q_star @ phi_star - inst.a @ plus_transform(phi_star, inst))

    cache = InducedCache(inst)
    t = float(t0)
    q = q0 = cache.marginal(phi0)
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
        kl_g = kl_const - float(q_star @ g) + float(inst.a @ cache.transform(g))
        vs.append((t**2 / r) * lks[-1] + r * kl_g)
        if check_average:
            implied = (t0**r * q0 + r * acc) / t**r
            dev = np.max(np.abs(implied - q)) / max(np.max(np.abs(q)), 1e-300)
            avg_dev = max(avg_dev, float(dev))

    record()
    # a state that overflows is caught by record(), which raises FlowBlowupError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, record_every):
            hs = np.full(min(record_every, n_steps - start), dt)
            if start + hs.size > n_full:
                hs[-1] = last
            t, q, g, acc = _rk4_steps(t, q, g, hs, r, inst.b, cache.marginal, acc)
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
