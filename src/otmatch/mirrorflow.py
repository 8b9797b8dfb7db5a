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

from .measures import Instance
from .semidual import InducedCache, _induced_kl, induced_marginal, plus_transform
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
    the new q and the new g ((k, 2, 7)).  Once the stage marginals are fixed
    the field is linear, so the textbook stages applied to basis rows are
    exact.
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
    return g2, g3, g4, np.stack([q_new, g_new], axis=1)


def _rk4_steps(t, q, g, hs, r, b, marginal):
    """Classical 4-stage steps of sizes ``hs`` from (t, q, g); returns ``(t, q, g)``.

    ``marginal(g)`` evaluates p(g).  Times advance by repeated addition of
    the steps.
    """
    hs = np.asarray(hs, dtype=np.float64)
    ts = np.add.accumulate(np.concatenate(([t], hs)))
    g2, g3, g4, new = _stage_coefficients(ts[:-1], hs, r)
    # zeros, not empty: the first stage's dot product reads the unwritten
    # rows p2..p4 with coefficient 0, and 0 * NaN would poison the step
    rows = np.zeros((7, q.size))
    rows[0], rows[1], rows[2] = q, g, b
    for c2, c3, c4, c_new in zip(g2, g3, g4, new):
        rows[3] = marginal(rows[1])
        rows[4] = marginal(c2.dot(rows))
        rows[5] = marginal(c3.dot(rows))
        rows[6] = marginal(c4.dot(rows))
        rows[:2] = c_new.dot(rows)
    return float(ts[-1]), rows[0].copy(), rows[1].copy()


@dataclass
class FlowRunResult:
    """Recorded flow trace plus worst-case deviations from the proven facts."""

    ts: np.ndarray
    lks: np.ndarray
    vs: np.ndarray
    v_increase_max: float  # max of V(t_{k+1}) - V(t_k); <= 0 means monotone
    rate_violation_max: float  # max of Lk - (r^2/t^2) KL, over both orders of KL(pi_opt, pi_0)

    @property
    def slack(self) -> float:
        """Rounding allowance 1e-8 (1 + V(t0)) on the V increase and the rate violations."""
        return float(1e-8 * (1.0 + self.vs[0]))

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
) -> FlowRunResult:
    """Integrate the flow from (q, g) = (p(phi0), phi0) on [t0, t_end].

    Takes full steps of ``dt`` plus a short last one, records every
    ``record_every``-th step plus the final one, and checks rate and
    monotonicity.
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
    star_plus, log_q_star = induced_marginal(phi_star, inst)
    q_star = np.exp(log_q_star)

    cache = InducedCache(inst)
    t = float(t0)
    q = cache.marginal(phi0)
    g = phi0.copy()
    g_plus = plus_transform(g, inst)
    # the rate bound must hold with either order of the KL, so the smaller one binds
    d_init = min(
        _induced_kl(inst, phi_star, star_plus, q_star, g, g_plus),
        _induced_kl(inst, g, g_plus, q, phi_star, star_plus),
    )

    n_full = int(np.floor((t_end - t0) / dt + 1e-12))
    last = (t_end - t0) - n_full * dt
    n_steps = n_full + (last > 1e-12 * dt)

    ts, lks, vs = [], [], []

    def record():
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(g))):
            raise FlowBlowupError(f"non-finite state; last good time {ts[-1] if ts else t0}")
        d = q - inst.b
        ts.append(t)
        lks.append(0.5 * float(d @ d))
        kl_g = _induced_kl(inst, phi_star, star_plus, q_star, g, plus_transform(g, inst))
        vs.append((t**2 / r) * lks[-1] + r * kl_g)

    record()
    # a state that overflows is caught by record(), which raises FlowBlowupError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, record_every):
            hs = np.full(min(record_every, n_steps - start), dt)
            if start + hs.size > n_full:
                hs[-1] = last
            t, q, g = _rk4_steps(t, q, g, hs, r, inst.b, cache.marginal)
            record()

    ts_a = np.array(ts)
    lks_a = np.array(lks)
    vs_a = np.array(vs)
    v_inc = float(np.max(np.diff(vs_a))) if len(vs_a) > 1 else 0.0
    viol = float(np.max(lks_a - (r**2 / ts_a**2) * d_init))
    return FlowRunResult(
        ts=ts_a,
        lks=lks_a,
        vs=vs_a,
        v_increase_max=v_inc,
        rate_violation_max=viol,
    )
