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

where ``p(g)`` is the Y-marginal of rho(g).  Runge-Kutta steps are linear
in the stage fields, so integrating (q, g) gives the column sums of the
(pi_hat, g) integration up to rounding.  The run starts at a small positive
time (the r/t coefficient is singular at zero) and takes Dormand-Prince
5(4) steps (J. Comput. Appl. Math. 6, 1980) under the standard error
control of Hairer, Norsett and Wanner, *Solving ODEs I*, section II.4.
p(g) comes from one :class:`~otmatch.semidual.InducedCache`, which the
start's q and each record's g+ read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Instance
from .semidual import InducedCache, _induced_kl, _potential, induced_marginal
from .solvers import oracle_solve

__all__ = ["FlowRunResult", "flow_run", "FlowBlowupError"]

FLOW_COLUMNS = ("t", "Lk", "V")

# A step is accepted when the root mean square of its error estimate, scaled
# per entry by ATOL + RTOL * |state|, is at most 1: far below the checks'
# 1e-8 slack.  A flow that needs a step below MIN_STEP * dt is stiff or
# non-finite, and stops.
RTOL = 1e-12
ATOL = 1e-14
MIN_STEP = 1e-6


class FlowBlowupError(RuntimeError):
    """The flow's state turned non-finite, its step fell below ``MIN_STEP * dt``, or it turned stiff."""


# Dormand-Prince 5(4): nodes, stage weights (row i weighs the fields of
# stages 0..i-1; the last row is the 5th-order solution, so the last stage's
# field is the next step's first) and the weights of the error estimate,
# the 5th- minus the embedded 4th-order solution.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# step-size factors: safety, and the bounds on one change
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 10.0
# DOPRI5's stiffness test (Hairer and Wanner, *Solving ODEs II*, section IV.2):
# 15 accepted steps with h*lambda beyond the stability boundary 3.25 stop the
# flow; 6 steps within it reset the count
_STIFF_HLAMBDA, _STIFF_STEPS, _CALM_STEPS = 3.25, 15, 6


def _dp_step(t, y, f0, h, field):
    """One Dormand-Prince step of size ``h`` from ``(t, y)``, where ``f0 = field(t, y)``:
    the new state, its field (the next step's ``f0``), the error estimate and
    the stiffness estimate ``h*lambda = h |k7 - k6| / |y_new - y6|`` from the
    6th stage, which shares the new state's time."""
    k = np.empty((7, y.size))
    k[0] = f0
    y_new = y
    for i, (c, a) in enumerate(zip(_C, _A), start=1):
        y6, y_new = y_new, y + h * (a @ k[:i])
        k[i] = field(t + c * h, y_new)
    den = np.linalg.norm(y_new - y6)
    return y_new, k[6], h * (_E @ k), h * np.linalg.norm(k[6] - k[5]) / den if den > 0.0 else 0.0


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


# an overflowing C/eps is +inf, an entry of mass 0; an overflowing state fails the error test or record()
@np.errstate(over="ignore")
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

    ``dt`` is the first trial step.  Records fall at ``t0 + k * (record_every
    * dt)`` below ``t_end`` and at ``t_end``; the run checks rate and
    monotonicity on them.  Raises :class:`FlowBlowupError` when a record's
    state is non-finite, a step would have to fall below ``MIN_STEP * dt``
    or the flow turns stiff.
    """
    if not (np.isfinite(r) and r >= 2.0):
        raise ValueError(f"momentum parameter must be finite with r >= 2, got {r}")
    if not (np.isfinite(t0) and np.isfinite(t_end) and 0.0 < t0 < t_end):
        raise ValueError(f"need finite 0 < t0 < t_end, got t0={t0}, t_end={t_end}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    span = record_every * dt
    # the last record is t_end; a grid time within rounding of it is dropped.
    # In Python floats an overflowing count is inf without a numpy warning
    n_grid = float(t_end - t0) / float(span) - 1e-12
    if n_grid == math.inf:
        raise ValueError(f"record grid too fine to count: (t_end - t0) / (record_every * dt) = {n_grid}")
    n_records = max(1, math.ceil(n_grid))
    phi0 = _potential(phi0, inst.m, "phi0")
    if phi_star is None:
        phi_star = oracle_solve(inst)
    star_plus, q_star = induced_marginal(phi_star, inst)

    cache = InducedCache(inst)
    t = float(t0)
    g_plus, q = cache(phi0)
    y = np.concatenate((q, phi0))
    # the rate bound must hold with either order of the KL, so the smaller one binds
    d_init = min(
        _induced_kl(inst, phi_star, star_plus, q_star, phi0, g_plus),
        _induced_kl(inst, phi0, g_plus, q, phi_star, star_plus),
    )

    ts, lks, vs = [], [], []

    def record():
        if not np.all(np.isfinite(y)):
            raise FlowBlowupError(f"non-finite state; last good time {ts[-1] if ts else t0}")
        q, g = y[: inst.m], y[inst.m :]
        d = q - inst.b
        ts.append(t)
        lks.append(0.5 * float(d @ d))
        kl_g = _induced_kl(inst, phi_star, star_plus, q_star, g, cache(g)[0])
        vs.append((t**2 / r) * lks[-1] + r * kl_g)

    def field(s, state):  # (q', g') at time s, end to end
        q, g = state[: inst.m], state[inst.m :]
        return np.concatenate(((r / s) * (cache(g)[1] - q), (s / r) * (inst.b - q)))

    record()
    h, h_min = float(dt), MIN_STEP * dt
    stiff = calm = 0
    # a state that overflows, or turns NaN, fails the error test or record(), and both stop the run
    with np.errstate(invalid="ignore"):
        f = field(t, y)
        for k in range(1, n_records + 1):
            t_rec = t0 + k * span if k < n_records else t_end
            while t < t_rec:
                land = t + 1.01 * h >= t_rec  # no sliver of a step before the record
                step = t_rec - t if land else h
                y_new, f_new, est, h_lambda = _dp_step(t, y, f, step, field)
                scale = ATOL + RTOL * np.maximum(abs(y), abs(y_new))
                err = float(np.sqrt(np.mean((est / scale) ** 2)))
                # a NaN or infinite estimate fails the test and shrinks the step most
                fac = _SAFETY * max(err, 1e-10) ** -0.2 if err < math.inf else 0.0
                h = step * min(_FAC_MAX, max(_FAC_MIN, fac))
                if err <= 1.0:
                    t = t_rec if land else t + step
                    y, f = y_new, f_new
                    if h_lambda > _STIFF_HLAMBDA:
                        stiff, calm = stiff + 1, 0
                        if stiff == _STIFF_STEPS:
                            raise FlowBlowupError(
                                f"the flow is stiff at t={t!r}: h*lambda > {_STIFF_HLAMBDA} on {stiff} steps"
                            )
                    else:
                        calm += 1
                        if calm == _CALM_STEPS:
                            stiff = 0
                elif h < h_min:
                    raise FlowBlowupError(
                        f"step size fell below {h_min!r} at t={t!r}; the flow is stiff or its state is not finite"
                    )
            record()

    ts, lks, vs = np.array(ts), np.array(lks), np.array(vs)
    return FlowRunResult(
        ts=ts,
        lks=lks,
        vs=vs,
        v_increase_max=float(np.max(np.diff(vs))),
        rate_violation_max=float(np.max(lks - (r**2 / ts**2) * d_init)),
    )
