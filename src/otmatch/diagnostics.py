"""Per-theorem bound checkers and empirical rate fitting.

Bound checkers compare a recorded trace against the matching proven rate,
with a fixed absolute tolerance of 1e-10 to absorb rounding.  A checker
whose hypothesis is unmet (e.g. the box radius is smaller than the optimal
potential) reports inconclusive rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Gram
from .logops import kl
from .measures import Instance
from .semidual import coupling, semidual_value
from .solvers import Trace, lambda_bound, oracle_solve

__all__ = [
    "BoundReport",
    "check_thm_ksga_rate",
    "check_thm_proj_rate",
    "check_thm_acc_rate",
    "rate_fit",
    "centered_box_potential",
]

BOUND_TOL = 1e-10


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one theorem check over a trace."""

    theorem: str
    iterations: np.ndarray
    observed: np.ndarray
    bound: np.ndarray
    worst_slack: float  # min over iterations of bound - observed (+tol already applied in passed)
    passed: bool
    inconclusive: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
            "worst_slack": repr(float(self.worst_slack)),
            "checked_points": int(len(self.iterations)),
            "note": self.note,
        }


def _report(theorem: str, iters, observed, bound, note="") -> BoundReport:
    iters = np.asarray(iters)
    observed = np.asarray(observed, dtype=np.float64)
    bound = np.asarray(bound, dtype=np.float64)
    slack = bound - observed
    worst = float(slack.min()) if slack.size else float("inf")
    return BoundReport(
        theorem=theorem,
        iterations=iters,
        observed=observed,
        bound=bound,
        worst_slack=worst,
        passed=bool(np.all(observed <= bound + BOUND_TOL)),
        note=note,
    )


def check_thm_ksga_rate(
    trace: Trace,
    inst: Instance,
    g: Gram,
    phi0: np.ndarray,
    phi_star: np.ndarray | None = None,
) -> BoundReport:
    """Kernel-ascent rate: mmd_sq at iteration N is at most max{2 c_k, 1}/N times
    the KL divergence of the optimal coupling from the initial one."""
    if phi_star is None:
        phi_star = oracle_solve(inst)
    mmd = trace.column("mmd_sq")
    if np.any(np.isnan(mmd)):
        raise ValueError("trace has no mmd_sq column; configure a Gram when running")
    iters = trace.iterations()
    keep = iters >= 1
    d0 = kl(coupling(phi_star, inst).log_masses, coupling(phi0, inst).log_masses)
    bound = max(2.0 * g.c_k, 1.0) / iters[keep] * d0
    return _report("ksga_rate", iters[keep], mmd[keep], bound)


def centered_box_potential(phi_star: np.ndarray, B: float) -> np.ndarray | None:
    """Shift of an optimal potential with smallest sup norm, clamped into [-B, B].

    Returns None when even the best shift exceeds the box, in which case a
    box-constrained check is inconclusive.
    """
    centered = phi_star - (phi_star.max() + phi_star.min()) / 2.0
    if np.max(np.abs(centered)) > B:
        return None
    return np.clip(centered, -B, B)


def _gap_check(
    theorem: str,
    trace: Trace,
    inst: Instance,
    B: float,
    start: np.ndarray,
    phi_star: np.ndarray | None,
    bound_fn,
) -> BoundReport:
    if phi_star is None:
        phi_star = oracle_solve(inst)
    target = centered_box_potential(phi_star, B)
    if target is None:
        return BoundReport(
            theorem=theorem,
            iterations=np.array([], dtype=np.int64),
            observed=np.array([]),
            bound=np.array([]),
            worst_slack=float("nan"),
            passed=False,
            inconclusive=True,
            note=f"optimal potential exceeds the box radius {B}; hypothesis unmet",
        )
    j_star = semidual_value(target, inst)
    dist_sq = float(np.sum(inst.b * (start - target) ** 2))
    iters = trace.iterations()
    keep = iters >= 1
    gaps = j_star - trace.column("J")[keep]
    bound = bound_fn(iters[keep].astype(np.float64), dist_sq)
    return _report(theorem, iters[keep], gaps, bound)


def check_thm_proj_rate(
    trace: Trace,
    inst: Instance,
    B: float,
    phi0: np.ndarray,
    phi_star: np.ndarray | None = None,
) -> BoundReport:
    """Projected-ascent rate: gap(N) <= lambda(B) |phi0 - target|^2_{L2(b)} / (2N)."""
    lam = np.exp(lambda_bound(inst, B))
    return _gap_check(
        "proj_rate", trace, inst, B, np.asarray(phi0, dtype=np.float64), phi_star,
        lambda n, d2: lam * d2 / (2.0 * n),
    )


def check_thm_acc_rate(
    trace: Trace,
    inst: Instance,
    B: float,
    phibar0: np.ndarray,
    phi_star: np.ndarray | None = None,
) -> BoundReport:
    """Accelerated rate: gap(N) <= 2 lambda(3B) |phibar0 - target|^2_{L2(b)} / (N+1)^2."""
    lam3 = np.exp(lambda_bound(inst, 3.0 * B))
    return _gap_check(
        "acc_rate", trace, inst, B, np.asarray(phibar0, dtype=np.float64), phi_star,
        lambda n, d2: 2.0 * lam3 * d2 / (n + 1.0) ** 2,
    )


def rate_fit(trace: Trace, column: str, window: tuple[int, int]) -> float:
    """Least-squares slope of log(metric) against log(iteration).

    ``window`` is the inclusive iteration range; metric values in the
    window must be strictly positive.
    """
    lo, hi = window
    iters = trace.iterations()
    vals = trace.column(column)
    keep = (iters >= lo) & (iters <= hi) & (iters >= 1)
    if keep.sum() < 2:
        raise ValueError(f"window [{lo}, {hi}] selects fewer than two records")
    x = iters[keep].astype(np.float64)
    y = vals[keep]
    if np.any(~(y > 0.0)):
        raise ValueError("rate fitting needs strictly positive metric values in the window")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
