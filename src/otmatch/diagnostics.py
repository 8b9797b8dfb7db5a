"""Per-theorem bound checkers, the shared result type and rate fitting.

Every checker of a paper statement, here and in :mod:`otmatch.verify`,
returns a :class:`CheckResult` whose signed ``margin`` has the tolerance
folded in: >= 0 means pass.  Bound checkers compare a recorded trace with
the proven rate at a fixed absolute tolerance of 1e-10.  A checker whose
hypothesis is unmet (e.g. the box radius is smaller than the optimal
potential) reports inconclusive, which never counts as a pass.
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
    "CheckResult",
    "check_thm_ksga_rate",
    "check_thm_proj_rate",
    "check_thm_acc_rate",
    "descent_margin",
    "rate_fit",
    "centered_box_potential",
]

BOUND_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one paper statement; ``passed`` is ``margin >= 0`` and not inconclusive."""

    name: str
    margin: float
    detail: str = ""
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0) and not self.inconclusive

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "inconclusive": bool(self.inconclusive),
            "margin": repr(float(self.margin)),
            "detail": self.detail,
        }


def _bound_result(name: str, observed, bound) -> CheckResult:
    """Margin min(bound + BOUND_TOL - observed), +inf over no points."""
    margin = np.asarray(bound, dtype=np.float64) + BOUND_TOL - np.asarray(observed, dtype=np.float64)
    worst = float(margin.min()) if margin.size else float("inf")
    return CheckResult(name, worst, f"bound checked at {margin.size} iterations")


def descent_margin(values: np.ndarray, tol: float) -> float:
    """``tol`` minus the largest per-step increase of ``values`` (minus a sequence checks ascent)."""
    return tol - float(np.max(np.diff(values))) if len(values) > 1 else np.inf


def check_thm_ksga_rate(
    trace: Trace,
    inst: Instance,
    g: Gram,
    phi0: np.ndarray,
    phi_star: np.ndarray | None = None,
) -> CheckResult:
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
    return _bound_result("ksga_rate", mmd[keep], bound)


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
) -> CheckResult:
    if phi_star is None:
        phi_star = oracle_solve(inst)
    target = centered_box_potential(phi_star, B)
    if target is None:
        return CheckResult(
            theorem, float("nan"), f"optimal potential exceeds the box radius {B}; hypothesis unmet",
            inconclusive=True,
        )
    j_star = semidual_value(target, inst)
    dist_sq = float(np.sum(inst.b * (start - target) ** 2))
    iters = trace.iterations()
    keep = iters >= 1
    gaps = j_star - trace.column("J")[keep]
    bound = bound_fn(iters[keep].astype(np.float64), dist_sq)
    return _bound_result(theorem, gaps, bound)


def check_thm_proj_rate(
    trace: Trace,
    inst: Instance,
    B: float,
    phi0: np.ndarray,
    phi_star: np.ndarray | None = None,
) -> CheckResult:
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
) -> CheckResult:
    """Accelerated rate: gap(N) <= 2 lambda(3B) |phibar0 - target|^2_{L2(b)} / (N+1)^2."""
    lam3 = np.exp(lambda_bound(inst, 3.0 * B))
    return _gap_check(
        "acc_rate", trace, inst, B, np.asarray(phibar0, dtype=np.float64), phi_star,
        lambda n, d2: 2.0 * lam3 * d2 / (n + 1.0) ** 2,
    )


def rate_fit(iters: np.ndarray, values: np.ndarray, window: tuple[int, int]) -> float:
    """Least-squares slope of log(values) against log(iters).

    ``window`` is the inclusive iteration range; values in the window must
    be strictly positive.
    """
    lo, hi = window
    iters = np.asarray(iters)
    vals = np.asarray(values, dtype=np.float64)
    keep = (iters >= lo) & (iters <= hi) & (iters >= 1)
    if keep.sum() < 2:
        raise ValueError(f"window [{lo}, {hi}] selects fewer than two records")
    x = iters[keep].astype(np.float64)
    y = vals[keep]
    if np.any(~(y > 0.0)):
        raise ValueError("rate fitting needs strictly positive metric values in the window")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
