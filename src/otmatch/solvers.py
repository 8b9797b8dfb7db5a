"""Iterative solvers for the semi-dual problem.

One runner drives the whole family:

* marginal-matching updates ``phi <- phi - eta (log T(p) - log T(b))``
  where ``p`` is the current Y-marginal and ``T`` is a link operator
  (identity link at unit step is the classical Sinkhorn map; exponential
  link is plain gradient ascent; kernel link smooths the ascent direction;
  chi-square link rescales it by the target weights),
* steepest ascent in the L1 geometry with an anchored entry (sign_sga),
* projected ascent on a sup-norm box with the relative-smoothness step
  (proj_sga), and its momentum-accelerated variant (proj_sga_pp),
* a high-precision fixed-point reference solver (oracle_solve).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import Gram
from .logops import logsumexp
from .measures import Instance
from .semidual import InducedCache, _log_coupling, induced_marginal

__all__ = [
    "Link",
    "SolverConfig",
    "TraceRecord",
    "Trace",
    "RunResult",
    "DivergenceError",
    "OracleError",
    "log_link",
    "match_step",
    "sign_sga_step",
    "proj_sga_step",
    "auto_eta_kernel",
    "lambda_bound",
    "default_bound",
    "t_next",
    "run",
    "oracle_solve",
]

TRACE_COLUMNS = ("iter", "J", "l1_residual", "mmd_sq", "kl_y", "elapsed_s")

# J dropping by more than this on a method with an ascent guarantee means a
# genuine bug, not rounding noise
DIVERGENCE_GUARD = 1e-6


class DivergenceError(RuntimeError):
    """An ascent method decreased the objective beyond rounding noise."""


class OracleError(RuntimeError):
    """The reference solver exhausted its iteration budget."""


# ---------------------------------------------------------------------------
# Link operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """Operator applied to marginals inside the matching update.

    ``log_link`` of the current marginal minus ``log_link`` of the target
    is the correction subtracted from the potential.  Kinds:

    * ``identity``: correction ``log p - log b`` (Sinkhorn direction),
    * ``exp``: correction ``p - b`` (semi-dual gradient),
    * ``exp_kernel``: correction ``K(p - b)`` (kernel-smoothed gradient),
    * ``chi_square``: correction ``p/b - 1`` (weight-rescaled gradient).
    """

    kind: str
    gram: Gram | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "exp", "exp_kernel", "chi_square"):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.kind == "exp_kernel" and self.gram is None:
            raise ValueError("exp_kernel link needs a Gram matrix")
        if self.kind != "exp_kernel" and self.gram is not None:
            raise ValueError(f"{self.kind} link takes no Gram matrix")

    @classmethod
    def identity(cls) -> "Link":
        return cls(kind="identity")

    @classmethod
    def exp(cls) -> "Link":
        return cls(kind="exp")

    @classmethod
    def exp_kernel(cls, gram: Gram) -> "Link":
        return cls(kind="exp_kernel", gram=gram)

    @classmethod
    def chi_square(cls) -> "Link":
        return cls(kind="chi_square")


def log_link(link: Link, log_xi: np.ndarray, log_nu: np.ndarray) -> np.ndarray:
    """Log of the link operator applied to a mass vector given by its logs.

    ``log_nu`` holds the target's log weights, by which the chi-square link
    rescales.  Identity and chi-square need ``log_xi`` finite (a strictly
    positive mass); log marginals of induced couplings always are, even
    where the mass itself underflows to 0.
    """
    log_xi = np.asarray(log_xi, dtype=np.float64)
    if link.kind in ("identity", "chi_square") and np.any(log_xi == -np.inf):
        raise ValueError(f"{link.kind.replace('_', '-')} link needs a strictly positive mass vector")
    if link.kind == "identity":
        return log_xi.copy()
    if link.kind == "exp":
        return np.exp(log_xi)
    if link.kind == "exp_kernel":
        return link.gram.matrix @ np.exp(log_xi)
    # chi_square
    return np.exp(log_xi - log_nu) - 1.0


def match_step(phi: np.ndarray, inst: Instance, link: Link, eta: float) -> np.ndarray:
    """One marginal-matching update with step size ``eta`` in (0, 1]."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"matching step size must lie in (0, 1], got {eta}")
    _, log_p = induced_marginal(phi, inst)
    return _match_update(phi, log_p, inst, link, eta)


def _match_update(phi, log_p, inst, link, eta):
    return phi - eta * (log_link(link, log_p, inst.log_b) - log_link(link, inst.log_b, inst.log_b))


# ---------------------------------------------------------------------------
# Step-size rules and constants
# ---------------------------------------------------------------------------

def auto_eta_kernel(g: Gram) -> float:
    """Step size min{1/(2 c_k), 1} for the kernel-smoothed update."""
    return min(1.0 / (2.0 * g.c_k), 1.0)


def lambda_bound(inst: Instance, B: float) -> float:
    """Log of the relative-smoothness constant e^{2B} E_{a x b}[e^{C/eps}].

    Requires a nonnegative cost.  Returned in log domain; the full value
    overflows float64 long before the bound stops being meaningful.
    """
    if B < 0.0:
        raise ValueError("B must be nonnegative")
    if np.any(inst.cost < 0.0):
        raise ValueError("the smoothness constant requires a nonnegative cost")
    expo = inst.log_a[:, None] + inst.log_b[None, :] + inst.cost_over_eps
    return 2.0 * float(B) + float(logsumexp(expo.reshape(-1)))


def default_bound(inst: Instance) -> float:
    """Sup-norm radius 1.5 * max|c| that is guaranteed to contain an optimal potential."""
    return 1.5 * float(np.max(np.abs(inst.cost)))


def t_next(t: float) -> float:
    """Momentum counter recursion (1 + sqrt(1 + 4 t^2)) / 2, for t >= 1."""
    if t < 1.0:
        raise ValueError(f"momentum counter must be >= 1, got {t}")
    return (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0


# ---------------------------------------------------------------------------
# Individual update maps
# ---------------------------------------------------------------------------

def sign_sga_step(phi: np.ndarray, inst: Instance, eta: float, anchor: int) -> np.ndarray:
    """Steepest-ascent step in L1 geometry, re-centered at an anchor atom.

    Moves by ``eta * |delta|_1`` along ``sign(delta)`` where ``delta`` is
    the first variation, then shifts so the anchor entry is unchanged
    (the objective is shift-invariant; anchoring kills the flat direction).
    ``sign(0) = 0``, which makes an optimal potential a literal fixed point.
    """
    if not 0.0 < eta < 2.0:
        raise ValueError(f"sign step size must lie in (0, 2), got {eta}")
    if not 0 <= anchor < inst.m:
        raise ValueError(f"anchor index {anchor} out of range [0, {inst.m})")
    delta = inst.b - np.exp(induced_marginal(phi, inst)[1])
    return _sign_update(phi, delta, eta, anchor)


def _sign_update(phi, delta, eta, anchor):
    half = phi + eta * np.abs(delta).sum() * np.sign(delta)
    out = half - (half[anchor] - phi[anchor])
    out[anchor] = phi[anchor]  # exact, not up to rounding
    return out


def proj_sga_step(phi: np.ndarray, inst: Instance, B: float, eta: float) -> np.ndarray:
    """Weight-rescaled ascent step clamped into the box [-B, B].

    The candidate is ``phi + eta (b - p)/b``; clamping is the exact
    L2(nu)-projection onto the box because the constraint is separable.
    """
    if eta <= 0.0:
        raise ValueError(f"projected step size must be positive, got {eta}")
    if np.any(np.abs(phi) > B):
        raise ValueError("phi must start inside the box [-B, B]")
    p = np.exp(induced_marginal(phi, inst)[1])
    return _proj_update(phi, p, inst, B, eta)


def _proj_update(phi, p, inst, B, eta):
    cand = phi + eta * (inst.b - p) / inst.b
    return np.clip(cand, -B, B)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Method selection and stopping policy for :func:`run`.

    ``eta="auto"`` resolves to 1 for the identity link, min{1/(2 c_k), 1}
    for exponential/kernel links, 0.5 for the chi-square link, 1 for
    sign_sga, and 1/lambda(B) resp. 1/lambda(3B) for the projected methods.
    """

    method: str  # "match" | "sign_sga" | "proj_sga" | "proj_sga_pp"
    link: Link | None = None
    eta: float | str = "auto"
    max_iter: int = 1000
    tol_l1: float = 1e-9
    anchor_index: int | None = None  # sign_sga; default: heaviest target atom
    bound_B: float | None = None  # projected methods; default 1.5 max|c|
    record_every: int = 1
    diag_gram: Gram | None = None  # extra Gram for mmd_sq trace column

    def __post_init__(self):
        if self.method not in ("match", "sign_sga", "proj_sga", "proj_sga_pp"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "match" and self.link is None:
            raise ValueError("matching method needs a link operator")
        if self.method != "match" and self.link is not None:
            raise ValueError(f"{self.method} takes no link operator")
        if isinstance(self.eta, str) and self.eta != "auto":
            raise ValueError(f"eta must be a number or 'auto', got {self.eta!r}")
        if self.max_iter < 0 or self.record_every < 1 or self.tol_l1 < 0:
            raise ValueError("max_iter >= 0, record_every >= 1, tol_l1 >= 0 required")

    @classmethod
    def sinkhorn(cls, **kw) -> "SolverConfig":
        return cls(method="match", link=Link.identity(), eta=kw.pop("eta", 1.0), **kw)

    @classmethod
    def sga(cls, **kw) -> "SolverConfig":
        return cls(method="match", link=Link.exp(), **kw)

    @classmethod
    def ksga(cls, gram: Gram, **kw) -> "SolverConfig":
        return cls(method="match", link=Link.exp_kernel(gram), **kw)

    @classmethod
    def chi2(cls, **kw) -> "SolverConfig":
        return cls(method="match", link=Link.chi_square(), **kw)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    J: float
    l1_residual: float
    mmd_sq: float | None
    kl_y: float
    elapsed_s: float


@dataclass
class Trace:
    """Per-iteration diagnostics recorded by :func:`run`."""

    records: list[TraceRecord] = field(default_factory=list)

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.records], dtype=np.int64)

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}; have {TRACE_COLUMNS}")
        key = {"iter": "iteration"}.get(name, name)
        vals = [getattr(r, key) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=np.float64)

    def to_csv(self, include_timings: bool = False) -> str:
        """Delimiter-separated trace; empty field for unconfigured diagnostics."""
        lines = [",".join(TRACE_COLUMNS)]
        for r in self.records:
            mmd = "" if r.mmd_sq is None else repr(r.mmd_sq)
            elapsed = repr(r.elapsed_s) if include_timings else ""
            lines.append(f"{r.iteration},{r.J!r},{r.l1_residual!r},{mmd},{r.kl_y!r},{elapsed}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunResult:
    """Final iterate plus the recorded trace and resolved parameters."""

    phi: np.ndarray
    trace: Trace
    converged: bool
    iterations: int
    eta: float
    bound_B: float | None = None
    anchor_index: int | None = None


def _resolve_eta(cfg: SolverConfig, inst: Instance, B: float | None) -> float:
    if not isinstance(cfg.eta, str):
        eta = float(cfg.eta)
        if cfg.method == "match" and not 0.0 < eta <= 1.0:
            raise ValueError(f"matching step size must lie in (0, 1], got {eta}")
        if cfg.method == "sign_sga" and not 0.0 < eta < 2.0:
            raise ValueError(f"sign step size must lie in (0, 2), got {eta}")
        if eta <= 0.0:
            raise ValueError(f"step size must be positive, got {eta}")
        return eta
    if cfg.method == "match":
        return {
            "identity": lambda: 1.0,
            "exp": lambda: 0.5,
            "exp_kernel": lambda: auto_eta_kernel(cfg.link.gram),
            "chi_square": lambda: 0.5,
        }[cfg.link.kind]()
    if cfg.method == "sign_sga":
        return 1.0
    if cfg.method == "proj_sga":
        return float(np.exp(-lambda_bound(inst, B)))
    return float(np.exp(-lambda_bound(inst, 3.0 * B)))  # proj_sga_pp


def _has_ascent_guarantee(cfg: SolverConfig, inst: Instance, eta: float, B: float | None) -> bool:
    if cfg.method == "sign_sga":
        return True  # eta in (0, 2) already enforced
    if cfg.method == "proj_sga":
        return eta <= np.exp(-lambda_bound(inst, B)) * (1.0 + 1e-12)
    return cfg.method == "match" and cfg.link.kind == "identity" and eta == 1.0


def run(inst: Instance, cfg: SolverConfig, phi0: np.ndarray | None = None) -> RunResult:
    """Iterate the configured method until the L1 residual meets tol.

    Records every ``record_every``-th iteration plus the final one.  The
    residual is ``sum_j |b_j - p_j|`` for the current iterate (for the
    accelerated method, the projected point, which is what its guarantee
    speaks about).  Methods with a proven ascent property abort with
    :class:`DivergenceError` if the objective drops by more than 1e-6.
    An auto step that underflows to 0.0 (the projected methods' 1/lambda
    once log lambda passes about 745) stops the run before its first
    update, unconverged at iteration 0.  All iterates are evaluated by one
    :class:`~otmatch.semidual.InducedCache`.
    """
    phi = np.zeros(inst.m) if phi0 is None else np.asarray(phi0, dtype=np.float64).copy()
    if phi.shape != (inst.m,):
        raise ValueError(f"phi0 has shape {phi.shape}, expected ({inst.m},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi0 must be finite")

    B = None
    if cfg.method in ("proj_sga", "proj_sga_pp"):
        if np.any(inst.cost < 0.0):
            raise ValueError("projected methods require a nonnegative cost")
        B = default_bound(inst) if cfg.bound_B is None else float(cfg.bound_B)
        if np.any(np.abs(phi) > B):
            raise ValueError("phi0 must lie inside the box [-B, B] for projected methods")
    anchor = None
    if cfg.method == "sign_sga":
        anchor = int(np.argmax(inst.b)) if cfg.anchor_index is None else int(cfg.anchor_index)
        if not 0 <= anchor < inst.m:
            raise ValueError(f"anchor index {anchor} out of range [0, {inst.m})")

    eta = _resolve_eta(cfg, inst, B)
    # an auto step that underflowed to 0.0 would leave phi where it is
    max_iter = 0 if eta == 0.0 else cfg.max_iter
    gram = cfg.diag_gram
    if gram is None and cfg.method == "match" and cfg.link.kind == "exp_kernel":
        gram = cfg.link.gram
    guard = _has_ascent_guarantee(cfg, inst, eta, B)

    # accelerated method state
    if cfg.method == "proj_sga_pp":
        bar_prev = phi.copy()  # projected iterate sequence starts at phi0
        inner = phi.copy()  # extrapolated point the gradient is taken at
        t_mom = 1.0

    evaluate = InducedCache(inst)
    trace = Trace()
    start = time.perf_counter()
    prev_j = -np.inf
    converged = False
    it = 0

    while True:
        phi_plus, lp = evaluate(phi)
        p = np.exp(lp)
        resid = float(np.abs(inst.b - p).sum())
        j_val = float(inst.b @ phi - inst.a @ phi_plus)

        if guard and j_val < prev_j - DIVERGENCE_GUARD:
            raise DivergenceError(
                f"{cfg.method}: objective fell from {prev_j} to {j_val} at iteration {it}"
            )
        prev_j = max(prev_j, j_val)

        converged = resid <= cfg.tol_l1
        final = converged or it >= max_iter
        if final or it % cfg.record_every == 0:
            mmd = None
            if gram is not None:
                d = p - inst.b
                mmd = 0.5 * float(d @ gram.matrix @ d)
            kl_y = float(np.sum(p * (lp - inst.log_b)))
            trace.records.append(
                TraceRecord(it, j_val, resid, mmd, kl_y, time.perf_counter() - start)
            )
        if final:
            break

        if cfg.method == "match":
            phi = _match_update(phi, lp, inst, cfg.link, eta)
        elif cfg.method == "sign_sga":
            phi = _sign_update(phi, inst.b - p, eta, anchor)
        elif cfg.method == "proj_sga":
            phi = _proj_update(phi, p, inst, B, eta)
        else:  # proj_sga_pp: gradient at the extrapolated point, trace the projected one
            p_inner = np.exp(evaluate(inner)[1])
            bar = _proj_update(inner, p_inner, inst, B, eta)
            t_new = t_next(t_mom)
            inner = bar + ((t_mom - 1.0) / t_new) * (bar - bar_prev)
            bar_prev = bar
            t_mom = t_new
            phi = bar
        it += 1

    return RunResult(
        phi=phi,
        trace=trace,
        converged=converged,
        iterations=it,
        eta=eta,
        bound_B=B,
        anchor_index=anchor,
    )


# ---------------------------------------------------------------------------
# Reference solver
# ---------------------------------------------------------------------------

def oracle_solve(
    inst: Instance,
    tol: float = 1e-12,
    max_iter: int = 500_000,
) -> np.ndarray:
    """High-precision optimal potential via identity-link fixed-point iteration.

    Drives the L1 residual below ``tol`` and additionally requires the
    duality gap (semi-dual value against the primal transport-plus-entropy
    value of the induced coupling) to be at most ``10 * tol``, tightening
    the residual target if needed.  The result is normalized so its first
    entry is zero.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    phi = np.zeros(inst.m)
    target = tol
    evaluate = InducedCache(inst)
    for _ in range(max_iter):
        phi_plus, lp = evaluate(phi)
        resid = float(np.abs(inst.b - np.exp(lp)).sum())
        if resid <= target:
            gap = _duality_gap(phi, phi_plus, inst)
            if gap <= 10.0 * tol:
                return phi - phi[0]
            if target < 1e-17:
                raise OracleError(
                    f"duality gap {gap} stuck above {10 * tol} at residual {resid}"
                )
            target /= 4.0
        phi = phi + inst.log_b - lp
    raise OracleError(f"no convergence in {max_iter} iterations; residual {resid}")


def _duality_gap(phi: np.ndarray, phi_plus: np.ndarray, inst: Instance) -> float:
    lpi = _log_coupling(phi, phi_plus, inst)
    pi = np.exp(lpi)
    primal = float(np.sum(pi * inst.cost_over_eps) + np.sum(pi * (lpi - inst.log_a[:, None] - inst.log_b[None, :])))
    dual = float(inst.b @ phi - inst.a @ phi_plus)
    return abs(dual - primal)
