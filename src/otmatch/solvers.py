"""Iterative solvers for the semi-dual problem.

One runner drives the whole family; each method the command line names is
one row of ``METHODS``, which gives its update, step rule and guard:

* marginal-matching updates ``phi <- phi - eta (log T(p) - log T(b))``
  where ``p`` is the current Y-marginal and ``T`` is a link operator
  (identity link at unit step is the classical Sinkhorn map; exponential
  link is plain gradient ascent; kernel link smooths the ascent direction;
  chi-square link rescales it by the target weights), with the correction
  ``log T(p) - log T(b)`` given by :func:`link_correction`,
* steepest ascent in the L1 geometry with an anchored entry (sign_sga),
* projected ascent on a sup-norm box with the relative-smoothness step
  (proj_sga), and its momentum-accelerated variant (proj_sga_pp),
* a high-precision reference potential, a ``sinkhorn`` run certified by a bound (oracle_solve).

:func:`run` is the only code that applies a method's update; one step of a
method from phi is ``run(inst, SolverConfig(method, ..., max_iter=1, tol_l1=0.0), phi).phi``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .kernels import Gram
from .logops import kl
from .measures import Instance, _block_rows, _cost_block, _row_blocks
# plus_transform is not called here; perfbench's tracer self-test wraps it on this module
from .semidual import KL_BLOCK_BYTES, InducedCache, _log_mass, _potential, _rounded_primal, plus_transform

__all__ = [
    "METHODS",
    "SolverConfig",
    "TraceRecord",
    "Trace",
    "RunResult",
    "DivergenceError",
    "OracleError",
    "link_correction",
    "auto_eta_kernel",
    "lambda_bound",
    "default_bound",
    "t_next",
    "run",
    "oracle_solve",
]

TRACE_COLUMNS = ("iter", "J", "l1_residual", "mmd_sq", "kl_y", "elapsed_s")

ORACLE_MAX_ITER = 500_000  # the update budget of the oracle's one run

# J dropping by more than this on a method with an ascent guarantee means a
# genuine bug, not rounding noise
DIVERGENCE_GUARD = 1e-6


class DivergenceError(RuntimeError):
    """An ascent method decreased the objective beyond rounding noise, or an iterate's objective is not finite."""


class OracleError(RuntimeError):
    """The reference solver exhausted its iteration budget or its duality bound is above the gate."""


# ---------------------------------------------------------------------------
# Link operators
# ---------------------------------------------------------------------------

def link_correction(link: str, p, log_p, inst: Instance, gram: Gram | None = None) -> np.ndarray:
    """Correction ``log T(p) - log T(b)``; the matching update moves phi by ``-eta`` times it.

    ``p`` is the Y-marginal an :class:`~otmatch.semidual.InducedCache` call
    gives, and ``log_p`` its log from ``semidual._log_mass``.  Kinds:

    * ``identity``: ``log p - log b`` (Sinkhorn direction), the one kind
      that reads ``log_p``, which the exact column fallback keeps finite,
    * ``exp``: ``p - b`` (semi-dual gradient),
    * ``exp_kernel``: ``K (p - b)`` with K the Gram matrix ``gram`` (kernel-smoothed gradient),
    * ``chi_square``: ``(p - b) / b`` (weight-rescaled gradient, the projected
      methods' step); ``p - b`` is exact where p and b lie within a factor of 2
      (Sterbenz), so no leading digits cancel near convergence as in ``p / b - 1``.

    The last three read ``p``, which may be 0 on an underflowed column, and not ``log_p``.
    """
    if link == "identity":
        return log_p - inst.log_b
    if link == "exp":
        return p - inst.b
    if link == "exp_kernel":
        if gram is None:
            raise ValueError("exp_kernel link needs a Gram matrix")
        return gram.matrix @ (p - inst.b)
    if link == "chi_square":
        return (p - inst.b) / inst.b
    raise ValueError(f"unknown link kind {link!r}")


# ---------------------------------------------------------------------------
# Step-size rules and constants
# ---------------------------------------------------------------------------

def auto_eta_kernel(g: Gram) -> float:
    """Step size min{1/(2 c_k), 1} for the kernel-smoothed update."""
    return min(1.0 / (2.0 * g.c_k), 1.0)


def lambda_bound(inst: Instance, B: float) -> float:
    """Log of the relative-smoothness constant e^{2B} E_{a x b}[e^{C/eps}].

    Requires a nonnegative cost.  Returned in log domain; the full value
    overflows float64 long before the bound stops being meaningful.  Where
    some C/eps itself overflows, the log is +inf and the auto step 0.0.
    """
    if B < 0.0:
        raise ValueError("B must be nonnegative")
    c = _cost_block(inst)  # a named cost's is a new array, and becomes the buffer
    if c.min() < 0.0:
        raise ValueError("the smoothness constant requires a nonnegative cost")
    # a logsumexp of C/eps + log a + log b in one n x m buffer
    with np.errstate(over="ignore"):  # an overflowing C/eps is caught below
        w = np.divide(c, inst.epsilon, out=None if inst.cost_kind is None else c)
    w += inst.log_b
    w += inst.log_a[:, None]
    top = float(w.max())
    if top == math.inf:  # some C/eps overflows float64: the constant is infinite
        return math.inf
    w -= top
    np.exp(w, out=w)
    return 2.0 * float(B) + float(np.log(w.sum()) + top)


def default_bound(inst: Instance) -> float:
    """Sup-norm radius 1.5 * max|c| of the projected methods' box, in cost units.

    Potentials live in C/eps units, so for eps < 1 this box need not contain
    any optimal potential; the box-constrained rate checks then report
    inconclusive.
    """
    blocks = (_cost_block(inst, rows) for rows in _row_blocks(inst.n, inst.m))
    return 1.5 * max(max(float(c.max()), -float(c.min())) for c in blocks)


def t_next(t: float) -> float:
    """Momentum counter recursion (1 + sqrt(1 + 4 t^2)) / 2, for t >= 1."""
    if t < 1.0:
        raise ValueError(f"momentum counter must be >= 1, got {t}")
    return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0


# ---------------------------------------------------------------------------
# Individual update maps
# ---------------------------------------------------------------------------

def _sign_update(phi, d, l1, eta, anchor):
    """Steepest-ascent step in L1 geometry, re-centered at an anchor atom.

    Moves by ``eta * l1`` against ``sign(d)``, where ``d = p - b`` is minus
    the first variation and ``l1 = |d|_1`` the residual, then shifts so the
    anchor entry is unchanged (the objective is shift-invariant; anchoring
    kills the flat direction).  ``sign(0) = 0``, which makes an optimal
    potential a literal fixed point.
    """
    half = phi - eta * l1 * np.sign(d)
    out = half - (half[anchor] - phi[anchor])
    out[anchor] = phi[anchor]  # exact, not up to rounding
    return out


# ---------------------------------------------------------------------------
# Method table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """How :func:`run` iterates one method.

    ``family`` picks the update map: ``match`` (marginal matching through
    the link of kind ``link``), ``sign``, or ``proj`` and ``proj_pp`` (the
    matching step through ``link``, clamped into the box [-B, B]).
    ``auto_eta(gram, inst, B)`` is the step for ``eta="auto"``; an explicit
    step must be finite and lie in (0, eta_max], or (0, eta_max) when
    ``eta_max_open``.  ``guard(eta, auto)`` says whether the step ``eta``
    carries an ascent guarantee, given the method's auto step ``auto``; a
    guarded run that sees the objective fall raises :class:`DivergenceError`.
    """

    family: str
    link: str | None
    auto_eta: Callable[[Gram | None, Instance, float | None], float]
    eta_max: float
    eta_max_open: bool
    guard: Callable[[float, float], bool]


def _proj_eta(inst: Instance, B: float) -> float:
    return float(np.exp(-lambda_bound(inst, B)))


def _unit_step(eta, auto):
    return eta == 1.0  # the classical Sinkhorn map ascends


def _no_guard(eta, auto):
    return False


METHODS: dict[str, Method] = {
    "sinkhorn": Method("match", "identity", lambda g, inst, B: 1.0, 1.0, False, _unit_step),
    "eta_sinkhorn": Method("match", "identity", lambda g, inst, B: 1.0, 1.0, False, _unit_step),
    "sga": Method("match", "exp", lambda g, inst, B: 0.5, 1.0, False, _no_guard),
    "ksga": Method("match", "exp_kernel", lambda g, inst, B: auto_eta_kernel(g), 1.0, False, _no_guard),
    "chi2": Method("match", "chi_square", lambda g, inst, B: 0.5, 1.0, False, _no_guard),
    "sign_sga": Method("sign", None, lambda g, inst, B: 1.0, 2.0, True, lambda eta, auto: True),
    "proj_sga": Method(
        "proj", "chi_square", lambda g, inst, B: _proj_eta(inst, B), np.inf, True,
        lambda eta, auto: eta <= auto * (1.0 + 1e-12),
    ),
    "proj_sga_pp": Method(
        "proj_pp", "chi_square", lambda g, inst, B: _proj_eta(inst, 3.0 * B), np.inf, True, _no_guard,
    ),
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Method selection and stopping policy for :func:`run`.

    ``method`` is a key of :data:`METHODS`.  ``eta="auto"`` resolves to 1
    for the Sinkhorn methods, min{1/(2 c_k), 1} for sga (c_k = 1) and ksga,
    0.5 for chi2, 1 for sign_sga, and 1/lambda(B) resp. 1/lambda(3B) for
    the projected methods.  ``gram`` is the kernel of ksga; given to any
    method, it adds the ``mmd_sq`` trace column.
    """

    method: str
    eta: float | str = "auto"
    max_iter: int = 1000
    tol_l1: float = 1e-9
    anchor_index: int | None = None  # sign_sga; default: heaviest target atom
    bound_B: float | None = None  # projected methods; default 1.5 max|c|
    record_every: int = 1
    gram: Gram | None = None

    def __post_init__(self):
        spec = METHODS.get(self.method)
        if spec is None:
            raise ValueError(f"unknown method {self.method!r}; have {', '.join(METHODS)}")
        if spec.link == "exp_kernel" and self.gram is None:
            raise ValueError(f"{self.method} needs a kernel Gram (--kernel)")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError(f"eta must be a number or 'auto', got {self.eta!r}")
        else:
            eta = float(self.eta)
            if self.method == "sinkhorn" and eta != 1.0:
                raise ValueError("sinkhorn runs at unit step; use eta_sinkhorn for other steps")
            in_range = 0.0 < eta < spec.eta_max or (eta == spec.eta_max and not spec.eta_max_open)
            if not (np.isfinite(eta) and in_range):
                bracket = ")" if spec.eta_max_open else "]"
                raise ValueError(f"{self.method} step size must be finite in (0, {spec.eta_max:g}{bracket}, got {eta}")
        if self.bound_B is not None and not (np.isfinite(self.bound_B) and self.bound_B >= 0.0):
            raise ValueError(f"box radius B must be finite and >= 0, got {self.bound_B}")
        if not (self.max_iter >= 0 and self.record_every >= 1 and 0.0 <= self.tol_l1 < math.inf):
            raise ValueError("max_iter >= 0, record_every >= 1 and a finite tol_l1 >= 0 required")


class TraceRecord(NamedTuple):
    """One recorded iteration of :func:`run`."""

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

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}; have {TRACE_COLUMNS}")
        key = {"iter": "iteration"}.get(name, name)
        vals = [getattr(r, key) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=np.float64)

    def to_csv(self, include_timings: bool = False) -> str:
        """Delimiter-separated trace; empty field for unconfigured diagnostics."""
        lines = [",".join(TRACE_COLUMNS)]
        for it, j_val, resid, mmd, kl_y, elapsed in self.records:
            mmd = "" if mmd is None else repr(mmd)
            elapsed = repr(elapsed) if include_timings else ""
            lines.append(f"{it},{j_val!r},{resid!r},{mmd},{kl_y!r},{elapsed}")
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


@np.errstate(over="ignore")  # an overflowing step shows as the non-finite J the guard reports
def run(inst: Instance, cfg: SolverConfig, phi0: np.ndarray | None = None) -> RunResult:
    """Iterate the configured method until the L1 residual meets tol.

    Records every ``record_every``-th iteration plus the final one.  The
    residual is ``sum_j |b_j - p_j|`` for the current iterate (for the
    accelerated method, the projected point, which is what its guarantee
    speaks about).  Every method but sign_sga takes the matching step through
    its link, clamped into [-B, B] for the projected methods and taken at the
    extrapolated point for the accelerated one.  Methods with a proven ascent
    property abort with :class:`DivergenceError` if the objective drops by
    more than 1e-6, and every method does if it is not finite: only phi0 is
    checked, so that is how a NaN or infinite iterate (an overflowing step's) shows.  An auto step
    that underflows to 0.0 (the projected methods' 1/lambda once log lambda
    passes about 745) stops the run before its first update, at iteration 0.
    All iterates are evaluated by one :class:`~otmatch.semidual.InducedCache`;
    only the identity link forms ``log p``.  A record's ``kl_y`` is taken
    with those of the others in one block of their marginals, at most
    ``KL_BLOCK_BYTES``, and equals ``kl(log p, log b, p)`` of its own p.
    """
    phi = np.zeros(inst.m) if phi0 is None else _potential(phi0, inst.m, "phi0").copy()

    spec = METHODS[cfg.method]
    B = None
    if spec.family in ("proj", "proj_pp"):
        B = default_bound(inst) if cfg.bound_B is None else float(cfg.bound_B)
        if np.any(np.abs(phi) > B):
            raise ValueError("phi0 must lie inside the box [-B, B] for projected methods")
    anchor = None
    if spec.family == "sign":
        anchor = int(np.argmax(inst.b)) if cfg.anchor_index is None else int(cfg.anchor_index)
        if not 0 <= anchor < inst.m:
            raise ValueError(f"anchor index {anchor} out of range [0, {inst.m})")

    # resolved on every run, once: the projected methods' lambda_bound also
    # rejects a negative cost
    auto = spec.auto_eta(cfg.gram, inst, B)
    eta = auto if isinstance(cfg.eta, str) else float(cfg.eta)
    # an auto step that underflowed to 0.0 would leave phi where it is
    max_iter = 0 if eta == 0.0 else cfg.max_iter
    tol, every = cfg.tol_l1, cfg.record_every
    gram = cfg.gram
    # d K d is d d bit for bit where K is exactly the identity: those records take no m x m product
    unit_gram = gram is not None and np.count_nonzero(gram.matrix) == inst.m and np.all(gram.matrix.diagonal() == 1)
    guard = spec.guard(eta, auto)
    a, b, log_b = inst.a, inst.b, inst.log_b
    sign, link = spec.family == "sign", spec.link
    momentum = spec.family == "proj_pp"
    inner, t_mom = phi, 1.0  # the accelerated method's extrapolated point and counter

    # each record's p waits in a row of `block` until the block fills or the run ends, when one
    # log and one row-wise sum give every waiting record its kl_y; ceil(max_iter / every) + 1
    # records at most are left to make
    rows = min(_block_rows(inst.m, KL_BLOCK_BYTES), -(-max_iter // every) + 1)
    block, waiting = np.empty((rows, inst.m)), []

    evaluate = InducedCache(inst)
    trace = Trace()
    start = time.perf_counter()
    prev_j = -np.inf
    converged = False
    it = 0

    while True:
        phi_plus, p = evaluate(phi)
        d = p - b  # read by the residual, mmd_sq and the sign step
        resid = float(np.add.reduce(np.abs(d)))  # the reduction of .sum(), without its Python wrapper
        j_val = float(b @ phi - a @ phi_plus)

        if not math.isfinite(j_val) or (guard and j_val < prev_j - DIVERGENCE_GUARD):
            change = "fell" if math.isfinite(j_val) else "turned non-finite"
            raise DivergenceError(f"{cfg.method}: objective {change} from {prev_j} to {j_val} at iteration {it}")
        prev_j = max(prev_j, j_val)

        converged = resid <= tol
        final = converged or it >= max_iter
        if final or it % every == 0:
            mmd = None
            if gram is not None:
                mmd = 0.5 * float(d @ d if unit_gram else d @ gram.matrix @ d)
            block[len(waiting)] = p
            waiting.append((it, j_val, resid, mmd, time.perf_counter() - start))
            if final or len(waiting) == rows:
                filled = block[: len(waiting)]
                log_p = np.log(filled, out=np.full_like(filled, -np.inf), where=filled > 0.0)
                kl_y = kl(log_p, log_b, filled, axis=-1).tolist()
                trace.records.extend(TraceRecord(i, j, r, mmd, k, e) for (i, j, r, mmd, e), k in zip(waiting, kl_y))
                waiting.clear()
        if final:
            break

        if sign:
            phi = _sign_update(phi, d, resid, eta, anchor)
        else:  # the matching step from x: the accelerated method's extrapolated point, else phi
            x, p_x = (inner, evaluate(inner)[1]) if momentum else (phi, p)
            lp = _log_mass(p, phi, phi_plus, inst) if link == "identity" else None
            step = x - eta * link_correction(link, p_x, lp, inst, gram)
            if B is not None:  # the clamp is the exact L2(b) projection: the box is separable
                step = np.clip(step, -B, B)
            if momentum:  # the trace follows the projected point
                t_new = t_next(t_mom)
                inner = step + ((t_mom - 1.0) / t_new) * (step - phi)
                t_mom = t_new
            phi = step
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

@np.errstate(over="ignore")  # an overflowing C/eps in the rounded plan is +inf: its entry has mass 0
def oracle_solve(inst: Instance, tol: float = 1e-12) -> np.ndarray:
    """High-precision optimal potential: one ``sinkhorn`` run from phi = 0, certified by a bound.

    The run drives the L1 residual below ``tol`` within ``ORACLE_MAX_ITER``
    updates.  The primal value P of the induced coupling rounded onto U(a, b)
    (``semidual._rounded_primal``) bounds J*, so the run's own iterate phi is
    returned when P - J(phi) <= ``10 * tol * max(1, |J(phi)|)``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    # record_every of the whole budget keeps the first and the final record only
    res = run(inst, SolverConfig("sinkhorn", max_iter=ORACLE_MAX_ITER, tol_l1=tol, record_every=ORACLE_MAX_ITER))
    last = res.trace.records[-1]
    if not res.converged:
        raise OracleError(f"no convergence in {ORACLE_MAX_ITER} iterations; residual {last.l1_residual}")
    bound, gate = _rounded_primal(res.phi, inst) - last.J, 10.0 * tol * max(1.0, abs(last.J))
    if not bound <= gate:
        raise OracleError(f"duality bound {bound} above the gate {gate}")
    return res.phi
