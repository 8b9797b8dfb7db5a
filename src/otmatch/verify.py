"""The one checker of each paper statement, and the seeded ``verify`` suite.

Every ``check_*`` function checks one proven statement of the solver theory
on the instances, sizes and iteration counts it is given, and returns a
:class:`CheckResult`: a signed ``margin`` with the statement's tolerance
folded in, so ``margin >= 0`` means pass.  The ``check_thm_*`` functions
compare a recorded trace with a proven rate at the absolute tolerance
``_BOUND_TOL``.  The acceptance criteria call these checkers at their own
sizes; the ``verify`` suite calls each one on instances regenerated from
the seed (``_CHECKS``).  Partial results combine through NaN-propagating
``np.maximum`` and ``np.minimum``, so a NaN anywhere gives a NaN margin,
which fails.  An inconclusive result (a hypothesis of the statement unmet,
e.g. no optimal potential fits the box) fails the suite.
Reports contain no wall-clock data, so a fixed seed reproduces them byte
for byte.

The checks at a glance: concavity and the two lower Bregman bounds of the
semi-dual, the finite-difference gradient test, the exact variance
representation of the Bregman gap, the four-way equivalence of the dual
update with its projection/root/mirror forms, kernel smoothness bounds,
the kernel-ascent rate, the sign-ascent mechanism, both projected-method
rates, the mirror-flow Lyapunov decay, the bridge terminal-marginal match,
the momentum-counter recursion and conformance with classical Sinkhorn.
The update equivalences, the sign ascent and the Sinkhorn conformance are
checked on the iterates and trace of :func:`~otmatch.solvers.run`, the one
code that applies a method's update, so they guard ``otmatch solve``'s loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bridge as bridge_mod
from .kernels import Gram, KernelSpec, gram
from .logops import kl, logsumexp
from .measures import DiscreteMeasure, Instance
from .mirrorflow import flow_run
from .primal import (
    mirror_bwd,
    mirror_fwd,
    project_x,
    project_y,
    root_step,
    separability_residual,
    v_link,
)
from .semidual import _induced_kl, _row_pass, coupling, first_variation, induced_marginal, log_reference
from .semidual import marginal_y, plus_transform, semidual_value
from .solvers import (
    METHODS,
    DivergenceError,
    SolverConfig,
    Trace,
    lambda_bound,
    oracle_solve,
    run,
    t_next,
)

__all__ = [
    "CheckResult",
    "check_thm_ksga_rate",
    "check_thm_proj_rate",
    "check_thm_acc_rate",
    "random_instance",
    "classic_log_sinkhorn",
    "variance_identity_residual",
    "all_property_names",
    "run_suite",
]

_BOUND_TOL = 1e-10


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


def random_instance(rng: np.random.Generator, n: int, m: int, epsilon: float) -> Instance:
    """Instance with uniform points in [0, 1]^2, Dirichlet(1) weights and the half_sqeuclidean cost."""
    mu = DiscreteMeasure(points=rng.uniform(0.0, 1.0, (n, 2)), weights=rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(points=rng.uniform(0.0, 1.0, (m, 2)), weights=rng.dirichlet(np.ones(m)))
    return Instance(mu=mu, nu=nu, cost="half_sqeuclidean", epsilon=epsilon)


def classic_log_sinkhorn(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, epsilon: float, n_iter: int
) -> list[np.ndarray]:
    """Textbook log-domain alternating dual updates, in epsilon-scaled form.

    Kept deliberately independent of the semi-dual machinery (scaled
    potentials f, g; explicit epsilon division) to serve as a conformance
    reference.  Returns the g potential divided by epsilon after each full
    sweep, which is directly comparable to a matching-update iterate.
    """
    log_a = np.log(a)
    log_b = np.log(b)
    g = np.zeros_like(b)
    out = []
    for _ in range(n_iter):
        arg_f = (g[None, :] - cost) / epsilon + log_b[None, :]
        f = -epsilon * logsumexp(arg_f, axis=1)
        arg_g = (f[:, None] - cost) / epsilon + log_a[:, None]
        g = -epsilon * logsumexp(arg_g, axis=0)
        out.append(g / epsilon)
    return out


def variance_identity_residual(phi: np.ndarray, phi_bar: np.ndarray, inst: Instance) -> float:
    """Relative residual of the Bregman gap against its variance form.

    The gap J(phi_bar) - J(phi) - <dJ(phi), phi_bar - phi> equals minus the
    integral over t in [0, 1] of (1 - t) times the mean (over the first
    marginal) conditional variance of (phi_bar - phi) under the row
    distributions induced by the interpolated potential.  Evaluated with
    64-node Gauss-Legendre quadrature; the integrand is analytic in t.
    """
    phi = np.asarray(phi, dtype=np.float64)
    phi_bar = np.asarray(phi_bar, dtype=np.float64)
    gap = _bregman_gap(phi, phi_bar, inst)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    ts = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    diff = phi_bar - phi
    total = 0.0
    for t, w in zip(ts, ws):
        interp = phi + t * diff
        e, s, _ = _row_pass(interp, inst)
        rows = e / s[:, None]
        mean = rows @ diff
        var = rows @ (diff * diff) - mean * mean
        total += w * (1.0 - t) * float(inst.a @ var)
    return abs(gap + total) / max(abs(gap), 1e-300)


# ---------------------------------------------------------------------------
# Checkers, one per paper statement
# ---------------------------------------------------------------------------

def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _bregman_gap(phi, phi_bar, inst) -> float:
    """J(phi_bar) - J(phi) - <b - p, phi_bar - phi>, reading J(phi) and p from one pass at phi."""
    phi_plus, p = induced_marginal(phi, inst)
    j_phi = float(inst.b @ phi - inst.a @ phi_plus)
    return semidual_value(phi_bar, inst) - j_phi - float((inst.b - p) @ (phi_bar - phi))


def _pairs(seed: int, salt: int, count: int, n: int, m: int, eps_range: tuple[float, float], sd: float):
    """``count`` seeded draws of ``(inst, phi, phi_bar)``: an n x m instance at
    epsilon uniform in ``eps_range``, phi ~ N(0, sd^2) and phi_bar = phi + N(0, sd^2)."""
    rng = _rng(seed, salt)
    for _ in range(count):
        inst = random_instance(rng, n, m, float(rng.uniform(*eps_range)))
        phi = rng.normal(0.0, sd, inst.m)
        yield inst, phi, phi + rng.normal(0.0, sd, inst.m)


def check_concavity(seed: int, pairs: int = 300) -> CheckResult:
    """J is concave: its Bregman gap is <= 0 on random pairs of 4x6 instances."""
    worst = -np.inf
    for inst, phi, phi_bar in _pairs(seed, 1, pairs, 4, 6, (0.2, 2.0), 1.0):
        worst = np.maximum(worst, _bregman_gap(phi, phi_bar, inst))
    return CheckResult("concavity", 1e-10 - worst, f"max Bregman gap {worst:.3e} over {pairs} pairs")


def check_linf_lower(seed: int, pairs: int = 300) -> CheckResult:
    """The Bregman gap of J is >= -|phi_bar - phi|_inf^2 / 2 on random pairs."""
    worst = -np.inf
    for inst, phi, phi_bar in _pairs(seed, 2, pairs, 4, 6, (0.2, 2.0), 1.0):
        gap = _bregman_gap(phi, phi_bar, inst)
        lower = -0.5 * float(np.max(np.abs(phi_bar - phi))) ** 2
        worst = np.maximum(worst, lower - gap)
    return CheckResult("linf_lower", 1e-10 - worst, f"max (lower bound - gap) {worst:.3e} over {pairs} pairs")


def check_weighted_lower(seed: int, pairs: int = 300) -> CheckResult:
    """The Bregman gap of J is >= -lambda(B) |phi_bar - phi|^2_{L2(b)} / 2 inside the box [-B, B]."""
    worst = -np.inf
    for inst, phi, phi_bar in _pairs(seed, 3, pairs, 4, 6, (0.3, 2.0), 0.7):
        B = float(max(np.max(np.abs(phi)), np.max(np.abs(phi_bar))))
        lam = np.exp(lambda_bound(inst, B))
        gap = _bregman_gap(phi, phi_bar, inst)
        lower = -0.5 * lam * float(inst.b @ (phi_bar - phi) ** 2)
        worst = np.maximum(worst, lower - gap)
    return CheckResult("weighted_lower", 1e-10 - worst, f"max (lower bound - gap) {worst:.3e} over {pairs} pairs")


def check_gradient_fd(seed: int, cases: int = 12) -> CheckResult:
    """The first variation b - p matches central differences of J (relative error)."""
    rng = _rng(seed, 4)
    h = 1e-5
    worst = 0.0
    for _ in range(cases):
        inst = random_instance(rng, 5, 7, float(rng.uniform(0.3, 1.5)))
        phi = rng.normal(0.0, 0.8, inst.m)
        chi = rng.normal(0.0, 1.0, inst.m)
        chi -= chi.mean()
        exact = float(first_variation(phi, inst) @ chi)
        fd = (semidual_value(phi + h * chi, inst) - semidual_value(phi - h * chi, inst)) / (2 * h)
        worst = np.maximum(worst, abs(exact - fd) / max(abs(exact), 1e-300))
    return CheckResult("gradient_fd", 1e-5 - worst, f"max relative error {worst:.3e} over {cases} directions")


def check_variance_identity(seed: int, cases: int = 12) -> CheckResult:
    """The Bregman gap equals its conditional-variance integral (relative residual)."""
    worst = 0.0
    for inst, phi, phi_bar in _pairs(seed, 5, cases, 3, 4, (0.3, 1.5), 1.0):
        worst = np.maximum(worst, variance_identity_residual(phi, phi_bar, inst))
    return CheckResult("variance_identity", 1e-6 - worst, f"max relative residual {worst:.3e} over {cases} pairs")


def check_update_equivalences(seed: int, instances: int = 20) -> CheckResult:
    """The matching update equals its projection, root and mirror forms, which
    keep the X-marginal and separability against the Gibbs reference."""
    rng = _rng(seed, 6)
    worst_log = 0.0
    worst_marg = 0.0
    for _ in range(instances):
        inst = random_instance(rng, 5, 7, float(rng.uniform(0.3, 1.5)))
        phi = rng.normal(0.0, 0.8, inst.m)
        pi_n = coupling(phi, inst)
        log_ref = log_reference(inst)
        for method in ("eta_sinkhorn", "sga", "ksga", "chi2"):
            g = gram(KernelSpec("gaussian", 0.5), inst.nu.points) if method == "ksga" else None
            link = METHODS[method].link
            for eta in (0.3, 1.0):
                cfg = SolverConfig(method, eta=eta, max_iter=1, tol_l1=0.0, gram=g)
                dual = coupling(run(inst, cfg, phi).phi, inst).log_masses
                proj = project_x(project_y(pi_n, inst, link, g), pi_n, inst, eta).log_masses
                root = root_step(pi_n, inst, link, eta, g).log_masses
                mirr = mirror_bwd(
                    mirror_fwd(pi_n, inst) - eta * v_link(pi_n, inst, link, g), inst
                ).log_masses
                for other in (proj, root, mirr):
                    worst_log = np.maximum(worst_log, float(np.max(np.abs(dual - other))))
                for lm in (dual, proj, root, mirr):
                    marg = np.exp(logsumexp(lm, axis=1))
                    worst_marg = np.maximum(worst_marg, float(np.max(np.abs(marg - inst.a))))
                    worst_log = np.maximum(worst_log, separability_residual(lm - log_ref))
    return CheckResult(
        "update_equivalences", np.minimum(1e-10 - worst_log, 1e-12 - worst_marg),
        f"max log-domain disagreement {worst_log:.3e}, max X-marginal error {worst_marg:.3e}",
    )


def check_kernel_smoothness(seed: int, pairs: int = 500) -> CheckResult:
    """The kernel loss's Bregman gap lies in [0, 2 c_k KL] for three kernels."""
    rng = _rng(seed, 7)
    pts = rng.uniform(0.0, 1.0, (8, 2))
    specs = [KernelSpec("identity"), KernelSpec("gaussian", 0.4), KernelSpec("laplace", 0.3)]
    grams = [gram(spec, pts) for spec in specs]
    worst_upper = worst_lower = -np.inf
    for k in range(pairs):
        g = grams[k % len(grams)]
        target = rng.dirichlet(np.ones(8))
        xi = rng.dirichlet(np.ones(8))
        xi_bar = rng.dirichlet(np.ones(8))
        def lk(z):
            d = z - target
            return 0.5 * float(d @ g.matrix @ d)
        lin = float((g.matrix @ (xi - target)) @ (xi_bar - xi))
        gap = lk(xi_bar) - lk(xi) - lin
        upper = 2.0 * g.c_k * kl(np.log(xi_bar), np.log(xi))
        worst_upper = np.maximum(worst_upper, gap - upper)
        worst_lower = np.maximum(worst_lower, -gap)
    return CheckResult(
        "kernel_smoothness", 1e-10 - np.maximum(worst_upper, worst_lower),
        f"max violation over {pairs} pairs; upper side max(gap - 2 c_k KL) {worst_upper:.3e},"
        f" lower side max(-gap) {worst_lower:.3e}",
    )


def _bound_result(name: str, observed, bound) -> CheckResult:
    """Margin min(bound + _BOUND_TOL - observed), +inf over no points."""
    margin = np.asarray(bound, dtype=np.float64) + _BOUND_TOL - np.asarray(observed, dtype=np.float64)
    worst = float(margin.min()) if margin.size else float("inf")
    return CheckResult(name, worst, f"bound checked at {margin.size} iterations")


def _descent_margin(values: np.ndarray, tol: float) -> float:
    """``tol`` minus the largest per-step increase of ``values`` (minus a sequence checks ascent)."""
    return tol - float(np.max(np.diff(values))) if len(values) > 1 else np.inf


def _centered_box_potential(phi_star: np.ndarray, B: float) -> np.ndarray | None:
    """Shift of an optimal potential with smallest sup norm, if it lies in [-B, B].

    Returns None when even the best shift exceeds the box, in which case a
    box-constrained check is inconclusive.
    """
    centered = phi_star - (phi_star.max() + phi_star.min()) / 2.0
    if np.max(np.abs(centered)) > B:
        return None
    return centered


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
    target = _centered_box_potential(phi_star, B)
    if target is None:
        return CheckResult(
            theorem, float("nan"), f"optimal potential exceeds the box radius {B}; hypothesis unmet",
            inconclusive=True,
        )
    j_star = semidual_value(target, inst)
    dist_sq = float(np.sum(inst.b * (start - target) ** 2))
    iters = trace.column("iter")
    keep = iters >= 1
    gaps = j_star - trace.column("J")[keep]
    bound = bound_fn(iters[keep], dist_sq)
    return _bound_result(theorem, gaps, bound)


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
    iters = trace.column("iter")
    keep = iters >= 1
    star_plus, p_star = induced_marginal(phi_star, inst)
    d0 = _induced_kl(inst, phi_star, star_plus, p_star, phi0, plus_transform(phi0, inst))
    bound = max(2.0 * g.c_k, 1.0) / iters[keep] * d0
    return _bound_result("ksga_rate", mmd[keep], bound)


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


def check_ksga_rate(inst: Instance, iters: int) -> CheckResult:
    """Kernel ascent from phi = 0, identity and Gaussian(0.25) kernels: rate bound and per-step MMD descent."""
    phi_star = oracle_solve(inst)
    phi0 = np.zeros(inst.m)
    rates, descents = [], []
    for spec in (KernelSpec("identity"), KernelSpec("gaussian", 0.25)):
        g = gram(spec, inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=iters, tol_l1=0.0), phi0)
        rates.append(check_thm_ksga_rate(res.trace, inst, g, phi0, phi_star).margin)
        descents.append(_descent_margin(res.trace.column("mmd_sq"), 1e-12))
    rate, descent = np.min(rates), np.min(descents)
    return CheckResult(
        "ksga_rate", np.minimum(rate, descent), f"rate margin {rate:.3e}, MMD descent margin {descent:.3e}"
    )


def check_sign_ascent(inst: Instance, iters: int) -> CheckResult:
    """Unit-step sign ascent from phi = 0 gains >= |dJ|_1^2 / 2 per step (|dJ|_1 is the
    trace's ``l1_residual``) and keeps the anchor fixed."""
    try:
        res = run(inst, SolverConfig("sign_sga", eta=1.0, max_iter=iters, tol_l1=0.0, record_every=1))
    except DivergenceError as exc:
        return CheckResult("sign_ascent", -np.inf, str(exc))
    if res.phi[res.anchor_index] != 0.0:
        return CheckResult("sign_ascent", -np.inf, f"anchor entry moved to {res.phi[res.anchor_index]:.3e}")
    gains = np.diff(res.trace.column("J")) - 0.5 * res.trace.column("l1_residual")[:-1] ** 2
    worst = np.min(gains, initial=np.inf)
    return CheckResult("sign_ascent", worst + 1e-10, f"min per-step ascent slack {worst:.3e} over {gains.size} steps")


def check_proj_rate(
    inst: Instance, iters: int, phi_star: np.ndarray | None = None, ascent_tol: float = 1e-10
) -> CheckResult:
    """Projected ascent from phi = 0 in the default box: gap bound and per-step ascent of J."""
    phi0 = np.zeros(inst.m)
    res = run(inst, SolverConfig(method="proj_sga", max_iter=iters, tol_l1=0.0), phi0)
    rate = check_thm_proj_rate(res.trace, inst, res.bound_B, phi0, phi_star)
    if rate.inconclusive:
        return rate
    ascent = _descent_margin(-res.trace.column("J"), ascent_tol)
    return CheckResult(
        "proj_rate", np.minimum(rate.margin, ascent), f"gap bound margin {rate.margin:.3e}, J ascent margin {ascent:.3e}"
    )


def check_acc_rate(inst: Instance, iters: int) -> CheckResult:
    """Accelerated projected ascent from phi = 0 in the default box: gap bound."""
    phi0 = np.zeros(inst.m)
    res = run(inst, SolverConfig(method="proj_sga_pp", max_iter=iters, tol_l1=0.0), phi0)
    return check_thm_acc_rate(res.trace, inst, res.bound_B, phi0)


def check_flow(
    inst: Instance, r: float, t_end: float, record_every: int, phi_star: np.ndarray | None = None
) -> CheckResult:
    """Mirror flow from phi = 0 on [0.01, t_end], first trial step 1e-3: V never rises
    and Lk <= (r^2/t^2) KL with either order of the KL, up to the run's slack."""
    res = flow_run(
        inst, np.zeros(inst.m), r=r, t0=0.01, t_end=t_end, dt=1e-3,
        record_every=record_every, phi_star=phi_star,
    )
    worst = np.maximum(res.v_increase_max, res.rate_violation_max)
    return CheckResult(
        "flow_rate", res.slack - worst,
        f"r={r:g}: V increase {res.v_increase_max:.1e}, rate violation {res.rate_violation_max:.1e}"
        f" (either KL order), slack {res.slack:.1e}",
    )


def check_bridge_marginal(inst: Instance, n_t: int, particles: int, seed: int) -> CheckResult:
    """Bridge terminal law from phi = 0 and the optimal potential vs the static Y-marginal, in TV."""
    tol = sum(bridge_mod.tv_tolerance_terms(particles, n_t))
    phi_star = oracle_solve(inst)
    tvs = []
    for phi in (np.zeros(inst.m), phi_star):
        field = bridge_mod.bridge_from_potential(phi, inst, n_t)
        sim = bridge_mod.simulate_em(field, inst.mu, particles, seed)
        hist = bridge_mod.terminal_histogram(sim.positions, inst.nu.points[:, 0])
        tvs.append(0.5 * float(np.abs(hist - marginal_y(phi, inst)).sum()))
    return CheckResult(
        "bridge_marginal", tol - np.max(tvs),
        f"terminal TV {tvs[0]:.4f} (zero potential), {tvs[1]:.4f} (optimal) vs tolerance {tol:.4f}",
    )


def check_momentum_counters(n_max: int) -> CheckResult:
    """From t = 1 the counters start at the golden ratio, t_{n+1} >= (n+2)/2
    and (t_n - 1)/t_{n+1} lies in [0, 1) for n <= n_max."""
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    start = 1e-12 - abs(t_next(1.0) - golden)
    t = 1.0
    growth = np.inf
    for n in range(1, n_max + 1):
        t_new = t_next(t)
        coeff = (t - 1.0) / t_new
        if not (0.0 <= coeff < 1.0):
            return CheckResult("momentum_counters", -np.inf, f"coefficient {coeff!r} out of [0,1) at n={n}")
        growth = min(growth, t_new - (n + 2) / 2.0)  # a NaN t_new fails the coefficient test above
        t = t_new
    return CheckResult(
        "momentum_counters", np.minimum(start, growth),
        f"golden-ratio start margin {start:.3e}; t_n >= (n+1)/2 margin {growth:.3e} up to n={n_max + 1}",
    )


def check_sinkhorn_conformance(inst: Instance, iters: int) -> CheckResult:
    """Identity-link unit-step matching from phi = 0 reproduces :func:`classic_log_sinkhorn`."""
    reference = classic_log_sinkhorn(inst.a, inst.b, inst.cost, inst.epsilon, iters)
    phi = np.zeros(inst.m)
    worst = 0.0
    for ref in reference:
        phi = run(inst, SolverConfig("sinkhorn", max_iter=1, tol_l1=0.0), phi).phi
        worst = np.maximum(worst, float(np.max(np.abs(phi - ref))))
    return CheckResult(
        "sinkhorn_conformance", 1e-12 - worst, f"max potential deviation {worst:.3e} over {iters} sweeps"
    )


# Each entry builds its seeded instances and calls the statement's checker.
_CHECKS = {
    "concavity": check_concavity,
    "linf_lower": check_linf_lower,
    "weighted_lower": check_weighted_lower,
    "gradient_fd": check_gradient_fd,
    "variance_identity": check_variance_identity,
    "update_equivalences": check_update_equivalences,
    "kernel_smoothness": check_kernel_smoothness,
    "ksga_rate": lambda seed: check_ksga_rate(random_instance(_rng(seed, 8), 24, 24, 0.3), 300),
    "sign_ascent": lambda seed: check_sign_ascent(random_instance(_rng(seed, 9), 12, 12, 0.5), 300),
    "proj_rate": lambda seed: check_proj_rate(random_instance(_rng(seed, 10), 24, 24, 0.5), 400),
    "acc_rate": lambda seed: check_acc_rate(random_instance(_rng(seed, 11), 24, 24, 0.5), 400),
    "flow_rate": lambda seed: check_flow(random_instance(_rng(seed, 12), 8, 8, 0.5), 2.0, 5.0, 20),
    "bridge_marginal": lambda seed: check_bridge_marginal(
        bridge_mod.make_demo_instance(n_points=32), 51, 20_000, seed
    ),
    "momentum_counters": lambda seed: check_momentum_counters(100_000),
    "sinkhorn_conformance": lambda seed: check_sinkhorn_conformance(random_instance(_rng(seed, 13), 12, 12, 0.5), 30),
}


def all_property_names() -> list[str]:
    return list(_CHECKS)


def run_suite(seed: int, only: str | None = None) -> list[CheckResult]:
    """Run the property checks (optionally those whose name contains ``only``)."""
    names = all_property_names()
    if only is not None:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(f"no property matches {only!r}; have {all_property_names()}")
    return [_CHECKS[name](seed) for name in names]
