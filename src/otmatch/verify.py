"""Seeded property suite behind the ``verify`` command.

Every check regenerates its own instances from the seed, runs one proven
statement of the solver theory at desk scale, and reports pass/fail with
the worst observed slack.  Reports contain no wall-clock data, so a fixed
seed reproduces them byte for byte.

The checks at a glance: concavity and the two lower Bregman bounds of the
semi-dual, the finite-difference gradient test, the exact variance
representation of the Bregman gap, the four-way equivalence of the dual
update with its projection/root/mirror forms, kernel smoothness bounds,
the kernel-ascent rate, the sign-ascent mechanism, both projected-method
rates, the mirror-flow Lyapunov decay, the bridge terminal-marginal match,
and the momentum-counter recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bridge as bridge_mod
from .diagnostics import check_thm_acc_rate, check_thm_ksga_rate, check_thm_proj_rate
from .kernels import KernelSpec, gram
from .logops import kl, logsumexp
from .measures import DiscreteMeasure, Instance, cost_matrix
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
from .semidual import _row_pass, coupling, first_variation, log_reference, marginal_y, semidual_value
from .solvers import (
    Link,
    SolverConfig,
    lambda_bound,
    match_step,
    oracle_solve,
    run,
    sign_sga_step,
    t_next,
)

__all__ = [
    "PropertyResult",
    "random_instance",
    "classic_log_sinkhorn",
    "variance_identity_residual",
    "all_property_names",
    "run_suite",
]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""
    inconclusive: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
            "worst": repr(float(self.worst)),
            "detail": self.detail,
        }


def random_instance(rng: np.random.Generator, n: int, m: int, epsilon: float) -> Instance:
    """Instance with uniform points in [0, 1]^2, Dirichlet(1) weights and the half_sqeuclidean cost."""
    mu = DiscreteMeasure(points=rng.uniform(0.0, 1.0, (n, 2)), weights=rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(points=rng.uniform(0.0, 1.0, (m, 2)), weights=rng.dirichlet(np.ones(m)))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=epsilon)


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


def variance_identity_residual(
    phi: np.ndarray, phi_bar: np.ndarray, inst: Instance, n_nodes: int = 64
) -> float:
    """Relative residual of the Bregman gap against its variance form.

    The gap J(phi_bar) - J(phi) - <dJ(phi), phi_bar - phi> equals minus the
    integral over t in [0, 1] of (1 - t) times the mean (over the first
    marginal) conditional variance of (phi_bar - phi) under the row
    distributions induced by the interpolated potential.  Evaluated with
    Gauss-Legendre quadrature; the integrand is analytic in t.
    """
    phi = np.asarray(phi, dtype=np.float64)
    phi_bar = np.asarray(phi_bar, dtype=np.float64)
    gap = _bregman_gap(phi, phi_bar, inst)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
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
# Individual checks
# ---------------------------------------------------------------------------

def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _bregman_gap(phi, phi_bar, inst) -> float:
    return (
        semidual_value(phi_bar, inst)
        - semidual_value(phi, inst)
        - float(first_variation(phi, inst) @ (phi_bar - phi))
    )


def check_concavity(seed: int, pairs: int = 300) -> PropertyResult:
    rng = _rng(seed, 1)
    worst = -np.inf
    for _ in range(pairs):
        inst = random_instance(rng, 4, 6, float(rng.uniform(0.2, 2.0)))
        phi = rng.normal(0.0, 1.0, inst.m)
        phi_bar = phi + rng.normal(0.0, 1.0, inst.m)
        worst = max(worst, _bregman_gap(phi, phi_bar, inst))
    return PropertyResult("concavity", worst <= 1e-10, worst, f"max Bregman gap over {pairs} pairs")


def check_linf_lower(seed: int, pairs: int = 300) -> PropertyResult:
    rng = _rng(seed, 2)
    worst = -np.inf
    for _ in range(pairs):
        inst = random_instance(rng, 4, 6, float(rng.uniform(0.2, 2.0)))
        phi = rng.normal(0.0, 1.0, inst.m)
        phi_bar = phi + rng.normal(0.0, 1.0, inst.m)
        gap = _bregman_gap(phi, phi_bar, inst)
        lower = -0.5 * float(np.max(np.abs(phi_bar - phi))) ** 2
        worst = max(worst, lower - gap)
    return PropertyResult("linf_lower", worst <= 1e-10, worst, f"max (lower bound - gap) over {pairs} pairs")


def check_weighted_lower(seed: int, pairs: int = 300) -> PropertyResult:
    rng = _rng(seed, 3)
    worst = -np.inf
    for _ in range(pairs):
        inst = random_instance(rng, 4, 6, float(rng.uniform(0.3, 2.0)))
        phi = rng.normal(0.0, 0.7, inst.m)
        phi_bar = phi + rng.normal(0.0, 0.7, inst.m)
        B = float(max(np.max(np.abs(phi)), np.max(np.abs(phi_bar))))
        lam = np.exp(lambda_bound(inst, B))
        gap = _bregman_gap(phi, phi_bar, inst)
        lower = -0.5 * lam * float(inst.b @ (phi_bar - phi) ** 2)
        worst = max(worst, lower - gap)
    return PropertyResult("weighted_lower", worst <= 1e-10, worst, f"max (lower bound - gap) over {pairs} pairs")


def check_gradient_fd(seed: int, cases: int = 12) -> PropertyResult:
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
        worst = max(worst, abs(exact - fd) / max(abs(exact), 1e-300))
    return PropertyResult("gradient_fd", worst <= 1e-5, worst, f"max relative error over {cases} directions")


def check_variance_identity(seed: int, cases: int = 12) -> PropertyResult:
    rng = _rng(seed, 5)
    worst = 0.0
    for _ in range(cases):
        inst = random_instance(rng, 3, 4, float(rng.uniform(0.3, 1.5)))
        phi = rng.normal(0.0, 1.0, inst.m)
        phi_bar = phi + rng.normal(0.0, 1.0, inst.m)
        worst = max(worst, variance_identity_residual(phi, phi_bar, inst))
    return PropertyResult("variance_identity", worst <= 1e-6, worst, f"max relative residual over {cases} pairs")


def check_update_equivalences(seed: int, instances: int = 20) -> PropertyResult:
    rng = _rng(seed, 6)
    links = [Link.identity(), Link.exp(), None, Link.chi_square()]  # kernel link built per instance
    worst_log = 0.0
    worst_marg = 0.0
    for _ in range(instances):
        inst = random_instance(rng, 5, 7, float(rng.uniform(0.3, 1.5)))
        g_kernel = gram(KernelSpec("gaussian", 0.5), inst.nu.points)
        phi = rng.normal(0.0, 0.8, inst.m)
        pi_n = coupling(phi, inst)
        log_ref = log_reference(inst)
        for link in links:
            if link is None:
                link = Link.exp_kernel(g_kernel)
            for eta in (0.3, 1.0):
                dual = coupling(match_step(phi, inst, link, eta), inst).log_masses
                proj = project_x(project_y(pi_n, inst, link), pi_n, inst, eta).log_masses
                root = root_step(pi_n, inst, link, eta).log_masses
                mirr = mirror_bwd(
                    mirror_fwd(pi_n, inst) - eta * v_link(pi_n, inst, link), inst
                ).log_masses
                for other in (proj, root, mirr):
                    worst_log = max(worst_log, float(np.max(np.abs(dual - other))))
                for lm in (dual, proj, root, mirr):
                    marg = np.exp(logsumexp(lm, axis=1))
                    worst_marg = max(worst_marg, float(np.max(np.abs(marg - inst.a))))
                    worst_log = max(worst_log, separability_residual(lm - log_ref))
    ok = worst_log <= 1e-10 and worst_marg <= 1e-12
    return PropertyResult(
        "update_equivalences", ok, max(worst_log, worst_marg),
        f"max log-domain disagreement {worst_log:.3e}, max X-marginal error {worst_marg:.3e}",
    )


def check_kernel_smoothness(seed: int, pairs: int = 500) -> PropertyResult:
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
        worst_upper = max(worst_upper, gap - upper)
        worst_lower = max(worst_lower, -gap)
    worst = max(worst_upper, worst_lower)
    return PropertyResult(
        "kernel_smoothness", worst <= 1e-10, worst,
        f"max violation over {pairs} pairs; upper side max(gap - 2 c_k KL) {worst_upper:.3e},"
        f" lower side max(-gap) {worst_lower:.3e}",
    )


def check_ksga_rate(seed: int, n: int = 24, iters: int = 300) -> PropertyResult:
    rng = _rng(seed, 8)
    inst = random_instance(rng, n, n, 0.3)
    phi_star = oracle_solve(inst)
    worst = -np.inf
    for spec in (KernelSpec("identity"), KernelSpec("gaussian", 0.25)):
        g = gram(spec, inst.nu.points)
        res = run(inst, SolverConfig(method="ksga", gram=g, max_iter=iters, tol_l1=0.0), np.zeros(inst.m))
        rep = check_thm_ksga_rate(res.trace, inst, g, np.zeros(inst.m), phi_star)
        worst = max(worst, -rep.worst_slack)
        mono = float(np.max(np.diff(res.trace.column("mmd_sq"))))
        worst = max(worst, mono)
        if not rep.passed or mono > 1e-12:
            return PropertyResult("ksga_rate", False, worst, f"{spec.kind} kernel violated rate or monotonicity")
    return PropertyResult("ksga_rate", True, worst, "rate bound and per-step monotonicity hold")


def check_sign_ascent(seed: int, iters: int = 300) -> PropertyResult:
    rng = _rng(seed, 9)
    inst = random_instance(rng, 12, 12, 0.5)
    anchor = int(np.argmax(inst.b))
    phi = np.zeros(inst.m)
    worst = np.inf
    for _ in range(iters):
        delta = first_variation(phi, inst)
        j0 = semidual_value(phi, inst)
        new = sign_sga_step(phi, inst, 1.0, anchor)
        if new[anchor] != phi[anchor]:
            return PropertyResult("sign_ascent", False, 0.0, "anchor entry moved")
        gain = semidual_value(new, inst) - j0 - 0.5 * float(np.abs(delta).sum()) ** 2
        worst = min(worst, gain)
        phi = new
    return PropertyResult("sign_ascent", worst >= -1e-10, worst, f"min per-step ascent slack over {iters} steps")


def check_proj_rate(seed: int) -> PropertyResult:
    rng = _rng(seed, 10)
    inst = random_instance(rng, 24, 24, 0.5)
    phi0 = np.zeros(inst.m)
    res = run(inst, SolverConfig(method="proj_sga", max_iter=400, tol_l1=0.0), phi0)
    rep = check_thm_proj_rate(res.trace, inst, res.bound_B, phi0)
    j_col = res.trace.column("J")
    mono = float(np.min(np.diff(j_col)))
    ok = rep.passed and mono >= -1e-10
    if rep.inconclusive:
        return PropertyResult("proj_rate", False, np.nan, rep.note, inconclusive=True)
    return PropertyResult("proj_rate", ok, min(rep.worst_slack, mono), "gap bound and objective monotonicity")


def check_acc_rate(seed: int) -> PropertyResult:
    rng = _rng(seed, 11)
    inst = random_instance(rng, 24, 24, 0.5)
    phi0 = np.zeros(inst.m)
    res = run(inst, SolverConfig(method="proj_sga_pp", max_iter=400, tol_l1=0.0), phi0)
    rep = check_thm_acc_rate(res.trace, inst, res.bound_B, phi0)
    if rep.inconclusive:
        return PropertyResult("acc_rate", False, np.nan, rep.note, inconclusive=True)
    return PropertyResult("acc_rate", rep.passed, rep.worst_slack, "accelerated gap bound")


def check_flow(seed: int, t_end: float = 5.0) -> PropertyResult:
    rng = _rng(seed, 12)
    inst = random_instance(rng, 8, 8, 0.5)
    res = flow_run(inst, np.zeros(inst.m), r=2.0, t0=0.01, t_end=t_end, dt=1e-3, record_every=20)
    slack = 1e-8 * (1.0 + res.vs[0])
    worst = max(res.v_increase_max, res.rate_violation_max)
    ok = res.v_increase_max <= slack and res.rate_violation_max <= slack
    return PropertyResult("flow_rate", ok, worst, "Lyapunov decay and averaged-marginal rate")


def check_bridge_marginal(seed: int, particles: int = 20_000) -> PropertyResult:
    inst = bridge_mod.make_demo_instance(n_points=32)
    grid = bridge_mod.bridge_grid_for(inst, n_t=51)
    phi_star = oracle_solve(inst)
    worst = -np.inf
    for phi in (np.zeros(inst.m), phi_star):
        field = bridge_mod.bridge_from_potential(phi, inst, grid)
        sim = bridge_mod.simulate_em(field, inst.mu, particles, seed)
        hist = bridge_mod.terminal_histogram(sim.positions, inst.nu.points[:, 0])
        tv = 0.5 * float(np.abs(hist - marginal_y(phi, inst)).sum())
        tol = 3.0 / np.sqrt(particles) + 2.0 * (inst.nu.points[1, 0] - inst.nu.points[0, 0])
        worst = max(worst, tv - tol)
    return PropertyResult("bridge_marginal", worst <= 0.0, worst, "terminal law vs static marginal, both potentials")


def check_momentum_counters(n_max: int = 100_000) -> PropertyResult:
    t = 1.0
    worst = np.inf
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    ok = abs(t_next(1.0) - golden) <= 1e-12
    for n in range(1, n_max + 1):
        t_new = t_next(t)
        coeff = (t - 1.0) / t_new
        if not (0.0 <= coeff < 1.0):
            return PropertyResult("momentum_counters", False, coeff, f"coefficient out of [0,1) at n={n}")
        worst = min(worst, t_new - (n + 2) / 2.0)
        t = t_new
    return PropertyResult(
        "momentum_counters", ok and worst >= 0.0, worst, f"t_n >= (n+1)/2 margin up to n={n_max + 1}"
    )


def check_sinkhorn_conformance(seed: int, iters: int = 30) -> PropertyResult:
    rng = _rng(seed, 13)
    inst = random_instance(rng, 12, 12, 0.5)
    reference = classic_log_sinkhorn(inst.a, inst.b, inst.cost, inst.epsilon, iters)
    phi = np.zeros(inst.m)
    worst = 0.0
    link = Link.identity()
    for ref in reference:
        phi = match_step(phi, inst, link, 1.0)
        worst = max(worst, float(np.max(np.abs(phi - ref))))
    return PropertyResult("sinkhorn_conformance", worst <= 1e-12, worst, f"max potential deviation over {iters} sweeps")


_CHECKS = {
    "concavity": check_concavity,
    "linf_lower": check_linf_lower,
    "weighted_lower": check_weighted_lower,
    "gradient_fd": check_gradient_fd,
    "variance_identity": check_variance_identity,
    "update_equivalences": check_update_equivalences,
    "kernel_smoothness": check_kernel_smoothness,
    "ksga_rate": check_ksga_rate,
    "sign_ascent": check_sign_ascent,
    "proj_rate": check_proj_rate,
    "acc_rate": check_acc_rate,
    "flow_rate": check_flow,
    "bridge_marginal": check_bridge_marginal,
    "momentum_counters": lambda seed: check_momentum_counters(),
    "sinkhorn_conformance": check_sinkhorn_conformance,
}


def all_property_names() -> list[str]:
    return list(_CHECKS)


def run_suite(seed: int, only: str | None = None) -> list[PropertyResult]:
    """Run the property checks (optionally those whose name contains ``only``)."""
    names = all_property_names()
    if only is not None:
        names = [n for n in names if only in n]
        if not names:
            raise ValueError(f"no property matches {only!r}; have {all_property_names()}")
    return [_CHECKS[name](seed) for name in names]
