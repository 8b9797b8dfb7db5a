"""Shared fixtures and helpers: deterministic instances, instance files, heat propagation, one solver step and an oracle cache."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from otmatch import semidual, solvers
from otmatch.logops import logsumexp
from otmatch.measures import DiscreteMeasure, Instance, _cost_block, cost_matrix
from otmatch.solvers import SolverConfig, oracle_solve, run
from otmatch.verify import random_instance

# pass/fail lines registered by the acceptance tests; echoed in the terminal
# summary so they survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# a NaN or infinite entry that an update puts into phi, and how far the
# update moves the finite entries: within or beyond the cache's radius
NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
SHIFTS = pytest.mark.parametrize(
    "shift", [0.5 * semidual.ABSORB_AT, 2.0 * semidual.ABSORB_AT], ids=["within", "beyond"]
)


def poison_update(monkeypatch, bad, shift, at):
    """Make the update to iterate ``at`` of a unit-step run move every entry
    of phi by ``shift`` but entry 3, which turns ``bad``; the other updates
    are the real ones."""
    real, calls = solvers.link_correction, []

    def correction(link, p, log_p, inst, gram=None):
        calls.append(link)
        if len(calls) != at:
            return real(link, p, log_p, inst, gram)
        out = np.full(inst.m, -shift)
        out[3] = -bad
        return out

    monkeypatch.setattr(solvers, "link_correction", correction)


def cost_of(inst: Instance) -> np.ndarray:
    """The instance's whole n x m cost: a named cost built from its points, a matrix as stored."""
    return _cost_block(inst)


def write_instance(inst: Instance, path) -> None:
    """Write ``inst`` as an instance file with an explicit cost matrix;
    ``load_instance`` reads it back to the same arrays."""
    doc = {
        "x_points": inst.mu.points.tolist(),
        "x_weights": inst.mu.weights.tolist(),
        "y_points": inst.nu.points.tolist(),
        "y_weights": inst.nu.weights.tolist(),
        "cost": cost_of(inst).tolist(),
        "epsilon": inst.epsilon,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def heat(log_terminal: np.ndarray, s: float, x: np.ndarray) -> np.ndarray:
    """The terminal density exp(log_terminal) on the equispaced nodes ``x``
    after backward heat propagation for time s > 0 (variance s): the grid
    convolution with the exact Gaussian kernel, summed in the log domain."""
    kern = -0.5 * (x[:, None] - x[None, :]) ** 2 / s - 0.5 * np.log(2.0 * np.pi * s)
    return np.exp(logsumexp(kern + log_terminal[None, :] + np.log(x[1] - x[0]), axis=1))


def zero_cost_instance(n: int = 4, m: int = 5, seed: int = 0) -> Instance:
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(points=rng.normal(size=(n, 2)), weights=rng.dirichlet(np.ones(n)))
    nu = DiscreteMeasure(points=rng.normal(size=(m, 2)), weights=rng.dirichlet(np.ones(m)))
    return Instance(mu=mu, nu=nu, cost=np.zeros((n, m)), epsilon=1.0)


def single_cell_instance(cost: float = 2.0, epsilon: float = 1.0) -> Instance:
    mu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
    nu = DiscreteMeasure(points=np.zeros((1, 1)), weights=np.ones(1))
    return Instance(mu=mu, nu=nu, cost=np.array([[cost]]), epsilon=epsilon)


def underflow_instance() -> Instance:
    """2+2 atoms whose Y-marginal mass at y = 5 is exp(-1200.69): 0 in float64."""
    mu = DiscreteMeasure(points=np.array([[0.0], [0.1]]), weights=np.array([0.5, 0.5]))
    nu = DiscreteMeasure(points=np.array([[0.0], [5.0]]), weights=np.array([0.5, 0.5]))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=0.01)


def two_source_instance(targets, epsilon=0.5):
    """Uniform sources at -0.5 and 0.5 and uniform targets at ``targets``,
    in the given order, with quadratic cost."""
    mu = DiscreteMeasure(points=np.array([[-0.5], [0.5]]), weights=np.full(2, 0.5))
    ys = np.array(targets, dtype=float)[:, None]
    nu = DiscreteMeasure(points=ys, weights=np.full(ys.size, 1.0 / ys.size))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=epsilon)


# targets unequally spaced, unsorted, or equispaced with the sources halfway between them
OFF_LATTICE_TARGETS = pytest.mark.parametrize(
    "targets", [[-1.0, -0.9, 0.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 0.0, 1.0]], ids=["unequal", "unsorted", "sorted"]
)


def extreme_instance(rng, n, m, epsilon):
    """Point-cloud instance with Dirichlet(0.05) weights floored at 1e-100."""

    def weights(k):
        w = np.maximum(rng.dirichlet(np.full(k, 0.05)), 1e-100)
        return w / w.sum()

    mu = DiscreteMeasure(points=rng.normal(size=(n, 2)), weights=weights(n))
    nu = DiscreteMeasure(points=rng.normal(size=(m, 2)), weights=weights(m))
    return Instance(mu=mu, nu=nu, cost=cost_matrix(mu, nu, "half_sqeuclidean"), epsilon=epsilon)


def one_step(method: str, phi: np.ndarray, inst: Instance, **fields) -> np.ndarray:
    """One update of ``method`` from phi, taken by the runner; ``fields``
    are further :class:`SolverConfig` fields (eta, gram, bound_B, ...)."""
    return run(inst, SolverConfig(method=method, max_iter=1, tol_l1=0.0, **fields), phi).phi


def certified_run_phi(inst: Instance, tol: float) -> np.ndarray:
    """The iterate of the one ``sinkhorn`` run that ``oracle_solve(inst, tol)`` makes and certifies."""
    budget = solvers.ORACLE_MAX_ITER
    return run(inst, SolverConfig("sinkhorn", max_iter=budget, tol_l1=tol, record_every=budget)).phi


def floor_path_log_mass(p, phi, phi_plus, inst):
    """``semidual._log_mass`` without its fast return: log p, then the column
    logsumexp for every mass below ``semidual.P_FLOOR``."""
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    low = np.flatnonzero(p < semidual.P_FLOOR)
    if low.size:
        log_p[low] = semidual._log_marginal_cols(phi, phi_plus, inst, low)
    return log_p


# the extended-precision reference needs a long double wider than float64
# (80-bit on x86-64 Linux); on macOS arm64 and Windows it is float64 itself
LONGDOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here, so it cannot serve as a reference",
)


def longdouble_pair(phi, inst):
    """``(phi_plus, p)`` at phi in ``np.longdouble``: the exponential pass of
    ``semidual.induced_marginal`` on the same float64 inputs, every step taken
    in extended precision (``log a`` and ``log b`` included)."""
    ld = np.longdouble
    w = (np.log(inst.b.astype(ld)) + phi.astype(ld)) - cost_of(inst).astype(ld) / ld(inst.epsilon)
    rowmax = w.max(axis=1, keepdims=True)
    e = np.exp(w - rowmax)
    s = e.sum(axis=1)
    return np.log(s) + rowmax[:, 0], (inst.a.astype(ld) / s) @ e


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized oracle potentials keyed by caller-chosen labels."""
    cache: dict[str, np.ndarray] = {}

    def get(label: str, inst: Instance, tol: float = 1e-12) -> np.ndarray:
        if label not in cache:
            cache[label] = oracle_solve(inst, tol=tol)
        return cache[label]

    return get


@pytest.fixture()
def small_instance() -> Instance:
    return random_instance(np.random.default_rng(123), 3, 4, 0.7)


@pytest.fixture()
def medium_instance() -> Instance:
    return random_instance(np.random.default_rng(7), 8, 10, 0.5)
