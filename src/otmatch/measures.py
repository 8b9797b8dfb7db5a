"""Discrete measures, problem instances, and cost matrices.

A problem instance bundles two weighted point clouds (the marginals), a
finite cost matrix, and a positive regularization strength.  Everything is
validated at construction and immutable afterwards, so instances can be
shared freely between solver runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "Instance",
    "make_grid_measure",
    "cost_matrix",
    "load_instance",
    "save_instance",
    "InstanceError",
]

WEIGHT_SUM_TOL = 1e-12
# serialization noise gets silently renormalized; anything larger is a
# genuine input error and is rejected
LOAD_RENORMALIZE_TOL = 1e-9


class InstanceError(ValueError):
    """Raised when measure or instance data violates an invariant."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InstanceError(f"points must be an (n, d) array with n >= 1, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InstanceError("points contain non-finite values")
    return pts


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud: n atoms in R^d with strictly positive weights.

    Weights must sum to one within 1e-12.  Zero-mass atoms are rejected
    outright: the log-domain formulas downstream divide by weights.
    """

    points: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = _as_points(self.points)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise InstanceError(f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not np.all(np.isfinite(w)):
            raise InstanceError("weights contain non-finite values")
        if np.any(w <= 0.0):
            raise InstanceError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InstanceError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_SUM_TOL}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        lw = np.log(w)
        lw.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def make_grid_measure(
    lo: float, hi: float, n: int, density: Callable[[float], float]
) -> DiscreteMeasure:
    """Equispaced 1-D measure with weights proportional to ``density``.

    Args:
        lo, hi: Grid endpoints, ``lo < hi``.
        n: Number of atoms (n >= 1).
        density: Nonnegative function evaluated at each grid point; must
            not be identically zero on the grid.
    """
    if not lo < hi:
        raise InstanceError(f"need lo < hi, got [{lo}, {hi}]")
    if n < 1:
        raise InstanceError("need at least one grid point")
    xs = np.linspace(lo, hi, n)
    vals = np.array([float(density(float(x))) for x in xs])
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise InstanceError("density must be finite and nonnegative on the grid")
    total = vals.sum()
    if total <= 0.0:
        raise InstanceError("density vanishes on the entire grid")
    return DiscreteMeasure(points=xs, weights=vals / total)


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, kind) -> np.ndarray:
    """Pairwise cost between the supports of ``mu`` and ``nu``.

    ``kind`` is ``"half_sqeuclidean"`` (|x - y|^2 / 2), ``"euclidean"``
    (|x - y|), or an explicit (n, m) matrix that is shape-checked and
    passed through.

    The difference-based evaluation keeps C(mu, nu) == C(nu, mu)^T exact
    and guarantees nonnegative entries for the built-in kinds.  Squared
    differences are accumulated one dimension at a time in place, so no
    (n, m, d) temporary is built.
    """
    if isinstance(kind, str):
        if mu.dim != nu.dim:
            raise InstanceError(f"point dimensions differ: {mu.dim} vs {nu.dim}")
        if kind not in ("half_sqeuclidean", "euclidean"):
            raise InstanceError(f"unknown cost kind {kind!r}")
        sq = np.zeros((mu.n_atoms, nu.n_atoms))
        t = np.empty_like(sq)
        for k in range(mu.dim):
            np.subtract.outer(mu.points[:, k], nu.points[:, k], out=t)
            t *= t
            sq += t
        if kind == "half_sqeuclidean":
            sq *= 0.5
        else:
            np.sqrt(sq, out=sq)
        return sq
    c = np.asarray(kind, dtype=np.float64)
    if c.shape != (mu.n_atoms, nu.n_atoms):
        raise InstanceError(f"explicit cost has shape {c.shape}, expected {(mu.n_atoms, nu.n_atoms)}")
    if not np.all(np.isfinite(c)):
        raise InstanceError("explicit cost contains non-finite entries")
    return c


@dataclass(frozen=True)
class Instance:
    """One entropic transport problem: marginals, cost matrix, epsilon.

    Derived log-domain quantities (log-weights and the cost/epsilon ratio)
    are cached here because every solver iteration touches them.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: np.ndarray
    epsilon: float
    cost_over_eps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=np.float64)
        if c.shape != (self.mu.n_atoms, self.nu.n_atoms):
            raise InstanceError(f"cost shape {c.shape} does not match ({self.mu.n_atoms}, {self.nu.n_atoms})")
        if not np.all(np.isfinite(c)):
            raise InstanceError("cost matrix contains non-finite entries")
        try:
            eps = float(self.epsilon)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"epsilon must be a number, got {self.epsilon!r}") from exc
        if not (np.isfinite(eps) and eps > 0.0):
            raise InstanceError(f"epsilon must be a strictly positive real, got {self.epsilon!r}")
        c = c.copy()
        c.setflags(write=False)
        roe = c / eps
        roe.setflags(write=False)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "cost_over_eps", roe)

    @property
    def n(self) -> int:
        return self.mu.n_atoms

    @property
    def m(self) -> int:
        return self.nu.n_atoms

    @property
    def a(self) -> np.ndarray:
        return self.mu.weights

    @property
    def b(self) -> np.ndarray:
        return self.nu.weights

    @property
    def log_a(self) -> np.ndarray:
        return self.mu.log_weights

    @property
    def log_b(self) -> np.ndarray:
        return self.nu.log_weights


# ---------------------------------------------------------------------------
# Instance files (JSON)
# ---------------------------------------------------------------------------

_COST_KINDS = ("half_sqeuclidean", "euclidean")


def _load_measure(doc: dict, points_key: str, weights_key: str) -> DiscreteMeasure:
    if points_key not in doc or weights_key not in doc:
        raise InstanceError(f"instance file missing {points_key!r}/{weights_key!r}")
    pts = _as_points(doc[points_key])
    w = np.asarray(doc[weights_key], dtype=np.float64).reshape(-1)
    if w.shape[0] != pts.shape[0]:
        raise InstanceError(f"{points_key}: {pts.shape[0]} points but {w.shape[0]} weights")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise InstanceError(f"{weights_key}: weights must be finite and strictly positive")
    drift = abs(w.sum() - 1.0)
    if drift > LOAD_RENORMALIZE_TOL:
        raise InstanceError(f"{weights_key}: weights sum to {w.sum()!r}; off by more than {LOAD_RENORMALIZE_TOL}")
    # weights a measure accepts as they are stay bit-exact, so that a saved
    # instance loads back to the same arrays (and the same digest)
    if drift > WEIGHT_SUM_TOL:
        w = w / w.sum()
    return DiscreteMeasure(points=pts, weights=w)


def load_instance(path) -> Instance:
    """Read and validate an instance file (see ``save_instance``).

    Weights summing to one within 1e-12 are kept as written, those within
    1e-9 are renormalized silently; larger deviations, nonpositive epsilon,
    or malformed fields are rejected.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance file must contain a JSON object")
    mu = _load_measure(doc, "x_points", "x_weights")
    nu = _load_measure(doc, "y_points", "y_weights")
    if "cost" not in doc or "epsilon" not in doc:
        raise InstanceError("instance file missing 'cost' or 'epsilon'")
    kind = doc["cost"]
    if isinstance(kind, str) and kind not in _COST_KINDS:
        raise InstanceError(f"cost kind must be one of {_COST_KINDS} or an explicit matrix")
    cost = cost_matrix(mu, nu, kind)
    return Instance(mu=mu, nu=nu, cost=cost, epsilon=doc["epsilon"])


def instance_to_doc(inst: Instance) -> dict:
    """Plain-JSON form of an instance (explicit cost matrix)."""
    return {
        "x_points": inst.mu.points.tolist(),
        "x_weights": inst.mu.weights.tolist(),
        "y_points": inst.nu.points.tolist(),
        "y_weights": inst.nu.weights.tolist(),
        "cost": inst.cost.tolist(),
        "epsilon": inst.epsilon,
    }


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` as JSON; ``load_instance`` inverts this exactly."""
    Path(path).write_text(json.dumps(instance_to_doc(inst), indent=1) + "\n")
