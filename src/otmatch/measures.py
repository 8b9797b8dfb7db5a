"""Discrete measures, problem instances, and cost matrices.

A problem instance bundles two weighted point clouds (the marginals), a
finite cost matrix, and a positive regularization strength.  Everything is
validated at construction and immutable afterwards, so instances can be
shared freely between solver runs.

Instance files are UTF-8 JSON.  They are parsed from raw bytes by
``orjson``, which rounds every number to the nearest double as ``float()``
does and rejects the non-finite literals (``NaN``, ``Infinity``) that
stdlib ``json`` would accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

__all__ = [
    "DiscreteMeasure",
    "Instance",
    "make_grid_measure",
    "cost_matrix",
    "load_instance",
    "InstanceError",
]

WEIGHT_SUM_TOL = 1e-12
# serialization noise gets silently renormalized; anything larger is a
# genuine input error and is rejected
LOAD_RENORMALIZE_TOL = 1e-9


class InstanceError(ValueError):
    """Raised when measure or instance data violates an invariant."""


def _as_float_array(value, what: str) -> np.ndarray:
    """``value`` as a float64 array; anything that is not numbers is an InstanceError.

    The array is built without a dtype and then checked, because a float64
    conversion would also read numeric strings and booleans.  Integers from
    2^63 to 2^64 arrive as uint64.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{what} must be numbers: {exc}") from exc
    if arr.dtype.kind not in "fiu":
        raise InstanceError(f"{what} must be numbers, got array of {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _as_points(points) -> np.ndarray:
    pts = _as_float_array(points, "points")
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
        w = _as_float_array(self.weights, "weights").reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise InstanceError(f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not np.all(np.isfinite(w)):
            raise InstanceError("weights contain non-finite values")
        if np.any(w <= 0.0):
            raise InstanceError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InstanceError(f"weights sum to {float(w.sum())!r}, expected 1 within {WEIGHT_SUM_TOL}")
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


def _pairwise_sum(x: np.ndarray, y: np.ndarray, power: int) -> np.ndarray:
    """``out_ij = sum_k |x_ik - y_jk| ** power`` for ``power`` 1 or 2.

    Accumulated one dimension at a time in place, so no (n, m, d) temporary
    is built.  For d <= 2 the sum is bit-identical to summing the (n, m, d)
    differences along the last axis; for larger d numpy's pairwise sum adds
    the same terms in another order.
    """
    out = np.zeros((x.shape[0], y.shape[0]))
    t = np.empty_like(out)
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], y[:, k], out=t)
        if power == 2:
            t *= t
        else:
            np.abs(t, out=t)
        out += t
    return out


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, kind: str) -> np.ndarray:
    """Pairwise cost between the supports of ``mu`` and ``nu``.

    ``kind`` is ``"half_sqeuclidean"`` (|x - y|^2 / 2) or ``"euclidean"``
    (|x - y|).

    The difference-based evaluation keeps C(mu, nu) == C(nu, mu)^T exact
    and guarantees nonnegative entries.  Squared differences are
    accumulated by :func:`_pairwise_sum`.
    """
    if kind not in ("half_sqeuclidean", "euclidean"):
        raise InstanceError(f"unknown cost kind {kind!r}; expected 'half_sqeuclidean', 'euclidean' or a matrix")
    if mu.dim != nu.dim:
        raise InstanceError(f"point dimensions differ: {mu.dim} vs {nu.dim}")
    sq = _pairwise_sum(mu.points, nu.points, 2)
    if kind == "half_sqeuclidean":
        sq *= 0.5
    else:
        np.sqrt(sq, out=sq)
    return sq


@dataclass(frozen=True)
class Instance:
    """One entropic transport problem: marginals, cost matrix, epsilon.

    The cost is validated here and stored once, as a read-only copy; the
    ratio C/eps is formed where it is used (``semidual._gibbs_exponent``).
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: np.ndarray
    epsilon: float

    def __post_init__(self):
        c = _as_float_array(self.cost, "cost")
        if c.shape != (self.mu.n_atoms, self.nu.n_atoms):
            raise InstanceError(f"cost shape {c.shape} does not match ({self.mu.n_atoms}, {self.nu.n_atoms})")
        if not np.all(np.isfinite(c)):
            raise InstanceError("cost matrix contains non-finite entries")
        # a JSON ``true`` or ``"0.5"`` is not an epsilon, although float()
        # reads both
        if isinstance(self.epsilon, (bool, str)):
            raise InstanceError(f"epsilon must be a number, got {self.epsilon!r}")
        try:
            eps = float(self.epsilon)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"epsilon must be a number, got {self.epsilon!r}") from exc
        if not (np.isfinite(eps) and eps > 0.0):
            raise InstanceError(f"epsilon must be a strictly positive real, got {self.epsilon!r}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "epsilon", eps)

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

def _load_measure(doc: dict, points_key: str, weights_key: str) -> DiscreteMeasure:
    if points_key not in doc or weights_key not in doc:
        raise InstanceError(f"instance file missing {points_key!r}/{weights_key!r}")
    w = _as_float_array(doc[weights_key], weights_key).reshape(-1)
    drift = abs(w.sum() - 1.0)
    if drift > LOAD_RENORMALIZE_TOL:
        raise InstanceError(
            f"{weights_key}: weights sum to {float(w.sum())!r}; off by more than {LOAD_RENORMALIZE_TOL}"
        )
    # weights a measure accepts as they are stay bit-exact, so that a file
    # written from an instance loads back to the same arrays (and digest)
    if drift > WEIGHT_SUM_TOL:
        w = w / w.sum()
    try:
        return DiscreteMeasure(points=doc[points_key], weights=w)
    except InstanceError as exc:
        raise InstanceError(f"{points_key}/{weights_key}: {exc}") from None


def _holds_bool(value) -> bool:
    """Whether a boolean sits anywhere in ``value``'s nested lists."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool):
            return True
    return False


def load_instance(path) -> Instance:
    """Read and validate an instance file: a JSON object with ``x_points``,
    ``x_weights``, ``y_points``, ``y_weights``, ``cost`` (a matrix or a
    :func:`cost_matrix` kind) and ``epsilon``.

    The file must be UTF-8 JSON without non-finite literals.  Weights
    summing to one within 1e-12 are kept as written, those within 1e-9 are
    renormalized silently; larger deviations, nonpositive epsilon, or
    malformed fields are rejected.
    """
    try:
        raw = Path(path).read_bytes()
        doc = orjson.loads(raw)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise InstanceError(
            f"cannot read instance file {path}: {exc} (it must be UTF-8 JSON;"
            " non-finite numbers such as NaN and Infinity are not allowed)"
        ) from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance file must contain a JSON object")
    # numpy reads a boolean among numbers as 0 or 1, so look for booleans by
    # element; that walk is slow on a dense cost, so it runs only when the
    # file spells out "true" or "false".  Numbers, this format's keys and its
    # cost kinds hold neither "r" nor "f", and one-byte scans are memchr
    # passes, several times faster than scanning for the words themselves,
    # so the words are looked for only where one of those bytes occurs
    # ("f" does in "half_sqeuclidean").
    if (b"r" in raw or b"f" in raw) and (b"true" in raw or b"false" in raw):
        for key in ("x_points", "x_weights", "y_points", "y_weights", "cost"):
            if _holds_bool(doc.get(key)):
                raise InstanceError(f"{key} must be numbers, got a boolean")
    mu = _load_measure(doc, "x_points", "x_weights")
    nu = _load_measure(doc, "y_points", "y_weights")
    if "cost" not in doc or "epsilon" not in doc:
        raise InstanceError("instance file missing 'cost' or 'epsilon'")
    cost = doc["cost"]
    if isinstance(cost, str):
        cost = cost_matrix(mu, nu, cost)
    return Instance(mu=mu, nu=nu, cost=cost, epsilon=doc["epsilon"])
