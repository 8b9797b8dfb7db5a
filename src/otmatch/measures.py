"""Discrete measures, problem instances, and cost matrices.

A problem instance bundles two weighted point clouds (the marginals), a
finite cost matrix, and a positive regularization strength.  Everything is
validated at construction and immutable afterwards: every stored array is
read-only and the object's own, so instances can be shared freely.

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

# bytes of one row block in a blocked pass over an n x m array (the cost
# build here, the cached evaluation in ``semidual``): half of one core's
# 2 MiB L2, so a block is still in cache when a pass reads it a second time
ROW_BLOCK_BYTES = 1 << 20

# bytes of the slice of rows that ``_pairwise_sum`` builds at a time, and of
# its scratch for the dimensions after the first: a fixed share of a row
# block, so a cost of one block takes about one array, not two
PAIRWISE_SCRATCH_BYTES = ROW_BLOCK_BYTES // 32

# a row of at least this many entries is subtracted on its own, a contiguous
# vector and a scalar, which numpy runs nearly twice as fast per entry as a
# broadcast subtraction; below it the per-call cost outweighs that
ROW_SUBTRACT_MIN = 1024

COST_KINDS = ("half_sqeuclidean", "euclidean")


class InstanceError(ValueError):
    """Raised when measure or instance data violates an invariant."""


def _as_float_array(value, what: str) -> np.ndarray:
    """``value`` as a new read-only float64 array, for a validated type to
    keep as its own; anything that is not numbers is an InstanceError.

    The array is built without a dtype and then checked, because a float64
    conversion would also read numeric strings and booleans.  Integers from
    2^63 to 2^64 arrive as uint64.
    """
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"{what} must be numbers: {exc}") from exc
    if arr.dtype.kind not in "fiu":
        raise InstanceError(f"{what} must be numbers, got array of {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    arr.setflags(write=False)
    return arr


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
        pts = _as_float_array(self.points, "points")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InstanceError(f"points must be an (n, d) array with n >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InstanceError("points contain non-finite values")
        w = _as_float_array(self.weights, "weights").reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise InstanceError(f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not np.all(np.isfinite(w)):
            raise InstanceError("weights contain non-finite values")
        if np.any(w <= 0.0):
            raise InstanceError("all weights must be strictly positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InstanceError(f"weights sum to {float(w.sum())!r}, expected 1 within {WEIGHT_SUM_TOL}")
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


def _block_rows(m: int, nbytes: int = ROW_BLOCK_BYTES) -> int:
    """Rows of m float64 entries in a block of at most ``nbytes`` (one row where a single row is larger)."""
    return max(1, nbytes // (8 * m))


def _row_blocks(n: int, m: int, nbytes: int = ROW_BLOCK_BYTES):
    """Consecutive row slices of an n x m float64 array, each of ``_block_rows(m, nbytes)`` rows at most."""
    step = _block_rows(m, nbytes)
    return [slice(i, i + step) for i in range(0, n, step)]


def _pairwise_sum(x: np.ndarray, y: np.ndarray, power: int, out: np.ndarray | None = None) -> np.ndarray:
    """``out_ij = sum_k |x_ik - y_jk| ** power`` for ``power`` 1 or 2.

    Written into ``out`` (a new array without one) one slice of rows at a
    time, each finished while it is in cache: the first dimension into the
    slice of ``out`` itself, each further one into a scratch slice and
    added there.  Rows of at least ``ROW_SUBTRACT_MIN`` entries are
    subtracted one row at a time, a contiguous vector and a scalar; shorter
    ones by a broadcast over the slice, for which numpy takes buffers of
    twice the slice's size, so that slice is half as large.  Beside ``out``
    the build takes under ``2 * PAIRWISE_SCRATCH_BYTES``, a fixed share of
    a row block, and no second n x m or (n, m, d) array.  Every entry adds
    the same terms in the same order whatever the slice, so a block of rows
    equals those rows of the whole matrix bit for bit.  For d <= 2 the sum
    is bit-identical to summing the (n, m, d) differences along the last
    axis; for larger d numpy's pairwise sum adds the same terms in another
    order.
    """
    if out is None:
        out = np.empty((x.shape[0], y.shape[0]))
    (n, m), d = out.shape, x.shape[1]
    per_row = m >= ROW_SUBTRACT_MIN
    step = _block_rows(m, PAIRWISE_SCRATCH_BYTES if per_row else PAIRWISE_SCRATCH_BYTES // 2)
    scratch = np.empty((min(step, n), m)) if d > 1 else None
    xt, yt = x.T, np.ascontiguousarray(y.T)
    for lo in range(0, n, step):
        o = out[lo : lo + step]
        for k in range(d):
            t = scratch[: o.shape[0]] if k else o
            if per_row:
                for xi, row in zip(xt[k, lo : lo + step].tolist(), t):
                    np.subtract(xi, yt[k], out=row)
            else:
                np.subtract(x[lo : lo + step, k : k + 1], yt[k], out=t)
            if power == 2:
                t *= t
            else:
                np.abs(t, out=t)
            if k:
                o += t
    return out


def _named_cost(x: np.ndarray, y: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """The ``kind`` cost between the rows of ``x`` and of ``y``, into ``out`` (a new array without one)."""
    c = _pairwise_sum(x, y, 2, out)
    if kind == "half_sqeuclidean":
        c *= 0.5
    else:
        np.sqrt(c, out=c)
    return c


def _check_kind(mu: DiscreteMeasure, nu: DiscreteMeasure, kind: str) -> None:
    if kind not in COST_KINDS:
        raise InstanceError(f"unknown cost kind {kind!r}; expected 'half_sqeuclidean', 'euclidean' or a matrix")
    if mu.dim != nu.dim:
        raise InstanceError(f"point dimensions differ: {mu.dim} vs {nu.dim}")


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, kind: str) -> np.ndarray:
    """Pairwise cost between the supports of ``mu`` and ``nu``, as a new n x m array.

    ``kind`` is ``"half_sqeuclidean"`` (|x - y|^2 / 2) or ``"euclidean"``
    (|x - y|).

    The difference-based evaluation keeps C(mu, nu) == C(nu, mu)^T exact
    and guarantees nonnegative entries.  Squared differences are
    accumulated by :func:`_pairwise_sum`; an :class:`Instance` of this
    kind gives the same entries, block by block, through :func:`_cost_block`.
    """
    _check_kind(mu, nu, kind)
    return _named_cost(mu.points, nu.points, kind)


def _cost_block(inst: "Instance", rows=slice(None), cols=slice(None), out=None) -> np.ndarray:
    """``C[rows, cols]`` of an instance's cost: the one way every reader takes the cost.

    For a matrix, it is the stored matrix indexed (a view where ``rows`` and
    ``cols`` are slices).  For a named cost, it is the block built from
    the points into ``out``, or into a new array without one; its
    entries are those of :func:`cost_matrix` bit for bit.
    """
    if inst.cost_kind is None:
        return inst.cost[rows, cols]
    return _named_cost(inst.mu.points[rows], inst.nu.points[cols], inst.cost_kind, out)


def _cost_bound(mu: DiscreteMeasure, nu: DiscreteMeasure, kind: str) -> float:
    """D, the ``kind`` cost between the low and the high corner of the points'
    joint bounding box (+inf where it passes the largest double), built by
    :func:`_named_cost` like every entry, so every computed entry is at most D."""
    pts = np.concatenate((mu.points, nu.points))
    with np.errstate(over="ignore"):
        return float(_named_cost(pts.min(axis=0)[None], pts.max(axis=0)[None], kind)[0, 0])


def _cost_minima(inst: "Instance"):
    """Whether every cost entry is finite, and the row and column minima, from one pass over row blocks."""
    n, m = inst.n, inst.m
    finite, row_min, col_min = True, np.empty(n), np.full(m, np.inf)
    with np.errstate(over="ignore"):  # a named cost past the largest double is +inf, and rejected
        for rows in _row_blocks(n, m):
            c = _cost_block(inst, rows)
            finite = finite and bool(np.isfinite(c).all())
            c.min(axis=1, out=row_min[rows])
            np.minimum(col_min, c.min(axis=0), out=col_min)
    return finite, row_min, col_min


@dataclass(frozen=True)
class Instance:
    """One entropic transport problem: marginals, cost, epsilon.

    ``cost`` is a matrix, converted on entry into an array of the
    instance's own, or a :func:`cost_matrix` kind, which is kept as its
    name (``cost_kind``; None for a matrix): no n x m array is stored, and
    every reader takes ``C[rows, cols]`` from :func:`_cost_block`, which
    builds a named cost's block from the points.  The instance digest
    hashes the kind's name in place of a matrix.  The ratio C/eps is
    formed where it is used (``semidual._gibbs_exponent``).

    A named cost needs no pass over its entries to be validated.  Each is
    at least 0 and at most D, the cost between the low and high corners of
    the points' joint bounding box, computed by the same operations in the
    same order: each |x_k - y_k| is at most hi_k - lo_k, and rounding is
    monotone, so every computed entry is at most the computed D.  Where
    D/eps is finite, every entry and every C/eps is finite; only where it
    is not does one pass over row blocks (:func:`_cost_minima`) check them,
    as it does for every matrix.
    """

    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cost: np.ndarray | str
    epsilon: float

    def __post_init__(self):
        if isinstance(self.cost, str):
            _check_kind(self.mu, self.nu, self.cost)
            bound = _cost_bound(self.mu, self.nu, self.cost)
        else:
            c = _as_float_array(self.cost, "cost")
            if c.shape != (self.mu.n_atoms, self.nu.n_atoms):
                raise InstanceError(f"cost shape {c.shape} does not match ({self.mu.n_atoms}, {self.nu.n_atoms})")
            object.__setattr__(self, "cost", c)
            bound = np.inf
        minima = None
        if not bound < np.inf:
            minima = _cost_minima(self)
            if not minima[0]:
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
        object.__setattr__(self, "epsilon", eps)
        if bound / eps < np.inf:
            return
        # each row's Gibbs exponent is normalized by its least C/eps, which must
        # be finite; a column whose every C/eps overflows has no Gibbs mass for b_j
        _, row_min, col_min = minima or _cost_minima(self)
        if float(row_min.max()) / eps == np.inf:
            raise InstanceError(f"C/eps overflows float64 on a whole row of the cost (epsilon={eps!r})")
        if float(col_min.max()) / eps == np.inf:
            raise InstanceError(f"C/eps overflows float64 on a whole column of the cost (epsilon={eps!r})")
        if float(row_min.min()) / eps == -np.inf:
            raise InstanceError(f"C/eps overflows float64 to -inf (epsilon={eps!r})")

    @property
    def cost_kind(self) -> str | None:
        """The named cost's kind, or None for a matrix."""
        return self.cost if isinstance(self.cost, str) else None

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
    return Instance(mu=mu, nu=nu, cost=doc["cost"], epsilon=doc["epsilon"])
