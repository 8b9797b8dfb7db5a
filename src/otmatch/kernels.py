"""Positive-definite kernels on a discrete support.

The identity kernel realizes the counting-measure inner product, so the
plain gradient-ascent update is literally the kernel-smoothed update with
an identity Gram.  Gram matrices are dense; supports are desk scale and
exactness beats scalability here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import _as_float_array, _pairwise_sum

__all__ = [
    "KernelSpec",
    "Gram",
    "gram",
    "parse_kernel_spec",
    "median_pairwise_distance",
]

GRAM_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: ``identity``, ``gaussian`` (bandwidth sigma), or ``laplace`` (scale)."""

    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "gaussian", "laplace"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "identity":
            if self.bandwidth is not None:
                raise ValueError("identity kernel takes no bandwidth")
        else:
            try:  # the scale gram divides by, written as gram writes it
                scale = 2.0 * self.bandwidth**2 if self.kind == "gaussian" else 2.0 * self.bandwidth
            except (TypeError, OverflowError):
                scale = np.nan
            if not (0.0 < scale < np.inf and self.bandwidth > 0.0):
                raise ValueError(f"{self.kind} kernel needs a strictly positive bandwidth with a finite positive "
                                 f"scale 2*sigma{'^2' if self.kind == 'gaussian' else ''}, got {self.bandwidth!r}")


@dataclass(frozen=True)
class Gram:
    """Kernel matrix on the support plus its boundedness constant.

    ``c_k`` is the largest diagonal entry, the constant that drives the
    kernel-smoothed ascent step size min{1/(2 c_k), 1}.
    """

    matrix: np.ndarray
    c_k: float = field(init=False)

    def __post_init__(self):
        k = _as_float_array(self.matrix, "Gram matrix")
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("Gram matrix must be finite")
        asym = k - k.T
        if np.max(np.abs(asym, out=asym)) > GRAM_SYMMETRY_TOL:
            raise ValueError("Gram matrix is not symmetric")
        diag = np.diag(k)
        if np.any(diag <= 0.0):
            raise ValueError("Gram diagonal must be strictly positive")
        object.__setattr__(self, "matrix", k)
        object.__setattr__(self, "c_k", float(diag.max()))


def gram(spec: KernelSpec, points: np.ndarray) -> Gram:
    """Build the Gram matrix of ``spec`` on ``points`` ((m, d) or (m,))."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if not np.all(np.isfinite(pts)):
        raise ValueError("kernel support points must be finite")
    m = pts.shape[0]
    if spec.kind == "identity":
        return Gram(matrix=np.eye(m))
    # a ratio past the largest double gives a zero entry, as in semidual._gibbs_exponent
    with np.errstate(over="ignore"):
        if spec.kind == "gaussian":
            k = np.exp(-_pairwise_sum(pts, pts, 2) / (2.0 * spec.bandwidth**2))
        else:
            k = np.exp(-_pairwise_sum(pts, pts, 1) / (2.0 * spec.bandwidth))
    return Gram(matrix=k)


def parse_kernel_spec(text: str, points: np.ndarray | None = None) -> KernelSpec:
    """Parse ``identity``, ``gaussian:<sigma>``, or ``laplace:<scale>``.

    ``gaussian:median`` / ``laplace:median`` use the median pairwise
    distance of ``points`` as the bandwidth.
    """
    parts = text.strip().split(":")
    if parts[0] == "identity" and len(parts) == 1:
        return KernelSpec(kind="identity")
    if parts[0] in ("gaussian", "laplace") and len(parts) == 2:
        if parts[1] == "median":
            if points is None:
                raise ValueError("median bandwidth needs support points")
            return KernelSpec(kind=parts[0], bandwidth=median_pairwise_distance(points))
        return KernelSpec(kind=parts[0], bandwidth=float(parts[1]))
    raise ValueError(f"cannot parse kernel spec {text!r}")


def median_pairwise_distance(points: np.ndarray) -> float:
    """Median of the off-diagonal pairwise Euclidean distances."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    iu = np.triu_indices(pts.shape[0], k=1)
    if iu[0].size == 0:
        raise ValueError("need at least two points for a median distance")
    return float(np.median(np.sqrt(_pairwise_sum(pts, pts, 2)[iu])))
