"""Coupling-space view of the matching updates.

The dual update has three equivalent faces over joint distributions: a
two-stage projection (correct the Y-marginal through the link, then pull
the X-marginal back by geometric interpolation of conditionals), a local
first-order step penalized by KL, and a mirror step through the convex
conjugate of the KL-to-reference potential restricted to couplings with
fixed X-marginal.  The dual path is the production path; these exist to
make the equivalences executable.  Everything operates in log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logops import logsumexp
from .measures import Instance
from .semidual import Coupling, log_reference
from .solvers import Link, log_link

__all__ = [
    "DualPair",
    "project_y",
    "project_x",
    "v_link",
    "root_step",
    "mirror_fwd",
    "mirror_bwd",
    "separability_residual",
]


@dataclass(frozen=True)
class DualPair:
    """Separable matrix f(x) + g(y), stored by its two factors."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64).reshape(-1)
        g = np.asarray(self.g, dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("dual pair factors must be finite")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def matrix(self) -> np.ndarray:
        return self.f[:, None] + self.g[None, :]


def _log_masses(pi: Coupling) -> np.ndarray:
    lm = pi.log_masses
    if np.any(lm == -np.inf):
        raise ValueError("this operation needs a strictly positive coupling")
    return lm


def project_y(pi: Coupling, inst: Instance, link: Link) -> Coupling:
    """Rescale columns so the Y-marginal moves toward the target through the link.

    Column j is multiplied by exp(log T(b) - log T(p))_j and the whole
    matrix renormalized; conditionals of X given Y are untouched.  With the
    identity link the output Y-marginal equals the target exactly.
    """
    lm = _log_masses(pi)
    log_p = logsumexp(lm, axis=0)
    log_w = log_link(link, inst.log_b, inst.log_b) - log_link(link, log_p, inst.log_b)
    shifted = lm + log_w[None, :]
    z = logsumexp(shifted.reshape(-1))
    return Coupling(log_masses=shifted - z)


def project_x(pi_half: Coupling, pi: Coupling, inst: Instance, eta: float) -> Coupling:
    """Geometric interpolation of Y|X conditionals, rows renormalized to ``a``.

    Row i of the output is proportional to (pi_half row cond)^eta times
    (pi row cond)^(1 - eta) with total row mass a_i, so the X-marginal is
    exact by construction.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"interpolation weight must lie in [0, 1], got {eta}")
    lh = _log_masses(pi_half)
    lm = _log_masses(pi)
    cond_half = lh - logsumexp(lh, axis=1)[:, None]
    cond = lm - logsumexp(lm, axis=1)[:, None]
    mix = eta * cond_half + (1.0 - eta) * cond
    mix = mix - logsumexp(mix, axis=1)[:, None] + inst.log_a[:, None]
    return Coupling(log_masses=mix)


def v_link(pi: Coupling, inst: Instance, link: Link) -> np.ndarray:
    """First-order correction field: every row is log T(p) - log T(b)."""
    lm = _log_masses(pi)
    log_p = logsumexp(lm, axis=0)
    row = log_link(link, log_p, inst.log_b) - log_link(link, inst.log_b, inst.log_b)
    return np.tile(row, (inst.n, 1))


def root_step(pi: Coupling, inst: Instance, link: Link, eta: float) -> Coupling:
    """KL-penalized first-order step, realized as the two projections composed."""
    return project_x(project_y(pi, inst, link), pi, inst, eta)


def mirror_fwd(pi: Coupling, inst: Instance) -> np.ndarray:
    """Mirror map: elementwise log ratio against the normalized Gibbs reference."""
    return _log_masses(pi) - log_reference(inst)


def mirror_bwd(h: np.ndarray, inst: Instance) -> Coupling:
    """Inverse mirror map: Gibbs reweighting of the reference, rows pinned to ``a``.

    out_ij = a_i * ref_ij e^{h_ij} / sum_j' ref_ij' e^{h_ij'}; X-only
    components of ``h`` cancel in the row normalization, which is exactly
    the gauge freedom of the potentials.
    """
    h = np.asarray(h, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise ValueError("mirror input must be finite")
    lr = log_reference(inst) + h
    lm = lr - logsumexp(lr, axis=1)[:, None] + inst.log_a[:, None]
    return Coupling(log_masses=lm)


def separability_residual(mat: np.ndarray) -> float:
    """Sup-norm distance of a matrix from exact f(x) + g(y) form.

    Zero iff all second differences M_ij - M_i0 - M_0j + M_00 vanish.
    """
    m = np.asarray(mat, dtype=np.float64)
    second = m - m[:, :1] - m[:1, :] + m[:1, :1]
    return float(np.max(np.abs(second)))
