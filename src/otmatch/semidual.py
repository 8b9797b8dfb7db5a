"""Semi-dual objective for entropic transport and its calculus.

The dual problem over two potentials collapses to an unconstrained concave
program in a single potential ``phi`` living on the second marginal's
support: the partner potential is recovered by a soft-max transform.  This
module provides that transform and its reverse, the objective ``J``, its
first variation (a signed mass vector), and the coupling induced by a
potential.  All reductions run in stabilized log domain with a fixed
summation order, so traces are reproducible bit-for-bit.

Every solver iteration needs the transform ``phi_plus`` and the induced
Y-marginal ``p``; :func:`induced_marginal` produces both from one
exponential pass over ``w = log b + phi - C/eps``.  Each row is shifted by
its maximum and exponentiated once, giving ``E`` and row sums ``s``; then
``phi_plus = log s + rowmax`` and ``p = (a / s) @ E``.  A column whose
``p_j`` lies below ``P_FLOOR`` may have lost its mass to underflow, so its
``log p_j`` is recomputed exactly by the column logsumexp that
:func:`log_marginal_y` evaluates; that function remains the two-pass
reference.

A solver run evaluates many nearby potentials, so it builds one
:class:`InducedCache`, which keeps the ``E`` and row maxima of its last
such pass (its absorption point ``phi_ref``).  While
``max|phi - phi_ref| <= ABSORB_AT``, the row-shifted Gibbs matrix at phi is
``E * v`` with ``v = exp(phi - phi_ref)``, so two matrix-vector products
give the pair: ``t = E @ v``, ``phi_plus = rowmax + log t`` and
``p = v * ((a / t) @ E)``.  Columns below ``CACHED_P_FLOOR`` take the exact
column logsumexp.  A potential farther out is absorbed: the old ``E`` is
dropped and the exponential pass of :func:`induced_marginal` runs at phi,
which becomes the new reference.  Both use one code path, so a cache's
first evaluation equals :func:`induced_marginal` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logops import logsumexp
from .measures import Instance

__all__ = [
    "Coupling",
    "plus_transform",
    "minus_transform",
    "semidual_value",
    "log_marginal_y",
    "induced_marginal",
    "InducedCache",
    "marginal_y",
    "first_variation",
    "coupling",
    "log_reference",
    "primal_value",
]

COUPLING_MASS_TOL = 1e-12

# Fused-pass masses below this floor fall back to the exact column logsumexp.
# Each term (a_i / s_i) E_ij of p_j lies in [0, 1]; where E_ij or the product
# underflows (or is flushed to zero) the term loses less than the smallest
# normal double 2^-1022, about 2.2e-308.  A column of n terms therefore carries
# an absolute underflow error below n * 2.2e-308, which relative to a mass of
# at least 1e-280 is below n * 2.2e-28: under double precision's 1.1e-16 for
# any n up to 5e11.
P_FLOOR = 1e-280

# Radius tau of the cached evaluation: InducedCache reuses the Gibbs matrix of
# its absorption point while max|phi - phi_ref| <= tau.  Then v = exp(phi -
# phi_ref) lies in [e^-tau, e^tau], and each row sum t_i contains its row
# maximum's term 1 * v_j >= e^-tau, so a_i / t_i <= e^tau and t_i <= m e^tau:
# nothing overflows, and every sum is of positive terms.  The price of tau is
# the fallback floor below, which grows as e^(2 tau); tau = 30 keeps it near
# 1.1e-254, far below any mass a tolerance can see, while letting every
# entry of phi move by 30 (a factor 1e13 in its mass) between absorptions.
ABSORB_AT = 30.0

# Cached-branch masses below this floor fall back to the exact column
# logsumexp.  Each term of p_j is (a_i / t_i) E_ij v_j.  Where E_ij underflowed
# at absorption, or the product (a_i / t_i) E_ij underflows, the term loses
# less than 2^-1022 * e^tau * e^tau, because v_j <= e^tau and a_i / t_i <=
# e^tau.  A column of n terms therefore carries an absolute underflow error
# below n * 2^-1022 * e^(2 tau), which relative to a mass of at least
# P_FLOOR * e^(2 tau) is below n * 2.2e-28, as for P_FLOOR.
CACHED_P_FLOOR = P_FLOOR * float(np.exp(2.0 * ABSORB_AT))


def _check_finite(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite everywhere")
    return v


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix over the product of the two supports.

    Masses are carried in log domain (geometric interpolation and Gibbs
    reweighting are exact there); ``masses`` materializes them.  Total
    mass must be 1 within 1e-12.
    """

    log_masses: np.ndarray
    total_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lm = np.asarray(self.log_masses, dtype=np.float64)
        if lm.ndim != 2:
            raise ValueError(f"log_masses must be a matrix, got shape {lm.shape}")
        if np.any(np.isnan(lm)) or np.any(lm == np.inf):
            raise ValueError("log_masses must be < inf and not NaN")
        total = float(np.exp(logsumexp(lm.reshape(-1))))
        if abs(total - 1.0) > COUPLING_MASS_TOL:
            raise ValueError(f"coupling mass is {total!r}, expected 1 within {COUPLING_MASS_TOL}")
        lm = lm.copy()
        lm.setflags(write=False)
        object.__setattr__(self, "log_masses", lm)
        object.__setattr__(self, "total_mass", total)

    @property
    def masses(self) -> np.ndarray:
        return np.exp(self.log_masses)

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_masses.shape

    def marginal_x(self) -> np.ndarray:
        return np.exp(logsumexp(self.log_masses, axis=1))

    def marginal_y(self) -> np.ndarray:
        return np.exp(logsumexp(self.log_masses, axis=0))


# ---------------------------------------------------------------------------
# Potential transforms
# ---------------------------------------------------------------------------

def plus_transform(phi: np.ndarray, inst: Instance) -> np.ndarray:
    """Soft-max transform sending a Y-potential to an X-potential.

    Component i is ``logsumexp_j(log b_j + phi_j - C_ij / eps)``.  This is
    the partial maximizer of the two-potential dual objective in its first
    argument, which is what makes the semi-dual a function of phi alone.
    """
    phi = _check_finite(phi, "phi")
    return logsumexp(inst.log_b[None, :] + phi[None, :] - inst.cost_over_eps, axis=1)


def minus_transform(psi: np.ndarray, inst: Instance) -> np.ndarray:
    """Reverse transform: component j is ``-logsumexp_i(log a_i + psi_i + C_ij / eps)``."""
    psi = _check_finite(psi, "psi")
    return -logsumexp(inst.log_a[:, None] + psi[:, None] + inst.cost_over_eps, axis=0)


# ---------------------------------------------------------------------------
# Objective, marginal, first variation
# ---------------------------------------------------------------------------

def semidual_value(phi: np.ndarray, inst: Instance) -> float:
    """Semi-dual objective J(phi) = <b, phi> - <a, phi_plus>.

    Concave, and invariant to adding a constant to phi (the transform
    absorbs the shift).
    """
    phi = _check_finite(phi, "phi")
    return float(inst.b @ phi - inst.a @ plus_transform(phi, inst))


def log_marginal_y(phi: np.ndarray, inst: Instance, phi_plus: np.ndarray | None = None) -> np.ndarray:
    """Log of the Y-marginal of the coupling induced by phi.

    log p_j = log b_j + phi_j + logsumexp_i(log a_i - phi_plus_i - C_ij/eps).
    The result is a probability vector within 1e-12 because each row of the
    induced coupling is normalized against the same transform.
    """
    phi = _check_finite(phi, "phi")
    if phi_plus is None:
        phi_plus = plus_transform(phi, inst)
    return _log_marginal_cols(phi, phi_plus, inst, slice(None))


def _log_marginal_cols(phi, phi_plus, inst, cols):
    col = logsumexp(inst.log_a[:, None] - phi_plus[:, None] - inst.cost_over_eps[:, cols], axis=0)
    return inst.log_b[cols] + phi[cols] + col


def _row_pass(phi: np.ndarray, inst: Instance):
    """Row-shifted Gibbs matrix ``E``, its row sums and row maxima.

    ``E_ij = exp(w_ij - max_j w_ij)`` with ``w = log b + phi - C/eps``, so
    every row holds a 1 and ``s_i >= 1``; the coupling induced by phi is
    ``E * (a / s)[:, None]``.  One n x m array is allocated and overwritten
    in place.
    """
    e = (inst.log_b + phi) - inst.cost_over_eps
    rowmax = e.max(axis=1, keepdims=True)
    e -= rowmax
    np.exp(e, out=e)
    return e, e.sum(axis=1), rowmax[:, 0]


def induced_marginal(phi: np.ndarray, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``(phi_plus, log p)`` of the coupling induced by phi, from one exp pass.

    ``phi_plus`` equals :func:`plus_transform` bit for bit (same shifted
    terms, same row reduction).  ``log p`` agrees with
    :func:`log_marginal_y` to rounding, and exactly on columns whose mass
    falls below ``P_FLOOR``, which are recomputed by that column logsumexp.
    """
    phi = _check_finite(phi, "phi")
    return _absorb(phi, inst)[2:]


def _absorb(phi, inst):
    """The exponential pass at phi: ``(E, rowmax, phi_plus, log p)``."""
    e, s, rowmax = _row_pass(phi, inst)
    phi_plus = np.log(s) + rowmax
    p = (inst.a / s) @ e
    return e, rowmax, phi_plus, _log_mass(p, P_FLOOR, phi, phi_plus, inst)


class InducedCache:
    """Per-run evaluator of ``(phi_plus, log p)`` on a cached Gibbs matrix.

    The first call, and any call farther than ``ABSORB_AT`` from the last
    absorption point, makes the exponential pass of :func:`induced_marginal`
    and keeps its n x m matrix; calls within that radius cost two
    matrix-vector products.  Results agree with :func:`induced_marginal`
    to rounding.  A cache belongs to one run: it is neither thread-safe nor
    meant to be stored on the shared :class:`Instance`.
    """

    def __init__(self, inst: Instance):
        self._inst = inst
        self._e = self._rowmax = self._phi_ref = None

    def __call__(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = _check_finite(phi, "phi")
        if self._e is not None:
            delta = phi - self._phi_ref
            if np.max(np.abs(delta)) <= ABSORB_AT:
                return self._shifted(phi, delta)
            self._e = None  # free the old matrix before the pass allocates a new one
        self._e, self._rowmax, phi_plus, log_p = _absorb(phi, self._inst)
        self._phi_ref = phi.copy()
        return phi_plus, log_p

    def _shifted(self, phi, delta):
        inst = self._inst
        v = np.exp(delta)
        t = self._e @ v
        phi_plus = self._rowmax + np.log(t)
        p = v * ((inst.a / t) @ self._e)
        return phi_plus, _log_mass(p, CACHED_P_FLOOR, phi, phi_plus, inst)


def _log_mass(p, floor, phi, phi_plus, inst):
    """``log p``, with columns below ``floor`` recomputed by the column logsumexp."""
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    low = np.flatnonzero(p < floor)
    if low.size:
        log_p[low] = _log_marginal_cols(phi, phi_plus, inst, low)
    return log_p


def marginal_y(phi: np.ndarray, inst: Instance, phi_plus: np.ndarray | None = None) -> np.ndarray:
    """Y-marginal mass vector of the coupling induced by phi."""
    return np.exp(log_marginal_y(phi, inst, phi_plus))


def first_variation(phi: np.ndarray, inst: Instance, phi_plus: np.ndarray | None = None) -> np.ndarray:
    """First variation of J at phi, as a signed mass vector: b - marginal.

    Entries sum to zero (both terms are probability vectors), vanishes
    exactly at an optimal potential, and one representation serves the
    plain, kernel-smoothed, and matching-style updates alike.
    """
    return inst.b - marginal_y(phi, inst, phi_plus)


def coupling(phi: np.ndarray, inst: Instance) -> Coupling:
    """Coupling induced by phi: pi_ij = exp(phi_j - phi_plus_i - C_ij/eps) a_i b_j.

    Row sums equal the first marginal's weights by construction: the
    transform in the exponent is exactly the row log-normalizer.
    """
    phi = _check_finite(phi, "phi")
    return Coupling(log_masses=_log_coupling(phi, plus_transform(phi, inst), inst))


def _log_coupling(phi: np.ndarray, phi_plus: np.ndarray, inst: Instance) -> np.ndarray:
    """Log masses ``log a_i + log b_j + phi_j - phi_plus_i - C_ij/eps``."""
    return (
        inst.log_a[:, None]
        + inst.log_b[None, :]
        + phi[None, :]
        - phi_plus[:, None]
        - inst.cost_over_eps
    )


# ---------------------------------------------------------------------------
# Primal side
# ---------------------------------------------------------------------------

def log_reference(inst: Instance) -> np.ndarray:
    """Log masses of the normalized Gibbs reference exp(-C/eps) * (a x b) / Z."""
    lr = inst.log_a[:, None] + inst.log_b[None, :] - inst.cost_over_eps
    z = logsumexp(lr.reshape(-1))
    return lr - z


def primal_value(pi: Coupling, inst: Instance) -> float:
    """KL divergence of a coupling from the normalized Gibbs reference.

    Returns ``inf`` when ``pi`` places mass outside the reference's
    support.  Zero masses in ``pi`` contribute nothing (0 log 0 = 0).
    """
    log_ref = log_reference(inst)
    lp = pi.log_masses
    if lp.shape != log_ref.shape:
        raise ValueError(f"coupling shape {lp.shape} does not match instance {log_ref.shape}")
    live = lp > -np.inf
    if np.any(live & (log_ref == -np.inf)):
        return float("inf")
    terms = np.zeros_like(lp)
    terms[live] = np.exp(lp[live]) * (lp[live] - log_ref[live])
    return float(terms.sum())
