"""Semi-dual objective for entropic transport and its calculus.

The dual problem over two potentials collapses to an unconstrained concave
program in a single potential ``phi`` living on the second marginal's
support: the partner potential is recovered by a soft-max transform.  This
module provides that transform, the objective ``J``, its
first variation (a signed mass vector), and the coupling induced by a
potential.  All reductions run in stabilized log domain with a fixed
summation order, so traces are reproducible bit-for-bit.

Every quantity of the coupling induced by phi derives from one Gibbs
exponent ``w = log b + phi - C/eps`` (:func:`_gibbs_exponent`, which forms
``C/eps`` in its own output buffer): the coupling's log masses are
``w + log a - phi_plus``, and the Gibbs reference of the primal side is
``w + log a`` at phi = 0.  So two induced couplings differ in log domain by
``(phi - psi)_j - (phi_plus - psi_plus)_i``, and since pi(phi) has row sums
``a`` and column sums ``p(phi)``,

    KL(pi(phi) || pi(psi)) = <p(phi), phi - psi> - <a, phi_plus - psi_plus>,

an O(n + m) product (:func:`_induced_kl`); no n x m coupling is built to
read it.  Every solver iteration needs the transform
``phi_plus`` and the induced Y-marginal ``p``; :func:`induced_marginal`
returns the pair from one exponential pass over ``w``, taken one row
block at a time (:func:`_row_pass`).  Each row is shifted by its maximum
and exponentiated once, giving ``E`` and row sums ``s``; then
``phi_plus = log s + rowmax`` (which is also how :func:`plus_transform`
computes it) and ``p = (a / s) @ E``.

A loop evaluates many nearby potentials, so it builds one
:class:`InducedCache`, which keeps the ``E`` and row maxima of its last
such pass (its absorption point ``phi_ref``).  While
``max|phi - phi_ref| <= ABSORB_AT``, the row-shifted Gibbs matrix at phi is
``E * v`` with ``v = exp(phi - phi_ref)``, so two matrix-vector products
give the pair: ``t = E @ v``, ``phi_plus = rowmax + log t`` and
``p = v * ((a / t) @ E)``.  Row i's share of ``p`` needs only ``t_i``, so
both products run on one row block of ``E`` (at most ``ROW_BLOCK_BYTES``,
half of one core's L2) before the next (:func:`_products`), and ``E`` is
read from memory once per evaluation.  A matrix of one block (n m up to
131,072, such as 362 x 362) gets the two whole-matrix products bit for bit.
A potential farther out is absorbed: the old
``E`` is dropped and the exponential pass of :func:`induced_marginal` runs
at phi, which becomes the new reference.  Both use one code path, so a
cache's first evaluation equals :func:`induced_marginal` bit for bit.  A
potential is checked once, where it enters, by :func:`_potential`:
:func:`induced_marginal` (which :func:`plus_transform`, the objective and
the coupling read), the start of the two loops over a cache, and the
bridge reject a phi that is not a finite vector of shape (m,).  A cache
checks nothing: a non-finite iterate gives a NaN pair, which its loops see
in the objective or state.  Only the identity link reads ``log p``, which
:func:`_log_mass` forms from the pair: a column whose ``p_j`` lies below
``P_FLOOR`` may have lost its mass to underflow, so its ``log p_j`` is
recomputed exactly as the logsumexp over rows of the coupling's log masses
in that column; ``p_j`` itself is left as given, accurate in absolute terms
and possibly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .logops import kl, logsumexp
from .measures import ROW_BLOCK_BYTES, Instance, _as_float_array, _cost_block, _row_blocks

__all__ = [
    "Coupling",
    "plus_transform",
    "semidual_value",
    "induced_marginal",
    "InducedCache",
    "marginal_y",
    "first_variation",
    "coupling",
    "log_reference",
]

COUPLING_MASS_TOL = 1e-12

# Radius tau of the cached evaluation: InducedCache reuses the Gibbs matrix of
# its absorption point while max|phi - phi_ref| <= tau.  Then v = exp(phi -
# phi_ref) lies in [e^-tau, e^tau], and each row sum t_i contains its row
# maximum's term 1 * v_j >= e^-tau, so a_i / t_i <= e^tau and t_i <= m e^tau:
# nothing overflows, and every sum is of positive terms.  The price of tau is
# the fallback floor below, which grows as e^(2 tau); tau = 30 keeps it near
# 1.1e-254, far below any mass a tolerance can see, while letting every
# entry of phi move by 30 (a factor 1e13 in its mass) between absorptions.
ABSORB_AT = 30.0

# Masses below this floor fall back to the exact column logsumexp.  Each term
# of p_j is (a_i / t_i) E_ij v_j.  Where E_ij underflowed at absorption, or
# the product (a_i / t_i) E_ij underflows (or is flushed to zero), the term
# loses less than 2^-1022 * e^tau * e^tau, because v_j <= e^tau and a_i / t_i
# <= e^tau.  A column of n terms therefore carries an absolute underflow
# error below n * 2.2e-308 * e^(2 tau), which relative to a mass of at least
# 1e-280 * e^(2 tau) is below n * 2.2e-28: under double precision's 1.1e-16
# for any n up to 5e11.  An absorbing pass is the case v = 1, t = s.
P_FLOOR = 1e-280 * float(np.exp(2.0 * ABSORB_AT))

# bytes of one block in a pass over row blocks (the rounded plan, run's kl_y records)
KL_BLOCK_BYTES = 32 * 1024


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix over the product of the two supports.

    Masses are carried in log domain (geometric interpolation and Gibbs
    reweighting are exact there).  Total mass must be 1 within 1e-12.
    """

    log_masses: np.ndarray

    def __post_init__(self):
        lm = _as_float_array(self.log_masses, "log_masses")
        if lm.ndim != 2:
            raise ValueError(f"log_masses must be a matrix, got shape {lm.shape}")
        if np.any(np.isnan(lm)) or np.any(lm == np.inf):
            raise ValueError("log_masses must be < inf and not NaN")
        total = float(np.exp(logsumexp(lm.reshape(-1))))
        if abs(total - 1.0) > COUPLING_MASS_TOL:
            raise ValueError(f"coupling mass is {total!r}, expected 1 within {COUPLING_MASS_TOL}")
        object.__setattr__(self, "log_masses", lm)


# ---------------------------------------------------------------------------
# Potential transforms
# ---------------------------------------------------------------------------

def plus_transform(phi: np.ndarray, inst: Instance) -> np.ndarray:
    """Soft-max transform sending a Y-potential to an X-potential.

    Component i is ``logsumexp_j(log b_j + phi_j - C_ij / eps)``, computed
    as ``log s + rowmax`` of the exponential pass of :func:`induced_marginal`,
    which also checks phi.  This is the partial maximizer of the
    two-potential dual objective in its first argument, which is what makes
    the semi-dual a function of phi alone.
    """
    return induced_marginal(phi, inst)[0]


# ---------------------------------------------------------------------------
# Objective, marginal, first variation
# ---------------------------------------------------------------------------

def semidual_value(phi: np.ndarray, inst: Instance) -> float:
    """Semi-dual objective J(phi) = <b, phi> - <a, phi_plus>.

    Concave, and invariant to adding a constant to phi (the transform
    absorbs the shift).
    """
    phi_plus = plus_transform(phi, inst)  # checks phi before the product reads it
    return float(inst.b @ phi - inst.a @ phi_plus)


def _gibbs_exponent(phi: np.ndarray, inst: Instance, cols=slice(None), rows=slice(None), out=None) -> np.ndarray:
    """Exponent ``w = (log b + phi)[cols] - C[rows, cols]/eps`` of the coupling induced by phi.

    The one formula every induced-coupling quantity derives from, and the
    one place ``C/eps`` is formed in this module: the cost block is read
    from ``measures._cost_block`` (a named cost's block is built into
    ``out``, or a new array without one), the division writes ``out`` (a
    fresh len(rows) x len(cols) array without one) and the subtraction
    overwrites it in place.  An overflowing C/eps is +inf, an entry of
    mass 0; the caller's entry point holds the scope that lets it overflow
    without a warning.
    """
    c = _cost_block(inst, rows, cols, out)
    w = np.divide(c, inst.epsilon, out=out if inst.cost_kind is None else c)
    return np.subtract((inst.log_b + phi)[cols], w, out=w)


def _rounded_primal(phi: np.ndarray, inst: Instance) -> float:
    """Primal value KL(pi~ || a x b e^{-C/eps}) of the coupling induced by phi, rounded onto U(a, b).

    Altschuler-Weed-Rigollet's rounding (arXiv:1705.09634, Alg. 2): rows down to
    a (the induced rows sum to a), columns down to b, then the rank-one remainder
    of the missing masses, its factors clipped at 0 (rounding leaves -1 ulp).
    pi~ is a feasible plan, so its value bounds J*.  The column sums are
    :func:`marginal_y`'s; one pass over row blocks of ``KL_BLOCK_BYTES``
    rounds each block and adds its KL.  The remainder, about half the final
    residual in mass, pays the C/eps of every entry it lands on: +inf on an
    entry of zero reference mass, so such a value is +inf.
    """
    cols = marginal_y(phi, inst)
    y, c = inst.b / np.maximum(cols, inst.b), np.maximum(inst.b - cols, 0.0)
    c /= c.sum() or 1.0  # an all-zero c adds no remainder
    total = 0.0
    for rows in _row_blocks(inst.n, inst.m, KL_BLOCK_BYTES):
        w = _gibbs_exponent(phi, inst, rows=rows)
        pi = np.exp(w - w.max(axis=1, keepdims=True))
        pi *= (inst.a[rows] / pi.sum(axis=1))[:, None]
        pi *= y
        pi += np.maximum(inst.a[rows] - pi.sum(axis=1), 0.0)[:, None] * c
        log_ref = w - phi + inst.log_a[rows, None]  # log a + log b - C/eps
        total += kl(np.log(pi, out=np.full_like(pi, -np.inf), where=pi > 0.0), log_ref, pi)
    return total


def _log_marginal_cols(phi, phi_plus, inst, cols):
    """Exact ``log p`` on ``cols``: the column logsumexp of the coupling's log masses."""
    return logsumexp(_log_coupling(phi, phi_plus, inst, cols), axis=0)


def _row_pass(phi: np.ndarray, inst: Instance):
    """Row-shifted Gibbs matrix ``E``, its row sums and row maxima.

    ``E_ij = exp(w_ij - max_j w_ij)`` with ``w`` the Gibbs exponent, so
    every row holds a 1 and ``s_i >= 1``; the coupling induced by phi is
    ``E * (a / s)[:, None]``.  One n x m array is allocated and overwritten
    in place, one row block of ``ROW_BLOCK_BYTES`` at a time: each block's
    exponent, maximum, shift, exponential and row sum are taken while it is
    still in cache.  Every entry and row reduction is that of the whole
    matrix, bit for bit, and a cost of at most one block takes the
    whole-matrix operations, at their per-call cost.
    """
    if 8 * inst.n * inst.m <= ROW_BLOCK_BYTES:
        e = _gibbs_exponent(phi, inst)
        rowmax = e.max(axis=1, keepdims=True)
        e -= rowmax
        np.exp(e, out=e)
        return e, e.sum(axis=1), rowmax.ravel()
    e, s, rowmax = np.empty((inst.n, inst.m)), np.empty(inst.n), np.empty((inst.n, 1))
    for rows in _row_blocks(inst.n, inst.m):
        eb = _gibbs_exponent(phi, inst, rows=rows, out=e[rows])
        eb -= eb.max(axis=1, keepdims=True, out=rowmax[rows])
        np.exp(eb, out=eb)
        eb.sum(axis=1, out=s[rows])
    return e, s, rowmax.ravel()


@np.errstate(over="ignore")  # an overflowing C/eps is +inf: its entry has mass 0
def induced_marginal(phi: np.ndarray, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """``(phi_plus, p)`` of the coupling induced by phi, from one exp pass.

    ``phi_plus`` is what :func:`plus_transform` returns, and ``p`` is the
    pass's ``(a / s) @ E``.  phi enters the semi-dual calculus here, so this
    is where :func:`_potential` checks it.
    """
    return _absorb(_potential(phi, inst.m, "phi"), inst)[2:]


def _potential(phi, m: int, name: str) -> np.ndarray:
    """phi as a float64 array, checked where it enters: shape (m,), finite everywhere."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (m,):
        raise ValueError(f"{name} has shape {phi.shape}, expected ({m},)")
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"{name} must be finite everywhere")
    return phi


def _absorb(phi, inst):
    """The exponential pass at phi: ``(E, rowmax, phi_plus, p)``."""
    e, s, rowmax = _row_pass(phi, inst)
    return e, rowmax, np.log(s) + rowmax, (inst.a / s) @ e


def _products(blocks, v):
    """Column sums ``(a / t) @ E`` of the cached pair, with ``t = E @ v`` written into the cache's buffer.

    ``blocks`` holds each row block's views ``(E_b, a_b, t_b)``, at most
    ``ROW_BLOCK_BYTES`` of ``E`` each: both products read a block before the
    next, while it is still in cache, so ``E`` is read from memory once.  The
    blocks' column sums are added in row order; with one block they are the
    two products over the whole matrix, bit for bit.
    """
    col = None
    for eb, ab, tb in blocks:
        cb = (ab / eb.dot(v, out=tb)).dot(eb)
        if col is None:
            col = cb
        else:
            col += cb
    return col


class InducedCache:
    """Per-run evaluator of ``(phi_plus, p)`` on a cached Gibbs matrix.

    The first call, and any call farther than ``ABSORB_AT`` from the last
    absorption point, makes the exponential pass of :func:`induced_marginal`
    and keeps its n x m matrix ``E``; a call within that radius costs the
    two matrix-vector products of :func:`_products`, which read ``E`` once,
    one row block at a time.  Results agree with :func:`induced_marginal`
    to rounding.  It does not check phi: its loop checks the start, and a
    NaN or infinite entry makes the radius test's sup norm NaN or infinite,
    so the call returns a NaN pair without a pass and keeps its matrix; the
    loop reports the NaN.  A cache belongs to one run: it is neither
    thread-safe nor meant to be stored on the shared :class:`Instance`.
    """

    def __init__(self, inst: Instance):
        self._inst = inst
        self._blocks = self._t = self._rowmax = self._phi_ref = None

    def __call__(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._blocks is not None:
            delta = phi - self._phi_ref
            # the 2-norm bounds the sup norm and is one call where m is small; vdot
            # overflows to inf without a floating-point warning, and the sup test decides
            if np.vdot(delta, delta) <= ABSORB_AT**2 or (sup := abs(delta).max()) <= ABSORB_AT:
                v = np.exp(delta)
                p = v * _products(self._blocks, v)
                return self._rowmax + np.log(self._t), p
            if not sup < np.inf:  # a NaN or infinite iterate: a NaN pair, with no pass
                return np.full(self._rowmax.size, np.nan), np.full(phi.size, np.nan)
            self._blocks = None  # free the old matrix before the pass allocates a new one
        e, self._rowmax, phi_plus, p = _absorb(phi, self._inst)
        a, t = self._inst.a, np.empty(e.shape[0])
        self._blocks, self._t = [(e[rows], a[rows], t[rows]) for rows in _row_blocks(*e.shape)], t
        self._phi_ref = phi.copy()
        return phi_plus, p


def _log_mass(p, phi, phi_plus, inst):
    """The identity link's ``log p``, with columns below ``P_FLOOR`` recomputed by the column logsumexp."""
    if p.min() >= P_FLOOR:
        return np.log(p)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    low = np.flatnonzero(p < P_FLOOR)
    if low.size:
        log_p[low] = _log_marginal_cols(phi, phi_plus, inst, low)
    return log_p


def marginal_y(phi: np.ndarray, inst: Instance) -> np.ndarray:
    """Y-marginal mass vector of the coupling induced by phi (:func:`induced_marginal`)."""
    return induced_marginal(phi, inst)[1]


def first_variation(phi: np.ndarray, inst: Instance) -> np.ndarray:
    """First variation of J at phi, as a signed mass vector: b - marginal.

    Entries sum to zero (both terms are probability vectors), vanishes
    exactly at an optimal potential, and one representation serves the
    plain, kernel-smoothed, and matching-style updates alike.
    """
    return inst.b - marginal_y(phi, inst)


@np.errstate(over="ignore")  # an overflowing C/eps is +inf: its entry has mass 0
def coupling(phi: np.ndarray, inst: Instance) -> Coupling:
    """Coupling induced by phi: pi_ij = exp(phi_j - phi_plus_i - C_ij/eps) a_i b_j.

    Row sums equal the first marginal's weights by construction: the
    transform in the exponent is exactly the row log-normalizer.
    """
    return Coupling(log_masses=_log_coupling(phi, plus_transform(phi, inst), inst))


def _log_coupling(phi: np.ndarray, phi_plus: np.ndarray, inst: Instance, cols=slice(None)) -> np.ndarray:
    """Log masses ``w_ij + log a_i - phi_plus_i`` of the induced coupling on ``cols``."""
    return _gibbs_exponent(phi, inst, cols) + (inst.log_a - phi_plus)[:, None]


def _induced_kl(inst: Instance, phi, phi_plus, p, psi, psi_plus) -> float:
    """KL(pi(phi) || pi(psi)) from the potentials, their transforms and the Y-marginal p at phi."""
    return float(p @ (phi - psi) - inst.a @ (phi_plus - psi_plus))


# ---------------------------------------------------------------------------
# Primal side
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")  # an overflowing C/eps is +inf: its entry has mass 0
def log_reference(inst: Instance) -> np.ndarray:
    """Log masses of the normalized Gibbs reference exp(-C/eps) * (a x b) / Z.

    Unnormalized, these are the coupling's log masses at phi = 0 with
    ``phi_plus = 0``: the Gibbs exponent at phi = 0 plus ``log a``.
    """
    lr = _gibbs_exponent(np.zeros(inst.m), inst) + inst.log_a[:, None]
    z = logsumexp(lr.reshape(-1))
    return lr - z
