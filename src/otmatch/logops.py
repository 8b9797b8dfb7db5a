"""Stabilized log-domain reductions shared across the package.

Every exponential in the solver stack goes through ``logsumexp`` with
max-subtraction; cost/regularization ratios routinely reach 10^2-10^3 in
stress settings and raw ``exp`` would overflow.  Summation order is the
fixed order numpy uses for contiguous arrays, so repeated runs on the same
platform produce bit-identical results.  ``kl`` lives here too, as the one
KL divergence every layer imports.
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "kl"]


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) along ``axis`` with max-subtraction.

    Inputs may contain ``-inf`` (zero mass) but not ``+inf`` or NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    # an all -inf slice would turn (a - amax) into nan; pin those maxima to 0
    amax_safe = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax_safe), axis=axis))
    if axis is None:
        return float(out + amax_safe.reshape(()))
    return out + np.squeeze(amax_safe, axis=axis)


def kl(
    log_p: np.ndarray, log_q: np.ndarray, p: np.ndarray | None = None, axis: int | None = None
) -> float | np.ndarray:
    """KL divergence sum p log(p/q) between mass arrays given by their logs.

    One masked pass: only the masses ``p > 0`` form a term, so a zero mass
    contributes nothing (0 log 0 = 0) and raises no floating-point
    exception, and mass of p where q has none gives ``inf``.  A caller that
    already holds the masses ``p = exp(log_p)`` passes them.  The sum runs
    over the whole array and gives a float, or along ``axis`` and gives one
    value per slice, each the 1-D call on that slice (``log_q`` broadcasts);
    for C-contiguous rows and ``axis=-1`` that holds bit for bit, because a
    row sums in the order of a 1-D array.
    """
    if p is None:
        p = np.exp(log_p)
    live = p > 0.0
    terms = np.zeros(np.broadcast(log_p, log_q, live).shape)
    np.subtract(log_p, log_q, out=terms, where=live)
    np.multiply(terms, p, out=terms, where=live)
    val = terms.sum(axis=axis)
    return float(val) if axis is None else val
