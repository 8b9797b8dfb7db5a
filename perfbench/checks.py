"""Output checks, and the independent reference they use for dense solves.

``Reference`` is a textbook log-domain Sinkhorn written from the alternating
dual updates, sharing no code with the program.  A ``final_J`` passes when
it lies within the bound below of the reference value.

Tolerance.  J is concave and shift invariant, and sum(b - p) = 0, so
0 <= J* - J(phi) <= <b - p, phi* - phi> <= |b - p|_1 * osc(phi* - phi) / 2.
Any Sinkhorn iterate (and the optimum) is a soft c-transform, whose
oscillation is at most R = max C/eps - min C/eps, hence
|J_solve - J_ref| <= (res_solve + res_ref) * R + 1e-9 * (1 + |J_ref|),
the last term absorbing rounding in the two summation orders.  An oracle
potential must also meet its residual claim when recomputed here, within
ten times its tolerance for rounding.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Seed-time defect kept visible (see README): the target marginal p underflows
# to 0 while log p is finite, and the identity and chi-square links reject it
# with exit 1.  It always hits the 2+2 instance of the sweep, and chi2 on the
# C/eps = 1e3 instance for a few seeds.  Such a command counts in fail_ratio
# but not as a failure; any other outcome of it must pass the usual checks.
KNOWN_DEFECT = {
    "methods": ("sinkhorn", "eta_sinkhorn", "chi2"),
    "message": "needs a strictly positive mass vector",
}

J_ROUNDING = 1e-9
ORACLE_RESIDUAL_SLACK = 10.0
REFERENCE_TOL = 1e-9
REFERENCE_MAX_ITER = 20_000


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    top = np.max(x, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(x - top), axis=axis)) + np.squeeze(top, axis=axis)


def _load(path: str):
    doc = json.loads(Path(path).read_text())
    xp = np.asarray(doc["x_points"], dtype=float).reshape(len(doc["x_weights"]), -1)
    yp = np.asarray(doc["y_points"], dtype=float).reshape(len(doc["y_weights"]), -1)
    a = np.asarray(doc["x_weights"], dtype=float)
    b = np.asarray(doc["y_weights"], dtype=float)
    if isinstance(doc["cost"], str):  # the generator only writes half_sqeuclidean
        c = 0.5 * ((xp[:, None, :] - yp[None, :, :]) ** 2).sum(axis=2)
    else:
        c = np.asarray(doc["cost"], dtype=float)
    return a / a.sum(), b / b.sum(), c, float(doc["epsilon"])


class Reference:
    """Optimal semi-dual value of one instance file, computed once."""

    def __init__(self, path: str):
        a, b, c, eps = _load(path)
        self.log_a, self.log_b, self.b, self.a = np.log(a), np.log(b), b, a
        self.k = -c / eps
        self.spread = float(self.k.max() - self.k.min())  # R in the module docstring
        g = np.zeros_like(b)
        for _ in range(REFERENCE_MAX_ITER):
            f = -_lse(self.k + (g + self.log_b)[None, :], axis=1)
            col = _lse(self.k + (f + self.log_a)[:, None], axis=0)
            self.residual = float(np.abs(b - np.exp(self.log_b + g + col)).sum())
            if self.residual <= REFERENCE_TOL:
                break
            g = -col
        self.value = float(b @ g + a @ f)

    def value_of(self, phi) -> tuple[float, float]:
        """J(phi) = <b, phi> - <a, phi_plus> and the L1 marginal residual |b - p|_1 of phi,
        evaluated independently of the program."""
        phi = np.asarray(phi, dtype=float)
        phi_plus = _lse(self.k + (phi + self.log_b)[None, :], axis=1)
        col = _lse(self.k + (self.log_a - phi_plus)[:, None], axis=0)
        residual = float(np.abs(self.b - np.exp(self.log_b + phi + col)).sum())
        return float(self.b @ phi - self.a @ phi_plus), residual

    def check(self, j: float, residual: float) -> str | None:
        bound = (residual + self.residual) * self.spread + J_ROUNDING * (1.0 + abs(self.value))
        if abs(j - self.value) <= bound:
            return None
        return f"J {j!r} differs from reference {self.value!r} by more than {bound:.3g}"


def check_oracle(ref: Reference, doc: dict, tol: float) -> str | None:
    j, residual = ref.value_of([float(v) for v in doc["phi"]])
    if residual > ORACLE_RESIDUAL_SLACK * tol:
        return f"oracle potential has residual {residual!r}, claimed tol {tol!r}"
    return ref.check(j, residual)


def classify(rec: dict, outputs) -> None:
    """Set ``status`` (ok, known_defect or failed), ``problem`` and ``doc`` of one command record."""
    cmd, rc = rec["cmd"], rec["rc"]
    if rc not in (0, 2):
        problem = f"exit {rc}: {rec['stderr'][-200:]}"
        known = rc == 1 and cmd.get("method") in KNOWN_DEFECT["methods"] and KNOWN_DEFECT["message"] in rec["stderr"]
        rec.update(status="known_defect" if known else "failed", problem=problem)
        return
    if not all(p.exists() for p in outputs):
        problem = "missing output file"
    else:
        rec["doc"] = json.loads(outputs[0].read_text())
        problem = check_output(cmd, rc, rec["doc"])
    rec.update(status="failed" if problem else "ok", problem=problem)


def check_output(cmd: dict, rc: int, doc: dict) -> str | None:
    """What is wrong with one command's parsed output, or None."""
    kind = cmd["kind"]
    if kind == "solve":
        converged = doc["converged"]
        if rc != (0 if converged else 2):
            return f"exit {rc} with converged={converged}"
        if converged and not float(doc["final_l1_residual"]) <= cmd["tol"]:
            return f"converged but residual {doc['final_l1_residual']} > tol {cmd['tol']}"
    elif rc != 0:
        return f"exit {rc}"
    elif kind == "verify" and not doc["all_passed"]:
        return "verify: not all properties passed"
    elif kind == "flow" and not (doc["v_monotone"] and doc["rate_bound_holds"]):
        return "flow: Lyapunov monotonicity or rate bound violated"
    elif kind == "bridge" and not float(doc["tv_terminal_vs_static"]) <= float(doc["tv_tolerance"]):
        return f"bridge: TV {doc['tv_terminal_vs_static']} above tolerance {doc['tv_tolerance']}"
    return None
