"""Seeded instance files and command lists for the three benchmark workloads.

Run as a script it writes ``manifest.json`` plus every instance file into
``--out``; the program under test only ever sees those files.  The same
``--seed`` gives byte-identical files.  Working sets are sized against the
host caches (2 cores, L2 4 MiB, shared LLC 300 MiB as ``lscpu`` reports):

* ``dense``   n x m float64 temporaries of 8-32 MiB, all above L2;
* ``sweep``   at most 128 x 128 x 8 B = 128 KiB, inside L2;
* ``proofs``  16 x 16 couplings and a 64-node bridge grid, inside L1/L2.

Run: ``python3 perfbench/instances.py --workload sweep --seed 1 --out DIR``
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("dense", "sweep", "proofs")
METHODS = ("sinkhorn", "eta_sinkhorn", "sga", "ksga", "chi2", "sign_sga", "proj_sga", "proj_sga_pp")

# Dirichlet(0.05) draws can underflow to exactly 0, which the program rightly
# rejects as a zero-mass atom; the floor keeps the skewed instance well-posed.
SKEW_WEIGHT_FLOOR = 1e-100


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _weights(rng: np.random.Generator, n: int, alpha: float = 1.0) -> np.ndarray:
    w = np.maximum(rng.dirichlet(np.full(n, alpha)), SKEW_WEIGHT_FLOOR)
    return w / w.sum()


def _cloud_doc(rng, n: int, m: int, eps: float, alpha: float = 1.0, explicit: bool = False) -> dict:
    """2-D uniform point clouds in [0, 1]^2 with Dirichlet(alpha) weights."""
    xp, xw = rng.uniform(0.0, 1.0, (n, 2)), _weights(rng, n, alpha)
    yp, yw = rng.uniform(0.0, 1.0, (m, 2)), _weights(rng, m, alpha)
    doc = {
        "x_points": xp.tolist(),
        "x_weights": xw.tolist(),
        "y_points": yp.tolist(),
        "y_weights": yw.tolist(),
        "cost": "half_sqeuclidean",
        "epsilon": eps,
    }
    if explicit:
        d = xp[:, None, :] - yp[None, :, :]
        doc["cost"] = (0.5 * np.sum(d * d, axis=2)).tolist()
    return doc


def _solve(inst: str, method: str, tol: float, *extra: str) -> dict:
    return {"kind": "solve", "instance": inst, "method": method, "tol": tol,
            "args": ["--method", method, "--tol", repr(tol), *extra]}


def _dense(seed: int) -> tuple[dict, list[dict], int]:
    docs = {
        "dense_2048": _cloud_doc(_rng(seed, 1), 2048, 2048, 0.05),
        "dense_1024": _cloud_doc(_rng(seed, 2), 1024, 1024, 0.01),
        "explicit_1024": _cloud_doc(_rng(seed, 3), 1024, 1024, 0.05, explicit=True),
        "kernel_1024": _cloud_doc(_rng(seed, 4), 1024, 1024, 0.05),
        "oracle_512": _cloud_doc(_rng(seed, 5), 512, 512, 0.005),
    }
    cmds = [
        _solve("dense_2048", "sinkhorn", 1e-6),
        _solve("dense_1024", "sinkhorn", 1e-6),
        _solve("explicit_1024", "sinkhorn", 1e-6),
        _solve("kernel_1024", "sga", 1e-6, "--kernel", "gaussian:median",
               "--max-iter", "200", "--record-every", "10"),
        {"kind": "oracle", "instance": "oracle_512", "tol": 1e-12, "args": ["--tol", "1e-12"]},
    ]
    return docs, cmds, 4  # rerun the oracle: its output is a full potential


def _sweep(seed: int) -> tuple[dict, list[dict], int]:
    docs = {}
    tag = 10
    for n in (16, 64, 128):
        for eps in (0.5, 0.05):
            docs[f"cloud_{n}_{eps}"] = _cloud_doc(_rng(seed, tag), n, n, eps)
            tag += 1
    docs["underflow_2x2"] = {  # fixed: ROADMAP's reproduction of the p-underflow crash
        "x_points": [[0.0], [0.1]], "x_weights": [0.5, 0.5],
        "y_points": [[0.0], [5.0]], "y_weights": [0.5, 0.5],
        "cost": "half_sqeuclidean", "epsilon": 0.01,
    }
    docs["skewed_64"] = _cloud_doc(_rng(seed, 20), 64, 64, 0.05, alpha=0.05)
    ceps = _cloud_doc(_rng(seed, 21), 16, 16, 1.0)
    xp, yp = np.array(ceps["x_points"]), np.array(ceps["y_points"])
    d = xp[:, None, :] - yp[None, :, :]
    ceps["epsilon"] = float(0.5 * np.sum(d * d, axis=2).max()) / 1e3  # max C/eps = 1e3
    docs["cost_ratio_1e3"] = ceps
    # method-major, so that small and large instances alternate through a pass
    # and each size's commands sample the host's speed across the whole pass
    cmds = []
    for method in METHODS:
        for inst in docs:
            kernel = "gaussian:0.25" if method == "ksga" else "identity"
            cmds.append(_solve(inst, method, 1e-6, "--kernel", kernel, "--max-iter", "500",
                               "--record-every", "1", "--trace", "{trace}"))
    rerun = next(i for i, c in enumerate(cmds)
                 if c["instance"] == "cloud_64_0.05" and c["method"] == "ksga")
    return docs, cmds, rerun


def _bridge_doc(rng) -> dict:
    """1-D quadratic-cost instance on a shared 64-node grid over [-2, 2], eps 1."""
    xs = np.linspace(-2.0, 2.0, 64)
    center, width, phase = rng.uniform(-0.8, 0.8), rng.uniform(0.3, 0.6), rng.uniform(0.0, 2 * np.pi)
    mu = np.exp(-0.5 * ((xs - center) / width) ** 2)
    nu = 1.0 + 0.5 * np.sin(2.0 * xs + phase)
    return {
        "x_points": xs.tolist(), "x_weights": (mu / mu.sum()).tolist(),
        "y_points": xs.tolist(), "y_weights": (nu / nu.sum()).tolist(),
        "cost": "half_sqeuclidean", "epsilon": 1.0,
    }


def _proofs(seed: int) -> tuple[dict, list[dict], int]:
    docs = {
        "flow_16": _cloud_doc(_rng(seed, 30), 16, 16, 0.5),
        "bridge_64": _bridge_doc(_rng(seed, 31)),
    }
    cmds = [
        {"kind": "verify", "args": ["--seed", str(seed)]},
        {"kind": "flow", "instance": "flow_16", "r": 2.0, "t0": 0.01, "t_end": 10.0, "dt": 1e-3,
         "args": ["--r", "2", "--t-end", "10", "--trace", "{trace}"]},
        {"kind": "flow", "instance": "flow_16", "r": 3.0, "t0": 0.01, "t_end": 10.0, "dt": 1e-3,
         "args": ["--r", "3", "--t-end", "10", "--trace", "{trace}"]},
        {"kind": "bridge", "instance": "bridge_64",
         "args": ["--phi", "oracle", "--particles", "100000", "--seed", str(seed), "--drift", "{trace}"]},
    ]
    return docs, cmds, 3


_BUILDERS = {"dense": _dense, "sweep": _sweep, "proofs": _proofs}


def write_workload(workload: str, seed: int, out: Path) -> dict:
    """Write the instance files and ``manifest.json`` for one workload; return the manifest."""
    docs, cmds, rerun = _BUILDERS[workload](seed)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, doc in docs.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = {"path": str(path), "n": len(doc["x_weights"]), "m": len(doc["y_weights"])}
    manifest = {"workload": workload, "seed": seed, "instances": files, "commands": cmds, "rerun": rerun}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    write_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
