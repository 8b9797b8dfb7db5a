"""Command-line front door.

Subcommands: ``solve`` (run a method on an instance file and emit trace +
summary), ``oracle`` (high-precision potential), ``verify`` (seeded
property suite, machine-readable report), ``bridge`` and ``flow`` (demo
runs emitting their trace formats), ``validate`` (instance file check).

Exit codes: 0 success/convergence, 2 no convergence (iteration budget
exhausted, a step size that underflows to zero, a diverging ascent, an
iterate that turns non-finite, a failed reference solve, a mirror flow that
turns non-finite or stiff or needs a step below its floor, or an array too
large for memory; for ``verify``, a property that failed or was
inconclusive), 1 input or usage error, or an output path that cannot be
written.  A command writes all its output files or none, and all
randomness sits behind ``--seed``.  Wall times are measured but only
written when ``--timings`` is passed, so a fixed invocation produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import bridge as bridge_mod
from .kernels import gram, parse_kernel_spec
from .measures import InstanceError, Instance, load_instance
from .mirrorflow import MIN_STEP, FlowBlowupError, flow_run
from .semidual import marginal_y
from .solvers import (
    METHODS,
    DivergenceError,
    OracleError,
    SolverConfig,
    oracle_solve,
    run,
)
from .verify import random_instance, run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2


def _write_outputs(doc, doc_path, files=()) -> None:
    """Write ``doc`` as JSON to ``doc_path`` (stdout without one) and each
    ``(path, text)`` of ``files``, all or none: temp files beside the targets
    replace them only once all are written, and a failure removes them."""
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    outputs = [*files, (doc_path, text)] if doc_path else list(files)
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    staged, target = [], None
    try:
        for target, body in outputs:
            target = Path(target)
            if target.is_dir():  # os.replace would fail on it after renaming the others
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(body)
        for tmp, (target, _) in zip(staged, outputs):
            os.replace(tmp, target)
    except BaseException as exc:
        for tmp in staged:  # a renamed one is gone already
            Path(tmp).unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the target, not the temp file
            raise OSError(exc.errno, exc.strerror, str(target)) from exc
        raise
    if not doc_path:
        sys.stdout.write(text)


def _digest(inst: Instance) -> str:
    """SHA-256 over a version tag, then the shape and C-order little-endian
    float64 bytes of each array, then ``repr(epsilon)``."""
    h = hashlib.sha256(b"otmatch-instance-digest-v2\0")
    for arr in (inst.mu.points, inst.mu.weights, inst.nu.points, inst.nu.weights, inst.cost):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr)
    h.update(repr(inst.epsilon).encode())
    return h.hexdigest()


def _build_config(args, inst: Instance) -> SolverConfig:
    kernel = None
    if args.kernel is not None:
        kernel = gram(parse_kernel_spec(args.kernel, inst.nu.points), inst.nu.points)
    return SolverConfig(
        method=args.method,
        eta=args.eta if args.eta == "auto" else float(args.eta),
        max_iter=args.max_iter,
        tol_l1=args.tol,
        anchor_index=None if args.anchor == "auto" else int(args.anchor),
        bound_B=None if args.B == "auto" else float(args.B),
        record_every=args.record_every,
        gram=kernel,
    )


def _summary_doc(inst, result, method, wall_s):
    return {
        "instance_digest": _digest(inst),
        "method": method,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "eta": repr(float(result.eta)),
        "bound_B": None if result.bound_B is None else repr(float(result.bound_B)),
        "anchor_index": result.anchor_index,
        "final_J": repr(float(result.trace.records[-1].J)),
        "final_l1_residual": repr(float(result.trace.records[-1].l1_residual)),
        "wall_time_s": wall_s,
    }


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = _build_config(args, inst)
    start = time.perf_counter()
    result = run(inst, cfg)
    wall = time.perf_counter() - start
    if result.eta == 0.0 and not result.converged:
        sys.stderr.write(
            f"error: {args.method}: the auto step exp(-log λ) underflows to 0.0 "
            "(log λ above about 745); no update was made\n"
        )
    doc = _summary_doc(inst, result, args.method, repr(wall) if args.timings else None)
    trace = [(args.trace, result.trace.to_csv(include_timings=args.timings))] if args.trace else []
    _write_outputs(doc, args.summary, trace)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    phi = oracle_solve(inst, tol=args.tol)
    residual = float(np.abs(inst.b - marginal_y(phi, inst)).sum())
    doc = {
        "instance_digest": _digest(inst),
        "tol": repr(float(args.tol)),
        "l1_residual": repr(residual),
        "phi": [repr(float(v)) for v in phi],
    }
    _write_outputs(doc, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.seed, only=args.only)
    doc = {
        "seed": args.seed,
        "properties": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _write_outputs(doc, args.report)
    return EXIT_OK if doc["all_passed"] else EXIT_NO_CONVERGENCE


def cmd_bridge(args) -> int:
    if args.instance:
        inst = load_instance(args.instance)
    else:
        inst = bridge_mod.make_demo_instance(n_points=args.grid_points, epsilon=args.epsilon)
    grid = bridge_mod.bridge_grid_for(inst, n_t=args.nt)
    if args.phi == "oracle":
        phi = oracle_solve(inst)
    else:
        phi = np.zeros(inst.m)
    field = bridge_mod.bridge_from_potential(phi, inst, grid)
    sim = bridge_mod.simulate_em(field, inst.mu, args.particles, args.seed)
    hist = bridge_mod.terminal_histogram(sim.positions, inst.nu.points[:, 0])
    static = marginal_y(phi, inst)
    tv = 0.5 * float(np.abs(hist - static).sum())
    mc_term, disc_term = bridge_mod.tv_tolerance_terms(args.particles, inst.nu.points[:, 0])
    doc = {
        "instance_digest": _digest(inst),
        "phi": args.phi,
        "particles": args.particles,
        "seed": args.seed,
        "tv_terminal_vs_static": repr(tv),
        "tv_tolerance": repr(mc_term + disc_term),
        "monte_carlo_term": repr(mc_term),
        "discretization_term": repr(disc_term),
        "clamp_fraction": repr(float(sim.clamp_fraction)),
        "clamp_excessive": bool(sim.clamp_excessive),
    }
    _write_outputs(doc, args.summary, [(args.drift, field.to_csv())] if args.drift else [])
    return EXIT_OK


def cmd_flow(args) -> int:
    if args.instance:
        inst = load_instance(args.instance)
    else:
        inst = random_instance(np.random.default_rng(args.seed), 16, 16, 0.5)
    res = flow_run(
        inst,
        np.zeros(inst.m),
        r=args.r,
        t0=args.t0,
        t_end=args.t_end,
        dt=args.dt,
        record_every=args.record_every,
    )
    doc = {
        "instance_digest": _digest(inst),
        "r": repr(float(args.r)),
        "t0": repr(float(args.t0)),
        "t_end": repr(float(args.t_end)),
        "dt": repr(float(args.dt)),
        "v_increase_max": repr(float(res.v_increase_max)),
        "rate_violation_max": repr(float(res.rate_violation_max)),
        "slack": repr(res.slack),
        "v_monotone": bool(res.v_increase_max <= res.slack),
        "rate_bound_holds": bool(res.rate_violation_max <= res.slack),
    }
    _write_outputs(doc, args.summary, [(args.trace, res.to_csv())] if args.trace else [])
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    sys.stdout.write(
        f"ok: {inst.n} x {inst.m} atoms, epsilon={inst.epsilon!r}, digest={_digest(inst)}\n"
    )
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="otmatch", description="Entropic transport solver toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--eta", default="auto")
    solve.add_argument("--kernel", default=None, help="identity | gaussian:<sigma> | laplace:<scale>")
    solve.add_argument("--B", default="auto")
    solve.add_argument("--anchor", default="auto")
    solve.add_argument("--max-iter", type=int, default=10_000)
    solve.add_argument("--tol", type=float, default=1e-9)
    solve.add_argument("--trace", default=None)
    solve.add_argument("--summary", default=None)
    solve.add_argument("--record-every", type=int, default=1)
    solve.add_argument("--timings", action="store_true", help="include wall times in outputs")
    solve.set_defaults(fn=cmd_solve)

    oracle = sub.add_parser("oracle", help="high-precision reference potential")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--tol", type=float, default=1e-12)
    oracle.add_argument("--out", default=None)
    oracle.set_defaults(fn=cmd_oracle)

    ver = sub.add_parser("verify", help="run the seeded property suite")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--only", default=None, help="run only properties whose name contains this")
    ver.add_argument("--report", default=None)
    ver.set_defaults(fn=cmd_verify)

    br = sub.add_parser("bridge", help="1-D diffusion bridge demo")
    br.add_argument("--instance", default=None, help="optional 1-D instance file")
    br.add_argument("--grid-points", type=int, default=64)
    br.add_argument("--epsilon", type=float, default=1.0)
    br.add_argument("--nt", type=int, default=101)
    br.add_argument("--particles", type=int, default=100_000)
    br.add_argument("--phi", choices=("zero", "oracle"), default="zero")
    br.add_argument("--seed", type=int, default=42)
    br.add_argument("--drift", default=None, help="write the drift field here")
    br.add_argument("--summary", default=None)
    br.set_defaults(fn=cmd_bridge)

    fl = sub.add_parser("flow", help="accelerated mirror-flow demo")
    fl.add_argument("--instance", default=None)
    fl.add_argument("--r", type=float, default=2.0)
    fl.add_argument("--t0", type=float, default=0.01)
    fl.add_argument("--t-end", type=float, default=50.0)
    fl.add_argument("--dt", type=float, default=1e-3,
                    help=f"first trial step of the error-controlled integrator; {MIN_STEP:g} of it is the smallest step")
    fl.add_argument("--record-every", type=int, default=50,
                    help="record the trace every record-every * dt time units, and at --t-end")
    fl.add_argument("--seed", type=int, default=42)
    fl.add_argument("--trace", default=None)
    fl.add_argument("--summary", default=None)
    fl.set_defaults(fn=cmd_flow)

    val = sub.add_parser("validate", help="validate an instance file")
    val.add_argument("--instance", required=True)
    val.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OracleError, DivergenceError, FlowBlowupError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except (InstanceError, bridge_mod.GridError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
