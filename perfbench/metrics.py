"""Metric declarations (mirrored in BENCHMARK.json) and their computation.

End-to-end metrics are gated and must exist, non-zero, on every workload.
The workload-specific ones the README lists (``cmd_s.tail``,
``iters_per_s``, ``oracle_s`` ...) are printed and stored with each result
but are not in the gated set, because they are undefined on some workloads.
"""

from __future__ import annotations

from stats import command_ratios, command_times, median, ratio, rk4_steps, tail

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cmd_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    # one command of 72 is 1.4%: chi2 meets the known defect on ~1 sweep seed in 25
    ("ok_ratio", "ratio", "higher", 0.025),
)

VERIFY_PROPERTIES = (
    "concavity", "linf_lower", "weighted_lower", "gradient_fd", "variance_identity",
    "update_equivalences", "kernel_smoothness", "ksga_rate", "sign_ascent", "proj_rate",
    "acc_rate", "flow_rate", "bridge_marginal", "momentum_counters", "sinkhorn_conformance",
)

# name, unit, better
PER_LAYER = (
    ("measures.load_instance.self_s", "s", "lower"),
    ("measures.input_bytes", "B", "lower"),
    ("measures.instance_to_doc.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"semidual.{fn}.{m}", u, b) for fn in ("plus_transform", "log_marginal_y", "coupling")
      for m, u, b in (("calls", "count", "lower"), ("self_s", "s", "lower"), ("cells_per_s", "cells/s", "higher"))),
    ("semidual.bytes_computed", "B", "lower"),
    ("solvers.run.calls", "count", "lower"),
    ("solvers.run.self_s", "s", "lower"),
    ("solvers.run.self_us_per_iter", "us", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.Trace.to_csv.self_s", "s", "lower"),
    ("solvers.trace_rows", "count", "lower"),
    ("solvers.oracle_solve.calls", "count", "lower"),
    ("solvers.oracle_solve.self_s", "s", "lower"),
    ("solvers.oracle_solve.passes", "count", "lower"),
    ("kernels.gram.self_s", "s", "lower"),
    ("kernels.parse_kernel_spec.self_s", "s", "lower"),
    ("mirrorflow.flow_run.self_s", "s", "lower"),
    ("mirrorflow.self_us_per_step", "us", "lower"),
    ("diagnostics.kl_couplings.calls", "count", "lower"),
    ("diagnostics.kl_couplings.self_s", "s", "lower"),
    ("bridge.bridge_from_potential.self_s", "s", "lower"),
    ("bridge.simulate_em.self_s", "s", "lower"),
    *((f"verify.{p}.s", "s", "lower") for p in VERIFY_PROPERTIES),
    ("cli.exit_code.0", "count", "higher"),
    ("cli.exit_code.1", "count", "lower"),
    ("cli.exit_code.2", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.digest_share", "ratio", "lower"),
    ("trace.semidual_share", "ratio", "lower"),
)


def end_to_end(passes, setup_times, peak_rss_mb, manifest) -> tuple[dict, dict]:
    """Gated metrics, and the workload-specific ones printed beside them.

    ``passes`` is a list of passes, each a list of command records with
    ``cmd``, ``dt``, ``rc``, ``status`` and ``doc``.
    """
    records = [r for p in passes for r in p]
    times = command_times(passes)
    ratios = command_ratios([{"kind": r["cmd"]["kind"], "rc": r["rc"], "status": r["status"]} for r in records])
    gated = {
        "setup_s": median(setup_times),
        "wall_s": sum(times),
        "cmd_s.p50": median(times),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ratios["ok_ratio"],
    }
    extra = {}
    t = tail(times)
    if t is not None:
        extra["cmd_s.tail"] = {"value": t[1], "unit": "s", "percentile": t[0], "samples": len(times)}
    extra["fail_ratio"] = {"value": ratios["fail_ratio"], "unit": "ratio", "base": f"{len(records)} commands"}

    def of(kind):
        return [r for r in records if r["cmd"]["kind"] == kind]

    solves = of("solve")
    if solves:
        solve_s = sum(r["dt"] for r in solves)
        iters = sum(r["doc"]["iterations"] for r in solves if r["doc"])
        cells = sum(r["doc"]["iterations"] * _cells(manifest, r["cmd"]) for r in solves if r["doc"])
        base = f"{solve_s:.3f} s of solve time"
        extra["iters_per_s"] = {"value": ratio(iters, solve_s), "unit": "1/s", "base": base}
        extra["cell_iters_per_s"] = {"value": ratio(cells, solve_s), "unit": "cells/s", "base": base}
        extra["unconverged_ratio"] = {"value": ratios["unconverged_ratio"], "unit": "ratio",
                                      "base": f"{len(solves)} solve commands"}
    if of("oracle"):
        extra["oracle_s"] = {"value": median([r["dt"] for r in of("oracle")]), "unit": "s"}
    if of("flow"):
        flows = of("flow")
        steps = sum(rk4_steps(r["cmd"]["t0"], r["cmd"]["t_end"], r["cmd"]["dt"]) for r in flows)
        extra["flow_steps_per_s"] = {"value": ratio(steps, sum(r["dt"] for r in flows)), "unit": "1/s",
                                     "base": f"{steps} RK4 steps"}
    if of("verify"):
        extra["verify_s"] = {"value": median([r["dt"] for r in of("verify")]), "unit": "s"}
    return gated, extra


def _cells(manifest, cmd) -> int:
    info = manifest["instances"][cmd["instance"]]
    return info["n"] * info["m"]


def per_layer(tracer, n_passes: int, wall_untraced: float, wall_traced: float) -> dict:
    """Per-layer metrics of the traced passes, each per workload pass."""
    summary = tracer.summarize()

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def per_pass(x):
        return x / n_passes

    def rate(num, den):
        return ratio(num, den) or 0.0

    out = {
        "measures.load_instance.self_s": per_pass(get("measures.load_instance", "self_s")),
        "measures.input_bytes": per_pass(get("measures.load_instance", "work")),
        "measures.instance_to_doc.self_s": per_pass(get("measures.instance_to_doc", "self_s")),
        "cli.main.self_s": per_pass(get("cli.main", "self_s")),
        "semidual.bytes_computed": per_pass(8 * sum(s["work"] for n, s in summary.items() if n.startswith("semidual."))),
        "solvers.run.calls": per_pass(get("solvers.run", "calls")),
        "solvers.run.self_s": per_pass(get("solvers.run", "self_s")),
        "solvers.run.self_us_per_iter": 1e6 * rate(get("solvers.run", "self_s"), get("solvers.run", "work")),
        "solvers.iterations": per_pass(get("solvers.run", "work")),
        "solvers.Trace.to_csv.self_s": per_pass(get("solvers.Trace.to_csv", "self_s")),
        "solvers.trace_rows": per_pass(get("solvers.Trace.to_csv", "work")),
        "solvers.oracle_solve.calls": per_pass(get("solvers.oracle_solve", "calls")),
        "solvers.oracle_solve.self_s": per_pass(get("solvers.oracle_solve", "self_s")),
        "solvers.oracle_solve.passes": per_pass(tracer.count_under("semidual.plus_transform", "solvers.oracle_solve")),
        "kernels.gram.self_s": per_pass(get("kernels.gram", "self_s")),
        "kernels.parse_kernel_spec.self_s": per_pass(get("kernels.parse_kernel_spec", "self_s")),
        "mirrorflow.flow_run.self_s": per_pass(get("mirrorflow.flow_run", "self_s")),
        "mirrorflow.self_us_per_step": 1e6 * rate(get("mirrorflow.flow_run", "self_s"), get("mirrorflow.flow_run", "work")),
        "diagnostics.kl_couplings.calls": per_pass(get("diagnostics.kl_couplings", "calls")),
        "diagnostics.kl_couplings.self_s": per_pass(get("diagnostics.kl_couplings", "self_s")),
        "bridge.bridge_from_potential.self_s": per_pass(get("bridge.bridge_from_potential", "self_s")),
        "bridge.simulate_em.self_s": per_pass(get("bridge.simulate_em", "self_s")),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
    }
    for fn in ("plus_transform", "log_marginal_y", "coupling"):
        s = summary.get(f"semidual.{fn}", {"calls": 0, "self_s": 0.0, "work": 0})
        out[f"semidual.{fn}.calls"] = per_pass(s["calls"])
        out[f"semidual.{fn}.self_s"] = per_pass(s["self_s"])
        out[f"semidual.{fn}.cells_per_s"] = rate(s["work"], s["self_s"])
    for p in VERIFY_PROPERTIES:
        out[f"verify.{p}.s"] = per_pass(get(f"verify.{p}", "total_s"))
    codes = [tracer.work[i] for i, n in enumerate(tracer.names) if n == "cli.main"]
    for code in (0, 1, 2):
        out[f"cli.exit_code.{code}"] = per_pass(sum(1 for c in codes if c == code))
    # the digest's JSON dump and hash run in cli.main's own code
    out["trace.digest_share"] = rate(out["cli.main.self_s"] + out["measures.instance_to_doc.self_s"], wall_traced)
    out["trace.semidual_share"] = rate(
        per_pass(sum(s["self_s"] for n, s in summary.items() if n.startswith("semidual."))), wall_traced)
    return out
