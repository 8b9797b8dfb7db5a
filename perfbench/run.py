"""otmatch benchmark: one seeded workload through ``otmatch.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload {dense,sweep,proofs} --seed N --seconds S --trace {0,1}

Closed loop, one client: the workload's commands run in order, each issued
when the previous one returns, in this process with ``src`` on the path and
one BLAS thread.
Whole passes over the command list repeat until ``--seconds`` have passed.
Instances come from ``instances.py`` (seeded, written to ``.bench_work/``);
the program receives only those files.  Every command's output is checked
(see ``checks.py``).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics.  Spans, the machine record
and all metrics are also written to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(argv) -> str:
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return out.stdout


def _argv(cmd: dict, idx: int, manifest: dict, out_dir: Path) -> tuple[list[str], list[Path]]:
    """Full command line of one command, and the output files it must write."""
    main_out = out_dir / f"c{idx}.json"
    flag = {"solve": "--summary", "oracle": "--out", "verify": "--report",
            "flow": "--summary", "bridge": "--summary"}[cmd["kind"]]
    argv, outputs = [cmd["kind"]], [main_out]
    if "instance" in cmd:
        argv += ["--instance", manifest["instances"][cmd["instance"]]["path"]]
    for a in cmd["args"]:
        if a == "{trace}":
            a = str(out_dir / f"c{idx}.csv")
            outputs.append(Path(a))
        argv.append(a)
    return argv + [flag, str(main_out)], outputs


def _run_command(cli, cmd, argv, outputs) -> dict:
    """Run one command in-process and classify its outcome (see ``checks.classify``)."""
    from checks import classify

    for p in outputs:
        p.unlink(missing_ok=True)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        dt = time.perf_counter() - start
    except Exception:  # a crash is a measured outcome, not a benchmark error
        dt = time.perf_counter() - start
        rc, err = None, io.StringIO(traceback.format_exc())
    rec = {"cmd": cmd, "rc": rc, "dt": dt, "stderr": err.getvalue().strip(), "doc": None}
    classify(rec, outputs)
    return rec


def _pass(cli, plan, tracer=None) -> list[dict]:
    records = []
    for cmd, argv, outputs in plan:
        if tracer is not None:
            tracer.cmd += 1
        records.append(_run_command(cli, cmd, argv, outputs))
    return records


def _measure(cli, plan, seconds: float, tracer=None):
    """Whole passes over the plan until ``seconds`` have passed (at least one).

    With a tracer, untraced and traced passes alternate, so that drift in the
    machine's speed falls on both sides of the overhead estimate.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or (tracer is not None and not traced) or time.perf_counter() - start < seconds:
        if tracer is not None and len(traced) < len(untraced):
            tracer.install()
            try:
                traced.append(_pass(cli, plan, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(_pass(cli, plan))
    return untraced, traced


def _reference_checks(passes, manifest) -> None:
    """Dense solves and oracle potentials against the independent reference (untimed)."""
    from checks import Reference, check_oracle

    refs = {}
    for rec in (r for p in passes for r in p):
        cmd, doc = rec["cmd"], rec["doc"]
        if rec["status"] != "ok" or cmd["kind"] not in ("solve", "oracle"):
            continue
        if cmd["kind"] == "solve" and not doc["converged"]:
            continue
        name = cmd["instance"]
        if name not in refs:
            refs[name] = Reference(manifest["instances"][name]["path"])
        ref = refs[name]
        if cmd["kind"] == "solve":
            problem = ref.check(float(doc["final_J"]), float(doc["final_l1_residual"]))
        else:
            problem = check_oracle(ref, doc, cmd["tol"])
        if problem:
            rec.update(status="failed", problem=problem)


def _rerun_check(cli, plan, idx: int, out_dir: Path, passes) -> None:
    """Rerun one command into fresh files; its outputs must match the last pass byte for byte."""
    cmd, argv, outputs = plan[idx]
    before = [p.read_bytes() if p.exists() else None for p in outputs]
    rerun_dir = out_dir / "rerun"
    rerun_dir.mkdir(exist_ok=True)
    new_outputs = [rerun_dir / p.name for p in outputs]
    new_argv = [str(rerun_dir / Path(a).name) if Path(a) in outputs else a for a in argv]
    _run_command(cli, cmd, new_argv, new_outputs)
    after = [p.read_bytes() if p.exists() else None for p in new_outputs]
    if before != after:
        passes[-1][idx].update(status="failed", problem=f"rerun of command {idx} gave different output bytes")


def _steal_s() -> float | None:
    """Seconds of CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _machine(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches_cpu0": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "pinned_threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads.  The client is one closed loop;
    # a second BLAS thread spin-waits on the other core between calls and made
    # the 1024-atom solves slower and about five times as variable on 2 cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from instances import WORKLOADS

    p = argparse.ArgumentParser(description="otmatch benchmark (see module docstring)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "otmatch" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program at {src / 'otmatch'}; run from a repository checkout\n")
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    sys.path.insert(0, str(src))

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    _child([sys.executable, str(HERE / "instances.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(work)])
    manifest = json.loads((work / "manifest.json").read_text())
    setup = [float(_child([sys.executable, str(HERE / "setup_probe.py"), str(work / "manifest.json")])
                   .splitlines()[-1]) for _ in range(SETUP_REPEATS)]

    import numpy
    from otmatch import cli

    import metrics
    from checks import KNOWN_DEFECT
    from stats import command_times
    from tracing import Tracer

    plan = [(cmd, *_argv(cmd, i, manifest, out_dir)) for i, cmd in enumerate(manifest["commands"])]
    steal0 = _steal_s()
    tracer = Tracer() if args.trace else None
    passes, traced = _measure(cli, plan, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal1 = _steal_s()

    all_passes = passes + traced
    _reference_checks(all_passes, manifest)
    _rerun_check(cli, plan, manifest["rerun"], out_dir, all_passes)

    gated, extra = metrics.end_to_end(passes, setup, peak_rss_mb, manifest)
    if steal0 is not None and steal1 is not None:
        extra["host_steal_s"] = {"value": steal1 - steal0, "unit": "s", "base": "all CPUs, during the timed passes"}
    records = [r for p in all_passes for r in p]
    failed = [r for r in records if r["status"] == "failed"]
    known = [r for r in records if r["status"] == "known_defect"]
    machine = _machine(numpy)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(passes)}+{len(traced)} traced, commands={len(records)}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    for name, value in gated.items():
        print(f"  {name:<22} {value:.6g} {units[name]}")
    for name, m in extra.items():
        notes = ", ".join(f"{k} {v}" for k, v in m.items() if k not in ("value", "unit"))
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<22} {value} {m['unit']}" + (f"  ({notes})" if notes else ""))
    if known:
        print(f"  known defect: {len(known)} commands exit 1 ({KNOWN_DEFECT['message']}), counted in fail_ratio")
    for r in failed[:10]:
        print(f"  FAILED {r['cmd']['kind']} {r['cmd'].get('instance', '')} {r['cmd'].get('method', '')}: {r['problem']}")

    layer = {}
    if tracer is not None:
        tracer.write_csv(work / "spans.csv")
        layer = metrics.per_layer(tracer, len(traced),
                                  gated["wall_s"], sum(command_times(traced)))
        print(f"  traced: {len(tracer.names)} spans, overhead {layer['trace.overhead_s']:+.4f} s per pass; "
              f"share of traced wall: digest {layer['trace.digest_share']:.3f}, semidual {layer['trace.semidual_share']:.3f}")
    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = layer if args.trace else gated
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in declared},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "extra": extra, "end_to_end": gated, "per_layer": layer, "machine": machine,
         "setup_samples_s": setup, "seed": args.seed, "workload": args.workload,
         "commands": [{"pass": k, "kind": r["cmd"]["kind"], "instance": r["cmd"].get("instance"),
                       "method": r["cmd"].get("method"), "rc": r["rc"], "dt": r["dt"], "status": r["status"],
                       "iterations": (r["doc"] or {}).get("iterations"), "problem": r.get("problem")}
                      for k, p in enumerate(all_passes) for r in p]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
