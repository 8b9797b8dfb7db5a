"""Spans around calls into the program's layers, recorded from outside it.

``install`` replaces each layer's public functions with timing wrappers on
every ``otmatch`` module that holds them, because callers look those names
up at call time (``otmatch.solvers.plus_transform``, ``otmatch.cli.run``,
``otmatch.bridge.simulate_em`` ...).  The program's code is not touched and
``uninstall`` restores every attribute.

A span opens only at a layer boundary: a call made while the innermost open
span belongs to the same layer (say ``semidual_value`` calling
``plus_transform``) stays inside that span, so a layer's self time is the
time spent in its own code.  ``logops`` counts as part of ``semidual`` and
``primal`` as part of ``verify``; neither gets spans of its own.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

from stats import rk4_steps, self_times

LAYERS = ("measures", "semidual", "solvers", "kernels", "diagnostics", "mirrorflow", "bridge", "verify")

# n x m passes over C/eps per call, counting calls a function makes to its
# own layer (those open no span); ``phi_plus`` given saves the transform pass.
_SEMIDUAL_PASSES = {
    "plus_transform": lambda a, k: 1,
    "minus_transform": lambda a, k: 1,
    "semidual_value": lambda a, k: 1,
    "log_marginal_y": lambda a, k: 1 + (_arg(a, k, 2, "phi_plus") is None),
    "marginal_y": lambda a, k: 1 + (_arg(a, k, 2, "phi_plus") is None),
    "first_variation": lambda a, k: 1 + (_arg(a, k, 2, "phi_plus") is None),
    "coupling": lambda a, k: 2,
    "log_reference": lambda a, k: 1,
    "primal_value": lambda a, k: 1,
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _cells(args, kwargs) -> int:
    for v in (*args, *kwargs.values()):
        if hasattr(v, "cost_over_eps"):
            return v.n * v.m
    return 0


def _flow_steps(fn):
    sig = inspect.signature(fn)

    def steps(args, kwargs, result):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return rk4_steps(b.arguments["t0"], b.arguments["t_end"], b.arguments["dt"])

    return steps


def _work_hook(name: str, fn):
    """Work count stored with a span: cells, iterations, rows, steps, bytes or exit code."""
    layer, _, attr = name.partition(".")
    if layer == "semidual" and attr in _SEMIDUAL_PASSES:
        passes = _SEMIDUAL_PASSES[attr]
        return lambda a, k, r: passes(a, k) * _cells(a, k)
    if name == "mirrorflow.flow_run":
        return _flow_steps(fn)
    return {
        "measures.load_instance": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
        "solvers.run": lambda a, k, r: r.iterations,
        "solvers.Trace.to_csv": lambda a, k, r: len(a[0].records),
        "cli.main": lambda a, k, r: r,
    }.get(name)


class Tracer:
    """Spans kept in memory as parallel lists and written out when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.cmds: list[int] = []
        self.work: list[float | None] = []  # None until the call returns
        self.cmd = 0  # id shared by the spans of one command
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, work=None, always: bool = False):
        """Timing wrapper; unless ``always``, a call from inside its own layer opens no span."""
        layer = name.partition(".")[0]
        stack, names = self._stack, self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and stack and names[stack[-1]].partition(".")[0] == layer:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name)
            self.parents.append(stack[-1] if stack else None)
            self.cmds.append(self.cmd)
            self.work.append(None)
            self.ends.append(0.0)
            stack.append(i)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                stack.pop()
            if work is not None:
                self.work[i] = work(args, kwargs, result)
            return result

        return traced

    # -- installing and removing the wrappers ------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer's public functions on each ``otmatch`` module holding them."""
        import otmatch.cli  # noqa: F401  (loads every layer)

        mods = [m for n, m in sorted(sys.modules.items()) if n == "otmatch" or n.startswith("otmatch.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"otmatch.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, _work_hook(name, fn))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, key, wrapped)
        trace_cls = getattr(sys.modules.get("otmatch.solvers"), "Trace", None)
        if trace_cls is not None and "to_csv" in vars(trace_cls):
            fn = vars(trace_cls)["to_csv"]
            self._patch(trace_cls, "to_csv", self.wrap("solvers.Trace.to_csv", fn, _work_hook("solvers.Trace.to_csv", fn)))
        cli = sys.modules["otmatch.cli"]
        self._patch(cli, "main", self.wrap("cli.main", cli.main, _work_hook("cli.main", cli.main)))
        # run_suite dispatches through this table, bound at import time
        checks = getattr(sys.modules.get("otmatch.verify"), "_CHECKS", None)
        if isinstance(checks, dict):
            for prop, fn in list(checks.items()):
                self._patch(checks, prop, self.wrap(f"verify.{prop}", fn, always=True))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,cmd,work\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.cmds, self.work):
                fh.write("%s,%r,%r,%s,%d,%s\n" % tuple("" if v is None else v for v in row))

    def summarize(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds, summed work."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
            s["calls"] += 1
            s["self_s"] += selfs[i]
            s["total_s"] += self.ends[i] - self.starts[i]
            s["work"] += self.work[i] or 0
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span somewhere above them."""
        n = 0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parents[i]
            while p is not None and self.names[p] != ancestor:
                p = self.parents[p]
            n += p is not None
        return n
