"""Self-tests of the benchmark's own arithmetic and checks.

Run: ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import instances  # noqa: E402
import metrics  # noqa: E402
from checks import Reference, check_oracle, check_output, classify  # noqa: E402
from stats import command_ratios, command_times, ratio, rk4_steps, self_times, tail  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- self time from nested spans ---------------------------------------------

def test_self_time_subtracts_only_direct_children():
    # A[0,10] > B[2,8] > C[3,5]
    starts, ends, parents = [0.0, 2.0, 3.0], [10.0, 8.0, 5.0], [None, 0, 1]
    assert self_times(starts, ends, parents) == [4.0, 4.0, 2.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1,3] and [2,5] cover 4 s together; [9,12] covers 1 s inside the parent
    starts, ends, parents = [0.0, 1.0, 2.0, 9.0], [10.0, 3.0, 5.0, 12.0], [None, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_self_times_of_a_tree_sum_to_the_root():
    # root[0,100] > {x[10,40] > {y[12,20], z[25,39] > w[30,31]}, v[50,90]}
    starts = [0.0, 10.0, 12.0, 25.0, 30.0, 50.0]
    ends = [100.0, 40.0, 20.0, 39.0, 31.0, 90.0]
    parents = [None, 0, 1, 1, 3, 0]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(100.0)


# -- the ">= 10 samples beyond" percentile rule ------------------------------

def test_tail_needs_more_than_ten_samples():
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (9, 0.0)


@pytest.mark.parametrize("n", [11, 12, 20, 72, 99, 144, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    q, v = tail(values)
    assert sum(x > v for x in values) >= 10
    # one percentile higher leaves fewer than ten samples beyond
    higher = sorted(values)[max(1, -(-(q + 1) * n // 100)) - 1]
    assert sum(x > higher for x in values) < 10


def test_tail_examples():
    assert tail([float(i) for i in range(72)]) == (86, 61.0)  # samples 62..71 lie beyond
    assert tail([float(i) for i in range(1000)]) == (99, 989.0)


# -- ratio bases ---------------------------------------------------------------

def test_ratio_of_an_empty_base_is_none():
    assert ratio(1, 0) is None
    assert ratio(1, 4) == 0.25


def test_command_ratios_use_their_own_bases():
    records = [
        {"kind": "solve", "rc": 0, "status": "ok"},
        {"kind": "solve", "rc": 2, "status": "ok"},
        {"kind": "solve", "rc": 1, "status": "known_defect"},
        {"kind": "verify", "rc": 0, "status": "ok"},
        {"kind": "flow", "rc": 0, "status": "failed"},
    ]
    r = command_ratios(records)
    assert r["fail_ratio"] == 2 / 5  # known defects count: every command is the base
    assert r["ok_ratio"] == 3 / 5
    assert r["unconverged_ratio"] == 1 / 3  # solve commands only
    assert command_ratios([{"kind": "verify", "rc": 0, "status": "ok"}])["unconverged_ratio"] is None


def test_rk4_steps_match_flow_run_split():
    assert rk4_steps(0.01, 10.0, 1e-3) == 9990
    assert rk4_steps(0.0, 1.0, 0.3) == 4  # three full steps and a short one


def test_flow_steps_per_s_counts_rk4_steps_over_flow_time():
    cmd = {"kind": "flow", "t0": 0.01, "t_end": 10.0, "dt": 1e-3}
    passes = [[{"cmd": cmd, "dt": 2.0, "rc": 0, "status": "ok", "doc": {}},
               {"cmd": {"kind": "verify"}, "dt": 5.0, "rc": 0, "status": "ok", "doc": {}}]]
    gated, extra = metrics.end_to_end(passes, [0.1], 50.0, {"instances": {}})
    assert extra["flow_steps_per_s"]["value"] == 9990 / 2.0
    assert gated["wall_s"] == 7.0 and gated["cmd_s.p50"] == 3.5


def test_command_times_average_each_command_over_passes():
    def rec(dt):
        return {"cmd": {"kind": "verify"}, "dt": dt, "rc": 0, "status": "ok", "doc": {}}

    # pass totals 11, 4, 6 (median 6); command means 2 and 5 (pooled median 2.5)
    passes = [[rec(1.0), rec(10.0)], [rec(2.0), rec(2.0)], [rec(3.0), rec(3.0)]]
    assert command_times(passes) == [2.0, 5.0]
    gated, _ = metrics.end_to_end(passes, [0.1], 50.0, {"instances": {}})
    assert gated["wall_s"] == 7.0
    assert gated["cmd_s.p50"] == 3.5


# -- tracing -----------------------------------------------------------------

def test_tracer_opens_spans_only_at_layer_boundaries():
    t = Tracer()
    inner = t.wrap("b.inner", lambda: None)
    same = t.wrap("a.same", lambda: inner())
    outer = t.wrap("a.outer", lambda: same())
    outer()
    assert t.names == ["a.outer", "b.inner"]
    assert t.parents == [None, 0]
    assert t.count_under("b.inner", "a.outer") == 1
    s = t.summarize()
    assert s["a.outer"]["self_s"] + s["b.inner"]["self_s"] == pytest.approx(s["a.outer"]["total_s"])


def test_tracer_install_wraps_every_importer_and_uninstall_restores():
    import otmatch.cli
    import otmatch.semidual
    import otmatch.solvers

    original = otmatch.semidual.plus_transform
    t = Tracer()
    t.install()
    try:
        assert otmatch.solvers.plus_transform is not original
        assert otmatch.semidual.plus_transform is otmatch.solvers.plus_transform
        assert otmatch.cli.main.__wrapped__ is not None
    finally:
        t.uninstall()
    assert otmatch.solvers.plus_transform is original
    assert not hasattr(otmatch.cli.main, "__wrapped__")


# -- checks ------------------------------------------------------------------

def _tiny(tmp_path, eps=0.3):
    rng = np.random.default_rng(3)
    doc = instances._cloud_doc(rng, 6, 5, eps)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_reference_matches_the_program_oracle(tmp_path):
    from otmatch.measures import load_instance
    from otmatch.semidual import semidual_value
    from otmatch.solvers import oracle_solve

    path = _tiny(tmp_path)
    inst = load_instance(path)
    ref = Reference(path)
    phi = oracle_solve(inst)
    assert abs(semidual_value(phi, inst) - ref.value) <= 1e-9
    j, residual = ref.value_of(phi)
    assert j == pytest.approx(semidual_value(phi, inst), abs=1e-12)
    assert residual <= 1e-11
    assert ref.check(semidual_value(phi, inst), 1e-12) is None
    assert ref.check(ref.value + 1e-3, 1e-12) is not None
    doc = {"phi": [repr(float(v)) for v in phi]}
    assert check_oracle(ref, doc, 1e-12) is None
    doc["phi"][0] = repr(float(phi[0]) + 1e-6)
    assert check_oracle(ref, doc, 1e-12) is not None


def test_check_output_flags_false_claims():
    solve = {"kind": "solve", "tol": 1e-6}
    assert check_output(solve, 0, {"converged": True, "final_l1_residual": "1e-7"}) is None
    assert check_output(solve, 0, {"converged": True, "final_l1_residual": "1e-5"})
    assert check_output(solve, 0, {"converged": False, "final_l1_residual": "1e-5"})
    assert check_output({"kind": "verify"}, 0, {"all_passed": False})
    assert check_output({"kind": "flow"}, 0, {"v_monotone": True, "rate_bound_holds": False})
    assert check_output({"kind": "bridge"}, 0, {"tv_terminal_vs_static": "0.2", "tv_tolerance": "0.1"})


def test_classify_keeps_only_the_known_defect_out_of_failed():
    msg = "error: identity link needs a strictly positive mass vector"

    def status(method, rc, stderr):
        rec = {"cmd": {"kind": "solve", "method": method, "tol": 1e-6}, "rc": rc, "stderr": stderr, "doc": None}
        classify(rec, [])
        return rec["status"]

    assert status("sinkhorn", 1, msg) == "known_defect"
    assert status("chi2", 1, msg.replace("identity", "chi-square")) == "known_defect"
    assert status("ksga", 1, msg) == "failed"  # the defect cannot reach the kernel link
    assert status("sinkhorn", 1, "error: phi must be finite everywhere") == "failed"
    assert status("sinkhorn", None, msg) == "failed"  # raised instead of exiting


# -- inputs and declarations -------------------------------------------------

@pytest.mark.parametrize("workload", ["sweep", "proofs"])
def test_same_seed_gives_identical_files(tmp_path, workload):
    a = instances.write_workload(workload, 7, tmp_path / "a")
    b = instances.write_workload(workload, 7, tmp_path / "b")
    for name in a["instances"]:
        assert Path(a["instances"][name]["path"]).read_bytes() == Path(b["instances"][name]["path"]).read_bytes()
    c = instances.write_workload(workload, 8, tmp_path / "c")
    assert any(Path(a["instances"][n]["path"]).read_bytes() != Path(c["instances"][n]["path"]).read_bytes()
               for n in a["instances"])


def test_benchmark_json_matches_the_declarations():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(instances.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_verify_property_names_are_current():
    from otmatch.verify import all_property_names

    assert tuple(all_property_names()) == metrics.VERIFY_PROPERTIES
