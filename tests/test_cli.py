import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from otmatch import cli, semidual, solvers, verify
from otmatch.cli import METHODS, _digest, _write_outputs, main
from otmatch.measures import DiscreteMeasure, Instance, load_instance
from otmatch.semidual import semidual_value
from otmatch.kernels import gram, parse_kernel_spec
from otmatch.solvers import DivergenceError, OracleError, SolverConfig, run
from otmatch.verify import CheckResult, random_instance

from conftest import (
    NON_FINITE, OFF_LATTICE_TARGETS, SHIFTS, certified_run_phi, poison_update, two_source_instance, write_instance,
    zero_cost_instance,
)


@pytest.fixture()
def instance_file(tmp_path):
    inst = random_instance(np.random.default_rng(70), 6, 8, 0.5)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    return path


@pytest.fixture()
def zero_cost_file(tmp_path):
    path = tmp_path / "zero.json"
    write_instance(zero_cost_instance(), path)
    return path


def underflow_file(tmp_path):
    """The 2+2 instance whose Y-marginal mass at y = 5 is exp(-1200.69)."""
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps({
        "x_points": [[0.0], [0.1]], "x_weights": [0.5, 0.5],
        "y_points": [[0.0], [5.0]], "y_weights": [0.5, 0.5],
        "cost": "half_sqeuclidean", "epsilon": 0.01,
    }))
    return path


def two_atom_file(tmp_path, cost, epsilon, x_weights=(0.5, 0.5), y_weights=(0.5, 0.5)):
    """A 2+2 instance file with an explicit cost matrix."""
    path = tmp_path / "two_atom.json"
    path.write_text(json.dumps({
        "x_points": [[0.0], [1.0]], "x_weights": list(x_weights),
        "y_points": [[0.0], [1.0]], "y_weights": list(y_weights),
        "cost": cost, "epsilon": epsilon,
    }))
    return path


# well-posed 2+2 instances (two_atom_file arguments) that once broke the exit contract
EXIT_CONTRACT_CORPUS = {
    # the χ² step (p - b)/b on the 1e-260 mass moves phi by -2.5e259, and
    # the cache's squared radius overflowed
    "chi2_radius_overflow": dict(cost="half_sqeuclidean", epsilon=1e-4, y_weights=(1e-260, 1.0)),
    # the χ² step (p - b)/b on a subnormal target mass overflowed in the division
    "chi2_subnormal_overflow": dict(cost="half_sqeuclidean", epsilon=1e-4, y_weights=(1e-320, 1.0)),
}


@st.composite
def instance_documents(draw):
    """A well-posed instance file's contents: n, m <= 6, 1-D or 2-D points at
    scale 10^[-3, 3], eps = 10^[-4, 1], uniform, Dirichlet(0.1) or
    exp(U(-700, 0)) weights floored at 1e-300, and a named cost."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, scale = draw(st.sampled_from([1, 2])), 10.0 ** draw(st.floats(-3.0, 3.0))

    def measure(k):
        kind = draw(st.sampled_from(["uniform", "dirichlet", "log_uniform"]))
        w = {
            "uniform": lambda: np.ones(k),
            "dirichlet": lambda: rng.dirichlet(np.full(k, 0.1)),
            "log_uniform": lambda: np.exp(rng.uniform(-700.0, 0.0, k)),
        }[kind]()
        w = np.maximum(w, 1e-300)
        return (scale * rng.uniform(0.0, 1.0, (k, dim))).tolist(), (w / w.sum()).tolist()

    (xp, xw), (yp, yw) = measure(draw(st.integers(1, 6))), measure(draw(st.integers(1, 6)))
    return {
        "x_points": xp, "x_weights": xw, "y_points": yp, "y_weights": yw,
        "cost": draw(st.sampled_from(["half_sqeuclidean", "euclidean"])),
        "epsilon": 10.0 ** draw(st.floats(-4.0, 1.0)),
    }


def _quiet_main(argv):
    """``main(argv)`` under warnings-as-errors; returns the exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


class TestSolve:
    def test_zero_cost_sinkhorn_converges_fast(self, zero_cost_file, tmp_path, capsys):
        code = main([
            "solve", "--instance", str(zero_cost_file), "--method", "sinkhorn",
            "--tol", "1e-10",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["iterations"] <= 2

    def test_ksga_trace_contains_mmd_column(self, instance_file, tmp_path):
        trace = tmp_path / "t.csv"
        code = main([
            "solve", "--instance", str(instance_file), "--method", "ksga",
            "--kernel", "gaussian:0.2", "--eta", "auto", "--max-iter", "40",
            "--trace", str(trace), "--summary", str(tmp_path / "s.json"),
        ])
        assert code in (0, 2)
        lines = trace.read_text().strip().split("\n")
        assert lines[0].split(",")[3] == "mmd_sq"
        assert all(line.split(",")[3] != "" for line in lines[1:])

    def test_proj_pp_auto_bound_echoed(self, instance_file, tmp_path):
        summary = tmp_path / "s.json"
        inst_doc = json.loads(instance_file.read_text())
        expected_B = 1.5 * max(abs(v) for row in inst_doc["cost"] for v in row)
        main([
            "solve", "--instance", str(instance_file), "--method", "proj_sga_pp",
            "--B", "auto", "--max-iter", "20", "--summary", str(summary),
        ])
        doc = json.loads(summary.read_text())
        assert float(doc["bound_B"]) == pytest.approx(expected_B, rel=1e-15)

    def test_exit_two_on_budget_exhaustion(self, instance_file):
        code = main([
            "solve", "--instance", str(instance_file), "--method", "sga",
            "--max-iter", "1", "--tol", "1e-14",
        ])
        assert code == 2

    def test_exit_one_on_bad_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "x_points": [[0.0]], "x_weights": [1.0],
            "y_points": [[0.0]], "y_weights": [1.0],
            "cost": "euclidean", "epsilon": -1.0,
        }))
        trace = tmp_path / "never.csv"
        code = main([
            "solve", "--instance", str(bad), "--method", "sinkhorn", "--trace", str(trace),
        ])
        assert code == 1
        assert not trace.exists()  # no partial outputs on input error

    def test_byte_identical_reruns(self, instance_file, tmp_path):
        out = []
        for tag in ("a", "b"):
            trace = tmp_path / f"t{tag}.csv"
            summary = tmp_path / f"s{tag}.json"
            main([
                "solve", "--instance", str(instance_file), "--method", "sinkhorn",
                "--tol", "1e-11", "--trace", str(trace), "--summary", str(summary),
            ])
            out.append((trace.read_bytes(), summary.read_bytes()))
        assert out[0] == out[1]

    def test_seed_is_a_usage_error(self, instance_file, capsys):
        # solve is deterministic and has no use for a seed
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(instance_file), "--method", "sinkhorn", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_sinkhorn_rejects_other_steps(self, instance_file):
        code = main([
            "solve", "--instance", str(instance_file), "--method", "sinkhorn", "--eta", "0.5",
        ])
        assert code == 1

    def test_eta_sinkhorn_accepts_fractional_step(self, instance_file, capsys):
        code = main([
            "solve", "--instance", str(instance_file), "--method", "eta_sinkhorn",
            "--eta", "0.5", "--max-iter", "200", "--tol", "1e-9",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "method", ["sinkhorn", "eta_sinkhorn", "sga", "chi2", "sign_sga", "proj_sga", "proj_sga_pp"]
    )
    def test_every_method_runs_through_the_cli(self, instance_file, tmp_path, method, capsys):
        # fixed-step ascent reaches tolerance slowly (its rate guarantee is
        # O(1/N) in squared MMD), so the shared tolerance here is modest
        code = main([
            "solve", "--instance", str(instance_file), "--method", method,
            "--max-iter", "2000", "--tol", "1e-3",
            "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["converged"] is True
        assert float(doc["final_l1_residual"]) <= 1e-3

    @pytest.mark.parametrize("method", METHODS)
    def test_underflowing_marginal_is_not_an_input_error(self, tmp_path, method):
        # p at y = 5 is exp(-1200.69), 0 in float64, while log p is finite
        inst = underflow_file(tmp_path)
        summary = tmp_path / "s.json"
        code = main([
            "solve", "--instance", str(inst), "--method", method, "--kernel", "gaussian:1",
            "--max-iter", "200", "--summary", str(summary),
        ])
        assert code in (0, 2)
        assert np.isfinite(float(json.loads(summary.read_text())["final_J"]))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("case", list(EXIT_CONTRACT_CORPUS))
    def test_exit_contract_corpus(self, tmp_path, case, method, capsys):
        # a well-posed instance converges (residual <= tol) or exits 2, with
        # at most one stderr line and no warning or traceback
        inst = two_atom_file(tmp_path, **EXIT_CONTRACT_CORPUS[case])
        summary = tmp_path / "s.json"
        kernel = ["--kernel", "gaussian:0.5"] if method == "ksga" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "solve", "--instance", str(inst), "--method", method, *kernel,
                "--max-iter", "50", "--tol", "1e-6", "--summary", str(summary),
            ])
        err = capsys.readouterr().err
        assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err, err
        if code == 0:
            assert float(json.loads(summary.read_text())["final_l1_residual"]) <= 1e-6
        if (case, method) == ("chi2_radius_overflow", "chi2"):
            assert code == 0 and err == ""
        if (case, method) == ("chi2_subnormal_overflow", "chi2"):
            assert code == 2 and "chi2: objective turned non-finite" in err

    @given(doc=instance_documents())
    @settings(max_examples=100, deadline=None)
    def test_exit_contract_on_random_instances(self, tmp_path_factory, doc):
        # every method at --max-iter 50, and the oracle at a budget of 2,000
        # updates in place of ORACLE_MAX_ITER, so that an example stays cheap
        path = tmp_path_factory.mktemp("doc") / "inst.json"
        path.write_text(json.dumps(doc))
        assume(_quiet_main(["validate", "--instance", str(path)])[0] == 0)
        summary = path.parent / "s.json"
        for method in METHODS:
            kernel = ["--kernel", "gaussian:0.5"] if method == "ksga" else []
            code, err = _quiet_main([
                "solve", "--instance", str(path), "--method", method, *kernel,
                "--max-iter", "50", "--tol", "1e-6", "--summary", str(summary),
            ])
            assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err, (method, err)
            if code == 0:
                assert float(json.loads(summary.read_text())["final_l1_residual"]) <= 1e-6, method
        with mock.patch.object(solvers, "ORACLE_MAX_ITER", 2_000):
            code, err = _quiet_main(["oracle", "--instance", str(path), "--out", str(path.parent / "phi.json")])
        assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err, err

    def test_a_median_bandwidth_over_one_target_atom_is_an_input_error(self, tmp_path, capsys):
        # the instance is well-posed, but the option asks for a median over no pairs of target atoms
        path = tmp_path / "one_target.json"
        path.write_text(json.dumps({
            "x_points": [[0.0], [1.0]], "x_weights": [0.5, 0.5], "y_points": [[0.5]], "y_weights": [1.0],
            "cost": "half_sqeuclidean", "epsilon": 0.5,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--instance", str(path), "--method", "ksga", "--kernel", "gaussian:median"])
        err = capsys.readouterr().err
        assert code == 1 and err == "error: need at least two points for a median distance\n", err

    def test_an_overflowing_projected_step_is_clamped_quietly(self, tmp_path, capsys):
        # the χ² step overflows to -inf on the subnormal mass, and the clamp into [-B, B] keeps phi finite
        inst = two_atom_file(tmp_path, **EXIT_CONTRACT_CORPUS["chi2_subnormal_overflow"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "solve", "--instance", str(inst), "--method", "proj_sga", "--eta", "0.5",
                "--max-iter", "50", "--tol", "1e-6",
            ])
        assert code == 2 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["proj_sga", "proj_sga_pp"])
    def test_underflowing_auto_step_stops_before_the_first_update(self, tmp_path, method, capsys):
        # max C/eps is 1250, so log lambda > 745 and the auto step exp(-log lambda) is 0.0
        inst = underflow_file(tmp_path)
        summary = tmp_path / "s.json"
        code = main([
            "solve", "--instance", str(inst), "--method", method,
            "--max-iter", "500", "--summary", str(summary),
        ])
        assert code == 2
        assert "log λ" in capsys.readouterr().err
        doc = json.loads(summary.read_text())
        assert doc["iterations"] == 0 and doc["converged"] is False and doc["eta"] == "0.0"
        start = semidual_value(np.zeros(2), load_instance(inst))
        assert doc["final_J"] == repr(start)

    @pytest.mark.parametrize("method", ["proj_sga", "proj_sga_pp"])
    def test_overflowing_c_over_eps_gives_the_zero_step(self, tmp_path, method, capsys):
        # C/eps = 1e310 off the diagonal overflows to inf, so log lambda is
        # +inf and the auto step 0.0; no NaN reaches phi or the summary
        inst = two_atom_file(tmp_path, [[0.0, 1e300], [1e300, 0.0]], 1e-10, x_weights=(0.3, 0.7))
        assert main(["validate", "--instance", str(inst)]) == 0
        capsys.readouterr()
        summary = tmp_path / "s.json"
        code = main(["solve", "--instance", str(inst), "--method", method, "--summary", str(summary)])
        assert code == 2
        assert "the auto step exp(-log λ) underflows to 0.0" in capsys.readouterr().err
        doc = json.loads(summary.read_text())
        assert doc["eta"] == "0.0" and doc["iterations"] == 0 and doc["converged"] is False

    @pytest.mark.parametrize("method", ["sinkhorn", "proj_sga", "proj_sga_pp"])
    def test_a_run_converged_at_the_start_is_quiet_on_an_overflowing_c_over_eps(self, tmp_path, method, capsys):
        # a = b and the coupling at phi = 0 is diagonal, so the run converges
        # at iteration 0: the projected methods' zero step had no update to
        # make, and the +inf C/eps is intended (it gives those entries mass 0)
        inst = two_atom_file(tmp_path, [[0.0, 1e300], [1e300, 0.0]], 1e-10, (0.3, 0.7), (0.3, 0.7))
        summary = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--instance", str(inst), "--method", method, "--summary", str(summary)])
        assert code == 0 and "error:" not in capsys.readouterr().err
        doc = json.loads(summary.read_text())
        assert doc["iterations"] == 0 and doc["converged"] is True

    def test_a_bandwidth_is_taken_only_with_a_finite_positive_scale(self, instance_file, tmp_path, capsys):
        # gram divides by 2 sigma^2 (gaussian) or 2 sigma (laplace).  A scale
        # that overflows used to end in a traceback (gaussian:1e200) and one
        # that underflows to 0 in numpy warnings (gaussian:1e-200); a tiny
        # positive scale overflows the ratio, which gives a zero entry
        summary = tmp_path / "s.json"
        args = ["solve", "--instance", str(instance_file), "--method", "ksga", "--tol", "1e-6",
                "--summary", str(summary)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in ("gaussian:inf", "laplace:inf", "gaussian:1e200", "gaussian:1e-200", "laplace:1e308"):
                assert main(args + ["--kernel", spec]) == 1
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: ") and "strictly positive bandwidth" in err[0]
                assert not summary.exists()
            for spec in ("laplace:1e-310", "gaussian:1e-160"):
                assert main(args + ["--kernel", spec]) == 0
                assert capsys.readouterr().err == ""
                assert summary.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "proj_sga", "--eta", "inf"],
            ["--method", "proj_sga_pp", "--eta", "inf"],
            ["--method", "sga", "--eta", "nan"],
            ["--method", "proj_sga", "--B", "nan"],
            ["--method", "proj_sga", "--B", "inf"],
            ["--method", "proj_sga", "--B", "-1"],
            ["--method", "sinkhorn", "--tol", "nan"],
            ["--method", "sinkhorn", "--tol", "inf"],
            ["--method", "sign_sga", "--eta", "2"],
        ],
        ids=["proj_eta_inf", "proj_pp_eta_inf", "eta_nan", "B_nan", "B_inf", "B_negative", "tol_nan",
             "tol_inf", "sign_eta_out_of_range"],
    )
    def test_bad_step_box_and_tolerance_are_input_errors(self, instance_file, tmp_path, capsys, args):
        summary = tmp_path / "s.json"
        code = main(["solve", "--instance", str(instance_file), *args, "--max-iter", "20",
                     "--summary", str(summary)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not summary.exists()

    def test_method_choices_are_the_table_keys(self):
        sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
        method = next(a for a in sub.choices["solve"]._actions if a.dest == "method")
        assert list(method.choices) == list(METHODS)

    @pytest.mark.parametrize("method", METHODS)
    def test_cli_and_direct_run_agree(self, instance_file, tmp_path, monkeypatch, method):
        results = []

        def keep(inst, cfg):
            results.append(run(inst, cfg))
            return results[-1]

        monkeypatch.setattr(cli, "run", keep)
        summary = tmp_path / "s.json"
        main(["solve", "--instance", str(instance_file), "--method", method, "--kernel", "gaussian:0.3",
              "--max-iter", "30", "--summary", str(summary)])
        doc = json.loads(summary.read_text())
        inst = load_instance(instance_file)
        g = gram(parse_kernel_spec("gaussian:0.3"), inst.nu.points)
        direct = run(inst, SolverConfig(method=method, gram=g, max_iter=30, tol_l1=1e-9))
        np.testing.assert_array_equal(results[0].phi, direct.phi)
        assert doc["final_J"] == repr(direct.trace.records[-1].J)
        assert doc["eta"] == repr(direct.eta)

    def test_divergence_is_exit_two(self, instance_file, monkeypatch, capsys):
        def diverge(inst, cfg):
            raise DivergenceError("objective fell")

        monkeypatch.setattr(cli, "run", diverge)
        code = main(["solve", "--instance", str(instance_file), "--method", "sinkhorn"])
        assert code == 2
        assert "objective fell" in capsys.readouterr().err

    @NON_FINITE
    @SHIFTS
    def test_a_non_finite_iterate_is_exit_two(self, instance_file, tmp_path, monkeypatch, capsys, bad, shift):
        # the suite runs under -W error::RuntimeWarning (pyproject), so a numpy
        # warning before the one error line would fail the command
        summary = tmp_path / "s.json"
        poison_update(monkeypatch, bad, shift, at=3)
        code = main(["solve", "--instance", str(instance_file), "--method", "sga", "--eta", "1",
                     "--summary", str(summary)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sga: objective turned non-finite") and err.count("\n") == 1, err
        assert err.endswith(" to nan at iteration 3\n"), err
        assert not summary.exists()

    def test_out_of_memory_is_exit_two(self, instance_file, monkeypatch, capsys):
        # numpy's message names the shape it could not allocate
        msg = "Unable to allocate 32.0 GiB for an array with shape (65536, 65536) and data type float64"

        def exhaust(inst, cfg):
            raise MemoryError(msg)

        monkeypatch.setattr(cli, "run", exhaust)
        code = main(["solve", "--instance", str(instance_file), "--method", "sinkhorn"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {msg}\n"


class TestParserReuse:
    """``main`` builds its parser once; no flag of one call reaches the next."""

    def _solve(self, instance_file, out: Path, *flags):
        trace, summary = out.with_suffix(".csv"), out.with_suffix(".json")
        code = main([
            "solve", "--instance", str(instance_file), "--method", "sga", "--max-iter", "25",
            "--trace", str(trace), "--summary", str(summary), *flags,
        ])
        return code, trace.read_text(), summary.read_text()

    def _alone(self, instance_file, out: Path, *flags):
        cli._parser.cache_clear()
        return self._solve(instance_file, out, *flags)

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()

    def test_timings_do_not_carry_over(self, instance_file, tmp_path):
        plain = self._alone(instance_file, tmp_path / "plain")
        cli._parser.cache_clear()
        code, trace, summary = self._solve(instance_file, tmp_path / "timed", "--timings")
        assert self._solve(instance_file, tmp_path / "after") == plain
        # the timed call differs from a plain one in its wall times only
        doc = json.loads(summary)
        assert float(doc["wall_time_s"]) > 0.0
        assert (code, {**doc, "wall_time_s": None}) == (plain[0], json.loads(plain[2]))
        rows = [line.rsplit(",", 1) for line in trace.splitlines()[1:]]
        assert all(float(elapsed) >= 0.0 for _, elapsed in rows)
        assert [head + "," for head, _ in rows] == plain[1].splitlines()[1:]

    def test_kernel_does_not_carry_over(self, instance_file, tmp_path):
        kernel = ("--kernel", "gaussian:0.25")
        plain = self._alone(instance_file, tmp_path / "plain")
        with_kernel = self._alone(instance_file, tmp_path / "kernel", *kernel)
        assert with_kernel != plain  # the kernel adds the mmd_sq column
        cli._parser.cache_clear()
        assert self._solve(instance_file, tmp_path / "first", *kernel) == with_kernel
        assert self._solve(instance_file, tmp_path / "second") == plain


class TestDigest:
    def _instance(self, x=(0.0, 1.0), a=(0.25, 0.75), y=(0.0, 2.0, 3.0), b=(0.2, 0.3, 0.5),
                  cost=((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)), epsilon=0.5):
        return Instance(
            mu=DiscreteMeasure(points=np.array(x), weights=np.array(a)),
            nu=DiscreteMeasure(points=np.array(y), weights=np.array(b)),
            cost=np.array(cost),
            epsilon=epsilon,
        )

    def test_stable_across_loads_and_round_trip(self, instance_file, tmp_path):
        first = load_instance(instance_file)
        assert _digest(load_instance(instance_file)) == _digest(first)
        # weights summing to 1 - 1.1e-16 must survive the round trip unchanged
        for inst in (first, self._instance(b=(0.7, 0.2, 0.1))):
            again = tmp_path / "again.json"
            write_instance(inst, again)
            assert _digest(load_instance(again)) == _digest(inst)

    def test_changes_with_every_field(self):
        base = _digest(self._instance())
        changed = [
            self._instance(cost=((0.0, 1.0, 2.0), (3.0, 4.0, 5.5))),
            self._instance(a=(0.5, 0.5)),
            self._instance(b=(0.3, 0.2, 0.5)),
            self._instance(x=(0.0, 1.5)),
            self._instance(y=(0.0, 2.0, 3.5)),
            self._instance(epsilon=0.25),
        ]
        digests = [_digest(inst) for inst in changed]
        assert base not in digests
        assert len(set(digests)) == len(digests)

    def test_shape_is_part_of_the_digest(self):
        # only the cost's shape differs; the bytes of every array are equal
        inst = self._instance()
        wide = SimpleNamespace(mu=inst.mu, nu=inst.nu, cost=np.arange(6.0).reshape(2, 3), cost_kind=None, epsilon=0.5)
        tall = SimpleNamespace(mu=inst.mu, nu=inst.nu, cost=np.arange(6.0).reshape(3, 2), cost_kind=None, epsilon=0.5)
        assert _digest(wide) != _digest(tall)

    @pytest.mark.parametrize("kind", ["half_sqeuclidean", "euclidean"])
    def test_a_named_cost_is_hashed_by_its_kind_not_its_matrix(self, kind):
        inst = self._instance()
        named = Instance(mu=inst.mu, nu=inst.nu, cost=kind, epsilon=0.5)
        record = SimpleNamespace(mu=inst.mu, nu=inst.nu, cost=None, cost_kind=kind, epsilon=0.5)
        assert _digest(record) == _digest(named)

    def test_pinned_v3_digests(self):
        # a changed digest changes every output that reports it: bump the
        # version tag with any change to what is hashed
        inst = self._instance()
        named = Instance(mu=inst.mu, nu=inst.nu, cost="half_sqeuclidean", epsilon=0.5)
        assert _digest(named) == "cf3dac60f5c826f657846c11e61a0066566b1952bd1a7126f56cfd407fd706df"
        assert _digest(inst) == "f493c5aa348fd3df5183e8dc4397cc2b0063940d47139547f9c7002e400a4dd7"


class TestAtomicWrite:
    def test_writes_beside_a_directory_named_like_the_old_temp_file(self, tmp_path):
        (tmp_path / "out.json.tmp").mkdir()
        _write_outputs({"x": 1}, tmp_path / "out.json")
        assert (tmp_path / "out.json").read_text() == '{\n "x": 1\n}\n'

    def test_mode_matches_a_plain_write(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        _write_outputs({}, tmp_path / "atomic.json", [(tmp_path / "atomic.txt", "x")])
        for name in ("atomic.txt", "atomic.json"):
            assert (tmp_path / name).stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            _write_outputs({}, target)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []


WRITING_FLAGS = [
    ("solve", "--trace"), ("solve", "--summary"), ("oracle", "--out"), ("verify", "--report"),
    ("bridge", "--drift"), ("bridge", "--summary"), ("flow", "--trace"), ("flow", "--summary"),
]


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command,flag", WRITING_FLAGS, ids=[f"{c}{f}" for c, f in WRITING_FLAGS])
    def test_is_one_error_line_and_exit_one(self, instance_file, tmp_path, capsys, command, flag, target):
        args = {
            "solve": ["--instance", str(instance_file), "--method", "sinkhorn", "--max-iter", "5"],
            "oracle": ["--instance", str(instance_file)],
            "verify": ["--only", "concavity"],
            "bridge": ["--grid-points", "17", "--nt", "11", "--particles", "2000"],
            "flow": ["--t-end", "0.05"],
        }[command]
        out = tmp_path / "out"
        out.mkdir()
        # mkstemp finds no directory to write in, or os.replace cannot put a file over one
        path = out / "missing" / "x" if target == "missing_dir" else out
        assert main([command, *args, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and "Traceback" not in err and ".tmp" not in err, err
        assert not list(tmp_path.rglob("*.tmp"))
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command,flag", [("solve", "--trace"), ("flow", "--trace"), ("bridge", "--drift")])
    def test_an_unwritable_summary_writes_no_other_file(
        self, instance_file, tmp_path, capsys, command, flag, target, existing
    ):
        args = {
            "solve": ["--instance", str(instance_file), "--method", "sinkhorn", "--max-iter", "5"],
            "bridge": ["--grid-points", "17", "--nt", "11", "--particles", "2000"],
            "flow": ["--t-end", "0.05"],
        }[command]
        other = tmp_path / "other.csv"
        if existing:
            other.write_bytes(b"earlier bytes\n")
        summary = tmp_path / "missing" / "s.json"
        if target == "directory":
            summary = tmp_path / "s.json"
            summary.mkdir()
        assert main([command, *args, flag, str(other), "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(summary) in err, err
        assert not list(tmp_path.rglob("*.tmp"))
        if existing:
            assert other.read_bytes() == b"earlier bytes\n"
        else:
            assert not other.exists()

    def test_console_run_prints_no_traceback(self, instance_file, tmp_path):
        pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        summary = tmp_path / "missing" / "x.json"
        proc = subprocess.run(
            [sys.executable, "-m", "otmatch.cli", "solve", "--instance", str(instance_file),
             "--method", "sinkhorn", "--max-iter", "5", "--summary", str(summary)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: [Errno 2] No such file or directory: '{summary}'\n", proc.stderr


class TestOracle:
    def test_writes_potential(self, instance_file, tmp_path):
        out = tmp_path / "phi.json"
        assert main(["oracle", "--instance", str(instance_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        phi = certified_run_phi(load_instance(instance_file), 1e-12)
        assert np.array_equal(np.array(doc["phi"], dtype=float), phi)
        assert float(doc["l1_residual"]) <= 1e-12

    def test_residual_is_the_exact_pass_at_the_certified_potential(self, instance_file, tmp_path, monkeypatch):
        # the certificate's one induced_marginal pass (semidual._certificate) gives
        # the bound and the written residual; the command makes no pass of its own
        real, seen = semidual.induced_marginal, []

        def spy(phi, inst):
            seen.append(np.array(phi))
            return real(phi, inst)

        monkeypatch.setattr(semidual, "induced_marginal", spy)
        monkeypatch.setattr(cli, "marginal_y", lambda phi, inst: pytest.fail("the command made its own pass"))
        out = tmp_path / "phi.json"
        assert main(["oracle", "--instance", str(instance_file), "--out", str(out)]) == 0
        inst = load_instance(instance_file)
        assert len(seen) == 1 and np.array_equal(seen[0], certified_run_phi(inst, 1e-12))
        residual = float(np.abs(inst.b - real(seen[0], inst)[1]).sum())
        assert json.loads(out.read_text())["l1_residual"] == repr(residual)

    @pytest.mark.parametrize(
        "tol", ["nan", "inf", "0", "-1e-12"], ids=["tol_nan", "tol_inf", "tol_zero", "tol_negative"]
    )
    def test_bad_tolerance_is_input_error(self, instance_file, tmp_path, capsys, tol):
        out = tmp_path / "phi.json"
        assert main(["oracle", "--instance", str(instance_file), f"--tol={tol}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_failed_reference_solve_is_exit_two(self, instance_file, monkeypatch, capsys):
        def exhaust(inst, tol):
            raise OracleError("no convergence in 3 iterations")

        monkeypatch.setattr(cli, "_oracle", exhaust)
        assert main(["oracle", "--instance", str(instance_file)]) == 2
        assert "no convergence" in capsys.readouterr().err


class TestVerify:
    def test_single_property_filter(self, capsys):
        code = main(["verify", "--seed", "7", "--only", "momentum"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in doc["properties"]] == ["momentum_counters"]

    def test_seeded_reports_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--seed", "7", "--only", "concavity", "--report", str(a)])
        main(["verify", "--seed", "7", "--only", "concavity", "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_property_is_input_error(self):
        assert main(["verify", "--only", "nonexistent_property"]) == 1

    def test_inconclusive_property_fails_the_suite(self, capsys, monkeypatch):
        unchecked = CheckResult("momentum_counters", float("nan"), "hypothesis unmet", inconclusive=True)
        monkeypatch.setitem(verify._CHECKS, "momentum_counters", lambda seed: unchecked)
        assert main(["verify", "--only", "momentum"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is False
        assert doc["properties"][0]["inconclusive"] is True


class TestBridgeCommand:
    def test_emits_drift_and_summary(self, tmp_path):
        drift = tmp_path / "drift.csv"
        summary = tmp_path / "s.json"
        code = main([
            "bridge", "--grid-points", "17", "--nt", "11", "--particles", "2000",
            "--drift", str(drift), "--summary", str(summary),
        ])
        assert code == 0
        assert drift.read_text().startswith("# n_t=11")
        doc = json.loads(summary.read_text())
        assert float(doc["tv_terminal_vs_static"]) <= float(doc["tv_tolerance"])

    @pytest.mark.parametrize("source", ["demo", "file"])
    def test_one_target_atom_takes_all_the_mass(self, tmp_path, capsys, source):
        summary = tmp_path / "s.json"
        if source == "demo":
            args = ["--grid-points", "1"]
        else:
            mu = DiscreteMeasure(points=np.array([[0.0], [0.5]]), weights=np.array([0.5, 0.5]))
            nu = DiscreteMeasure(points=np.array([[0.25]]), weights=np.array([1.0]))
            path = tmp_path / "one.json"
            write_instance(Instance(mu=mu, nu=nu, cost=np.array([[0.03125], [0.03125]]), epsilon=1.0), path)
            args = ["--instance", str(path)]
        assert main(["bridge", *args, "--particles", "2000", "--summary", str(summary)]) == 0
        assert capsys.readouterr().err == ""
        # the histogram is [1.0], the static marginal too
        assert json.loads(summary.read_text())["tv_terminal_vs_static"] == "0.0"

    @OFF_LATTICE_TARGETS
    @pytest.mark.parametrize("phi", ["zero", "oracle"])
    def test_targets_off_the_lattice(self, tmp_path, targets, phi):
        path = tmp_path / "inst.json"
        write_instance(two_source_instance(targets), path)
        summary = tmp_path / "s.json"
        args = ["--instance", str(path), "--phi", phi, "--particles", "20000", "--summary", str(summary)]
        assert main(["bridge", *args]) == 0
        doc = json.loads(summary.read_text())
        assert float(doc["tv_terminal_vs_static"]) <= float(doc["tv_tolerance"]) < 1.0

    def test_small_eps_demo_with_the_oracle_potential(self, tmp_path):
        # at eps 1e-3 the oracle's potential oscillates by about 2,500, and its rounded-plan bound certifies it
        summary = tmp_path / "s.json"
        args = ["--epsilon", "1e-3", "--phi", "oracle", "--particles", "1000", "--summary", str(summary)]
        assert main(["bridge", *args]) == 0
        doc = json.loads(summary.read_text())
        assert float(doc["tv_terminal_vs_static"]) <= float(doc["tv_tolerance"])

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--particles", "0"], "need at least one particle, got 0"),
            (["--nt", "1"], "the bridge needs at least two time nodes, got 1"),
            (["--nt", "2"], "the TV tolerance 1.009 of 100000 particles and 2 time nodes is at least 1"),
            (["--particles", "9"], "the TV tolerance 1.1 of 9 particles and 101 time nodes is at least 1"),
        ],
        ids=["no_particles", "one_time_node", "one_step", "few_particles"],
    )
    def test_run_inputs_are_checked_before_the_oracle(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.setattr(cli, "oracle_solve", lambda inst: pytest.fail("the oracle ran"))
        summary = tmp_path / "s.json"
        assert main(["bridge", "--grid-points", "8", "--phi", "oracle", *args, "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not summary.exists()

    def test_coincident_target_atoms_are_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        write_instance(two_source_instance([0.0, 0.0, 1.0]), path)
        assert main(["bridge", "--instance", str(path), "--particles", "2000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the bridge needs distinct target atoms") and err.count("\n") == 1, err


class TestFlowCommand:
    def test_zero_cost_flow_flatlines(self, zero_cost_file, tmp_path):
        trace = tmp_path / "flow.csv"
        code = main([
            "flow", "--instance", str(zero_cost_file), "--t-end", "0.5",
            "--trace", str(trace), "--summary", str(tmp_path / "s.json"),
        ])
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "t,Lk,V"
        lks = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(lks) <= 1e-20

    def test_default_flow_summary_reports_monotone(self, tmp_path):
        summary = tmp_path / "s.json"
        code = main(["flow", "--t-end", "2.0", "--summary", str(summary)])
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["v_monotone"] is True
        assert doc["rate_bound_holds"] is True

    @pytest.mark.parametrize(
        "args",
        [["--dt", "-1", "--t-end", "0.5"], ["--dt", "0"], ["--record-every", "0"], ["--t-end", "inf"],
         ["--r", "nan"], ["--r", "inf"], ["--t-end", "1e308"], ["--dt", "1e-320"],
         ["--t-end", "1e300"], ["--dt", "1e-300"]],
        ids=["dt_negative", "dt_zero", "record_every_zero", "t_end_inf", "r_nan", "r_inf",
             "record_grid_t_end", "record_grid_dt", "record_spacing_t_end", "record_spacing_dt"],
    )
    def test_bad_step_arguments_are_input_errors(self, tmp_path, capsys, args):
        summary = tmp_path / "s.json"
        assert main(["flow", *args, "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not summary.exists()

    # the state must be caught by the flow's own check, not by a warning
    @pytest.mark.filterwarnings("error")
    def test_blowup_is_exit_two(self, tmp_path, capsys):
        # r/t = 2e6: an explicit step must stay below about 2e-6, which is
        # under the floor 1e-6 * dt, so the run stops within a few steps
        summary = tmp_path / "s.json"
        start = time.perf_counter()
        code = main(["flow", "--t0", "0.5", "--dt", "2", "--r", "1e6", "--t-end", "50", "--summary", str(summary)])
        assert time.perf_counter() - start <= 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step size fell below 2e-06") and err.count("\n") == 1, err
        assert not summary.exists()

    @pytest.mark.filterwarnings("error")
    def test_stiff_flow_is_exit_two(self, tmp_path, capsys):
        # r/t = 2e6 again, but from dt = 0.01 the floor 1e-8 lies below the
        # stable step of about 1.6e-6: DOPRI5's stiffness test stops the run
        # where the controller would creep on for about 1.4 million steps
        summary = tmp_path / "s.json"
        start = time.perf_counter()
        code = main(["flow", "--t0", "0.5", "--dt", "0.01", "--r", "1e6", "--t-end", "50", "--summary", str(summary)])
        assert time.perf_counter() - start <= 2.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the flow is stiff at t=0.5") and err.count("\n") == 1, err
        assert not summary.exists()


class TestValidate:
    def test_ok(self, instance_file, capsys):
        assert main(["validate", "--instance", str(instance_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_malformed(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("[]")
        assert main(["validate", "--instance", str(bad)]) == 1

    @pytest.mark.parametrize(
        "cost",
        [[[1e308, 1e308], [1e308, 1e308]], [[0.0, 1e308], [0.0, 1e308]], [[-1e308, 0.0], [0.0, 0.0]]],
        ids=["row_inf", "col_inf", "minus_inf"],
    )
    @pytest.mark.parametrize("command", [["validate"], ["solve", "--method", "sinkhorn"], ["oracle"]])
    def test_overflowing_c_over_eps_is_an_input_error(self, tmp_path, capsys, cost, command):
        inst = two_atom_file(tmp_path, cost, 0.5)
        assert main([*command, "--instance", str(inst)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: C/eps overflows float64") and captured.err.count("\n") == 1


REPO = Path(__file__).resolve().parent.parent


class TestEntryPoint:
    def test_console_script_help(self):
        # run the console script that pyproject.toml declares the way pip's
        # generated wrapper runs it, against this checkout's src, so no
        # install (and no other checkout's `otmatch` on PATH) is involved
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["otmatch"]
        module, attr = target.split(":")
        wrapper = (
            f"import sys; sys.argv[0] = 'otmatch'; "
            f"from {module} import {attr}; sys.exit({attr}())"
        )
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), inherited]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "solve" in proc.stdout, proc.stderr


class TestRerunDeterminism:
    def test_multi_block_solve_reruns_byte_identical_in_fresh_processes(self, tmp_path):
        # 401 x 999 takes four row blocks of the cached Gibbs matrix (131
        # rows each but the last), and every block after the first starts
        # off a 64-byte boundary; two fresh interpreters write the same bytes
        rng = np.random.default_rng(33)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "x_points": rng.uniform(size=(401, 2)).tolist(), "x_weights": rng.dirichlet(np.ones(401)).tolist(),
            "y_points": rng.uniform(size=(999, 2)).tolist(), "y_weights": rng.dirichlet(np.ones(999)).tolist(),
            "cost": "half_sqeuclidean", "epsilon": 0.05,
        }))
        pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        outputs = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            run_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "otmatch.cli", "solve", "--instance", str(path), "--method", "sinkhorn",
                 "--tol", "1e-9", "--max-iter", "400", "--trace", str(run_dir / "trace.csv"),
                 "--summary", str(run_dir / "summary.json")],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(run_dir / name).read_bytes() for name in ("summary.json", "trace.csv")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["iterations"] > 10
