import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from otmatch import cli
from otmatch.cli import METHODS, _atomic_write, _digest, main
from otmatch.measures import DiscreteMeasure, Instance, load_instance, save_instance
from otmatch.semidual import semidual_value
from otmatch.solvers import DivergenceError, OracleError
from otmatch.verify import random_instance

from conftest import zero_cost_instance


@pytest.fixture()
def instance_file(tmp_path):
    inst = random_instance(np.random.default_rng(70), 6, 8, 0.5)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


@pytest.fixture()
def zero_cost_file(tmp_path):
    path = tmp_path / "zero.json"
    save_instance(zero_cost_instance(), path)
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

    def test_divergence_is_exit_two(self, instance_file, monkeypatch, capsys):
        def diverge(inst, cfg):
            raise DivergenceError("objective fell")

        monkeypatch.setattr(cli, "run", diverge)
        code = main(["solve", "--instance", str(instance_file), "--method", "sinkhorn"])
        assert code == 2
        assert "objective fell" in capsys.readouterr().err


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
            save_instance(inst, again)
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
        wide = SimpleNamespace(mu=inst.mu, nu=inst.nu, cost=np.arange(6.0).reshape(2, 3), epsilon=0.5)
        tall = SimpleNamespace(mu=inst.mu, nu=inst.nu, cost=np.arange(6.0).reshape(3, 2), epsilon=0.5)
        assert _digest(wide) != _digest(tall)


class TestAtomicWrite:
    def test_writes_beside_a_directory_named_like_the_old_temp_file(self, tmp_path):
        (tmp_path / "out.json.tmp").mkdir()
        _atomic_write(tmp_path / "out.json", "payload\n")
        assert (tmp_path / "out.json").read_text() == "payload\n"

    def test_mode_matches_a_plain_write(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        _atomic_write(tmp_path / "atomic.txt", "x")
        assert (tmp_path / "atomic.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            _atomic_write(target, "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []


class TestOracle:
    def test_writes_potential(self, instance_file, tmp_path):
        out = tmp_path / "phi.json"
        assert main(["oracle", "--instance", str(instance_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert float(doc["phi"][0]) == 0.0
        assert float(doc["l1_residual"]) <= 1e-12

    def test_failed_reference_solve_is_exit_two(self, instance_file, monkeypatch, capsys):
        def exhaust(inst, tol):
            raise OracleError("no convergence in 3 iterations")

        monkeypatch.setattr(cli, "oracle_solve", exhaust)
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


class TestValidate:
    def test_ok(self, instance_file, capsys):
        assert main(["validate", "--instance", str(instance_file)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_malformed(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("[]")
        assert main(["validate", "--instance", str(bad)]) == 1


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
