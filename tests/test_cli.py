import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feedbackq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSojourn:
    def test_flat_band_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "0.4", "--mu", "0.6", "--q", "0.7",
            "--threshold", "0.5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,j,value"
        assert len(lines) == 3
        w11 = float(lines[1].split(",")[2])
        w22 = float(lines[2].split(",")[2])
        assert w11 == pytest.approx(1.0 / 0.42)
        assert w22 == pytest.approx(2.3 / (0.42 * 1.3))

    def test_full_table_lists_every_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "0.4", "--mu", "0.6", "--q", "0.7",
            "--threshold", "10", "--full",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 11 * 12 // 2

    def test_large_rho_deep_threshold_solves(self, capsys):
        # rho ~ 584 at depth 109 used to fail the residual check (exit 1)
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "18.100265790226157",
            "--mu", "0.5237285832111664", "--q", "0.0592260532197372",
            "--threshold", "108",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 109
        assert all(float(line.split(",")[2]) > 0.0 for line in lines[1:])

    def test_reneging_table_needs_reward(self, capsys):
        code, _, err = run_cli(
            capsys, "sojourn", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--threshold", "2.5", "--mode", "r",
        )
        assert code == 2
        assert "r0" in json.loads(err)["error"]

    def test_reneging_table_with_tagged_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.5", "--threshold", "2.5", "--mode", "r",
            "--tagged-threshold", "3", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["kind"] == "payoff_r_tagged"
        assert len(record["result"]["rows"]) == 3


class TestEquilibrium:
    def test_reference_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["n"]["x"] == pytest.approx(2.073038608, abs=1e-6)
        assert record["result"]["r"]["x"] == pytest.approx(2.326937720, abs=1e-6)
        assert record["result"]["n"]["case"] == "mixed"
        assert record["version"] == record["version"]
        assert "residuals" in record["diagnostics"]

    def test_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.5", "--mode", "n",
        )
        once = json.loads(out)
        assert json.dumps(once, sort_keys=True) == json.dumps(
            json.loads(json.dumps(once, sort_keys=True)), sort_keys=True
        )

    def test_ess_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--mode", "n", "--ess", "--ess-step", "0.25",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["ess"]["is_ess"] is True

    @pytest.mark.parametrize("step", ["0", "-0.05", "nan"])
    def test_ess_step_must_be_positive_and_finite(self, capsys, step):
        code, out, err = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--ess", f"--ess-step={step}",
        )
        assert code == 2
        assert out == ""
        assert "--ess-step" in json.loads(err)["error"]

    def test_root_evals_beside_residuals(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8",
        )
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert set(diagnostics["residuals"]) == {"nash_n_root", "nash_r_root"}
        evals = diagnostics["root_evals"]
        assert set(evals) == {"nash_n_root", "nash_r_root"}
        assert all(1 <= n <= 61 for n in evals.values())

    def test_pure_equilibrium_spends_no_root_evals(self, capsys):
        _, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.0", "--mode", "n",
        )
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["residuals"] == {}
        assert diagnostics["root_evals"] == {"nash_n_root": 0}

    def test_closed_pipe_exits_quietly(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "feedbackq", "equilibrium", "--lambda", "1", "--mu",
             "0.8", "--q", "0.4", "--r0", "7.8", "--ess"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # the reader is gone before the record is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err

    def test_invalid_params_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "equilibrium", "--lambda", "-1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8",
        )
        assert code == 2
        assert "error" in json.loads(err)


class TestWelfare:
    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "welfare", "--lambda", "1", "--mu", "0.8", "--q", "0.8",
            "--r0", "18", "--grid-step", "0.5",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["n_star"] == 3
        assert record["result"]["unimodal_n"] is True
        xs = [row["x"] for row in record["result"]["curve"]]
        assert 3.0 in xs

    def test_csv_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "welfare", "--lambda", "1", "--mu", "0.8", "--q", "0.8",
            "--r0", "18", "--grid-step", "0.5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,S_N,S_R"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        integer_rows = rows[np.isclose(rows[:, 0] % 1.0, 0.0)]
        np.testing.assert_allclose(integer_rows[:, 1], integer_rows[:, 2], atol=1e-9)


    @pytest.mark.parametrize(
        "flag,value,shown",
        [("--grid-step", "inf", "inf"), ("--grid-step", "nan", "nan"),
         ("--x-max", "-5", "-5.0"), ("--x-max", "nan", "nan")],
    )
    def test_bad_grid_exits_two_naming_the_value(self, capsys, flag, value, shown):
        code, out, err = run_cli(
            capsys, "welfare", "--lambda", "1", "--mu", "0.8", "--q", "0.8",
            "--r0", "18", f"{flag}={value}",
        )
        assert code == 2
        assert out == ""
        assert f"got {shown}" in json.loads(err)["error"]

    def test_large_thresholds_above_balance(self, capsys):
        # The closed-form cross-check used to overflow from x = 236 on.
        code, out, _ = run_cli(
            capsys, "welfare", "--lambda", "20", "--mu", "1", "--q", "1", "--r0", "5",
            "--x-max", "250", "--grid-step", "10",
        )
        assert code == 0
        curve = json.loads(out)["result"]["curve"]
        assert curve[-1]["x"] == 250.0
        assert all(np.isfinite(row["s_n"]) and np.isfinite(row["s_r"]) for row in curve)


class TestParadox:
    def test_reneging_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys, "paradox", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["all_hold"] is True
        assert record["result"]["kind"] == "reneging_option"

    def test_reward_comparison(self, capsys):
        code, out, _ = run_cli(
            capsys, "paradox", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--r0-2", "7.9",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["kind"] == "reward_increase"
        assert record["result"]["all_hold"] is True

    def test_reward_comparison_requires_mixed_base(self, capsys):
        code, _, err = run_cli(
            capsys, "paradox", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.5", "--r0-2", "7.55",
        )
        assert code == 2
        assert "mixed" in json.loads(err)["error"]


class TestSimulate:
    def test_fixed_seed_reproducible(self, capsys):
        argv = [
            "simulate", "--lambda", "1", "--mu", "0.8", "--q", "0.8",
            "--threshold", "2.5", "--mode", "r", "--what", "renege",
            "--events", "50000", "--seed", "42",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_tagged_via_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--lambda", "0.4", "--mu", "0.6", "--q", "0.7",
            "--threshold", "0.5", "--start", "1,1", "--reps", "20000",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["what"] == "tagged"
        est = record["result"]["estimates"]["sojourn"]
        assert abs(est["mean"] - 1.0 / 0.42) < 3.0 * est["se"]

    def test_stationary_reports_analytic_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--threshold", "2.073", "--events", "100000", "--seed", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["what"] == "stationary"
        assert len(record["result"]["histogram"]) == len(record["result"]["histogram_analytic"])


class TestSeedHandling:
    def test_entropy_seed_differs_across_runs(self, capsys):
        argv = [
            "simulate", "--lambda", "1", "--mu", "0.8", "--q", "0.8",
            "--threshold", "2.5", "--mode", "r", "--what", "renege",
            "--events", "20000", "--seed-from-entropy",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert json.loads(out1)["result"]["seed"] != json.loads(out2)["result"]["seed"]
