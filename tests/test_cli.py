import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from feedbackq import cli
from feedbackq.cli import build_parser, main
from feedbackq.equilibrium import EssReport

from conftest import random_params


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

    def test_payoff_column_is_reward_minus_sojourn(self, capsys):
        rng = np.random.default_rng(121)
        for _ in range(20):
            params = random_params(rng, (0.5, 20.0))
            x = float(rng.choice([rng.integers(0, 8), rng.uniform(0.0, 8.0)]))
            code, out, _ = run_cli(
                capsys, "sojourn", "--lambda", repr(params.lam), "--mu", repr(params.mu),
                "--q", repr(params.q), "--r0", repr(params.r0), "--threshold", repr(x),
                "--full", "--format", "json",
            )
            assert code == 0
            rows = json.loads(out)["result"]["rows"]
            assert all(row["payoff"] == params.r0 - row["value"] for row in rows)
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "1", "--mu", "0.8", "--q", "0.4", "--r0", "7.8",
            "--threshold", "2.5",
        )
        assert code == 0
        assert out.split("\n")[0] == "i,j,value,payoff"

    def test_tagged_threshold_at_the_population_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "sojourn", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.5", "--threshold", "2.5", "--mode", "r",
            "--tagged-threshold", "2.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["result"]["kind"] == "payoff_r_all"

    def test_tagged_threshold_below_the_ceiling_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "sojourn", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.5", "--threshold", "2.5", "--mode", "r", "--tagged-threshold", "2.7",
        )
        assert (code, out) == (2, "")
        assert "must equal the population threshold" in json.loads(err)["error"]


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

    def test_ess_at_low_load(self, capsys):
        # pure at m = 10, where every deviation's loss is far below 1e-9 relative
        code, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "0.147075363635155", "--mu", "1.3181044536113944",
            "--q", "0.7488355221981388", "--r0", "8.543764654080832", "--ess",
        )
        assert code == 0
        ess = json.loads(out)["result"]["ess"]
        assert ess["is_ess"] is True
        assert ess["strict_best"] == ess["checked"] == 240

    def test_ess_closes_only_the_payoff_chain_at_the_equilibrium(self, capsys, monkeypatch):
        # the check reads the critical values and the mixed root that the
        # search left on the command's ladder; its output does not change
        from feedbackq import solver

        closes, solve = [], solver.solve_structured
        monkeypatch.setattr(solver, "solve_structured", lambda *args: closes.append(1) or solve(*args))
        argv = ["equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4", "--r0", "7.8"]
        counts, outs = [], []
        for extra in ([], ["--ess"]):
            closes.clear()
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            counts.append(len(closes))
            outs.append(json.loads(out))
        assert counts[1] == counts[0] + 1
        assert outs[1]["result"]["ess"]["is_ess"] is True
        outs[1]["result"].pop("ess")
        assert outs[1] == outs[0]

    @pytest.mark.parametrize("note, exit_code", [("", 1), ("a failure the check explains", 0)])
    def test_ess_failure_exits_one_unless_explained(self, capsys, monkeypatch, note, exit_code):
        report = EssReport(x=2.0, is_ess=False, checked=3, strict_best=2, tie_resolved=0,
                           failures=(1.5,), note=note)
        monkeypatch.setattr(cli, "ess_check", lambda *args, **kwargs: report)
        code, out, _ = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--ess",
        )
        assert code == exit_code
        ess = json.loads(out)["result"]["ess"]
        assert (ess["is_ess"], ess["failures"], ess["note"]) == (False, [1.5], note)

    def test_ess_checks_the_no_reneging_game_only(self, capsys):
        code, out, err = run_cli(
            capsys, "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--mode", "r", "--ess",
        )
        assert code == 2
        assert out == ""
        assert "no-reneging" in json.loads(err)["error"]

    @pytest.mark.parametrize("step", ["0", "-0.05", "nan", "1e-12"])
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
         ("--grid-step", "1e-12", "1e-12"),
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

    def test_optimum_beyond_the_scan_limit_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "welfare", "--lambda", "0.001", "--mu", "1", "--q", "1", "--r0", "20000",
            "--x-max", "3", "--grid-step", "1",
        )
        assert (code, out) == (2, "")
        assert "SCAN_LIMIT = 10000" in json.loads(err)["error"]

    def test_large_reward_above_balance(self, capsys):
        # The optimum's marginal-root bracket overflowed in rho^v (a traceback).
        code, out, _ = run_cli(
            capsys, "welfare", "--lambda", "2", "--mu", "1", "--q", "1", "--r0", "2000",
            "--x-max", "3", "--grid-step", "1",
        )
        assert code == 0
        assert json.loads(out)["result"]["n_star"] == 9

    def test_exit_codes_over_rates_and_rewards(self, capsys):
        # Every run exits 0, 1 or 2 and lets no exception escape.  Rewards
        # reach r0 mu q = 1e4 where rho >= 1.5; elsewhere r0 mu q <= 60 keeps
        # the optimum below 60, since F_k >= k + 1.
        rng = np.random.default_rng(9)
        rhos = [0.05, 1.0, 1.5, 20.0, *np.exp(rng.uniform(np.log(0.05), np.log(20.0), 12))]
        rhos += [1.0 + sign * 10.0**-k for k in range(2, 10) for sign in (-1.0, 1.0)]
        for rho in rhos:
            mu, q = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.0))
            top = 1e4 if rho >= 1.5 else 60.0
            for cap in (1.0, float(rng.uniform(1.0, top)), top):
                argv = ["welfare", "--lambda", repr(float(rho) * mu * q), "--mu", repr(mu),
                        "--q", repr(q), "--r0", repr(cap / (mu * q)),
                        "--x-max", "3", "--grid-step", "1"]
                code, _, _ = run_cli(capsys, *argv)
                assert code in (0, 1, 2), argv


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

    def test_reward_comparison_reads_the_search_ladder(self, capsys, monkeypatch):
        # the check reads the critical values and the root at --r0 that the
        # search left on the command's ladder: it closes r2's root and the two
        # payoff chains, 21 closes in all where a fresh check made 32
        from feedbackq import Ladder, ModelParams, nash_n, paradox1_check, solver

        closes, solve = [], solver.solve_structured
        monkeypatch.setattr(solver, "solve_structured", lambda *args: closes.append(1) or solve(*args))
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        ladder = Ladder(params)
        base = nash_n(params, ladder=ladder)
        search = len(closes)
        paradox1_check(params, base.m, 7.8, 7.9, ladder=ladder)
        library = len(closes)
        closes.clear()
        code, _, _ = run_cli(
            capsys, "paradox", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--r0", "7.8", "--r0-2", "7.9",
        )
        assert code == 0
        assert len(closes) == library == 21 and library - search == 10

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

    def test_tagged_run_needs_a_start(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--threshold", "2.073", "--what", "tagged", "--reps", "10",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "tagged runs need --start i,j"

    @pytest.mark.parametrize("start", ["2,2,3", "2", "a,b", "2.5,3"])
    def test_malformed_start_names_the_flag(self, capsys, start):
        code, out, err = run_cli(
            capsys, "simulate", "--lambda", "1", "--mu", "0.8", "--q", "0.4",
            "--threshold", "2.073", f"--start={start}", "--what", "tagged", "--reps", "10",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f"--start must be two integers i,j, got {start!r}"


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


class TestReadmeCommands:
    """The README's eight commands print what they printed before the grid
    solves were stacked (``readme_commands.json``, recorded then): the same
    exit codes and byte-identical output."""

    RECORDED = json.loads((Path(__file__).parent / "readme_commands.json").read_text())

    def test_recorded_commands_are_the_readmes(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        shown = [
            " ".join(line.split())
            for line in readme.replace("\\\n", " ").splitlines()
            if line.startswith("feedbackq ")
        ]
        assert shown == [rec["command"] for rec in self.RECORDED]
        assert len(shown) == 8

    @pytest.mark.parametrize("index", range(8))
    def test_output_is_unchanged(self, capsys, index):
        rec = self.RECORDED[index]
        code, out, _ = run_cli(capsys, *rec["command"].split()[1:])
        assert code == rec["exit_code"]
        assert out == rec["stdout"]


class TestSharedParser:
    RECORDED = TestReadmeCommands.RECORDED
    ARGVS = [rec["command"].split()[1:] for rec in RECORDED]

    def test_readme_commands_twice_in_one_process(self, capsys):
        # The second pass runs in reverse order on the parser the first built.
        order = list(range(8)) + list(reversed(range(8)))
        for index in order:
            rec = self.RECORDED[index]
            code, out, _ = run_cli(capsys, *self.ARGVS[index])
            assert (code, out) == (rec["exit_code"], rec["stdout"])

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        built = []

        def counting():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, *self.ARGVS[0])[0] == 0
            assert len(built) == 1 and cli._parser() is built[0]
        finally:
            cli._parser.cache_clear()
        assert build_parser() is not build_parser()

    def test_threads_parse_like_one_thread(self):
        serial = [build_parser().parse_args(argv) for argv in self.ARGVS]
        parser = cli._parser()
        errors, results = [], {}

        def work(name):
            try:
                results[name] = [
                    parser.parse_args(argv) for _ in range(50) for argv in self.ARGVS
                ]
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in "ab":
            assert results[name] == serial * 50
