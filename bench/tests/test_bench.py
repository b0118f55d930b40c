"""Self-checks of the benchmark: seeded inputs, trace neutrality, restored wrappers."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from feedbackq import paradox  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every function object bound in a feedbackq module namespace."""
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "feedbackq" or name.startswith("feedbackq.")
        for attr, obj in vars(mod).items()
        if isinstance(obj, types.FunctionType)
    }


def _small_ops():
    """A few cheap ops of every workload, including one known failure."""
    sweep = workloads.WORKLOADS["sweep_shallow"]
    sweep_inputs = sweep.inputs(7)
    ladder_failure = next(i for i in sweep_inputs if i.label == "rho_ladder rho=1+1e-5")
    mc = workloads.WORKLOADS["montecarlo"]
    mc_inputs = [
        dataclasses.replace(i, reps=min(i.reps, 2000), events=min(i.events, 20_000))
        for i in mc.inputs(7)
    ]
    cli = workloads.WORKLOADS["cli_readme"]
    cli_inputs = [i for i in cli.inputs(7) if i.label.startswith(("sojourn", "paradox"))]
    return [
        (sweep, sweep_inputs[:2] + [ladder_failure, sweep_inputs[-1]]),
        (mc, mc_inputs),
        (cli, cli_inputs),
    ]


@pytest.mark.parametrize("name", ["sweep_shallow", "equilibrium_deep", "montecarlo", "cli_readme"])
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    assert workload.inputs(3) == workload.inputs(3)
    if name != "cli_readme":  # the README commands carry their own seeds
        assert workload.inputs(3) != workload.inputs(4)


def test_traced_outputs_are_bit_identical_and_wrappers_restored():
    before = _bindings()
    for workload, inputs in _small_ops():
        plain, _ = run.run_loop(workload, inputs, 0.0, count=len(inputs))
        with tracer.Tracer() as tr:
            traced, _ = run.run_loop(workload, inputs, 0.0, count=len(inputs), tracer=tr)
        assert _bindings() == before
        rec_plain, fail_plain, wrong_plain = run.evaluate(workload, inputs, plain)
        rec_traced, fail_traced, wrong_traced = run.evaluate(workload, inputs, traced)
        assert wrong_plain == wrong_traced == 0
        assert rec_plain == rec_traced
        assert run.output_hash(rec_plain) == run.output_hash(rec_traced)
        assert fail_plain == fail_traced
        assert tr.spans and all(s.parent is None or s.parent < i for i, s in enumerate(tr.spans))


def test_known_failure_is_counted_once_at_its_layer():
    sweep = workloads.WORKLOADS["sweep_shallow"]
    failing = [i for i in sweep.inputs(7) if i.label == "rho_ladder rho=1+1e-5"]
    with tracer.Tracer() as tr:
        runs, _ = run.run_loop(sweep, failing, 0.0, count=1, tracer=tr)
    assert runs[0][3].startswith("ConsistencyError")
    metrics = tracer.layer_metrics(tr.spans, 1)
    assert metrics["welfare.errors"] == 1
    assert metrics["solver.errors"] == 0
    assert metrics["equilibrium.nash_calls"] == 2


def test_proved_band_verdicts_fail_unless_tied():
    sweep = workloads.WORKLOADS["sweep_shallow"]
    near_tie = next(i for i in sweep.inputs(7) if i.label == "near_tie")
    rec = sweep.record(near_tie, sweep.run(near_tie))
    *_, verdicts, band = rec
    assert band == paradox.BAND_PROVED and not dict(verdicts)["payoff_1_drops"]
    assert sweep.check(near_tie, rec) is None
    pay_n, pay_r = rec[9]
    apart = (pay_n, (pay_n[0] + 1e-12,) + pay_r[1:])
    assert "payoff_1_drops fails" in sweep.check(near_tie, rec[:9] + (apart,) + rec[10:])


def test_allotment_keeps_the_total_and_the_proportions():
    counts = workloads.allot(workloads.SHALLOW_SHARES, workloads.SHALLOW_DESIGNED)
    assert sum(counts.values()) == workloads.SHALLOW_DESIGNED
    for cell, k in counts.items():
        assert abs(k - workloads.SHALLOW_SHARES[cell] * workloads.SHALLOW_DESIGNED) < 1.0


def test_wrappers_are_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert _bindings() != before
            raise RuntimeError("stop")
    assert _bindings() == before


def test_self_time_excludes_children():
    sweep = workloads.WORKLOADS["sweep_shallow"]
    inputs = sweep.inputs(7)[:1]
    with tracer.Tracer() as tr:
        run.run_loop(sweep, inputs, 0.0, count=1, tracer=tr)
    nash = [s for s in tr.spans if s.name == "equilibrium.nash_n"]
    assert nash and all(s.op == 0 for s in tr.spans)
    children = [s for s in tr.spans if s.parent == tr.spans.index(nash[0])]
    assert {s.name for s in children} >= {"equilibrium.critical_values"}
    assert sum(c.duration for c in children) <= nash[0].duration


def _result_line(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_result_lines_carry_the_declared_metrics(capsys):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    argv = ["--workload", "cli_readme", "--seconds", "0"]
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        result = _result_line(capsys, argv + ["--trace", trace])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
