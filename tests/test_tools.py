"""tools/tree_times.py: each suite once on this checkout, one process, one pass."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def suite_output():
    runs = {}

    def run(suite: str) -> dict:
        if suite not in runs:
            done = subprocess.run(
                [sys.executable, str(ROOT / "tools" / "tree_times.py"), suite,
                 "--processes", "1", "--passes", "1"],
                capture_output=True, text=True, check=True, timeout=300,
            )
            runs[suite] = json.loads(done.stdout)
        return runs[suite]

    return run


@pytest.mark.parametrize("suite, unit", [("readme", "ms"), ("engine", "ms"), ("close", "us")])
def test_output_shape(suite_output, suite, unit):
    out = suite_output(suite)
    assert {k: out[k] for k in ("suite", "unit", "processes", "passes")} == {
        "suite": suite, "unit": unit, "processes": 1, "passes": 1}
    (tree,) = out["trees"]
    assert set(tree) == {"checkout", "gmean", "items"}
    assert set(tree["checkout"]) == {"head", "dirty", "src_sha256"}
    assert len(tree["checkout"]["src_sha256"]) == 64
    for item in tree["items"].values():
        assert set(item) == {"best", "spread", "sha256"}
        assert item["best"] > 0.0 and item["spread"] == 0.0
        assert len(item["sha256"]) == 64
    assert tree["gmean"] > 0.0
    assert "/" not in json.dumps(tree["checkout"])  # a tree is named by content, not by path


def test_readme_digests_are_the_pinned_stdouts(suite_output):
    items = suite_output("readme")["trees"][0]["items"]
    pinned = json.loads((ROOT / "tests" / "readme_commands.json").read_text())
    assert list(items) == [rec["command"] for rec in pinned]
    for rec in pinned:
        assert items[rec["command"]]["sha256"] == hashlib.sha256(rec["stdout"].encode()).hexdigest()


def test_engine_times_seven_runs(suite_output):
    items = suite_output("engine")["trees"][0]["items"]
    assert list(items) == ["renege_x2.5", "stationary_payoffs_x2.073", "renege_x10.5",
                           "renege_x20.5", "renege_x50.5", "renege_x100.5", "renege_x300.5"]


def test_close_items_carry_one_digest(suite_output):
    items = suite_output("close")["trees"][0]["items"]
    phases = ("build", "elimination", "back_substitution", "residual", "close")
    assert list(items) == [f"d{depth}.{phase}" for depth in (2, 4, 7, 12, 62) for phase in phases]
    assert len({item["sha256"] for item in items.values()}) == 1
