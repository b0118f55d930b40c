"""feedbackq benchmark: one workload per process, a closed loop of ops.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep_shallow --seed 1 --seconds 50 --trace 0

The library is imported from ``src/`` of that checkout; nothing is
installed.  Inputs are generated from the seed before timing starts, one op
runs at a time, and every op's output is checked after the timed loop.  A
failing op is counted and listed by its input; it never aborts the run.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the same ops twice, untraced and then traced (half of ``--seconds``
each), reports per-layer numbers from the traced half, the tracing overhead,
and checks that both halves produced bit-identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (every metric with unit and sample count, failures,
provenance).  See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import secrets
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: BLAS thread variables capped at the number of usable CPUs.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is measured this many times, each in a fresh process, per run.
SETUP_PROBES = 9

#: op_p90_ms is reported only from this many ops on, so that at least ten
#: samples lie beyond it.
P90_MIN_OPS = 100

DEFAULT_SEED = 1

#: The end-to-end metrics every workload reports on the result line.
END_TO_END = ("setup_s", "best_gmean_ms", "peak_rss_mb")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep_shallow", "equilibrium_deep", "montecarlo", "cli_readme"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--held-out", action="store_true",
                        help="ignore --seed and draw a fresh seed from the OS (it is recorded)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = secrets.randbits(32)
    return args


def cap_blas_threads() -> dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def prepare(args):
    """Set-up: import the library, generate the inputs, warm up."""
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workloads.warm_up()
    return workload, inputs


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh process to its ready line, repeated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_loop(workload, inputs, seconds: float, count: int | None = None, tracer=None):
    """Closed loop over the inputs, in passes, or exactly ``count`` ops.

    Without ``count`` the loop stops at the end of the pass that ends nearest
    to ``seconds`` (after at least one), so every input runs equally often.
    """
    runs = []
    n = len(inputs)
    start = time.perf_counter()
    while True:
        i = len(runs)
        if count is not None:
            if i >= count:
                break
        elif i and i % n == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (i // n) >= seconds:
                break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            raw, error = workload.run(inputs[i % n]), None
        except Exception as exc:  # a failing op is counted and listed, never fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((i % n, time.perf_counter() - t0, raw, error))
    return runs, time.perf_counter() - start


def evaluate(workload, inputs, runs):
    """Records, failures and output problems of a run list (outside timing).

    Returns (records, failures, wrong) where ``wrong`` counts ops that
    returned an output that failed its check or differed from an earlier run
    of the same input.
    """
    records, failures, wrong = [], [], 0
    first: dict[int, str] = {}
    for pos, (idx, _, raw, error) in enumerate(runs):
        inp = inputs[idx]
        if error is not None:
            records.append(("error", error))
            failures.append({"op": pos, "input": inp.describe(), "error": error})
            continue
        rec = workload.record(inp, raw)
        records.append(rec)
        problem = workload.check(inp, rec)
        dig = digest(rec)
        if problem is None and first.setdefault(idx, dig) != dig:
            problem = "output differs from an earlier run of the same input"
        if problem is not None:
            wrong += 1
            failures.append({"op": pos, "input": inp.describe(), "error": f"CheckFailed: {problem}"})
    return records, failures, wrong


def digest(rec) -> str:
    return hashlib.sha256(repr(rec).encode()).hexdigest()


def output_hash(records) -> str:
    return hashlib.sha256("".join(digest(r) for r in records).encode()).hexdigest()


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def best_times(runs) -> dict[int, float]:
    """Each input's fastest run over the passes (min of N)."""
    best: dict[int, float] = {}
    for i, dt, _, _ in runs:
        best[i] = min(best.get(i, dt), dt)
    return best


def end_to_end(inputs, runs, elapsed, failures, setup_times) -> dict:
    """End-to-end metrics of one timed run.

    ``op_*``, ``ops_per_s`` and ``mc_*`` take every op of the run.  The
    ``best_*`` metrics take each input's fastest run over the passes: on a
    host whose speed drifts, the minimum is the steady estimate of what an
    op costs, so those are the ones a change is judged by.
    """
    times = [dt for _, dt, _, _ in runs]
    best = list(best_times(runs).values())
    m = {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "best_gmean_ms": metric(statistics.geometric_mean(best) * 1e3, "ms", len(best)),
        "best_pass_s": metric(sum(best), "s", len(best)),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms", len(times)),
    }
    if len(times) >= P90_MIN_OPS:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        m["op_p90_ms"] = metric(p90 * 1e3, "ms", len(times))
    m["ops_per_s"] = metric(len(runs) / elapsed, "1/s", len(runs))
    m["fail_frac"] = metric(len(failures) / len(runs), "ratio", len(runs))
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
    )
    for key, size in (("mc_events_per_s", "events"), ("mc_reps_per_s", "reps")):
        sized = [(getattr(inputs[i], size), dt) for i, dt, _, err in runs
                 if getattr(inputs[i], size) and err is None]
        if sized:
            rate = sum(s for s, _ in sized) / sum(dt for _, dt in sized)
            m[key] = metric(rate, "1/s", len(sized))
    return m


def per_layer(workload, inputs, untraced, traced, spans, failures):
    import tracer

    n = len(traced)
    m = {k: metric(v, _layer_unit(k), n) for k, v in tracer.layer_metrics(spans, n).items()}
    sim_fail = 0
    for f in failures:  # numbered after the untraced half, which has n ops too
        inp = inputs[traced[f["op"] - n][0]]
        sim_fail += f["error"].startswith("CheckFailed") and bool(inp.reps or inp.events)
    m["simulate.check_fail"] = metric(sim_fail / n, "count/op", n)
    out_bytes = 0
    if workload.name == "cli_readme":  # raw output is (exit code, stdout, stderr)
        out_bytes = sum(len(raw[1].encode()) for _, _, raw, err in traced if err is None)
    m["cli.output_bytes"] = metric(out_bytes / n, "B/op", n)
    # Same ops and passes in both halves, compared as best_pass_s.
    overhead = sum(best_times(traced).values()) / sum(best_times(untraced).values()) - 1.0
    m["trace.overhead_frac"] = metric(overhead, "ratio", n)
    by_depth = {name: tracer.ms_by_depth(spans, f"solver.{name}")
                for name in ("solve_structured", "sojourn_vector")}
    return m, by_depth


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("solver.solve_ms."):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s/op"
    if name == "solver.depth_max":
        return "count"
    return "count/op"


def provenance(args, blas_threads) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "feedbackq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": args.held_out,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_report(report: dict) -> None:
    print(f"# feedbackq bench  workload={report['provenance']['workload']}  "
          f"seed={report['provenance']['seed']}  trace={report['provenance']['trace']}")
    print(f"{'metric':36s} {'value':>16s} {'unit':>8s} {'samples':>8s}")
    for name, m in report["metrics"].items():
        print(f"{name:36s} {m['value']:16.6g} {m['unit']:>8s} {m['samples']:8d}")
    for name, why in report.get("not_reported", {}).items():
        print(f"{name:36s} {'-':>16s}   ({why})")
    print(f"# {len(report['failures'])} of {report['attempted']} ops failed")
    for f in report["failures"]:
        print(f"#   op {f['op']}: {f['input']}: {f['error']}")
    print(json.dumps(report, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feedbackq" / "__init__.py").is_file():
        print(f"bench: no feedbackq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    workload, inputs = prepare(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    report: dict = {}
    if args.trace == 0:
        setup_times = measure_setup(args)
        runs, elapsed = run_loop(workload, inputs, args.seconds)
        records, failures, wrong = evaluate(workload, inputs, runs)
        metrics = end_to_end(inputs, runs, elapsed, failures, setup_times)
        attempted = len(runs)
        missing = {"op_p90_ms": f"{attempted} ops < {P90_MIN_OPS}",
                   "mc_events_per_s": "no ergodic simulator ops",
                   "mc_reps_per_s": "no tagged simulator ops"}
        report["not_reported"] = {k: v for k, v in missing.items() if k not in metrics}
        contract = {k: metrics[k] for k in END_TO_END}
    else:
        import tracer

        untraced, _ = run_loop(workload, inputs, args.seconds / 2)
        with tracer.Tracer() as tr:
            traced, _ = run_loop(workload, inputs, 0.0, count=len(untraced), tracer=tr)
        # Both halves run the same inputs, so the check that an input always
        # gives the same output is also the trace-neutrality check.
        both, failures, wrong = evaluate(workload, inputs, untraced + traced)
        records = both[len(untraced):]
        report["untraced_output_sha256"] = output_hash(both[: len(untraced)])
        metrics, report["ms_by_depth"] = per_layer(
            workload, inputs, untraced, traced, tr.spans,
            [f for f in failures if f["op"] >= len(untraced)])
        report["spans"] = len(tr.spans)
        attempted = len(untraced) + len(traced)
        contract = metrics

    report.update(
        correct=wrong == 0,
        attempted=attempted,
        failed=len(failures),
        output_sha256=output_hash(records),
        metrics=metrics,
        failures=failures,
        provenance=provenance(args, blas_threads),
    )
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in contract.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
