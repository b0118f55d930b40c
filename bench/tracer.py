"""Span tracer that wraps feedbackq's public layer functions from outside.

Every public function defined in a layer module is replaced, in every
``feedbackq`` module namespace that holds it (``from .solver import
sojourn_vector`` binds the name in ``equilibrium``, ``welfare``, the package
itself, ...), by a wrapper that records one span: name, layer, start, end,
the span that was open when it was called, the op it belongs to, and an
error type if it raised.  Spans stay in memory; :func:`layer_metrics` turns
them into per-layer numbers.  Leaving the ``with`` block puts every original
function back.

``model`` is not wrapped: it only validates and indexes, and its time folds
into the self time of its callers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
from time import perf_counter

PACKAGE = "feedbackq"
LAYERS = ("qbd", "solver", "analytics", "equilibrium", "welfare", "paradox", "simulate", "cli")

_BUILDERS = {"qbd.build_nonreneging", "qbd.build_reneging_tagged", "qbd.build_reneging_all"}
_VALUE_FNS = {
    "solver.sojourn_vector",
    "solver.payoff_vector_n",
    "solver.sojourn_vector_r_tagged",
    "solver.payoff_vector_r_tagged",
    "solver.payoff_vector_r_all",
}
_NASH = {"equilibrium.nash_n", "equilibrium.nash_r"}

#: Depth buckets of ``solver.solve_ms.*``: where the solve is overhead-bound,
#: in between, and where the J^4 elimination dominates.
DEPTH_BUCKETS = (("d_le16", 1, 16), ("d17_64", 17, 64), ("d_gt64", 65, 10**9))


def _states(args, result):
    blocks = result[0] if isinstance(result, tuple) else result
    return blocks.num_states


#: Per-span size, read from the call's first argument or its result.  The
#: library passes chain blocks and simulation configs positionally.
_SIZE = {
    **{name: _states for name in _BUILDERS},
    "solver.solve_structured": lambda args, result: args[0].depth,
    "solver.sojourn_vector": lambda args, result: result.depth,
    "simulate.simulate_tagged": lambda args, result: args[0].reps,
    "simulate.simulate_stationary": lambda args, result: args[0].events,
    "simulate.simulate_renege_fraction": lambda args, result: args[0].events,
}


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "error", "size")

    def __init__(self, name, layer, op, parent, start):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.error = None
        self.size = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    Set :attr:`op` before each op so that its spans share that identifier.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, types.FunctionType]] = []

    def __enter__(self) -> Tracer:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(obj, layer)
        try:
            for name, mod in list(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
                        self._patched.append((mod, attr, obj))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn: types.FunctionType, layer: str):
        name = f"{layer}.{fn.__name__}"
        size = _SIZE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self.op, stack[-1] if stack else None, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if size is not None:
                span.size = size(args, result)
            return result

        return traced


def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer numbers from one traced phase of ``n_ops`` ops.

    Calls, sizes, busy times and errors are per op, so that a run that
    completes more ops does not read as more work.  An error is counted
    once, at the span that raised first.  Rates, medians and maxima are not
    scaled.
    """
    child_time = [0.0] * len(spans)
    child_error = [False] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
            child_error[span.parent] |= span.error is not None
    self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def calls(names) -> float:
        return sum(1 for s in spans if s.name in names) / n_ops

    def total(names) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def self_of(layer) -> float:
        return sum(t for s, t in zip(spans, self_time) if s.layer == layer) / n_ops

    def errors(layer) -> float:
        return sum(
            1
            for i, s in enumerate(spans)
            if s.layer == layer and s.error is not None and not child_error[i]
        ) / n_ops

    def rate(name) -> float:
        busy = total({name})
        return sum(s.size for s in spans if s.name == name) / busy if busy else 0.0

    solves = [s for s in spans if s.name == "solver.solve_structured"]
    under_nash = []
    for s in spans:
        if s.name in _VALUE_FNS:
            names = [a.name for a in _ancestors(spans, s)]
            if any(n in _NASH for n in names) and "equilibrium.critical_values" not in names:
                under_nash.append(s)
    ascent = [
        s
        for s in spans
        if s.name == "equilibrium.critical_values"
        and any(a.name in _NASH for a in _ancestors(spans, s))
    ]

    out = {
        "qbd.build_calls": calls(_BUILDERS),
        "qbd.build_s": self_of("qbd"),
        "qbd.states_built": sum(s.size for s in spans if s.name in _BUILDERS) / n_ops,
        "solver.factorize_calls": calls({"solver.factorize"}),
        "solver.factorize_s": total({"solver.factorize"}) / n_ops,
        "solver.solve_calls": len(solves) / n_ops,
        "solver.solve_s": sum(
            t for s, t in zip(spans, self_time) if s.name == "solver.solve_structured"
        ) / n_ops,
        "solver.residual_s": total({"solver.residual_norm"}) / n_ops,
    }
    for key, lo, hi in DEPTH_BUCKETS:
        times = [s.duration * 1e3 for s in solves if lo <= s.size <= hi]
        out[f"solver.solve_ms.{key}"] = statistics.median(times) if times else 0.0
    out.update(
        {
            "solver.depth_max": max((s.size for s in solves), default=0),
            "solver.value_calls": calls(_VALUE_FNS),
            "solver.errors": errors("solver"),
            "analytics.stationary_calls": calls({"analytics.stationary_threshold"}),
            "analytics.stationary_s": total({"analytics.stationary_threshold"}) / n_ops,
            "analytics.renege_s": total({"analytics.renege_probability"}) / n_ops,
            "equilibrium.nash_calls": calls(_NASH),
            "equilibrium.nash_s": total(_NASH) / n_ops,
            "equilibrium.critical_values_calls": calls({"equilibrium.critical_values"}),
            "equilibrium.ascent_s": sum(s.duration for s in ascent) / n_ops,
            "equilibrium.root_evals": len(under_nash) / n_ops,
            "equilibrium.root_s": sum(s.duration for s in under_nash) / n_ops,
            "equilibrium.ess_s": total({"equilibrium.ess_check"}) / n_ops,
            "welfare.point_calls": calls({"welfare.welfare_n", "welfare.welfare_r"}),
            "welfare.point_s": total({"welfare.welfare_n", "welfare.welfare_r"}) / n_ops,
            "welfare.optimum_s": total({"welfare.socially_optimal_threshold"}) / n_ops,
            "welfare.curve_s": total({"welfare.welfare_curve"}) / n_ops,
            "welfare.errors": errors("welfare"),
            "paradox.check_calls": calls({"paradox.paradox1_check", "paradox.paradox2_check"}),
            "paradox.self_s": self_of("paradox"),
            "simulate.tagged.s": total({"simulate.simulate_tagged"}) / n_ops,
            "simulate.tagged.reps_per_s": rate("simulate.simulate_tagged"),
            "simulate.stationary.s": total({"simulate.simulate_stationary"}) / n_ops,
            "simulate.stationary.events_per_s": rate("simulate.simulate_stationary"),
            "simulate.renege.events_per_s": rate("simulate.simulate_renege_fraction"),
            "cli.main_s": total({"cli.main"}) / n_ops,
            "cli.self_s": self_of("cli"),
        }
    )
    return out


def ms_by_depth(spans: list[Span], name: str) -> dict[int, float]:
    """Median duration in ms of the ``name`` spans at each chain depth seen.

    For ``solver.solve_structured`` that includes its own ``factorize`` and
    residual check; for ``solver.sojourn_vector`` also the chain build.
    """
    by_depth: dict[int, list[float]] = {}
    for s in spans:
        if s.name == name:
            by_depth.setdefault(s.size, []).append(s.duration * 1e3)
    return {d: statistics.median(v) for d, v in sorted(by_depth.items())}
