"""Span tracer that wraps polarmin's public functions from outside the package.

polarmin's modules bind each other's names with ``from .x import y``, so a
function is reachable through several module attributes.  ``install`` wraps
every public function of the traced layers and rebinds each attribute, in
every loaded ``polarmin`` module, that refers to it.  Spans are aggregated as
they close (calls, inclusive and self time per name, parent -> child call
counts), so tracing keeps no per-call records in memory.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
import time

LAYERS = ("grid", "rearrange", "energy", "minimize", "verify", "cli")

# polarize is a one-line wrapper of polarize_with_leak; a span for each would
# split one operation in two.
NOT_TRACED = {"rearrange.polarize_with_leak"}


def _descent_outcome(counters, args, ret):
    counters["minimize.accepted_steps"] += int(bool(ret[3]))


def _polarization_outcome(counters, args, ret):
    rows = ret[1].rows
    counters["rearrange.accepted_iterations"] += sum(
        any(b < a for a, b in zip(prev.rel_dist, row.rel_dist))
        for prev, row in zip(rows, rows[1:]))
    final = max(rows[-1].rel_dist)
    counters["rearrange.final_rel_dist"] = max(
        counters["rearrange.final_rel_dist"], final)


def _read_outcome(counters, args, ret):
    counters["grid.read_field.bytes"] += os.path.getsize(args[0])


def _write_outcome(counters, args, ret):
    counters["grid.write_field.bytes"] += os.path.getsize(args[1])


def _suite_outcome(counters, args, ret):
    counters["verify.trials"] += ret.lines[0].trials


# Counts that only the arguments or return value of a call can give.
OUTCOMES = {
    "minimize.descent_step": _descent_outcome,
    "rearrange.iterate_polarizations": _polarization_outcome,
    "grid.read_field": _read_outcome,
    "grid.write_field": _write_outcome,
    "verify.run_property_suite": _suite_outcome,
}


class Tracer:
    """Aggregating span recorder.

    A span's self time is its duration minus the durations of its direct
    child spans.  ``cli.main`` spans are named after the CLI command
    (``cli.verify``) and open a scope: the self time of every span below
    them is also summed per (scope, layer).
    """

    def __init__(self):
        self.calls = collections.Counter()
        self.total = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.edges = collections.Counter()
        self.scope_self = collections.defaultdict(float)
        self.counters = collections.defaultdict(float)
        self._stack = []  # frames: [name, layer, scope, child_seconds]

    def _enter(self, name, scope=None):
        parent = self._stack[-1] if self._stack else None
        if scope is None:
            scope = parent[2] if parent else ""
        self.edges[(parent[0] if parent else "", name)] += 1
        frame = [name, name.split(".", 1)[0], scope, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, seconds):
        self._stack.pop()
        own = seconds - frame[3]
        self.calls[frame[0]] += 1
        self.total[frame[0]] += seconds
        self.self_time[frame[0]] += own
        self.scope_self[(frame[2], frame[1])] += own
        if self._stack:
            self._stack[-1][3] += seconds

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, time.perf_counter() - start)

    def wrap(self, name, fn):
        outcome = OUTCOMES.get(name)
        is_cli_main = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_cli_main:  # called as main([command, ...])
                command = args[0][0]
                frame = self._enter(f"cli.{command}", scope=command)
            else:
                frame = self._enter(name)
            start = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._exit(frame, time.perf_counter() - start)
            if outcome is not None:
                outcome(self.counters, args, ret)
            return ret

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of LAYERS at every polarmin binding."""
    layers = [importlib.import_module(f"polarmin.{name}") for name in LAYERS]
    modules = [m for key, m in list(sys.modules.items())
               if key == "polarmin" or key.startswith("polarmin.")]
    for layer, mod in zip(LAYERS, layers):
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                    or f"{layer}.{attr}" in NOT_TRACED):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer, root: str) -> dict:
    """Per-layer numbers of one traced task whose root span is ``root``.

    A layer that did not run reports 0 for its counts, times and ratios.
    """
    steps = t.calls["minimize.descent_step"]
    candidate_evals = t.edges[("minimize.descent_step", "energy.eval_total")]
    polarize_calls = t.calls["rearrange.polarize"]
    read_s, write_s = t.total["grid.read_field"], t.total["grid.write_field"]
    suite_s = t.total["verify.run_property_suite"]
    return {
        "minimize.steps": steps,
        "minimize.step_s": _ratio(t.total["minimize.minimize"], steps),
        "minimize.eval_total_per_step": _ratio(
            t.edges[("minimize.minimize", "energy.eval_total")]
            + candidate_evals, steps),
        "minimize.discrete_gradient_per_step": _ratio(
            t.calls["minimize.discrete_gradient"], steps),
        "minimize.backtrack_accept_ratio": _ratio(
            t.counters["minimize.accepted_steps"], candidate_evals),
        "minimize.discrete_gradient.self_s":
            t.self_time["minimize.discrete_gradient"],
        "minimize.lagrange_residual.s": t.total["minimize.lagrange_residual"],
        "minimize.dilation_scan.s": t.total["minimize.dilation_scan"],
        "minimize.project_constraints.s":
            t.total["minimize.project_constraints"],
        "energy.eval_total.calls": t.calls["energy.eval_total"],
        "energy.eval_E1.s": t.total["energy.eval_E1"],
        "energy.eval_E3.s": t.total["energy.eval_E3"],
        "energy.eval_E3.calls": t.calls["energy.eval_E3"],
        "energy.kernel_convolve.calls": t.calls["energy.kernel_convolve"],
        "energy.kernel_convolve.s": t.total["energy.kernel_convolve"],
        "energy.sample_kernel.s": t.total["energy.sample_kernel"],
        "rearrange.polarize.calls": polarize_calls,
        "rearrange.polarize.self_s": t.self_time["rearrange.polarize"],
        "rearrange.polarize.us_per_call": 1e6 * _ratio(
            t.total["rearrange.polarize"], polarize_calls),
        "rearrange.accept_ratio": _ratio(
            t.counters["rearrange.accepted_iterations"],
            t.edges[("rearrange.iterate_polarizations",
                     "rearrange.polarize_multi")]),
        "rearrange.iterate_polarizations.self_s":
            t.self_time["rearrange.iterate_polarizations"],
        "rearrange.schwarz.calls": t.calls["rearrange.schwarz"],
        "rearrange.schwarz.s": t.total["rearrange.schwarz"],
        "rearrange.symmetry_deficit.s": t.total["rearrange.symmetry_deficit"],
        "rearrange.final_rel_dist": t.counters["rearrange.final_rel_dist"],
        "grid.lp_norm.calls": t.calls["grid.lp_norm"],
        "grid.lp_norm.s": t.total["grid.lp_norm"],
        "grid.gradient_magnitude.s": t.total["grid.gradient_magnitude"],
        "grid.read_field.s": read_s,
        "grid.read_field.mb_per_s": _ratio(
            t.counters["grid.read_field.bytes"] / 1e6, read_s),
        "grid.write_field.s": write_s,
        "grid.write_field.mb_per_s": _ratio(
            t.counters["grid.write_field.bytes"] / 1e6, write_s),
        "verify.run_property_suite.s": suite_s,
        "verify.trials_per_s": _ratio(t.counters["verify.trials"], suite_s),
        "verify.check_polya_szego.s": t.total["verify.check_polya_szego"],
        "cli.verify.self_s": t.scope_self[("verify", "cli")],
        "cli.minimize.self_s": t.scope_self[("minimize", "cli")],
        "trace.unattributed_frac": _ratio(t.self_time[root], t.total[root]),
    }
