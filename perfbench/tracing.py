"""Spans and counters around the public functions of each gravpulse layer.

Wrappers are installed at every name a caller looks up: a function imported
with ``from .overlap import evaluate_overlap`` is also bound in the
importing module, so each module of the package is searched for the
original function object and every binding is replaced.  Nothing under
``src/`` changes; `uninstall` puts the originals back.

Spans hold name, start, end, parent span and operation id (the index of
the CLI command that caused them) and stay in memory until `write_jsonl`.
Profile evaluations run once per integrand node (millions per command),
so they are aggregated leaves: calls and seconds only, with their time
still taken out of the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import types
import warnings
from collections import defaultdict

# Layer modules and the public functions wrapped in each.
LAYERS = {
    "scenario": ("parse_scenario", "dump_scenario", "load_preset", "preset_names"),
    "spacetime": ("redshift_factor", "delta_expansion", "delta_near_limit", "kappa",
                  "kappa_from_delta", "classical_redshift"),
    "analytic": ("gaussian_linear_closed", "gaussian_linear_lambda",
                 "gaussian_linear_optimal", "gaussian_linear_near_earth",
                 "gaussian_quadratic_coefficients", "gaussian_quadratic_closed",
                 "gaussian_quadratic_optimal", "gaussian_quadratic_deficit_coefficient",
                 "gaussian_quadratic_near_earth", "comb_linear_near_earth_optimal",
                 "comb_quadratic_optimal", "estimate_zeta", "relative_change"),
    "optimize": ("maximize_shift", "naive_corrected_overlap"),
    "overlap": ("lambda_pure", "overlap_pure", "overlap_mixed", "evaluate_overlap",
                "overlap_multipeak"),
    "states": ("pure_state", "mixed_state", "apply_redshift", "purity", "fidelity",
               "sharp_frequency_diagonal_trace"),
    "multiphoton": ("fock_overlap", "coherent_overlap", "squeezed_overlap",
                    "squeezing_parameter"),
    "validation": ("run_battery", "format_report"),
}
# Called per integrand node or per modulus call: aggregated, never spanned.
LEAVES = {
    "profiles": ("modulus", "phase", "phase_difference", "evaluate", "jacobi_theta3",
                 "comb_tooth_positions", "normalization"),
}
STATE_BUILDERS = ("pure_state", "mixed_state", "apply_redshift")


def _state_bytes(state) -> int:
    arr = state.amplitudes if state.amplitudes is not None else state.probabilities
    return int(arr.nbytes)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, name, start, end, parent, op, self_s)
        self._stack: list[list] = []      # [id, name, start, covered_by_children]
        self._leaf_depth = 0
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.check_seconds: dict[str, float] = {}
        self.op = -1
        self._flat = False
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        self.spans.append((frame[0], frame[1], frame[2], end,
                           parent[0] if parent else None, self.op, dur - frame[3]))
        if parent is not None:
            parent[3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used around each CLI command)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap_span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _wrap_leaf(self, name: str, fn):
        rec = self.leaves[name]

        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._leaf_depth -= 1
                rec[0] += 1
                rec[1] += dt
                if not self._leaf_depth and stack:
                    stack[-1][3] += dt
        return wrapper

    def _wrap_quad(self, quad):
        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            self.counts["overlap.quad_calls"] += 1

            def counted(x):
                self.counts["overlap.integrand_evals"] += 1
                return func(x)
            return quad(counted, *args, **kwargs)
        return wrapper

    # -- hooks on results ------------------------------------------------------

    def _after_maximize(self, result, args) -> None:
        self.counts["optimize.n_evals"] += result.n_evals
        if self._flat:
            self.counts["optimize.flat_evals"] += result.n_evals
        self._flat = False

    def _after_state(self, name: str):
        def after(result, args):
            if name in STATE_BUILDERS:
                self.counts["states.bytes_computed"] += _state_bytes(result)
            elif name == "fidelity":
                self.counts["states.bytes_computed"] += sum(_state_bytes(s) for s in args[:2])
            elif name == "purity" and args[0].probabilities is not None:
                self.counts["states.bytes_computed"] += _state_bytes(args[0])
        return after

    def _after_battery(self, results, args) -> None:
        for r in results:
            self.check_seconds[r.name] = self.check_seconds.get(r.name, 0.0) + r.seconds

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import sys

        import gravpulse
        from gravpulse import optimize, overlap, scenario

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "gravpulse" or name.startswith("gravpulse."))]
        for layer, names in LAYERS.items():
            mod = getattr(gravpulse, layer)
            for fn_name in names:
                original = getattr(mod, fn_name)
                after = None
                if fn_name == "maximize_shift":
                    after = self._after_maximize
                elif layer == "states":
                    after = self._after_state(fn_name)
                elif fn_name == "run_battery":
                    after = self._after_battery
                self._rebind(original, self._wrap_span(f"{layer}.{fn_name}", original, after),
                             modules)
        for layer, names in LEAVES.items():
            mod = getattr(gravpulse, layer)
            for fn_name in names:
                original = getattr(mod, fn_name)
                self._rebind(original, self._wrap_leaf(f"{layer}.{fn_name}", original), modules)

        self._restore.append((overlap, "quad", overlap.quad))
        overlap.quad = self._wrap_quad(overlap.quad)

        original_with_param = scenario.Scenario.with_param
        self._restore.append((scenario.Scenario, "with_param", original_with_param))
        scenario.Scenario.with_param = self._wrap_span("scenario.with_param",
                                                       original_with_param)

        # The optimizer reports a flat objective through warnings.warn; record
        # it on the way through without changing what the caller sees.
        flat_category = optimize.FlatObjectiveWarning
        tracer = self

        def warn(message, category=None, stacklevel=1, *args, **kwargs):
            if category is flat_category:
                tracer._flat = True
            return warnings.warn(message, category, stacklevel + 1, *args, **kwargs)

        proxy = types.SimpleNamespace(**{k: getattr(warnings, k) for k in dir(warnings)
                                         if not k.startswith("__")})
        proxy.warn = warn
        self._restore.append((optimize, "warnings", optimize.warnings))
        optimize.warnings = proxy

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self_s": self_s}) + "\n")
            for name, (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "s": seconds}) + "\n")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-span-name and per-layer totals.

    For a span name and for a layer: `calls` counts outermost entries (a
    layer calling itself is not counted twice), `s` is their inclusive
    time and `self_s` is time not covered by child spans or leaves.
    """
    by_id = {s[0]: s for s in tracer.spans}
    out: dict[str, float] = defaultdict(float)
    overlap_in_optimizer = 0
    for sid, name, start, end, parent, op, self_s in tracer.spans:
        layer = name.split(".", 1)[0]
        parent_name = by_id[parent][1] if parent is not None else ""
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
        if parent_name != name:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
        if parent_name.split(".", 1)[0] != layer:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.s"] += end - start
            if layer == "overlap":
                up = parent
                while up is not None and by_id[up][1] != "optimize.maximize_shift":
                    up = by_id[up][4]
                overlap_in_optimizer += up is not None
    for name, (calls, seconds) in tracer.leaves.items():
        out[f"{name}.calls"] += calls
        out[f"{name}.s"] += seconds
    out.update(tracer.counts)
    out["optimize.overlap_calls"] = overlap_in_optimizer
    out["trace.spans"] = len(tracer.spans)
    return out
