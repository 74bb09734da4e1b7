"""In-memory span recorder that wraps public rnaqaoa functions from outside.

A span records name, start, end, parent span and operation id.  Spans stay
in memory until the pass ends; `layer_metrics` then reduces them to a call
count and a self time (span time minus the time of its direct child spans)
per traced function, plus counters taken at the same boundaries.

Wrappers are installed on every module attribute of the `rnaqaoa` package
that is bound to the traced function, because callers use their own
`from .x import f` bindings (`rnaqaoa.qaoa.apply_cost_layer`,
`rnaqaoa.evaluation.run_noisy`, ...).  `Tracer.restore` puts every original
back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

#: span name -> (module that defines the function, function name).
#: `io.model_to_dict` is the serializer of the objective document; it lives
#: in the qubo module but belongs to the io layer.
SPANS = {
    "rna.enumerate_stems": ("rnaqaoa.rna", "enumerate_stems"),
    "rna.pairing_matrix": ("rnaqaoa.rna", "pairing_matrix"),
    "rna.partition_domains": ("rnaqaoa.rna", "partition_domains"),
    "qubo.build_qubo": ("rnaqaoa.qubo", "build_qubo"),
    "qubo.brute_force_solve": ("rnaqaoa.qubo", "brute_force_solve"),
    "qubo.ising_diagonal": ("rnaqaoa.qubo", "ising_diagonal"),
    "simulator.apply_cost_layer": ("rnaqaoa.simulator", "apply_cost_layer"),
    "simulator.apply_x_mixer": ("rnaqaoa.simulator", "apply_x_mixer"),
    "simulator.apply_parity_xy_mixer": ("rnaqaoa.simulator", "apply_parity_xy_mixer"),
    "simulator.sample": ("rnaqaoa.simulator", "sample"),
    "simulator.simulate_circuit": ("rnaqaoa.simulator", "simulate_circuit"),
    "simulator.run_noisy": ("rnaqaoa.simulator", "run_noisy"),
    "qaoa.solve": ("rnaqaoa.qaoa", "solve"),
    "qaoa.build_problem": ("rnaqaoa.qaoa", "build_problem"),
    "qaoa.optimize": ("rnaqaoa.qaoa", "optimize"),
    "qaoa.run_schedule": ("rnaqaoa.qaoa", "run_schedule"),
    "evaluation.sweep_noise": ("rnaqaoa.evaluation", "sweep_noise"),
    "io.solve_result_dict": ("rnaqaoa.io", "solve_result_dict"),
    "io.model_to_dict": ("rnaqaoa.qubo", "model_to_dict"),
    "io.write_json": ("rnaqaoa.io", "write_json"),
}

#: Functions wrapped by a counter only (no span): `penalty` runs up to
#: ~4e5 times per sequence, and `zero_state` is counted only when
#: `run_noisy` calls it directly, once per replayed trajectory.
COUNTED = {
    "qubo.penalty": ("rnaqaoa.qubo", "penalty"),
    "simulator.zero_state": ("rnaqaoa.simulator", "zero_state"),
}

_LAYER_SPANS = (
    "simulator.apply_cost_layer",
    "simulator.apply_x_mixer",
    "simulator.apply_parity_xy_mixer",
)


def _two_qubit_gates(ops) -> int:
    return sum(1 for op in ops if op.is_two_qubit)


class Tracer:
    """Spans and counters of one traced pass; install, run, restore."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.counters: Counter = Counter()
        self.solve_reasons: list[str] = []
        self.replay_gates: list[int] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (mod, attr) in table.items():
                fn = getattr(sys.modules[mod], attr)
                wrappers[id(fn)] = (fn, make(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rnaqaoa" or mod_name.startswith("rnaqaoa.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_result = self._result_hooks().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name,))  # open span: completed when fn returns
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counters, spans, stack = self.counters, self.spans, self._stack

        if name == "simulator.zero_state":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                # a replayed trajectory starts from |0...0> inside run_noisy
                if stack and spans[stack[-1]][0] == "simulator.run_noisy":
                    counters["simulator.noisy_shots"] += 1
                return fn(*args, **kwargs)
        else:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

        return counted

    def _result_hooks(self) -> dict:
        c = self.counters

        def stems(args, result):
            c["rna.stems"] += len(result)

        def couplings(args, result):
            c["qubo.couplings"] += len(result.quadratic)

        def amplitudes(args, result):
            c["simulator.layer_amplitudes"] += len(result.amplitudes)

        def replay(args, result):
            self.replay_gates.append(_two_qubit_gates(args[0]))

        def solved(args, result):
            self.solve_reasons.append(result.termination_reason)

        def document(args, result):
            c["io.document_bytes"] += len(result)  # json.dumps output is ASCII

        hooks = {
            "rna.enumerate_stems": stems,
            "qubo.build_qubo": couplings,
            "simulator.run_noisy": replay,
            "qaoa.solve": solved,
            "io.write_json": document,
        }
        hooks.update({name: amplitudes for name in _LAYER_SPANS})
        return hooks


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self time, counters and per-solve ratios."""
    spans = tracer.spans
    calls: Counter = Counter()
    total: dict[str, float] = dict.fromkeys(SPANS, 0.0)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    # nearest enclosing solve of every span (parents precede children)
    solve_of = [-1] * len(spans)
    per_solve: dict[int, Counter] = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += (end - start) - child[idx]
        if name == "qaoa.solve":
            solve_of[idx] = idx
            per_solve[idx] = Counter()
        elif parent >= 0:
            solve_of[idx] = solve_of[parent]
        if solve_of[idx] >= 0 and name in ("qaoa.run_schedule", "qaoa.optimize"):
            per_solve[solve_of[idx]][name] += 1

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = total[name]
    c = tracer.counters
    for key in ("rna.stems", "qubo.penalty.calls", "qubo.couplings",
                "simulator.layer_amplitudes", "simulator.noisy_shots", "io.document_bytes"):
        out[key] = c[key]
    gates = tracer.replay_gates
    out["simulator.two_qubit_gates_per_replay"] = sum(gates) / len(gates) if gates else 0
    evals = [s["qaoa.run_schedule"] for s in per_solve.values()]
    levels = [s["qaoa.optimize"] for s in per_solve.values()]
    out["qaoa.evaluations_per_solve.mean"] = sum(evals) / len(evals) if evals else 0
    out["qaoa.evaluations_per_solve.max"] = max(evals, default=0)
    out["qaoa.levels_per_solve.mean"] = sum(levels) / len(levels) if levels else 0
    reasons = tracer.solve_reasons
    out["qaoa.early_stop_ratio"] = (
        reasons.count("stop_frequency") / len(reasons) if reasons else 0
    )
    return out
