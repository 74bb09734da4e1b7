"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For each workload, two traced runs with seed 0 (fresh import, set-up and
one traced pass each) must show that
  * every span and counter listed for the workload in EXERCISED records at
    least one call or count,
  * every count (calls and counters, not times) is identical in both runs,
  * every rnaqaoa module attribute is the original object again afterwards.
Prints one line per finding and exits 1 if any check fails.
"""

from __future__ import annotations

import sys

import run  # pins BLAS threads before numpy loads
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, load_program

#: What each workload must exercise (the per-layer map of README.md).
EXERCISED = {
    "suite_solve": (
        "qaoa.solve.calls", "qaoa.build_problem.calls", "qaoa.optimize.calls",
        "qaoa.run_schedule.calls", "simulator.apply_cost_layer.calls",
        "simulator.apply_x_mixer.calls", "simulator.apply_parity_xy_mixer.calls",
        "simulator.sample.calls", "qubo.brute_force_solve.calls",
        "qubo.ising_diagonal.calls", "io.solve_result_dict.calls", "io.write_json.calls",
        "simulator.layer_amplitudes", "qaoa.evaluations_per_solve.mean",
    ),
    "noise_sweep": (
        "evaluation.sweep_noise.calls", "simulator.simulate_circuit.calls",
        "simulator.run_noisy.calls", "simulator.noisy_shots",
        "simulator.two_qubit_gates_per_replay",
    ),
    "frontend_long": (
        "rna.enumerate_stems.calls", "rna.pairing_matrix.calls",
        "rna.partition_domains.calls", "qubo.build_qubo.calls", "qubo.penalty.calls",
        "io.model_to_dict.calls", "io.write_json.calls", "rna.stems", "qubo.couplings",
        "io.document_bytes",
    ),
}

SEED = 0

#: Counters named as deterministic; every other count is compared as well.
DETERMINISTIC = (
    "qaoa.run_schedule.calls", "qubo.couplings", "rna.stems",
    "simulator.two_qubit_gates_per_replay",
)


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "rnaqaoa" or name.startswith("rnaqaoa."))
        for attr, value in vars(module).items()
    }


def traced_run(workload, seed: int) -> dict:
    rq = load_program()
    ops = workload.ops(rq, workload.setup(rq, seed), seed)
    before = _bindings()
    tracer = Tracer()
    _, failures, _ = run.run_pass(ops, tracer)
    if failures:
        raise AssertionError(f"{workload.name}: failed operations {failures}")
    after = _bindings()
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    counts = {
        k: v for k, v in layer_metrics(tracer).items() if not k.endswith(".self_s")
    }
    return {"counts": counts, "restored": restored}


def main() -> int:
    run.prepare_environment()
    problems = []
    for name, workload in WORKLOADS.items():
        first, second = (traced_run(workload, SEED) for _ in range(2))
        for key in EXERCISED[name]:
            if not first["counts"][key] > 0:
                problems.append(f"{name}: {key} recorded nothing")
        for key, value in first["counts"].items():
            if second["counts"][key] != value:
                problems.append(f"{name}: {key} differs between runs: {value} vs {second['counts'][key]}")
        if not (first["restored"] and second["restored"]):
            problems.append(f"{name}: tracing left patched functions behind")
        fixed = ", ".join(f"{k}={first['counts'][k]}" for k in DETERMINISTIC)
        print(f"{name}: {len(EXERCISED[name])} spans/counters exercised; {fixed}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
