"""Regenerate the curated benchmark set and its warm-start calibration.

Pipeline: generate the twenty regular instances (3-7 stems, planted
structure, unique non-empty optimum, 12-qubit budget under both mixer
encodings), calibrate the warm-start schedules on them with the exhaustive
level-2 grid, then pick five small (3-4 stem) instances gated on level-2
reliability with the warm start (ground state is the sampling mode with
frequency >= 0.45), so the shallow-circuit demos and noise sweeps run on
instances a level-2 circuit already solves.  Writes benchmark.fasta,
warmup_defaults.json and the warmup block of default_config.json.

PKB092 is appended as a reference sequence for enumeration tests; the
suite subsets used by the solver exclude it.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from rnaqaoa.instances import generate_structured_instances, structured_sequence
from rnaqaoa.io import write_fasta
from rnaqaoa.qaoa import QaoaConfig, solve, warmup_parameters
from rnaqaoa.qubo import QuboParams, brute_force_solve, build_qubo
from rnaqaoa.rna import Sequence, enumerate_stems, partition_domains

DATA = Path(__file__).resolve().parents[1] / "src/rnaqaoa/data"


def pick_small_instances(count, seed, warmup, params):
    """Small instances where warm-started level-2 sampling is already reliable."""
    rng = np.random.default_rng(seed)
    cfg = QaoaConfig(mixer="x", p_start=2, p_max=2, seed=0)
    chosen = []
    while len(chosen) < count:
        seq = structured_sequence(
            rng, length_range=(16, 26), planted_stems=(1, 2),
            id=f"small_{len(chosen):03d}",
        )
        stems = enumerate_stems(seq, maximal_only=True)
        if not 3 <= len(stems) <= 4:
            continue
        if len(stems) + len(partition_domains(stems)) > 8:
            continue
        strings, _ = brute_force_solve(build_qubo(stems, params))
        if len(strings) != 1 or strings[0].count("1") < 1:
            continue
        result = solve(stems, params, cfg, warmup=warmup)
        record = result.levels[0]
        mode_is_ground = record.samples.entries[0][0][: len(stems)] in strings
        if record.ground_state_frequency >= 0.45 and mode_is_ground:
            chosen.append(stems)
    return chosen


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=515)
    parser.add_argument("--grid-points", type=int, default=16)
    parser.add_argument("--out", default=DATA / "benchmark.fasta")
    args = parser.parse_args()
    params = QuboParams()

    regular = generate_structured_instances(
        20, seed=args.seed, min_stems=3, max_stems=7, max_qubits=12,
        length_range=(20, 34), planted_stems=(2, 3), id_prefix="bench",
    )
    print("regular stems:", [len(s) for s in regular])

    warmup = {}
    for mixer in ("x", "parity_xy"):
        t0 = time.time()
        schedule = warmup_parameters(regular, params, mixer, grid_points=args.grid_points)
        warmup[mixer] = {"betas": list(schedule.betas), "gammas": list(schedule.gammas)}
        print(f"warmup {mixer}: {warmup[mixer]} ({time.time() - t0:.0f}s)")

    from rnaqaoa.qaoa import ParameterSchedule

    small = pick_small_instances(
        5, args.seed + 1000,
        ParameterSchedule(tuple(warmup["x"]["betas"]), tuple(warmup["x"]["gammas"])),
        params,
    )
    print("small stems:", [len(s) for s in small])

    seqs = [s.sequence for s in small + regular]
    seqs.append(Sequence("AAAGUCGCUGAAGACUUAAAAUUCAGG", id="PKB092"))
    write_fasta(seqs, args.out)

    (DATA / "warmup_defaults.json").write_text(json.dumps(warmup, indent=2) + "\n")
    config_path = DATA / "default_config.json"
    config = json.loads(config_path.read_text())
    config["warmup"] = warmup
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote {len(seqs)} records to {args.out}; warmups updated")


if __name__ == "__main__":
    main()
