"""Trajectory noise sweep on the small instance class, both mixers.

Optimizes level-2 schedules noiselessly, then replays the circuits under
two-qubit depolarizing noise across the requested error rates.  The summary
shows the crossover between the plain mixer and the excitation-preserving
one, plus the rise of constraint-violating samples for the latter.
"""

import argparse
import time
from dataclasses import replace

from rnaqaoa.evaluation import sweep_noise
from rnaqaoa.instances import load_benchmark
from rnaqaoa.io import load_config, make_manifest, sweep_result_dict, write_csv, write_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p2", type=float, nargs="+", default=[0.001, 0.005, 0.01, 0.02])
    parser.add_argument("--level", type=int, default=2)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--readout", type=float, nargs=2, default=(0.0, 0.0),
                        metavar=("P10", "P01"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-prefix", default="noise_sweep")
    args = parser.parse_args()

    config = load_config()
    qaoa = replace(config.qaoa, seed=args.seed)
    instances = load_benchmark("small")
    t0 = time.perf_counter()
    result = sweep_noise(
        instances, config.qubo, qaoa, args.p2,
        level=args.level, readout=tuple(args.readout), shots=args.shots,
        warmup=config.warmup,
    )
    print(f"{len(result.rows)} cells in {time.perf_counter() - t0:.1f}s")
    for entry in result.summary:
        print(
            f"{entry['mixer']:>10} p2={entry['p2']}: "
            f"mean={entry['mean_ground_state_frequency']:.3f}"
        )
    infeasible = [r for r in result.rows if r["mixer"] == "parity_xy"]
    by_rate = {}
    for row in infeasible:
        by_rate.setdefault(row["p2"], []).append(row["infeasible_frequency"])
    for p2, vals in sorted(by_rate.items()):
        print(f"  parity_xy infeasible @ p2={p2}: {sum(vals) / len(vals):.3f}")
    write_csv(result.rows, f"{args.out_prefix}.csv")
    manifest = make_manifest(["<packaged benchmark:small>"], config, args.seed)
    write_json(sweep_result_dict(result, manifest), f"{args.out_prefix}.json")
    print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.json")


if __name__ == "__main__":
    main()
