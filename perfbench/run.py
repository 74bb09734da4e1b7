"""Benchmark of the rnaqaoa pipeline: one process, one client, closed loop.

    python3 perfbench/run.py --workload suite_solve --seed 0 --seconds 35 --trace 0

Builds the workload's inputs from --seed (set-up, repeated and reported as
the median `setup_s`), then runs whole passes over them until the next pass
would end after --seconds of measured time (at least MIN_PASSES passes).
Timings are scaled to a reference machine speed (see `probe`).  Outputs
are checked outside the timed region.  With --trace 1 it runs one untraced
and one traced pass instead and reports the per-layer metrics of the
traced one.  The last line of standard output is the JSON result; the
lines before it are the same numbers for people, with the machine record.
Metric names, units and directions are those of BENCHMARK.json at the root
of the checkout; see perfbench/README.md.

The library is imported from src/ of the checkout and nowhere else; without
it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the benchmark is
# one process with one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_program  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
#: Each operation's latency is its median time over at least this many passes.
MIN_PASSES = 3
#: Probe duration that defines the reference speed of scaled timings.
REFERENCE_PROBE_S = 0.025

#: Per-layer metrics that are outputs of the qaoa and evaluation layers.
QUALITY = (
    "gs_freq.x", "gs_freq.xy", "optimum_rate.x", "optimum_rate.xy",
    "noisy_gs_freq.x", "noisy_gs_freq.xy", "infeasible_freq.xy",
)


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "rnaqaoa" / "__init__.py").is_file():
        _fail(f"no rnaqaoa package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rnaqaoa

    if not Path(rnaqaoa.__file__).resolve().is_relative_to(SRC):
        _fail(f"rnaqaoa was imported from {rnaqaoa.__file__}, not from {SRC}")


def prepare_environment() -> None:
    """Import rnaqaoa from the checkout and pin what would vary its output."""
    _import_library()
    os.environ["RNAQAOA_TIMESTAMP"] = "1970-01-01T00:00:00+00:00"
    os.environ.pop("RNAQAOA_CONFIG", None)
    warnings.filterwarnings("ignore", message="Values in x were outside bounds")


def _os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "os_threads": _os_threads(),
        "platform": platform.platform(),
    }


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    The host's other tenants slow this machine by 20-60 % for seconds to
    minutes at a time.  Timings are scaled by REFERENCE_PROBE_S / (probe time
    around them), i.e. to the speed at which the probe takes
    REFERENCE_PROBE_S; the probe runs no rnaqaoa code, so the program under
    test cannot change it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    amps = np.full(1024, 1 / 32, dtype=complex)
    phase = np.exp(-0.01j)
    for _ in range(2000):
        amps = amps * phase
        amps.reshape(2, -1)[0].sum()
    return time.perf_counter() - start


def scaled(raw_s: float, probe_before: float, probe_after: float) -> float:
    return raw_s * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


def run_pass(ops, tracer=None, expected=None):
    """Every operation once: per-op records, failure messages, output digests.

    Each record holds the raw time `raw_s` and the probe-scaled time `s`.
    Outputs are checked in full when `expected` is None; otherwise each must
    have the digest its operation had in that checked pass.
    """
    records, failures, digests = [], [], []
    probes = [probe()]
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op = idx
            tracer.install()
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        probes.append(probe())
        record = {"item": op.item, "kind": op.kind, "raw_s": elapsed,
                  "s": scaled(elapsed, probes[-2], probes[-1])}
        digest = None
        if error is None:
            try:
                digest = op.digest(output)
                if expected is None:
                    facts = op.check(output)
                elif digest != expected[idx]:
                    facts = {"errors": ["output differs from the checked pass"]}
                else:
                    facts = {"errors": []}
            except Exception as exc:
                facts = {"errors": [f"check raised {type(exc).__name__}: {exc}"]}
            errors = facts.pop("errors")
            record.update(facts)
            if errors:
                error = "; ".join(errors)
        if error is not None:
            failures.append(f"{op.item}/{op.kind}: {error}")
        records.append(record)
        digests.append(digest)
    return records, failures, digests


def _metric_line(name: str, value: float, unit: str) -> str:
    return f"{name:<44} {value!r:>24} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    prepare_environment()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = time.perf_counter()
        rq = load_program()
        inputs = workload.setup(rq, args.seed)
        setup_times.append(scaled(time.perf_counter() - start, before, probe()))
    ops = workload.ops(rq, inputs, args.seed)

    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}"]
    if args.trace:
        reference, failures, digests = run_pass(ops)
        tracer = Tracer()
        records, traced_failures, _ = run_pass(ops, tracer, digests)
        failures += traced_failures
        attempted = 2 * len(ops)
        untraced_s = sum(r["s"] for r in reference)
        traced_s = sum(r["s"] for r in records)
        found = layer_metrics(tracer)
        found["trace.overhead_s"] = traced_s - untraced_s
        summary = workload.summary(reference)
        for name in QUALITY:
            found[name] = summary[name][0] if name in summary else 0
        wanted = spec["per_layer"]
        lines.append(f"tracing overhead: {traced_s - untraced_s:.3f} s on an untraced pass of "
                     f"{untraced_s:.3f} s ({traced_s / untraced_s - 1:+.1%})")
        lines.append("wait_s: absent (single-process closed loop, no queues); "
                     "retries: absent (SLSQP restarts are not visible outside the solver)")
    else:
        first, failures, digests = run_pass(ops)
        runs = {(r["item"], r["kind"]): [r] for r in first}
        measured = pass_s = sum(r["raw_s"] for r in first)
        attempted, passes = len(ops), 1
        while passes < MIN_PASSES or measured + pass_s <= args.seconds:
            records, pass_failures, _ = run_pass(ops, expected=digests)
            failures += pass_failures
            attempted += len(ops)
            passes += 1
            pass_s = sum(r["raw_s"] for r in records)
            measured += pass_s
            for r in records:
                runs[(r["item"], r["kind"])].append(r)
        item_s, item_raw_s = Counter(), Counter()
        for (item, _), rs in runs.items():
            item_s[item] += statistics.median(r["s"] for r in rs)
            item_raw_s[item] += statistics.median(r["raw_s"] for r in rs)
        quantiles = statistics.quantiles(item_s.values(), n=100, method="inclusive")
        found = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": len(item_s) / sum(item_s.values()),
            "item_s.p50": quantiles[49],
            "item_s.p80": quantiles[79],
        }
        summary = workload.summary(first)
        wanted = spec["end_to_end"]
        lines.append(f"{passes} passes of {len(ops)} operations on {len(item_s)} items, "
                     f"{measured:.3f} s measured; setup runs {[round(t, 4) for t in setup_times]}")
        lines.append("item median s, scaled (raw): " + ", ".join(
            f"{k} {v:.3f} ({item_raw_s[k]:.3f})" for k, v in item_s.items()))
    lines.append("machine " + json.dumps(machine_record(), sort_keys=True))
    lines.append("workload metrics:")
    lines += [_metric_line(k, v, u) for k, (v, u) in summary.items()]
    lines.append("result metrics:")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in found:
            _fail(f"metric {name} listed in BENCHMARK.json is not measured")
        metrics[name] = {"value": found[name], "unit": entry["unit"]}
        lines.append(_metric_line(name, found[name], entry["unit"]))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
