"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload builds its inputs from the seed in `setup` (timed as set-up),
then yields a fixed list of operations.  One pass runs every operation
once; the runner repeats whole passes, so every pass has the same mix.
An operation's `run` is the timed call into the library.  Its `check` runs
afterwards, outside the timed region, and returns the facts the summary
needs plus a list of errors (empty when the output is correct); `digest`
fingerprints the output so later passes can be compared with the checked
one.

Library functions are always looked up on their module at call time
(`rq.qaoa.solve(...)`), so a traced pass sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import statistics
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
from scipy import stats

MODULES = ("rna", "qubo", "simulator", "qaoa", "evaluation", "io", "instances")

#: Objective values are sums of a few dozen terms of size <= ~100.
ATOL = 1e-9


def load_program() -> SimpleNamespace:
    """Fresh import of the rnaqaoa modules (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "rnaqaoa" or m.startswith("rnaqaoa.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"rnaqaoa.{m}") for m in MODULES}
    )


@dataclass
class Op:
    item: str  # instance or sequence id; its ops together make one request
    kind: str  # "x"/"xy" for solver workloads, "maximal"/"all" for the front end
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    digest: Callable[[Any], str]


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _schema_validator(rq, name: str):
    import jsonschema

    schema = rq.io.load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _schema_errors(validator, doc) -> list[str]:
    return [f"schema: {e.message}" for e in validator.iter_errors(doc)][:3]


def _text_digest(output) -> str:
    return hashlib.sha256(output[-1].encode()).hexdigest()


def _rows_digest(sweep) -> str:
    return hashlib.sha256(repr(sweep.rows).encode()).hexdigest()


def _app_config(rq, seed: int):
    """Packaged default config (shipped warm starts) with the run's seed."""
    cfg = rq.io.load_config()
    return replace(cfg, qaoa=replace(cfg.qaoa, seed=seed))


# ---------------------------------------------------------------------------
# suite_solve


MIXERS = (("x", "x", "qaoa-x"), ("xy", "parity_xy", "qaoa-xy"))


class SuiteSolve:
    """Full-depth solves of the packaged suite, x then parity_xy, with documents.

    A pass covers every eighth instance of the 25-instance suite (4
    instances, 3-10 qubits, the largest included): the whole suite under
    both mixers takes about 60 s on a 2-core machine, too long for several
    passes in one run.  Solves use the default config, solver seed
    included, because the levels a solve climbs depend on that seed and
    change one instance's time up to fivefold; the benchmark seed orders
    the instances.
    """

    name = "suite_solve"
    STRIDE = 8

    def setup(self, rq, seed: int):
        suite = rq.instances.load_benchmark("suite")[:: self.STRIDE]
        order = np.random.default_rng(seed).permutation(len(suite))
        return rq.io.load_config(), [suite[i] for i in order]

    def ops(self, rq, inputs, seed: int) -> list[Op]:
        app, suite = inputs
        validator = _schema_validator(rq, "solve_result")
        out = []
        for kind, mixer, method in MIXERS:
            qcfg = replace(app.qaoa, mixer=mixer)
            for stems in suite:
                out.append(Op(
                    stems.sequence.id, kind,
                    self._runner(rq, app, qcfg, stems, method),
                    self._checker(rq, app, stems, validator), _text_digest,
                ))
        return out

    @staticmethod
    def _runner(rq, app, qcfg, stems, method):
        def run():
            manifest = rq.io.make_manifest([stems.sequence.id], app, qcfg.seed)
            result = rq.qaoa.solve(stems, app.qubo, qcfg, warmup=app.warmup.get(qcfg.mixer))
            doc = {"results": [rq.io.solve_result_dict(result, stems, manifest, method)]}
            return result, rq.io.write_json(doc)

        return run

    @staticmethod
    def _checker(rq, app, stems, validator):
        def check(output) -> dict:
            result, text = output
            errors = _schema_errors(validator, json.loads(text))
            for bits in result.best_bitstrings:
                value = rq.qubo.objective(bits, stems, app.qubo)
                if abs(value + result.best_energy) > ATOL:
                    errors.append(f"objective({bits}) = {value} != -best_energy {-result.best_energy}")
            _, optimum = rq.qubo.brute_force_solve(rq.qubo.build_qubo(stems, app.qubo))
            return {
                "errors": errors,
                "gs_freq": result.levels[-1].ground_state_frequency,
                "optimal": abs(result.best_energy + optimum) <= ATOL,
            }

        return check

    @staticmethod
    def summary(records) -> dict:
        out = {}
        for kind, _, _ in MIXERS:
            rows = [r for r in records if r["kind"] == kind]
            out[f"solves_per_s.{kind}"] = (len(rows) / sum(r["s"] for r in rows), "1/s")
            out[f"gs_freq.{kind}"] = (_mean([r["gs_freq"] for r in rows]), "ratio")
            out[f"optimum_rate.{kind}"] = (_mean([r["optimal"] for r in rows]), "ratio")
        times = [r["s"] for r in records]
        out["solve_s.p50"] = (_percentile(times, 50), "s")
        out["solve_s.p80"] = (_percentile(times, 80), "s")
        return out


# ---------------------------------------------------------------------------
# noise_sweep


P2_VALUES = (0.001, 0.005, 0.01, 0.02)
READOUT = (0.01, 0.02)
NOISE_LEVEL = 2
#: 250 rather than 1000 shots per cell keep a pass near 7 s, so three fit one run.
NOISE_SHOTS = 250


class NoiseSweep:
    """`sweep_noise` on the five small instances, one call per (instance, mixer).

    The sweep re-seeds its noise generator per instance, so per-pair calls
    give the same rows as one call over all pairs.
    """

    name = "noise_sweep"

    def setup(self, rq, seed: int):
        return _app_config(rq, seed), rq.instances.load_benchmark("small")

    def ops(self, rq, inputs, seed: int) -> list[Op]:
        app, small = inputs
        out = []
        for kind, mixer, _ in MIXERS:
            for stems in small:
                out.append(Op(
                    stems.sequence.id, kind,
                    self._runner(rq, app, stems, mixer),
                    self._checker(rq, app, stems, mixer), _rows_digest,
                ))
        return out

    @staticmethod
    def _runner(rq, app, stems, mixer):
        def run():
            return rq.evaluation.sweep_noise(
                [stems], app.qubo, app.qaoa, list(P2_VALUES), level=NOISE_LEVEL,
                readout=READOUT, shots=NOISE_SHOTS, mixers=(mixer,), warmup=app.warmup,
            )

        return run

    @staticmethod
    def _checker(rq, app, stems, mixer):
        def check(sweep) -> dict:
            errors = []
            rows = sweep.rows
            if [r["p2"] for r in rows] != list(P2_VALUES):
                errors.append(f"rows cover p2 {[r['p2'] for r in rows]}")
            # the same level-2 circuit the sweep replays
            cfg = replace(app.qaoa, mixer=mixer, p_start=NOISE_LEVEL, p_max=NOISE_LEVEL)
            result = rq.qaoa.solve(stems, app.qubo, cfg, warmup=app.warmup.get(mixer))
            problem = rq.qaoa.build_problem(stems, app.qubo, mixer)
            circuit = rq.qaoa.circuit_for_schedule(problem, result.levels[-1].schedule)
            n = problem.n_qubits
            # p2 = 0 control replay
            sim = rq.simulator
            control = sim.run_noisy(circuit, n, sim.NoiseSpec(0.0, (0.0, 0.0)), NOISE_SHOTS, cfg.seed)
            ideal = sim.sample(sim.simulate_circuit(circuit, n), NOISE_SHOTS, cfg.seed)
            if control != ideal:
                errors.append("p2 = 0 replay differs from sampling the ideal circuit")
            # every replayed cell against the exact distribution of the noisy circuit
            _, optimum = rq.qubo.brute_force_solve(problem.qubo)
            outcomes = [format(i, f"0{n}b") for i in range(2**n)]
            masks = {
                "ground_state_frequency": np.array([
                    problem.qubo.evaluate(b[: problem.n_stems]) >= optimum - ATOL for b in outcomes
                ]),
                "infeasible_frequency": np.array([
                    any(sum(int(b[q]) for q in ring) != 1 for ring in problem.mixer.rings)
                    for b in outcomes
                ]),
            }
            for r in rows:
                probs = exact_noisy_distribution(circuit, n, r["p2"], READOUT)
                for key, mask in masks.items():
                    expected = float(probs[mask].sum())
                    if not binomial_agrees(r[key], expected, NOISE_SHOTS):
                        errors.append(f"p2 {r['p2']}: {key} {r[key]} is not a plausible "
                                      f"{NOISE_SHOTS}-shot draw of the exact {expected:.4f}")
            return {
                "errors": errors,
                "shots": NOISE_SHOTS * len(rows),
                "gs_freqs": [r["ground_state_frequency"] for r in rows],
                "infeasible": [r["infeasible_frequency"] for r in rows],
            }

        return check

    @staticmethod
    def summary(records) -> dict:
        out = {
            "noisy_shots_per_s": (
                sum(r["shots"] for r in records) / sum(r["s"] for r in records), "1/s"
            )
        }
        for kind, _, _ in MIXERS:
            rows = [r for r in records if r["kind"] == kind]
            out[f"noisy_gs_freq.{kind}"] = (_mean([f for r in rows for f in r["gs_freqs"]]), "ratio")
        xy = [f for r in records if r["kind"] == "xy" for f in r["infeasible"]]
        out["infeasible_freq.xy"] = (_mean(xy), "ratio")
        return out


# Exact reference for the noisy replay: the density matrix of the same gate
# list under the same channel, written independently of rnaqaoa.simulator.
# Qubit 0 is the most significant bit of an outcome index.

_PAULI = {
    "i": np.eye(2), "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]), "z": np.diag([1, -1]),
}
_FIXED_GATES = {
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]), "x": _PAULI["x"], "y": _PAULI["y"], "z": _PAULI["z"],
}
_P1 = np.diag([0, 1])
#: Two-sided binomial tail below which a replayed frequency is rejected.  A
#: set of runs makes a few thousand such tests, so a correct replay fails
#: one with probability well under 1 %.
BINOMIAL_TAIL = 1e-7


def _embed(factors: dict, n: int) -> np.ndarray:
    """2^n x 2^n operator: factors[q] on qubit q, identity elsewhere."""
    out = np.ones((1, 1))
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _gate_unitary(op, n: int) -> np.ndarray:
    if op.name == "cnot":
        a, b = op.qubits
        return _embed({}, n) - _embed({a: _P1}, n) + _embed({a: _P1, b: _PAULI["x"]}, n)
    if op.name == "cz":
        a, b = op.qubits
        return _embed({}, n) - 2 * _embed({a: _P1, b: _P1}, n)
    m = _FIXED_GATES.get(op.name)
    if m is None:  # rx, ry, rz: exp(-i theta P / 2)
        m = np.cos(op.param / 2) * np.eye(2) - 1j * np.sin(op.param / 2) * _PAULI[op.name[1]]
    return _embed({op.qubits[0]: m}, n)


def exact_noisy_distribution(ops, n: int, p2: float, readout) -> np.ndarray:
    """Outcome probabilities of `ops` on |0...0> with, after each two-qubit
    gate, one of the 15 non-identity Paulis on its qubits with probability
    p2 (uniformly), then per-bit readout flips (p(1|0), p(0|1))."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    errors = {}
    for op in ops:
        u = _gate_unitary(op, n)
        rho = u @ rho @ u.conj().T
        if len(op.qubits) == 2 and p2 > 0:
            a, b = op.qubits
            if op.qubits not in errors:
                errors[op.qubits] = [
                    _embed({a: _PAULI[pa], b: _PAULI[pb]}, n)
                    for pa, pb in itertools.product("ixyz", repeat=2)
                ][1:]
            rho = (1 - p2) * rho + p2 / 15 * sum(e @ rho @ e for e in errors[op.qubits])
    p10, p01 = readout
    flip = np.array([[1 - p10, p01], [p10, 1 - p01]])
    return _embed(dict.fromkeys(range(n), flip), n) @ rho.diagonal().real


def binomial_agrees(freq: float, expected: float, shots: int) -> bool:
    """Whether `freq` of `shots` draws is plausible for probability `expected`."""
    k = round(freq * shots)
    expected = min(max(expected, 0.0), 1.0)
    low = stats.binom.cdf(k, shots, expected)
    high = stats.binom.sf(k - 1, shots, expected)
    return min(low, high) >= BINOMIAL_TAIL


# ---------------------------------------------------------------------------
# frontend_long


FRONTEND_SEQUENCES = 5
FRONTEND_LENGTHS = (80, 160)
#: Typical all-runs stem count (min_len 3) of an evenly composed sequence of
#: each length used: the median over 41 seeded draws.
TYPICAL_STEMS = {88: 283, 104: 390, 120: 560, 136: 720, 152: 904}
#: Candidates drawn per sequence; the one nearest the typical stem count is kept.
FRONTEND_CANDIDATES = 7
#: Random selections per operation on which model and direct objective agree.
FRONTEND_SELECTIONS = 2
#: Quadratic entries validated by the schema; every entry is compared with the model.
SCHEMA_SAMPLE = 256


def balanced_sequence(rng: np.random.Generator, length: int) -> str:
    """Seeded shuffle of an A/C/G/U composition as even as the length allows."""
    bases = np.array(list("ACGU" * (length // 4 + 1))[:length])
    rng.shuffle(bases)
    return "".join(bases)


class FrontendLong:
    """Stem enumeration, domains, objective and its document on long sequences.

    Lengths are the midpoints of five equal slices of 80-160 nt.  Uniform
    random sequences of one length differ up to tenfold in stem count and
    so in time; an even base composition and the candidate nearest the
    typical stem count keep each sequence near the typical size for its
    length, so seeds change the content but hardly the amount of work.
    """

    name = "frontend_long"

    def setup(self, rq, seed: int):
        app = _app_config(rq, seed)
        rng = np.random.default_rng(seed)
        lo, hi = FRONTEND_LENGTHS
        width = (hi - lo) / FRONTEND_SEQUENCES
        seqs = []
        for slot in range(FRONTEND_SEQUENCES):
            length = lo + int((slot + 0.5) * width)
            candidates = [
                rq.rna.Sequence(balanced_sequence(rng, length), id=f"long{slot}_{length}nt")
                for _ in range(FRONTEND_CANDIDATES)
            ]
            seqs.append(min(candidates, key=lambda seq: abs(TYPICAL_STEMS[length] - len(
                rq.rna.enumerate_stems(seq, min_len=app.stems.min_len, min_loop=app.stems.min_loop)
            ))))
        return app, seqs

    def ops(self, rq, inputs, seed: int) -> list[Op]:
        app, seqs = inputs
        validator = _schema_validator(rq, "qubo_result")
        out = []
        for idx, seq in enumerate(seqs):
            for kind, maximal in (("maximal", True), ("all", False)):
                rng = np.random.default_rng([seed, idx, int(maximal)])
                out.append(Op(
                    seq.id, kind,
                    self._runner(rq, app, seq, maximal, seed),
                    self._checker(rq, app, seq, validator, rng), _text_digest,
                ))
        return out

    @staticmethod
    def _runner(rq, app, seq, maximal, seed):
        def run():
            stems = rq.rna.enumerate_stems(
                seq, min_len=app.stems.min_len, maximal_only=maximal, min_loop=app.stems.min_loop
            )
            domains = rq.rna.partition_domains(stems)
            model = rq.qubo.build_qubo(stems, app.qubo)
            manifest = rq.io.make_manifest([seq.id], app, seed)
            doc = {
                "results": [{
                    "sequence": {"id": seq.id, "bases": seq.bases},
                    "model": rq.qubo.model_to_dict(model, rq.qubo.stem_labels(stems)),
                }],
                "manifest": manifest.to_dict(),
            }
            return stems, domains, model, rq.io.write_json(doc)

        return run

    @staticmethod
    def _checker(rq, app, seq, validator, rng):
        def check(output) -> dict:
            stems, domains, model, text = output
            n = len(stems)
            errors = []
            placed = sorted(m for d in domains for m in d.members)
            if placed != list(range(n)):
                errors.append("partition_domains does not place every stem exactly once")
            if [d.dummy_index for d in domains] != list(range(n, n + len(domains))):
                errors.append("dummy indices do not follow the stems")
            for _ in range(FRONTEND_SELECTIONS):
                # about eight selected stems keeps the direct sum cheap
                bits = "".join("1" if u < 8.0 / max(n, 1) else "0" for u in rng.random(n))
                direct = rq.qubo.objective(bits, stems, app.qubo)
                coeff = model.evaluate(bits)
                if abs(direct - coeff) > ATOL:
                    errors.append(f"build_qubo gives {coeff}, objective gives {direct}")
            doc = json.loads(text)
            got = doc["results"][0]["model"]
            want = {
                "n": n,
                "linear": list(model.linear),
                "quadratic": [
                    {"i": i, "j": j, "value": v} for (i, j), v in sorted(model.quadratic.items())
                ],
                "offset": model.offset,
            }
            if any(got.get(k) != v for k, v in want.items()):
                errors.append("document model differs from build_qubo's model")
            got["quadratic"] = got["quadratic"][:SCHEMA_SAMPLE]
            errors += _schema_errors(validator, doc)
            if doc["results"][0]["sequence"]["bases"] != seq.bases:
                errors.append("document sequence differs from input")
            return {"errors": errors, "stems": n, "couplings": len(model.quadratic)}

        return check

    @staticmethod
    def summary(records) -> dict:
        times = [r["s"] for r in records]
        return {
            "frontend_s.p50": (_percentile(times, 50), "s"),
            "frontend_s.p80": (_percentile(times, 80), "s"),
        }


WORKLOADS = {w.name: w for w in (SuiteSolve(), NoiseSweep(), FrontendLong())}
