"""Structure scoring and benchmark sweeps.

Scoring follows the base-level convention used throughout this project:
a base is positive when it is paired in the prediction.  True positives
additionally require the same partner in the reference.  The two reported
ratios are sensitivity = TP/(TP+FP) and specificity = TN/(TN+FN); note the
first is what much of the literature calls precision, kept here under the
name used by the surrounding tooling.  Empty denominators score 1.

Sweeps drive the solver across levels and noise rates and emit rows (one
per instance/setting cell) plus per-setting summaries, ready for CSV/JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qubo import QuboParams
from .rna import Sequence, StemSet, structure_from_selection
from .qaoa import (
    QaoaConfig,
    QaoaResult,
    ParameterSchedule,
    Problem,
    circuit_for_schedule,
    level_for_pmax,
    solve,
)
from .simulator import NoiseSpec, SampleSet, run_noisy, simulate_circuit


@dataclass(frozen=True)
class ReferenceStructure:
    """Known secondary structure: base pairs (i, j) with i < j, 1-based."""

    sequence_id: str
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen: set[int] = set()
        for i, j in self.pairs:
            if not (1 <= i < j):
                raise ValueError(f"bad pair ({i}, {j})")
            if i in seen or j in seen:
                raise ValueError(f"base paired twice in reference at ({i}, {j})")
            seen.update((i, j))

    def partner_map(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for i, j in self.pairs:
            out[i] = j
            out[j] = i
        return out


@dataclass(frozen=True)
class ScoreReport:
    tp: float
    fp: float
    tn: float
    fn: float
    sensitivity: float
    specificity: float
    degenerate_count: int = 1

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "sensitivity": self.sensitivity, "specificity": self.specificity,
            "degenerate_count": self.degenerate_count,
        }


def _partner_map(pairs) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, j in pairs:
        a, b = (i, j) if i < j else (j, i)
        if a in out or b in out:
            raise ValueError(f"base paired twice in prediction at ({a}, {b})")
        out[a] = b
        out[b] = a
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 1.0


def score(prediction, reference: ReferenceStructure, seq: Sequence) -> ScoreReport:
    """Base-level confusion counts of one predicted pair set vs the reference."""
    pred = _partner_map(prediction)
    ref = reference.partner_map()
    for pos in list(pred) + list(ref):
        if not 1 <= pos <= len(seq):
            raise ValueError(f"position {pos} outside sequence of length {len(seq)}")
    tp = fp = tn = fn = 0
    for pos in range(1, len(seq) + 1):
        if pos in pred:
            if ref.get(pos) == pred[pos]:
                tp += 1
            else:
                fp += 1
        else:
            if pos in ref:
                fn += 1
            else:
                tn += 1
    return ScoreReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        sensitivity=_ratio(tp, tp + fp),
        specificity=_ratio(tn, tn + fn),
    )


def score_degenerate(predictions, reference: ReferenceStructure, seq: Sequence) -> ScoreReport:
    """Component-wise mean over degenerate predictions."""
    if not predictions:
        raise ValueError("need at least one prediction")
    reports = [score(p, reference, seq) for p in predictions]
    k = len(reports)
    return ScoreReport(
        tp=sum(r.tp for r in reports) / k,
        fp=sum(r.fp for r in reports) / k,
        tn=sum(r.tn for r in reports) / k,
        fn=sum(r.fn for r in reports) / k,
        sensitivity=sum(r.sensitivity for r in reports) / k,
        specificity=sum(r.specificity for r in reports) / k,
        degenerate_count=k,
    )


def result_structures(result: QaoaResult, stems: StemSet) -> list[tuple[tuple[int, int], ...]]:
    """Pair sets of all degenerate best selections."""
    out = []
    for bits in result.best_bitstrings:
        pairs, _ = structure_from_selection(stems, bits)
        out.append(pairs)
    return out


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[dict, ...]
    summary: tuple[dict, ...]


def _summarize(rows: list[dict], keys: tuple[str, ...], value: str) -> list[dict]:
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row[value])
    out = []
    for group, vals in sorted(groups.items()):
        arr = np.array(vals)
        entry = dict(zip(keys, group))
        entry.update(
            {
                f"mean_{value}": float(arr.mean()),
                f"q1_{value}": float(np.percentile(arr, 25)),
                f"median_{value}": float(np.percentile(arr, 50)),
                f"q3_{value}": float(np.percentile(arr, 75)),
                "cells": len(vals),
            }
        )
        out.append(entry)
    return out


def sweep_levels(
    instances: list[StemSet],
    params: QuboParams,
    config: QaoaConfig,
    p_max_values: list[int],
    mixers: tuple[str, ...] = ("x", "parity_xy"),
    warmup: dict[str, ParameterSchedule] | None = None,
) -> SweepResult:
    """Ground-state sampling frequency per instance, mixer and level cap.

    One solve per (instance, mixer) at the largest requested cap supplies
    every smaller cap: per-level work never depends on p_max, so truncating
    the level history reproduces a capped run exactly.  Instances without
    stems emit no rows.
    """
    top = max(p_max_values)
    rows: list[dict] = []
    for mixer in mixers:
        cfg = replace(config, mixer=mixer, p_max=top)
        for stems in instances:
            if len(stems) == 0:
                continue
            ws = warmup.get(mixer) if warmup else None
            result = solve(stems, params, cfg, warmup=ws)
            for cap in p_max_values:
                rec = level_for_pmax(result, cap)
                rows.append(
                    {
                        "instance": stems.sequence.id,
                        "mixer": mixer,
                        "p_max": cap,
                        "ground_state_frequency": rec.ground_state_frequency,
                        "terminating_level": rec.level,
                        "stopped_early": rec.stopped,
                    }
                )
    summary = _summarize(rows, ("mixer", "p_max"), "ground_state_frequency")
    return SweepResult(rows=tuple(rows), summary=tuple(summary))


def noisy_replay(
    problem: Problem,
    schedule: ParameterSchedule,
    runs: list[tuple[NoiseSpec, int]],
    shots: int,
) -> list[tuple[SampleSet, float, float]]:
    """Trajectory samples of the schedule's circuit for each (noise, seed)
    run, with their ground-state and infeasible frequencies read from the
    problem's masks.  The noiseless circuit is simulated once for all runs."""
    ops = circuit_for_schedule(problem, schedule)
    ideal = simulate_circuit(ops, problem.n_qubits)
    out = []
    for noise, seed in runs:
        samples = run_noisy(ops, problem.n_qubits, noise, shots, seed, ideal=ideal)
        out.append((
            samples,
            samples.frequency_in(problem.ground_mask),
            samples.frequency_in(problem.infeasible_mask),
        ))
    return out


def sweep_noise(
    instances: list[StemSet],
    params: QuboParams,
    config: QaoaConfig,
    p2_values: list[float],
    level: int = 2,
    readout: tuple[float, float] = (0.0, 0.0),
    shots: int | None = None,
    mixers: tuple[str, ...] = ("x", "parity_xy"),
    warmup: dict[str, ParameterSchedule] | None = None,
) -> SweepResult:
    """Trajectory simulation at fixed level across two-qubit error rates.

    Parameters are optimized noiselessly at the given level and reused for
    every noisy run (the hardware-style protocol); each shot is one
    Monte-Carlo trajectory.  Instances without stems emit no rows.
    """
    shots = config.shots if shots is None else shots
    if shots < 1:
        raise ValueError("shots must be >= 1")
    noises = [NoiseSpec(two_qubit_error=p2, readout_flip=readout) for p2 in p2_values]
    rows: list[dict] = []
    for mixer in mixers:
        cfg = replace(config, mixer=mixer, p_start=level, p_max=level)
        for stems in instances:
            if len(stems) == 0:
                continue
            ws = warmup.get(mixer) if warmup else None
            result = solve(stems, params, cfg, warmup=ws)
            rng = np.random.default_rng(cfg.seed)
            runs = [(noise, int(rng.integers(2**63))) for noise in noises]
            replays = noisy_replay(result.problem, result.levels[-1].schedule, runs, shots)
            for noise, (_, ground, infeasible) in zip(noises, replays):
                rows.append(
                    {
                        "instance": stems.sequence.id,
                        "mixer": mixer,
                        "p2": noise.two_qubit_error,
                        "level": level,
                        "trajectories": shots,
                        "ground_state_frequency": ground,
                        "infeasible_frequency": infeasible,
                    }
                )
    summary = _summarize(rows, ("mixer", "p2"), "ground_state_frequency")
    return SweepResult(rows=tuple(rows), summary=tuple(summary))
