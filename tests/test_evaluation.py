import pytest

import rnaqaoa.evaluation as evaluation_mod
import rnaqaoa.simulator as sim_mod
from rnaqaoa.evaluation import (
    ReferenceStructure,
    ScoreReport,
    noisy_replay,
    result_structures,
    score,
    score_degenerate,
    sweep_levels,
    sweep_noise,
)
from rnaqaoa.qaoa import QaoaConfig, circuit_for_schedule, solve
from rnaqaoa.qubo import QuboParams
from rnaqaoa.rna import Sequence, enumerate_stems
from rnaqaoa.simulator import NoiseSpec, run_noisy


def hairpin():
    return Sequence("CUACGAUAG", id="hairpin")


def hairpin_reference():
    return ReferenceStructure("hairpin", frozenset({(1, 9), (2, 8), (3, 7)}))


def test_reference_rejects_double_pairing():
    with pytest.raises(ValueError):
        ReferenceStructure("x", frozenset({(1, 5), (5, 9)}))


def test_perfect_prediction_scores_ones():
    report = score([(1, 9), (2, 8), (3, 7)], hairpin_reference(), hairpin())
    assert report.sensitivity == 1.0 and report.specificity == 1.0
    assert (report.tp, report.fp, report.tn, report.fn) == (6, 0, 3, 0)


def test_empty_prediction_against_nonempty_reference():
    report = score([], hairpin_reference(), hairpin())
    assert report.sensitivity == 1.0  # no predicted-paired bases
    assert report.specificity == pytest.approx(3 / 9)
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 3, 6)


def test_wrong_partner_moves_two_bases_from_tp_to_fp():
    seq = Sequence("ACAGAAAACUUG", id="twelve")
    reference = ReferenceStructure("twelve", frozenset({(2, 12), (3, 10), (4, 9)}))
    exact = score([(2, 12), (3, 10), (4, 9)], reference, seq)
    # base 3 pairs U11 instead of U10: both ends of the wrong pair become FP,
    # and the displaced partner U10 turns FN
    shifted = score([(2, 12), (3, 11), (4, 9)], reference, seq)
    assert (exact.tp, exact.fp, exact.tn, exact.fn) == (6, 0, 6, 0)
    assert shifted.tp == exact.tp - 2
    assert shifted.fp == exact.fp + 2
    assert (shifted.tn, shifted.fn) == (5, 1)
    assert shifted.sensitivity == pytest.approx(4 / 6)
    assert shifted.specificity == pytest.approx(5 / 6)


def test_score_counts_partition_sequence():
    report = score([(1, 9)], hairpin_reference(), hairpin())
    assert report.tp + report.fp + report.tn + report.fn == 9
    assert report.tp + report.fp == 2  # bases paired in the prediction
    assert report.tn + report.fn == 7


def test_score_invariant_under_pair_reordering():
    ref = hairpin_reference()
    a = score([(1, 9), (3, 7), (2, 8)], ref, hairpin())
    b = score([(3, 7), (2, 8), (1, 9)], ref, hairpin())
    assert a == b


def test_score_rejects_double_paired_prediction():
    with pytest.raises(ValueError):
        score([(1, 9), (2, 9)], hairpin_reference(), hairpin())


def test_degenerate_single_equals_score():
    ref = hairpin_reference()
    single = score([(1, 9), (2, 8), (3, 7)], ref, hairpin())
    deg = score_degenerate([[(1, 9), (2, 8), (3, 7)]], ref, hairpin())
    assert deg == ScoreReport(
        tp=single.tp, fp=single.fp, tn=single.tn, fn=single.fn,
        sensitivity=single.sensitivity, specificity=single.specificity,
        degenerate_count=1,
    )


def test_degenerate_mean_of_two():
    ref = hairpin_reference()
    full = [(1, 9), (2, 8), (3, 7)]
    deg = score_degenerate([full, []], ref, hairpin())
    assert deg.sensitivity == pytest.approx(1.0)
    assert deg.specificity == pytest.approx((1.0 + 3 / 9) / 2)
    assert deg.degenerate_count == 2


def test_degenerate_k_copies_equals_single():
    ref = hairpin_reference()
    full = [(1, 9), (2, 8), (3, 7)]
    one = score_degenerate([full], ref, hairpin())
    many = score_degenerate([full] * 5, ref, hairpin())
    assert many.sensitivity == one.sensitivity
    assert many.specificity == one.specificity
    assert many.degenerate_count == 5


def test_result_structures_for_trivial_instance():
    stems = enumerate_stems(hairpin())
    result = solve(stems, QuboParams(), QaoaConfig(seed=1))
    structures = result_structures(result, stems)
    assert structures == [((1, 9), (2, 8), (3, 7))]


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_levels_trivial_instance_saturates(warmups):
    stems = enumerate_stems(hairpin())
    result = sweep_levels(
        [stems], QuboParams(), QaoaConfig(seed=2), [2, 3], mixers=("x",), warmup=warmups
    )
    assert all(row["ground_state_frequency"] > 0.9 for row in result.rows)
    assert {row["p_max"] for row in result.rows} == {2, 3}


def test_sweep_levels_deterministic(warmups, small_suite):
    args = ([small_suite[0]], QuboParams(), QaoaConfig(seed=3), [2, 3])
    a = sweep_levels(*args, mixers=("x",), warmup=warmups)
    b = sweep_levels(*args, mixers=("x",), warmup=warmups)
    assert a.rows == b.rows


def test_sweep_levels_summary_fields(warmups, small_suite):
    result = sweep_levels(
        small_suite[:2], QuboParams(), QaoaConfig(seed=4), [2],
        mixers=("x", "parity_xy"), warmup=warmups,
    )
    assert len(result.summary) == 2
    for entry in result.summary:
        assert {"mixer", "p_max", "mean_ground_state_frequency",
                "q1_ground_state_frequency", "median_ground_state_frequency",
                "q3_ground_state_frequency", "cells"} <= set(entry)
        assert entry["cells"] == 2


def test_sweep_noise_zero_error_matches_noiseless_frequency(warmups, small_suite):
    stems = small_suite[0]
    cfg = QaoaConfig(seed=5)
    result = sweep_noise(
        [stems], QuboParams(), cfg, [0.0], level=2, shots=4000,
        mixers=("x",), warmup=warmups,
    )
    row = result.rows[0]
    noiseless = solve(
        stems, QuboParams(),
        QaoaConfig(seed=5, p_start=2, p_max=2), warmup=warmups["x"],
    )
    expect = noiseless.levels[-1].ground_state_frequency
    sigma = (expect * (1 - expect) / 4000) ** 0.5
    assert row["ground_state_frequency"] == pytest.approx(expect, abs=max(5 * sigma, 0.03))
    assert row["infeasible_frequency"] == 0.0


def test_sweep_noise_records_trajectories(warmups, small_suite):
    result = sweep_noise(
        [small_suite[1]], QuboParams(), QaoaConfig(seed=6), [0.01],
        level=2, shots=250, mixers=("parity_xy",), warmup=warmups,
    )
    row = result.rows[0]
    assert row["trajectories"] == 250
    assert 0.0 <= row["infeasible_frequency"] <= 1.0


def test_sweep_noise_rejects_zero_shots(small_suite):
    with pytest.raises(ValueError, match="shots"):
        sweep_noise([small_suite[0]], QuboParams(), QaoaConfig(), [0.01], shots=0)



def test_noisy_replay_runs_share_one_noiseless_simulation(warmups, small_suite):
    result = solve(small_suite[2], QuboParams(), QaoaConfig(mixer="parity_xy", p_max=2),
                   warmup=warmups["parity_xy"])
    problem, schedule = result.problem, result.levels[-1].schedule
    runs = [(NoiseSpec(0.0), 1), (NoiseSpec(0.02, (0.01, 0.02)), 2), (NoiseSpec(0.3), 3)]
    ops = circuit_for_schedule(problem, schedule)
    replays = noisy_replay(problem, schedule, runs, 200)
    for (noise, seed), (samples, ground, infeasible) in zip(runs, replays):
        assert samples == run_noisy(ops, problem.n_qubits, noise, 200, seed)
        assert ground == samples.frequency_in(problem.ground_mask)
        assert infeasible == samples.frequency_in(problem.infeasible_mask)


def test_sweep_noise_simulates_each_noiseless_circuit_once(warmups, small_suite, monkeypatch):
    calls = {"sweep": 0, "run_noisy": 0}
    for module, key in ((evaluation_mod, "sweep"), (sim_mod, "run_noisy")):
        def counting(*args, _fn=module.simulate_circuit, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "simulate_circuit", counting)
    sweep_noise(small_suite[:2], QuboParams(), QaoaConfig(), [0.001, 0.01, 0.02], shots=100,
                mixers=("x",), warmup=warmups)
    assert calls == {"sweep": 2, "run_noisy": 0}
