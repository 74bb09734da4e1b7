"""The schedule evaluator (`run_schedule`, through the mixer's eigenbasis)
against the reference layer functions and the gate-level circuit."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnaqaoa.simulator as sim_mod
from rnaqaoa.cli import main
from rnaqaoa.instances import load_benchmark
from rnaqaoa.qaoa import (
    BETA_BOUNDS,
    GAMMA_BOUNDS,
    ParameterSchedule,
    QaoaConfig,
    build_problem,
    circuit_for_schedule,
    reference_state,
    run_schedule,
    shipped_warmup,
    solve,
)
from rnaqaoa.qubo import QuboParams
from rnaqaoa.rna import Sequence, enumerate_stems
from rnaqaoa.simulator import (
    CHUNK_ROWS,
    MixerSpec,
    QuantumState,
    apply_mixer,
    change_basis,
    simulate_circuit,
)

#: 9 stems: 9 qubits under X, two chunks of qubits (7 + 2).
X_WIDE = "AAGGGCGUCCUUUCGUGUGG"
#: 11 stems in domains of 4, 1, 2 and 4: 15 qubits and D = 150 under XY,
#: two chunks of rings (5 * 2 * 3 = 30 rows, then 5).
XY_WIDE = "CACGUCCAGUGUGGAGUCGUCUCUUA"


@functools.cache
def _problems():
    """Both mixers on every suite instance, then the two multi-chunk ones."""
    suite = load_benchmark("suite")
    out = [build_problem(stems, QuboParams(), mixer) for mixer in ("x", "parity_xy") for stems in suite]
    for bases, mixer in ((X_WIDE, "x"), (XY_WIDE, "parity_xy")):
        stems = enumerate_stems(Sequence(bases, id=mixer), min_len=3, maximal_only=True)
        out.append(build_problem(stems, QuboParams(), mixer))
    return tuple(out)


def test_the_wide_instances_run_several_chunks():
    *_, wide_x, wide_xy = _problems()
    assert wide_x.n_qubits == 9 and len(wide_x.mixer.eigenbasis.shapes) == 2
    assert len(wide_xy.start) == 150 > CHUNK_ROWS
    assert [size for _, size, _ in wide_xy.mixer.eigenbasis.shapes] == [30, 5]
    # every suite instance fits one chunk
    assert all(len(p.mixer.eigenbasis.shapes) == 1 for p in _problems()[:50])


def _random_schedules(rng, p, rows):
    return [
        ParameterSchedule(tuple(rng.uniform(*BETA_BOUNDS, p)), tuple(rng.uniform(*GAMMA_BOUNDS, p)))
        for _ in range(rows)
    ]


@given(p=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_run_schedule_matches_reference_layers_and_circuit(p, seed):
    rng = np.random.default_rng(seed)
    for problem in _problems():
        [schedule] = _random_schedules(rng, p, 1)
        fast = run_schedule(problem, schedule).probabilities()
        reference = reference_state(problem, schedule).probabilities()
        circuit = simulate_circuit(circuit_for_schedule(problem, schedule), problem.n_qubits)
        assert np.abs(fast - reference).max() <= 1e-12
        assert np.abs(fast - circuit.probabilities()).max() <= 1e-12


@given(p=st.integers(1, 8), rows=st.sampled_from([2, 5, 16]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_stacked_rows_equal_single_runs_on_every_instance(p, rows, seed):
    rng = np.random.default_rng(seed)
    for problem in _problems():
        schedules = _random_schedules(rng, p, rows)
        stack = run_schedule(problem, schedules)
        assert stack.amplitudes.shape == (rows, len(problem.start))
        for k in (0, rows - 1):
            single = run_schedule(problem, schedules[k])
            assert np.array_equal(stack.amplitudes[k], single.amplitudes)


def _mixer_specs():
    return [
        MixerSpec.x_mixer(3),
        MixerSpec.x_mixer(9),
        MixerSpec("parity_xy", 4, ((0, 1, 2, 3),)),
        MixerSpec("parity_xy", 5, ((0, 3), (1, 2, 4))),
        # a 5-ring (three groups), a 2-ring and two qubits outside every ring
        MixerSpec("parity_xy", 9, ((0, 2, 4, 6, 8), (1, 5))),
        # 3 * 3 * 3 * 3 * 2 = 162 rows: two chunks of rings (81 and 2 rows)
        MixerSpec("parity_xy", 14, tuple(tuple(range(a, min(a + 3, 14))) for a in range(0, 14, 3))),
    ]


@pytest.mark.parametrize("spec", _mixer_specs(), ids=lambda s: f"{s.kind}-{s.n_qubits}")
def test_eigenbasis_reproduces_one_mixer_layer(spec):
    """Phases and basis changes of one layer, applied to every basis state of
    the mixer's basis, give the dense layer kernel's columns there."""
    eigen = spec.eigenbasis
    basis = np.arange(2**spec.n_qubits) if spec.feasible is None else spec.feasible
    size = len(basis)
    assert len(np.unique(basis)) == size == math.prod(s for _, s, _ in eigen.shapes)
    assert all(s <= CHUNK_ROWS for _, s, _ in eigen.shapes)
    for step in eigen.steps:  # every basis change is orthogonal
        for w in step:
            assert np.abs(w @ w.T - np.eye(len(w))).max() <= 1e-14
    beta = 0.731
    amps = np.eye(size, dtype=complex)
    for step, index in zip(eigen.steps, eigen.eigen_index):
        amps = change_basis(amps, step, eigen.shapes)
        amps = amps * np.exp(1j * beta * eigen.eigenvalues[index])
    amps = change_basis(amps, eigen.steps[-1], eigen.shapes)
    dense = np.zeros((size, 2**spec.n_qubits), dtype=complex)
    dense[np.arange(size), basis] = 1.0
    expected = np.array([apply_mixer(QuantumState(row), spec, beta).amplitudes for row in dense])
    assert np.abs(expected[:, basis] - amps).max() <= 1e-13
    if spec.feasible is not None:  # nothing leaves the basis
        assert np.abs(np.delete(expected, basis, axis=1)).max() == 0.0


def _flip_eigenvalue_sign(monkeypatch):
    """Build every mixer eigenbasis with its eigenvalues negated: each mixer
    layer becomes exp(-i*beta*M) in the evaluator only."""
    build = sim_mod._eigenbasis

    def flipped(*args):
        eigen = build(*args)
        return dataclasses.replace(eigen, eigenvalues=-eigen.eigenvalues)

    monkeypatch.setattr(sim_mod, "_eigenbasis", flipped)


@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
def test_solve_raises_when_the_evaluator_leaves_the_reference(mixer, monkeypatch):
    stems = load_benchmark("suite")[3]
    cfg = QaoaConfig(mixer=mixer, p_max=2, max_evaluations=20)
    solve(stems, QuboParams(), cfg, warmup=shipped_warmup(mixer))
    _flip_eigenvalue_sign(monkeypatch)
    with pytest.raises(RuntimeError, match="reference layers"):
        solve(stems, QuboParams(), cfg, warmup=shipped_warmup(mixer))


@pytest.mark.parametrize("method", ["qaoa-x", "qaoa-xy"])
def test_cli_solve_exits_3_when_the_evaluator_leaves_the_reference(method, tmp_path, monkeypatch):
    fasta = tmp_path / "case.fasta"
    fasta.write_text(">case\nACGCUGGACGUCCCAG\n")  # 5 stems
    argv = ["solve", str(fasta), "--method", method, "--pmax", "2", "--out", str(tmp_path / "a.json")]
    assert main(argv) == 0
    _flip_eigenvalue_sign(monkeypatch)
    assert main(argv) == 3
