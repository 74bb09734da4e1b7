import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnaqaoa.simulator as sim_mod
from rnaqaoa.errors import ResourceLimitError
from rnaqaoa.qaoa import build_problem, circuit_for_schedule, run_schedule, shipped_warmup
from rnaqaoa.qubo import IsingModel, QuboParams, build_qubo, to_ising
from rnaqaoa.rna import Domain, Sequence, enumerate_stems, partition_domains
from rnaqaoa.simulator import (
    CostLayerSpec,
    GateOp,
    MixerSpec,
    NoiseSpec,
    QuantumState,
    SampleSet,
    apply_cost_layer,
    apply_mixer,
    apply_parity_xy_mixer,
    apply_x_mixer,
    circuit_to_dicts,
    cost_layer_ops,
    init_uniform,
    mixer_layer_ops,
    prepare_w_states,
    qaoa_circuit_ops,
    ring_pairs,
    run_noisy,
    sample,
    simulate_circuit,
    two_qubit_gate_count,
    w_state_ops,
    zero_state,
)

angles = st.floats(min_value=-6.3, max_value=6.3, allow_nan=False)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# state preparation


def test_init_uniform_two_qubits():
    assert np.allclose(init_uniform(2).amplitudes, 0.25**0.5)


def test_init_uniform_one_qubit():
    assert np.allclose(init_uniform(1).amplitudes, [1 / math.sqrt(2)] * 2)


def test_init_uniform_norm_at_twelve_qubits():
    assert init_uniform(12).norm() == pytest.approx(1.0, abs=1e-12)


def test_quantum_state_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(np.array([1.0, 1.0], dtype=complex))


def test_quantum_state_and_run_schedule_reject_nan_amplitudes():
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(np.array([np.nan, 0.0]))
    hairpin = enumerate_stems(Sequence("CUACGAUAG", id="hairpin"))
    problem = build_problem(hairpin, QuboParams(), "x")
    with pytest.raises(ValueError, match="not normalized"):
        run_schedule(problem, np.array([[np.nan, 0.1]]))


def test_quantum_state_checks_every_row_of_a_stack():
    rows = np.stack([random_state(3, 0).amplitudes, random_state(3, 1).amplitudes])
    assert QuantumState(rows).stacked
    rows[1] *= 1.01
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(rows)


@pytest.mark.parametrize("fault", ["nan", "off_by_1e-6"])
def test_quantum_state_names_the_first_failing_row_of_a_stack(fault):
    """A middle row fails, a later one fails worse: the message gives the
    middle row's total."""
    rows = np.stack([random_state(3, seed).amplitudes for seed in range(5)])
    if fault == "nan":
        rows[2, 5] = np.nan
    else:
        rows[2] *= math.sqrt(1 + 1e-6)
    rows[4] *= 1.1
    with pytest.raises(ValueError, match="not normalized") as info:
        QuantumState(rows)
    total = float(str(info.value).rsplit("= ", 1)[1])
    if fault == "nan":
        assert math.isnan(total)
    else:
        assert total == pytest.approx(1 + 1e-6, abs=1e-12)


def test_subspace_state_takes_its_register_from_n_qubits():
    basis = np.array([1, 2, 4, 8])
    amps = np.full(4, 0.5, dtype=complex)
    state = QuantumState(amps, basis=basis, n_qubits=5)
    assert state.n == 5 and state.amplitudes.shape == (4,)
    dense = state.dense()
    assert dense.basis is None and dense.n == 5
    assert np.flatnonzero(dense.amplitudes).tolist() == basis.tolist()
    with pytest.raises(ValueError, match="register size"):
        QuantumState(amps, basis=basis)
    with pytest.raises(ValueError, match="basis of 4 states"):
        QuantumState(amps[:2] * math.sqrt(2), basis=basis, n_qubits=5)
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(amps * 1.01, basis=basis, n_qubits=5)
    with pytest.raises(ValueError, match="do not span"):
        QuantumState(np.full(4, 0.5, dtype=complex), n_qubits=3)


def test_dense_only_operations_refuse_a_subspace_state():
    spec, domains = _pxy_spec()
    full = prepare_w_states(domains, 6)
    state = QuantumState(full.amplitudes[spec.feasible], basis=spec.feasible, n_qubits=6)
    with pytest.raises(ValueError, match="dense state"):
        sample(state, 10, seed=0)
    with pytest.raises(ValueError, match="dense state"):
        simulate_circuit([], 6, initial=state)
    with pytest.raises(ValueError, match="dense state"):
        apply_x_mixer(state, 0.3)
    # the layer kernels are the dense reference: none takes the feasible basis
    with pytest.raises(ValueError, match="dense state"):
        apply_parity_xy_mixer(state, spec, 0.3)
    cost = CostLayerSpec(ising=None, diagonal=np.arange(64.0))
    with pytest.raises(ValueError, match="dense state"):
        apply_cost_layer(state, cost, 0.3)


def test_quantum_state_rejects_bad_shapes():
    with pytest.raises(ValueError, match="power of two"):
        QuantumState(np.ones((2, 3), dtype=complex) / math.sqrt(3))
    with pytest.raises(ValueError, match="one state or a stack"):
        QuantumState(np.ones((1, 1, 2), dtype=complex) / math.sqrt(2))


def test_init_uniform_guard():
    with pytest.raises(ResourceLimitError):
        init_uniform(0)
    with pytest.raises(ResourceLimitError):
        init_uniform(25)


def test_w_state_one_stem_plus_dummy():
    state = prepare_w_states([Domain(members=(0,), dummy_index=1)], 2)
    expect = np.zeros(4, dtype=complex)
    expect[0b01] = expect[0b10] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, expect, atol=1e-12)


def test_w_state_two_singleton_domains():
    domains = [Domain(members=(0,), dummy_index=2), Domain(members=(1,), dummy_index=3)]
    probs = prepare_w_states(domains, 4).probabilities()
    # rings (0,2) and (1,3): exactly one qubit set per ring
    hot = [0b1100, 0b1001, 0b0110, 0b0011]
    assert np.allclose(probs[hot], 0.25, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(probs, hot), 0.0, atol=1e-12)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_w_state_uniform_weight_one_magnitudes(size):
    ring = tuple(range(size))
    state = simulate_circuit(w_state_ops(ring), size)
    probs = state.probabilities()
    for idx in range(2**size):
        weight = bin(idx).count("1")
        if weight == 1:
            assert probs[idx] == pytest.approx(1 / size, abs=1e-12)
        else:
            assert probs[idx] == pytest.approx(0.0, abs=1e-12)


def test_w_state_gate_cost_linear():
    assert two_qubit_gate_count(w_state_ops(tuple(range(5)))) == 8  # 2*(L-1)


def test_prepare_w_states_requires_domains():
    with pytest.raises(ValueError):
        prepare_w_states([], 0)


# ---------------------------------------------------------------------------
# layers


def toy_cost(n=2):
    ising = IsingModel(n=n, h=tuple([0.5] * n), constant=0.5 * n)
    return CostLayerSpec.from_ising(ising)  # integer spectrum: E = #zeros


def test_cost_layer_gamma_zero_is_identity():
    state = random_state(3, 1)
    out = apply_cost_layer(state, toy_cost(3), 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_cost_layer_preserves_probabilities():
    state = random_state(3, 2)
    out = apply_cost_layer(state, toy_cost(3), 0.77)
    assert np.allclose(out.probabilities(), state.probabilities(), atol=1e-12)


def test_cost_layer_pi_flips_odd_energy_states():
    spec = toy_cost(2)  # energies: |00| -> 2, |01|,|10| -> 1, |11| -> 0
    state = init_uniform(2)
    out = apply_cost_layer(state, spec, math.pi)
    signs = np.real(out.amplitudes / state.amplitudes)
    assert np.allclose(signs, [1, -1, -1, 1], atol=1e-12)


def test_x_mixer_beta_zero_identity():
    state = random_state(3, 3)
    assert np.allclose(apply_x_mixer(state, 0.0).amplitudes, state.amplitudes)


def test_x_mixer_half_pi_flips_all():
    out = apply_x_mixer(zero_state(3), math.pi / 2)
    probs = out.probabilities()
    assert probs[-1] == pytest.approx(1.0, abs=1e-12)


def test_x_mixer_pi_is_identity_up_to_phase():
    state = random_state(4, 4)
    out = apply_x_mixer(state, math.pi)
    overlap = abs(np.vdot(state.amplitudes, out.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@given(angles)
@settings(max_examples=25)
def test_x_mixer_preserves_norm(beta):
    out = apply_x_mixer(random_state(4, 5), beta)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def _pxy_spec():
    domains = [Domain(members=(0, 1, 2), dummy_index=4), Domain(members=(3,), dummy_index=5)]
    return MixerSpec.parity_xy(domains, 6), domains


def test_parity_xy_beta_zero_identity():
    spec, domains = _pxy_spec()
    state = prepare_w_states(domains, 6)
    out = apply_parity_xy_mixer(state, spec, 0.0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_two_ring_applies_pair_once():
    spec = MixerSpec.parity_xy([Domain(members=(0,), dummy_index=1)], 2)
    assert ring_pairs((0, 1)) == [(0, 1)]
    beta = 0.37
    state = QuantumState(np.array([0, 1, 0, 0], dtype=complex))
    out = apply_parity_xy_mixer(state, spec, beta)
    # one application of exp(i*beta*(XX+YY)) on |01>
    expect = np.array([0, math.cos(2 * beta), 1j * math.sin(2 * beta), 0])
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


@given(angles)
@settings(max_examples=25)
def test_parity_xy_preserves_hamming_weight_per_domain(beta):
    spec, domains = _pxy_spec()
    state = prepare_w_states(domains, 6)
    out = apply_parity_xy_mixer(state, spec, beta)
    probs = out.probabilities()
    leaked = 0.0
    for idx in range(2**6):
        bits = format(idx, "06b")
        ok = all(sum(int(bits[q]) for q in d.ring()) == 1 for d in domains)
        if not ok:
            leaked += probs[idx]
    assert leaked < 1e-10


def test_parity_xy_matches_decomposed_circuit():
    spec, _ = _pxy_spec()
    state = random_state(6, 7)
    beta = 0.713
    fast = apply_parity_xy_mixer(state, spec, beta)
    slow = simulate_circuit(mixer_layer_ops(spec, beta), 6, initial=state)
    assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-11)


def test_cost_layer_matches_decomposed_circuit_up_to_global_phase():
    stems = enumerate_stems(Sequence("CCCAAAAGGGAAAGGGAAAA"), maximal_only=True)
    ising = to_ising(build_qubo(stems, QuboParams()))
    spec = CostLayerSpec.from_ising(ising)
    gamma = 0.47
    state = init_uniform(ising.n)
    fast = apply_cost_layer(state, spec, gamma)
    slow = simulate_circuit(cost_layer_ops(ising, gamma), ising.n, initial=state)
    phase = np.exp(-1j * gamma * ising.constant)
    assert np.allclose(fast.amplitudes, phase * slow.amplitudes, atol=1e-11)


def test_x_mixer_matches_decomposed_circuit():
    spec = MixerSpec.x_mixer(4)
    state = random_state(4, 11)
    beta = 1.234
    fast = apply_x_mixer(state, beta)
    slow = simulate_circuit(mixer_layer_ops(spec, beta), 4, initial=state)
    assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-11)


# ---------------------------------------------------------------------------
# sampling


def test_sample_basis_state_single_entry():
    samples = sample(zero_state(3), 50, seed=1)
    assert samples.entries == (("000", 50),)


def test_sample_uniform_concentration():
    samples = sample(init_uniform(2), 10**6, seed=2)
    for _, count in samples.entries:
        assert count / 10**6 == pytest.approx(0.25, abs=0.002)


@pytest.mark.parametrize("operation", ["sample", "cost", "x", "parity_xy", "mixer"])
def test_single_state_operations_refuse_a_stack(operation):
    stack = QuantumState(np.full((2, 4), 0.5, dtype=complex))
    ring = MixerSpec("parity_xy", 2, ((0, 1),))
    apply = {
        "sample": lambda: sample(stack, 10, 0),
        "cost": lambda: apply_cost_layer(stack, CostLayerSpec(None, np.arange(4.0)), 0.3),
        "x": lambda: apply_x_mixer(stack, 0.3),
        "parity_xy": lambda: apply_parity_xy_mixer(stack, ring, 0.3),
        "mixer": lambda: apply_mixer(stack, MixerSpec.x_mixer(2), 0.3),
    }[operation]
    with pytest.raises(ValueError, match="takes one state, not a stack"):
        apply()


def test_sample_deterministic():
    state = random_state(4, 8)
    assert sample(state, 1000, seed=9) == sample(state, 1000, seed=9)


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(entries=(("00", 3),), shots=4)
    with pytest.raises(ValueError):
        SampleSet(entries=(("00", 2), ("00", 2)), shots=4)


def test_sampleset_ordering():
    s = SampleSet(entries=(("11", 5), ("00", 5), ("01", 7)), shots=17)
    assert s.entries == (("01", 7), ("00", 5), ("11", 5))
    assert s.max_frequency() == pytest.approx(7 / 17)


# ---------------------------------------------------------------------------
# noise


def _demo_circuit():
    stems = enumerate_stems(Sequence("CCCAAAAGGGAAAGGGAAAA"), maximal_only=True)
    ising = to_ising(build_qubo(stems, QuboParams()))
    cost = CostLayerSpec.from_ising(ising)
    mixer = MixerSpec.x_mixer(ising.n)
    return qaoa_circuit_ops(cost, mixer, [0.3, 0.2], [0.5, 0.7]), ising.n


def test_run_noisy_zero_error_matches_sample_exactly():
    ops, n = _demo_circuit()
    ideal = simulate_circuit(ops, n)
    assert run_noisy(ops, n, NoiseSpec(), 500, seed=7) == sample(ideal, 500, seed=7)


def test_run_noisy_forced_readout_flip():
    out = run_noisy([], 1, NoiseSpec(readout_flip=(1.0, 0.0)), 100, seed=3)
    assert out.entries == (("1", 100),)


def test_run_noisy_preserves_shot_count_and_determinism():
    ops, n = _demo_circuit()
    spec = NoiseSpec(two_qubit_error=0.05, readout_flip=(0.01, 0.02))
    a = run_noisy(ops, n, spec, 300, seed=5)
    b = run_noisy(ops, n, spec, 300, seed=5)
    assert a == b and a.shots == 300


def test_run_noisy_degrades_monotonically():
    # ground-state weight of a concentrated parity-xy circuit decays with p2
    domains = [Domain(members=(0, 1), dummy_index=2)]
    mixer = MixerSpec.parity_xy(domains, 3)
    ising = IsingModel(n=3, h=(1.0, -1.0, 0.0), constant=0.0)
    cost = CostLayerSpec.from_ising(ising)
    ops = qaoa_circuit_ops(cost, mixer, [0.4, 0.3], [0.5, 0.6])
    ideal = simulate_circuit(ops, 3)
    top = format(int(np.argmax(ideal.probabilities())), "03b")

    freqs = []
    for p2 in (0.0, 0.02, 0.1, 0.3):
        out = run_noisy(ops, 3, NoiseSpec(two_qubit_error=p2), 2000, seed=11)
        freqs.append(dict(out.entries).get(top, 0) / 2000)
    assert freqs[0] > freqs[-1]
    for a, b in zip(freqs, freqs[1:]):
        assert b <= a + 0.05  # multinomial tolerance


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(two_qubit_error=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(readout_flip=(0.5, -0.1))


# ---------------------------------------------------------------------------
# circuits


def test_circuit_trace_export_shape():
    ops, _ = _demo_circuit()
    trace = circuit_to_dicts(ops)
    assert all(set(t) <= {"gate", "qubits", "param"} for t in trace)
    assert any(t["gate"] == "cnot" for t in trace)


def test_cost_layer_two_qubit_count_is_twice_couplings():
    stems = enumerate_stems(Sequence("AAAGUCGCUGAAGACUUAAAAUUCAGG"))
    ising = to_ising(build_qubo(stems, QuboParams()))
    ops = cost_layer_ops(ising, 0.9)
    nonzero = sum(1 for v in ising.J.values() if v)
    assert two_qubit_gate_count(ops) == 2 * nonzero


def test_mixer_layer_two_qubit_counts():
    spec, domains = _pxy_spec()
    ops = mixer_layer_ops(spec, 0.4)
    # ring of 4 -> 4 pairs, ring of 2 -> 1 pair; 4 gates per pair
    assert two_qubit_gate_count(ops) == 4 * 4 + 4 * 1
    assert two_qubit_gate_count(mixer_layer_ops(MixerSpec.x_mixer(5), 0.4)) == 0


@given(angles, angles)
@settings(max_examples=15)
def test_simulate_circuit_preserves_norm(beta, gamma):
    ops, n = _demo_circuit()
    spec = CostLayerSpec.from_ising(IsingModel(n=n, h=tuple([0.3] * n), constant=0.0))
    extra = qaoa_circuit_ops(spec, MixerSpec.x_mixer(n), [beta], [gamma])
    state = simulate_circuit(ops + extra, n)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# batched trajectory replay against the one-shot-at-a-time loop

_PAULIS = list(itertools.product("ixyz", repeat=2))[1:]  # all but ("i", "i")


def _per_shot_run_noisy(ops, n, noise, shots, seed):
    """Slow reference for `run_noisy`: one trajectory per shot, replayed
    alone, its outcome drawn by `Generator.choice`.  Returns the samples
    and the number of trajectories that drew at least one error."""
    rng = np.random.default_rng(seed)
    p2 = noise.two_qubit_error
    probs0 = simulate_circuit(ops, n).probabilities()
    two_q = [t for t, op in enumerate(ops) if op.is_two_qubit]
    replayed = 0
    if p2 == 0.0 or not two_q:
        outcomes = rng.choice(2**n, size=shots, p=probs0 / probs0.sum())
    else:
        outcomes = np.empty(shots, dtype=int)
        for shot in range(shots):
            hits = np.flatnonzero(rng.random(len(two_q)) < p2)
            probs = probs0
            if hits.size:
                replayed += 1
                state, done = zero_state(n), 0
                for h in hits:
                    t = two_q[h]
                    pauli = zip(_PAULIS[int(rng.integers(15))], ops[t].qubits)
                    errors = [GateOp(name, (q,)) for name, q in pauli if name != "i"]
                    state = simulate_circuit(ops[done:t + 1] + errors, n, initial=state)
                    done = t + 1
                probs = simulate_circuit(ops[done:], n, initial=state).probabilities()
            outcomes[shot] = rng.choice(2**n, size=1, p=probs / probs.sum())[0]
    rates = noise.flip_rates(n)
    if np.any(rates > 0):
        bits = ((outcomes[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(np.int8)
        u = rng.random((shots, n))
        flip_prob = np.where(bits == 0, rates[None, :, 0], rates[None, :, 1])
        bits ^= (u < flip_prob).astype(np.int8)
        outcomes = bits @ (1 << np.arange(n - 1, -1, -1))
    counts = Counter(int(i) for i in outcomes)
    entries = tuple((format(i, f"0{n}b"), c) for i, c in counts.items())
    return SampleSet(entries=entries, shots=shots), replayed


def _level2_circuits(small_suite, mixer):
    schedule = shipped_warmup(mixer)
    for stems in small_suite:
        problem = build_problem(stems, QuboParams(), mixer)
        yield circuit_for_schedule(problem, schedule), problem.n_qubits


@pytest.mark.parametrize("p2", [0.001, 0.02, 0.3])
@pytest.mark.parametrize("mixer", ["x", "parity_xy"])
def test_run_noisy_equals_per_shot_loop(small_suite, mixer, p2):
    for ops, n in _level2_circuits(small_suite, mixer):
        for readout in ((0.0, 0.0), (0.01, 0.02)):
            noise = NoiseSpec(two_qubit_error=p2, readout_flip=readout)
            for seed in (0, 1, 2):
                expected, _ = _per_shot_run_noisy(ops, n, noise, 80, seed)
                assert run_noisy(ops, n, noise, 80, seed) == expected


def test_run_noisy_split_into_small_stacks_is_unchanged(small_suite, monkeypatch):
    ops, n = next(_level2_circuits(small_suite[1:], "parity_xy"))
    noise = NoiseSpec(two_qubit_error=0.05)
    expected, replayed = _per_shot_run_noisy(ops, n, noise, 100, 4)
    assert replayed > 6
    stacks = []
    kernel = sim_mod._apply_op

    def recording(amps, op):
        stacks.append(len(amps))
        kernel(amps, op)

    monkeypatch.setattr(sim_mod, "STACK_BYTES", 3 * 16 * 2**n)
    monkeypatch.setattr(sim_mod, "_apply_op", recording)
    assert run_noisy(ops, n, noise, 100, 4) == expected
    assert max(stacks) == 3


def test_run_noisy_starts_each_error_hit_trajectory_from_zero_state(small_suite, monkeypatch):
    ops, n = next(_level2_circuits(small_suite, "x"))
    noise = NoiseSpec(two_qubit_error=0.02)
    _, replayed = _per_shot_run_noisy(ops, n, noise, 200, 9)
    assert replayed > 0
    calls = []
    start = sim_mod.zero_state

    def counted(n_qubits):
        calls.append(n_qubits)
        return start(n_qubits)

    monkeypatch.setattr(sim_mod, "zero_state", counted)
    run_noisy(ops, n, noise, 200, 9)
    # one for the noiseless circuit, then one per replayed trajectory
    assert len(calls) == 1 + replayed
