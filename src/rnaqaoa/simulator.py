"""Dense statevector simulation of the alternating-layer circuits.

Two execution paths cover different needs:

* Layer operations (`apply_cost_layer`, `apply_x_mixer`,
  `apply_parity_xy_mixer`) act on whole layers at once: the cost layer is a
  diagonal phase multiply and each XX+YY pair rotation is applied as an
  exact 4x4 unitary.  This is the fast path used by the noiseless solver.
* `simulate_circuit` executes an explicit gate list in which every
  entangling operation is decomposed down to CNOT/CZ.  This path feeds the
  Monte-Carlo noise model (`run_noisy`), the gate-count report and the
  circuit trace export, and is cross-checked against the fast path in tests.

Bit conventions: qubit 0 is the most significant bit of the basis index, so
`format(index, f"0{n}b")[q]` is the value of qubit q and reshaping the
amplitude vector to shape [2]*n puts qubit q on axis q.  Measured bits map
to spins as z = 1 - 2b.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .qubo import MAX_QUBITS, IsingModel, ising_diagonal
from .rna import Domain


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitudes over n qubits.  Treated as immutable; operations
    return new states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = int(round(math.log2(len(amps))))
        if 2**n != len(amps):
            raise ValueError("amplitude vector length must be a power of two")
        if n > MAX_QUBITS:
            raise ResourceLimitError(f"{n} qubits exceed the dense limit of {MAX_QUBITS}")
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: sum |a|^2 = {total}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return int(round(math.log2(len(self.amplitudes))))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def init_uniform(n: int) -> QuantumState:
    """Equal superposition of all basis states."""
    if not 1 <= n <= MAX_QUBITS:
        raise ResourceLimitError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    amps = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    return QuantumState(amps)


def zero_state(n: int) -> QuantumState:
    if not 1 <= n <= MAX_QUBITS:
        raise ResourceLimitError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return QuantumState(amps)


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class CostLayerSpec:
    """Cost Hamiltonian with its precomputed diagonal."""

    ising: IsingModel
    diagonal: np.ndarray

    @classmethod
    def from_ising(cls, ising: IsingModel) -> "CostLayerSpec":
        return cls(ising=ising, diagonal=ising_diagonal(ising))


@dataclass(frozen=True)
class MixerSpec:
    """Mixer layer description.

    kind "x": independent exp(i*beta*X) rotations on every qubit.
    kind "parity_xy": per-domain rings of XX+YY pair rotations applied in
    two sublayers (odd-position pairs, then even-position pairs).  A ring of
    two qubits applies its single pair once.
    """

    kind: str
    n_qubits: int
    rings: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in ("x", "parity_xy"):
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        if self.kind == "parity_xy":
            seen: set[int] = set()
            for ring in self.rings:
                if len(ring) < 2:
                    raise ValueError("rings need at least two qubits (stem + dummy)")
                if seen & set(ring):
                    raise ValueError("rings must be disjoint")
                seen.update(ring)
            if seen and max(seen) >= self.n_qubits:
                raise ValueError("ring qubit outside register")

    @classmethod
    def x_mixer(cls, n_qubits: int) -> "MixerSpec":
        return cls(kind="x", n_qubits=n_qubits)

    @classmethod
    def parity_xy(cls, domains: list[Domain], n_qubits: int) -> "MixerSpec":
        rings = tuple(dom.ring() for dom in domains)
        return cls(kind="parity_xy", n_qubits=n_qubits, rings=rings)


@dataclass(frozen=True)
class NoiseSpec:
    """Two-qubit depolarizing rate plus per-qubit readout flip rates.

    two_qubit_error is the probability, after each CNOT/CZ, of applying one
    of the 15 non-identity two-qubit Paulis (uniformly) to the gate's
    qubits.  readout_flip is a single (p(1|0), p(0|1)) pair applied to every
    qubit, or one pair per qubit.
    """

    two_qubit_error: float = 0.0
    readout_flip: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 <= self.two_qubit_error <= 1.0:
            raise ValueError("two_qubit_error must be a probability")
        flips = self.readout_flip
        if flips and not isinstance(flips[0], (tuple, list)):
            flips = (flips,)
        for p10, p01 in flips:
            if not (0.0 <= p10 <= 1.0 and 0.0 <= p01 <= 1.0):
                raise ValueError("readout rates must be probabilities")

    def flip_rates(self, n: int) -> np.ndarray:
        """(n, 2) array of per-qubit (p(1|0), p(0|1))."""
        flips = self.readout_flip
        if flips and not isinstance(flips[0], (tuple, list)):
            flips = [flips] * n
        if len(flips) != n:
            raise ValueError(f"expected {n} per-qubit readout pairs, got {len(flips)}")
        return np.asarray(flips, dtype=float)


@dataclass(frozen=True)
class SampleSet:
    """Measured bitstrings with counts, sorted by count desc then bitstring."""

    entries: tuple[tuple[str, int], ...]
    shots: int

    def __post_init__(self):
        ordered = tuple(sorted(self.entries, key=lambda e: (-e[1], e[0])))
        object.__setattr__(self, "entries", ordered)
        if sum(c for _, c in ordered) != self.shots:
            raise ValueError("counts must sum to shots")
        if len({b for b, _ in ordered}) != len(ordered):
            raise ValueError("duplicate bitstrings")

    def frequencies(self) -> tuple[tuple[str, float], ...]:
        return tuple((b, c / self.shots) for b, c in self.entries)

    def max_frequency(self) -> float:
        return self.entries[0][1] / self.shots if self.entries else 0.0

    def frequency_in(self, mask: np.ndarray) -> float:
        """Fraction of shots whose basis index is marked in `mask`."""
        return sum(c for bits, c in self.entries if mask[int(bits, 2)]) / self.shots


# ---------------------------------------------------------------------------
# fast-path layer application


def apply_cost_layer(state: QuantumState, spec: CostLayerSpec, gamma: float) -> QuantumState:
    """Diagonal phase layer: a_x *= exp(-i * gamma * E(x))."""
    phases = np.exp(-1j * gamma * spec.diagonal)
    return QuantumState(state.amplitudes * phases)


def _apply_1q(amps: np.ndarray, n: int, q: int, m: np.ndarray) -> np.ndarray:
    t = amps.reshape(2**q, 2, -1)
    out = np.empty_like(t)
    out[:, 0, :] = m[0, 0] * t[:, 0, :] + m[0, 1] * t[:, 1, :]
    out[:, 1, :] = m[1, 0] * t[:, 0, :] + m[1, 1] * t[:, 1, :]
    return out.reshape(-1)


def apply_x_mixer(state: QuantumState, beta: float) -> QuantumState:
    """exp(i*beta*X) on every qubit."""
    c, s = math.cos(beta), math.sin(beta)
    m = np.array([[c, 1j * s], [1j * s, c]])
    amps = state.amplitudes
    n = state.n
    for q in range(n):
        amps = _apply_1q(amps, n, q, m)
    return QuantumState(amps)


def _pair_indices(n: int, a: int, b: int):
    """Index tuples selecting the |01> and |10> components of qubits (a, b)."""
    i01 = tuple(0 if ax == a else (1 if ax == b else np.s_[:]) for ax in range(n))
    i10 = tuple(1 if ax == a else (0 if ax == b else np.s_[:]) for ax in range(n))
    return i01, i10


def _apply_xy_pair(tensor: np.ndarray, n: int, a: int, b: int, beta: float):
    """exp(i*beta*(XX+YY)) on qubits (a, b), in place on the [2]*n tensor.

    The generator acts only on span{|01>, |10>} where it equals 2X; |00> and
    |11> are untouched.
    """
    c, s = math.cos(2 * beta), math.sin(2 * beta)
    i01, i10 = _pair_indices(n, a, b)
    v01 = tensor[i01].copy()
    v10 = tensor[i10].copy()
    tensor[i01] = c * v01 + 1j * s * v10
    tensor[i10] = 1j * s * v01 + c * v10


def ring_pairs(ring: tuple[int, ...]) -> list[tuple[int, int]]:
    """Cyclic neighbour pairs of a ring; a 2-ring has a single pair."""
    if len(ring) == 2:
        return [(ring[0], ring[1])]
    return [(ring[t], ring[(t + 1) % len(ring)]) for t in range(len(ring))]


def _parity_ordered_pairs(ring: tuple[int, ...]) -> list[tuple[int, int]]:
    pairs = ring_pairs(ring)
    if len(pairs) == 1:
        return pairs
    odd = [p for t, p in enumerate(pairs) if t % 2 == 1]
    even = [p for t, p in enumerate(pairs) if t % 2 == 0]
    return odd + even


def apply_parity_xy_mixer(state: QuantumState, spec: MixerSpec, beta: float) -> QuantumState:
    """Parity-partitioned XX+YY layer over each domain ring.

    Odd-position neighbour pairs are applied first, then even-position
    pairs; each pair rotation preserves the total excitation number, so the
    per-domain Hamming weight is conserved exactly.
    """
    if spec.kind != "parity_xy":
        raise ValueError("mixer spec is not parity_xy")
    n = state.n
    tensor = state.amplitudes.copy().reshape([2] * n)
    for ring in spec.rings:
        for a, b in _parity_ordered_pairs(ring):
            _apply_xy_pair(tensor, n, a, b, beta)
    return QuantumState(tensor.reshape(-1))


def apply_mixer(state: QuantumState, spec: MixerSpec, beta: float) -> QuantumState:
    if spec.kind == "x":
        return apply_x_mixer(state, beta)
    return apply_parity_xy_mixer(state, spec, beta)


# ---------------------------------------------------------------------------
# gate-level circuits


@dataclass(frozen=True)
class GateOp:
    """One primitive gate: h/x/s/sdg/rx/ry/rz on one qubit, cnot/cz on two."""

    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    @property
    def is_two_qubit(self) -> bool:
        return self.name in ("cnot", "cz")


def _g(name, *qubits, param=None) -> GateOp:
    return GateOp(name=name, qubits=tuple(qubits), param=param)


def w_state_ops(ring: tuple[int, ...]) -> list[GateOp]:
    """Linear-depth cascade preparing the uniform weight-1 superposition.

    Costs 2*(len(ring)-1) two-qubit gates: one CZ-centred controlled
    rotation per step plus a closing CNOT chain.
    """
    L = len(ring)
    ops = [_g("x", ring[-1])]
    for t in range(L - 1):
        ctrl, tgt = ring[L - 1 - t], ring[L - 2 - t]
        theta = math.acos(math.sqrt(1.0 / (L - t)))
        ops += [
            _g("ry", tgt, param=-theta),
            _g("cz", ctrl, tgt),
            _g("ry", tgt, param=theta),
        ]
    for t in range(L - 1):
        ops.append(_g("cnot", ring[L - 2 - t], ring[L - 1 - t]))
    return ops


def prepare_w_states(domains: list[Domain], n_qubits: int | None = None) -> QuantumState:
    """Product of per-domain uniform weight-1 states, dummies included.

    Built by executing the gate cascade, so it is exactly the state the
    noisy path starts from.
    """
    if not domains:
        raise ValueError("need at least one domain")
    if n_qubits is None:
        n_qubits = sum(d.size for d in domains) + len(domains)
    ops: list[GateOp] = []
    covered: set[int] = set()
    for dom in domains:
        ops += w_state_ops(dom.ring())
        covered.update(dom.ring())
    if covered != set(range(n_qubits)):
        raise ValueError("domain rings must cover all qubits exactly once")
    return simulate_circuit(ops, n_qubits)


def _rzz_ops(a: int, b: int, theta: float) -> list[GateOp]:
    return [_g("cnot", a, b), _g("rz", b, param=theta), _g("cnot", a, b)]


def _rxx_ops(a: int, b: int, theta: float) -> list[GateOp]:
    return [_g("h", a), _g("h", b), *_rzz_ops(a, b, theta), _g("h", a), _g("h", b)]


def _ryy_ops(a: int, b: int, theta: float) -> list[GateOp]:
    return [
        _g("sdg", a), _g("sdg", b), _g("h", a), _g("h", b),
        *_rzz_ops(a, b, theta),
        _g("h", a), _g("h", b), _g("s", a), _g("s", b),
    ]


def cost_layer_ops(ising: IsingModel, gamma: float) -> list[GateOp]:
    """exp(-i*gamma*H) as RZ rotations and CNOT-conjugated ZZ rotations.

    The constant term is a global phase and is omitted.
    """
    ops: list[GateOp] = []
    for q, hq in enumerate(ising.h):
        if hq:
            ops.append(_g("rz", q, param=2.0 * gamma * hq))
    for (i, j), jij in sorted(ising.J.items()):
        if jij:
            ops += _rzz_ops(i, j, 2.0 * gamma * jij)
    return ops


def mixer_layer_ops(spec: MixerSpec, beta: float) -> list[GateOp]:
    """exp(i*beta*X) per qubit, or the decomposed XX+YY ring sublayers."""
    if spec.kind == "x":
        return [_g("rx", q, param=-2.0 * beta) for q in range(spec.n_qubits)]
    ops: list[GateOp] = []
    for ring in spec.rings:
        for a, b in _parity_ordered_pairs(ring):
            ops += _rxx_ops(a, b, -2.0 * beta)
            ops += _ryy_ops(a, b, -2.0 * beta)
    return ops


def qaoa_circuit_ops(cost: CostLayerSpec, mixer: MixerSpec, betas, gammas) -> list[GateOp]:
    """Full gate list: initial state then alternating cost/mixer layers."""
    n = mixer.n_qubits
    if mixer.kind == "x":
        ops = [_g("h", q) for q in range(n)]
    else:
        ops = []
        for ring in mixer.rings:
            ops += w_state_ops(ring)
    for beta, gamma in zip(betas, gammas):
        ops += cost_layer_ops(cost.ising, gamma)
        ops += mixer_layer_ops(mixer, beta)
    return ops


_SQ = 1 / math.sqrt(2)
_FIXED_1Q = {
    "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _param_1q(name: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]])
    if name == "rz":
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    raise ValueError(f"unknown gate {name!r}")


def _apply_op(tensor: np.ndarray, n: int, op: GateOp) -> None:
    """Apply one primitive gate in place on the [2]*n tensor."""
    if op.name == "cnot":
        a, b = op.qubits
        ia = tuple(1 if ax == a else np.s_[:] for ax in range(n))
        sub = tensor[ia]
        sub[...] = np.flip(sub, axis=b - (1 if b > a else 0)).copy()
    elif op.name == "cz":
        a, b = op.qubits
        i11 = tuple(1 if ax in (a, b) else np.s_[:] for ax in range(n))
        tensor[i11] *= -1
    else:
        m = _FIXED_1Q.get(op.name)
        if m is None:
            m = _param_1q(op.name, op.param)
        q = op.qubits[0]
        moved = np.moveaxis(tensor, q, 0)
        v0 = m[0, 0] * moved[0] + m[0, 1] * moved[1]
        v1 = m[1, 0] * moved[0] + m[1, 1] * moved[1]
        moved[0], moved[1] = v0, v1


def simulate_circuit(
    ops: list[GateOp], n_qubits: int, initial: QuantumState | None = None
) -> QuantumState:
    """Execute a primitive gate list on |0...0> (or `initial`)."""
    state = initial if initial is not None else zero_state(n_qubits)
    tensor = state.amplitudes.copy().reshape([2] * n_qubits)
    for op in ops:
        _apply_op(tensor, n_qubits, op)
    return QuantumState(tensor.reshape(-1))


def two_qubit_gate_count(ops: list[GateOp]) -> int:
    return sum(1 for op in ops if op.is_two_qubit)


def circuit_to_dicts(ops: list[GateOp]) -> list[dict]:
    """JSON-friendly ordered gate trace."""
    out = []
    for op in ops:
        entry: dict = {"gate": op.name, "qubits": list(op.qubits)}
        if op.param is not None:
            entry["param"] = op.param
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# measurement and noise


def _draw_outcomes(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    p = probs / probs.sum()
    return rng.choice(len(p), size=shots, p=p)


def _counts_to_sampleset(indices: np.ndarray, n: int, shots: int) -> SampleSet:
    counts = Counter(int(i) for i in indices)
    entries = tuple((format(idx, f"0{n}b"), c) for idx, c in counts.items())
    return SampleSet(entries=entries, shots=shots)


def sample(state: QuantumState, shots: int, seed: int) -> SampleSet:
    """Multinomial draw from the measurement distribution, seeded."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    idx = _draw_outcomes(state.probabilities(), shots, rng)
    return _counts_to_sampleset(idx, state.n, shots)


_PAULI_PAIRS = [
    (a, b) for a, b in itertools.product("ixyz", repeat=2) if (a, b) != ("i", "i")
]


def _apply_pauli_error(tensor: np.ndarray, n: int, qubits: tuple[int, int], which: int):
    for name, q in zip(_PAULI_PAIRS[which], qubits):
        if name != "i":
            _apply_op(tensor, n, _g(name, q))


def run_noisy(
    ops: list[GateOp],
    n_qubits: int,
    noise: NoiseSpec,
    shots: int,
    seed: int,
) -> SampleSet:
    """Monte-Carlo trajectories: one per shot.

    After each two-qubit gate, with probability `two_qubit_error` one of the
    15 non-identity two-qubit Paulis (chosen uniformly) hits the gate's
    qubits.  Measured bits are then flipped according to the per-qubit
    readout rates.  Error locations for a shot are drawn in one batch; shots
    without any error reuse the cached noiseless distribution.  With a zero
    gate-error rate no trajectory randomness is consumed, so the draw
    matches `sample(simulate_circuit(ops, n), shots, seed)` exactly.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p2 = noise.two_qubit_error
    ideal = simulate_circuit(ops, n_qubits)
    probs0 = ideal.probabilities()
    two_q = [t for t, op in enumerate(ops) if op.is_two_qubit]

    if p2 == 0.0 or not two_q:
        outcomes = _draw_outcomes(probs0, shots, rng)
    else:
        outcomes = np.empty(shots, dtype=int)
        for shot in range(shots):
            hits = np.flatnonzero(rng.random(len(two_q)) < p2)
            if hits.size == 0:
                probs = probs0
            else:
                err_at = {two_q[h]: int(rng.integers(15)) for h in hits}
                tensor = zero_state(n_qubits).amplitudes.reshape([2] * n_qubits)
                for t, op in enumerate(ops):
                    _apply_op(tensor, n_qubits, op)
                    if t in err_at:
                        _apply_pauli_error(tensor, n_qubits, op.qubits, err_at[t])
                probs = np.abs(tensor.reshape(-1)) ** 2
            outcomes[shot] = _draw_outcomes(probs, 1, rng)[0]

    rates = noise.flip_rates(n_qubits)
    if np.any(rates > 0):
        bits = (
            (outcomes[:, None] >> np.arange(n_qubits - 1, -1, -1)[None, :]) & 1
        ).astype(np.int8)
        u = rng.random((shots, n_qubits))
        flip_prob = np.where(bits == 0, rates[None, :, 0], rates[None, :, 1])
        bits ^= (u < flip_prob).astype(np.int8)
        outcomes = bits @ (1 << np.arange(n_qubits - 1, -1, -1))
    return _counts_to_sampleset(outcomes, n_qubits, shots)
