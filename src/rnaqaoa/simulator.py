"""Statevector simulation of the alternating-layer circuits.

Three execution paths cover different needs:

* Layer operations (`apply_cost_layer`, `apply_x_mixer`,
  `apply_parity_xy_mixer`) act on whole layers at once on one dense 2^n
  state and one angle: the cost layer is a diagonal phase multiply and
  each XX+YY pair rotation mixes the pair's |01> and |10> amplitudes.
  They are the reference semantics of the noiseless solver: each level's
  sampled state runs on them (`qaoa.reference_state`).
* The mixer's eigenbasis (`MixerSpec.eigenbasis`), which `qaoa.run_schedule`
  uses to evaluate whole schedules.  Each mixer layer is a product of
  groups of commuting pair rotations on disjoint qubits (one group of
  single-qubit rotations for X), and each group is diagonal in a real
  orthogonal basis: the Hadamard basis for X, a product of per-pair
  (|01> +- |10>)/sqrt(2) bases for XY.  The state stays over the mixer's
  basis, the one-hot choice per domain ring under XY, so a layer is one
  phase multiply per group and the cost, joined by precomputed basis
  changes.  Each basis change is a Kronecker product of real matrices over
  chunks of at most `CHUNK_ROWS` rows (qubits for X, domain rings for XY),
  applied by `change_basis` one row block at a time.
* `simulate_circuit` executes an explicit gate list in which every
  entangling operation is decomposed down to CNOT/CZ.  This path feeds the
  gate-count report and the circuit trace export, and is cross-checked
  against the fast paths in tests.  Its gate kernel acts on a stack of
  dense states, one per row: `simulate_circuit` is the one-row case, and
  the Monte-Carlo noise model (`run_noisy`) draws each shot's trajectory
  shot by shot, then replays all error-hit trajectories as one stack,
  applying each Pauli error only to the rows that drew it.

Where states are checked: the `QuantumState` constructor checks the shape
and the norm of every row.  The layer operations return their states
unchecked, because their input was checked and the layers are unitary;
`qaoa.run_schedule` and `qaoa.reference_state` build their final states
through the constructor, so every row's norm is still checked once per
circuit evaluation.  A state may carry a `basis` (a subspace state, as
`run_schedule` returns under XY); the layer operations, `sample`,
`run_noisy` and `simulate_circuit` take one dense state, never a stack.

Bit conventions: qubit 0 is the most significant bit of the basis index, so
`format(index, f"0{n}b")[q]` is the value of qubit q and reshaping the
amplitude vector to shape [2]*n puts qubit q on axis q.  Measured bits map
to spins as z = 1 - 2b.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .qubo import MAX_QUBITS, IsingModel, ising_diagonal
from .rna import Domain


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitudes over n qubits: one state of shape (D,) or a stack
    of B states of shape (B, D), one per row.  Treated as immutable;
    operations return new states.

    A dense state has D = 2^n columns, one per basis state.  A subspace state
    carries `basis`, the distinct basis-state indices its D columns stand for
    (every other amplitude is zero), and names its register in `n_qubits`.
    """

    amplitudes: np.ndarray
    basis: np.ndarray | None = None
    n_qubits: int | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2):
            raise ValueError("amplitudes must be one state or a stack of rows")
        size = amps.shape[-1]
        if self.basis is None:
            n = max(size.bit_length() - 1, 0)
            if size != 1 << n:
                raise ValueError("amplitude vector length must be a power of two")
            if self.n_qubits not in (None, n):
                raise ValueError(f"{size} amplitudes do not span {self.n_qubits} qubits")
        else:
            n = self.n_qubits
            if n is None:
                raise ValueError("a subspace state needs its register size")
            if len(self.basis) != size:
                raise ValueError(f"{size} amplitudes for a basis of {len(self.basis)} states")
        if n > MAX_QUBITS:
            raise ResourceLimitError(f"{n} qubits exceed the dense limit of {MAX_QUBITS}")
        rows = amps.view(float).reshape(-1, 1, 2 * size)  # real, imag interleaved
        totals = (rows @ rows.transpose(0, 2, 1)).ravel()
        # one row compares its scalar: cheaper than the ufuncs, and most
        # states (line-search points) are one row
        worst = abs(totals.item() - 1.0) if len(totals) == 1 else abs(totals - 1.0).max()
        if not worst <= 1e-9:  # a NaN total fails too, and max keeps NaN
            first = np.flatnonzero(~(abs(totals - 1.0) <= 1e-9))[0]
            raise ValueError(f"state is not normalized: sum |a|^2 = {totals[first].item()}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "n_qubits", n)

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray, like: "QuantumState") -> "QuantumState":
        """New C-contiguous complex amplitudes over `like`'s register and
        basis, without the checks: for layers, whose input was checked and
        which are unitary."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "basis", like.basis)
        object.__setattr__(state, "n_qubits", like.n_qubits)
        return state

    @property
    def n(self) -> int:
        return self.n_qubits

    @property
    def stacked(self) -> bool:
        return self.amplitudes.ndim == 2

    def probabilities(self) -> np.ndarray:
        """Measurement probability of each of the 2^n register basis states,
        one row per state of a stack; zero off a subspace state's basis."""
        probs = np.abs(self.amplitudes) ** 2
        if self.basis is None:
            return probs
        dense = np.zeros(probs.shape[:-1] + (1 << self.n,))
        dense[..., self.basis] = probs
        return dense

    def norm(self) -> float | np.ndarray:
        """Euclidean norm; one per row for a stack."""
        if self.stacked:
            return np.linalg.norm(self.amplitudes, axis=-1)
        return float(np.linalg.norm(self.amplitudes))

    def dense(self) -> "QuantumState":
        """The same state over all 2^n basis states, checked."""
        if self.basis is None:
            return QuantumState(self.amplitudes)
        amps = np.zeros(self.amplitudes.shape[:-1] + (1 << self.n,), dtype=complex)
        amps[..., self.basis] = self.amplitudes
        return QuantumState(amps)


def _require_one_dense(state: QuantumState, what: str) -> None:
    if state.stacked:
        raise ValueError(f"{what} takes one state, not a stack")
    if state.basis is not None:
        raise ValueError(f"{what} takes a dense state, not a subspace state")


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


#: Largest number of rows of one Kronecker factor of a mixer eigenbasis.
CHUNK_ROWS = 2**7


@dataclass(frozen=True)
class MixerEigenbasis:
    """One mixer layer as real orthogonal basis changes and diagonal phases.

    The layer applies groups g = 1..G of pair rotations in order; the pairs
    of one group act on disjoint qubits, so the group is exp(i*beta*M_g) =
    V_g exp(i*beta*L_g) V_g^T with V_g real orthogonal and L_g diagonal.  A
    state kept over the mixer's basis passes the layer as

        V_G P_G (V_G^T V_{G-1}) ... (V_2^T V_1) P_1 V_1^T,   P_g = exp(i*beta*L_g)

    `steps` holds those G + 1 basis changes in order.  Each is a Kronecker
    product over chunks, one matrix per chunk; chunk c spans `shapes[c]` =
    (outer, rows, inner) of the basis, the product of the chunks' sizes
    before it, its own and the product after it.  `eigenvalues` are the
    distinct diagonal values of all L_g, and `eigen_index[g]` gives, per
    basis position, the index of its value of L_(g+1) in them.
    """

    shapes: tuple[tuple[int, int, int], ...]
    steps: tuple[tuple[np.ndarray, ...], ...]
    eigenvalues: np.ndarray
    eigen_index: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MixerSpec:
    """Mixer layer description.

    kind "x": independent exp(i*beta*X) rotations on every qubit.
    kind "parity_xy": per-domain rings of XX+YY pair rotations applied in
    two sublayers (odd-position pairs, then even-position pairs).  A ring of
    two qubits applies its single pair once.  Computed once here:
    `feasible`, the indices of the basis states with exactly one set bit
    per ring (qubits outside every ring take either value) in the tensor
    order of the rings' choices, or None under the X mixer, which has no
    infeasible states; and `eigenbasis`, the layer over that basis (all 2^n
    states under X) as a `MixerEigenbasis`.
    """

    kind: str
    n_qubits: int
    rings: tuple[tuple[int, ...], ...] = ()
    feasible: np.ndarray | None = field(init=False, repr=False, compare=False)
    eigenbasis: MixerEigenbasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("x", "parity_xy"):
            raise ValueError(f"unknown mixer kind {self.kind!r}")
        n = self.n_qubits
        if self.kind == "x":
            # a factor per qubit: its |0>, |1> states, one group of one pair
            factors = [((0, 1 << (n - 1 - q)), [[(0, 1)]]) for q in range(n)]
        else:
            seen: set[int] = set()
            for ring in self.rings:
                if len(ring) < 2:
                    raise ValueError("rings need at least two qubits (stem + dummy)")
                if seen & set(ring):
                    raise ValueError("rings must be disjoint")
                seen.update(ring)
            if seen and max(seen) >= n:
                raise ValueError("ring qubit outside register")
            # a factor per ring, over its one-hot states, then one per free qubit
            factors = [
                (tuple(1 << (n - 1 - q) for q in ring), _pair_groups(ring))
                for ring in self.rings
            ]
            factors += [((0, 1 << (n - 1 - q)), []) for q in range(n) if q not in seen]
        feasible = None
        if self.kind == "parity_xy":
            feasible = np.zeros(1, dtype=np.int64)
            for bits, _ in factors:
                feasible = (feasible[:, None] + np.array(bits, dtype=np.int64)).ravel()
        # the generator of an XX+YY pair is twice the swap of its one-hot states
        scale = 1.0 if self.kind == "x" else 2.0
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "eigenbasis", _eigenbasis(factors, scale))

    @classmethod
    def x_mixer(cls, n_qubits: int) -> "MixerSpec":
        return cls(kind="x", n_qubits=n_qubits)

    @classmethod
    def parity_xy(cls, domains: list[Domain], n_qubits: int) -> "MixerSpec":
        rings = tuple(dom.ring() for dom in domains)
        return cls(kind="parity_xy", n_qubits=n_qubits, rings=rings)


def _pair_groups(ring: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """The ring's pair rotations in application order, as groups of pairs on
    disjoint qubits given by their positions in the ring.  Each pair joins
    the group after the last one that touches either of its qubits, so the
    groups applied in order give the pairs' ordered product."""
    position = {q: t for t, q in enumerate(ring)}
    groups: list[list[tuple[int, int]]] = []
    last: dict[int, int] = {}
    for a, b in _parity_ordered_pairs(ring):
        g = max(last.get(a, -1), last.get(b, -1)) + 1
        if g == len(groups):
            groups.append([])
        groups[g].append((position[a], position[b]))
        last[a] = last[b] = g
    return groups


def _eigenbasis(factors: list[tuple[tuple[int, ...], list]], scale: float) -> MixerEigenbasis:
    """Eigenbasis of a mixer layer whose basis is the tensor product of the
    factors' states, factor 0 most significant.  A factor is (its states,
    its pair groups): pair (i, j) of group g swaps the factor's states i and
    j, so it acts as exp(i*beta*scale*S) with S the swap, whose eigenvectors
    are (e_i +- e_j)/sqrt(2) with eigenvalues +-1."""
    groups = max([len(g) for _, g in factors], default=0) or 1
    half = math.sqrt(0.5)
    # per group, per factor: eigenvectors (columns) and eigenvalues
    vectors, values = [], []
    for g in range(groups):
        vs, ls = [], []
        for states, pair_groups in factors:
            v, lam = np.eye(len(states)), np.zeros(len(states))
            for i, j in pair_groups[g] if g < len(pair_groups) else ():
                v[[i, j, i, j], [i, i, j, j]] = (half, half, half, -half)
                lam[i], lam[j] = scale, -scale
            vs.append(v)
            ls.append(lam)
        vectors.append(vs)
        values.append(ls)
    # consecutive factors form chunks of at most CHUNK_ROWS rows
    chunks: list[list[int]] = []
    sizes: list[int] = []
    for f, (states, _) in enumerate(factors):
        if chunks and sizes[-1] * len(states) <= CHUNK_ROWS:
            chunks[-1].append(f)
            sizes[-1] *= len(states)
        else:
            chunks.append([f])
            sizes.append(len(states))
    shapes = tuple(
        (math.prod(sizes[:c]), sizes[c], math.prod(sizes[c + 1:])) for c in range(len(chunks))
    )
    chunk_v = [
        [functools.reduce(np.kron, [vs[f] for f in chunk]) for chunk in chunks] for vs in vectors
    ]
    steps = [[v.T for v in chunk_v[0]]]
    steps += [[b.T @ a for a, b in zip(chunk_v[g - 1], chunk_v[g])] for g in range(1, groups)]
    steps.append(chunk_v[-1])
    # per group, its eigenvalue at every basis position: a Kronecker sum
    per_group = []
    for ls in values:
        total = np.zeros(1)
        for lam in ls:
            total = (total[:, None] + lam).ravel()
        per_group.append(total)
    distinct = np.unique(np.concatenate(per_group))
    return MixerEigenbasis(
        shapes=shapes,
        steps=tuple(tuple(np.ascontiguousarray(w) for w in step) for step in steps),
        eigenvalues=distinct,
        eigen_index=tuple(np.searchsorted(distinct, total) for total in per_group),
    )


def change_basis(amps: np.ndarray, step: tuple[np.ndarray, ...], shapes) -> np.ndarray:
    """One basis change of a `MixerEigenbasis` applied to every row of a
    C-contiguous (B, D) stack of amplitudes.

    Chunk c's real matrix multiplies the real and imaginary parts of each
    (rows, 2 * inner) block of every row at once, as a stacked matmul, so
    every block of every row is one BLAS call of one fixed shape: a row of
    a stack comes out bit for bit equal to the same row run alone.  (One
    flat GEMM over all rows would not: its columns round differently as the
    stack grows.)
    """
    rows = len(amps)
    for w, (outer, size, inner) in zip(step, shapes):
        blocks = amps.view(float).reshape(rows * outer, size, 2 * inner)
        amps = (w @ blocks).view(complex).reshape(rows, -1)
    return amps


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
# layer application
#
# Each layer takes one dense state and one angle.  The one library caller is
# `qaoa.reference_state`, whose final state is sampled; the arithmetic,
# operand order included, is fixed so that state is reproducible bit for bit.


def apply_cost_layer(state: QuantumState, spec: CostLayerSpec, gamma: float) -> QuantumState:
    """Diagonal phase layer: a_x *= exp(-i * gamma * E(x))."""
    _require_one_dense(state, "the cost layer")
    # Bound to a name, never a bare temporary: numpy reuses a large temporary
    # operand as the output and swaps the factors, and complex multiplication
    # is not commutative in the last bit.
    phases = np.exp(-1j * float(gamma) * spec.diagonal)
    return QuantumState._unchecked(state.amplitudes * phases, state)


def apply_x_mixer(state: QuantumState, beta: float) -> QuantumState:
    """exp(i*beta*X) on every qubit."""
    _require_one_dense(state, "the X mixer")
    c, s = complex(math.cos(beta)), 1j * math.sin(beta)
    amps = state.amplitudes
    for q in range(state.n):
        t = amps.reshape(2**q, 2, -1)
        # |0> -> c|0> + s|1>, |1> -> s|0> + c|1>: the flip pairs each
        # amplitude with its partner on qubit q
        amps = c * t + s * t[:, ::-1]
    return QuantumState._unchecked(amps.reshape(state.amplitudes.shape), state)


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
    per-domain Hamming weight is conserved exactly.  A pair rotation
    exp(i*beta*(XX+YY)) acts only on span{|01>, |10>}, where the generator
    equals 2X; |00> and |11> are untouched.
    """
    if spec.kind != "parity_xy":
        raise ValueError("mixer spec is not parity_xy")
    _require_one_dense(state, "the XY mixer")
    c, s = complex(math.cos(2 * beta)), 1j * math.sin(2 * beta)
    amps = state.amplitudes.copy()
    for ring in spec.rings:
        for a, b in _parity_ordered_pairs(ring):
            lo, hi = sorted((a, b))
            t = amps.reshape(2**lo, 2, 2 ** (hi - lo - 1), 2, -1)
            # (lo, hi) = |01> and |10>: each pairs with the other
            one, other = t[:, 0, :, 1], t[:, 1, :, 0]
            one[...], other[...] = c * one + s * other, c * other + s * one
    return QuantumState._unchecked(amps, state)


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


def _apply_op(amps: np.ndarray, op: GateOp) -> None:
    """Apply one primitive gate in place to every row of a C-contiguous
    (B, 2^n) stack of amplitudes.

    Each row is updated on its own with the same element-wise arithmetic in
    the same operand order, so a row of a stack ends up bit for bit equal to
    the same state run as a stack of one.
    """
    rows = len(amps)
    if op.is_two_qubit:
        a, b = op.qubits
        lo, hi = min(a, b), max(a, b)
        t = amps.reshape(rows, 2**lo, 2, 2 ** (hi - lo - 1), 2, -1)
        if op.name == "cz":
            t[:, :, 1, :, 1] *= -1
        elif a < b:  # cnot: flip the target where the control is 1
            sub = t[:, :, 1]
            sub[...] = sub[:, :, :, ::-1].copy()
        else:
            sub = t[:, :, :, :, 1]
            sub[...] = sub[:, :, ::-1].copy()
    else:
        m = _FIXED_1Q.get(op.name)
        if m is None:
            m = _param_1q(op.name, op.param)
        t = amps.reshape(rows, 2 ** op.qubits[0], 2, -1)
        t0, t1 = t[:, :, 0], t[:, :, 1]
        v0 = m[0, 0] * t0 + m[0, 1] * t1
        v1 = m[1, 0] * t0 + m[1, 1] * t1
        t0[...], t1[...] = v0, v1


def simulate_circuit(
    ops: list[GateOp], n_qubits: int, initial: QuantumState | None = None
) -> QuantumState:
    """Execute a primitive gate list on |0...0> (or `initial`)."""
    state = initial if initial is not None else zero_state(n_qubits)
    _require_one_dense(state, "the gate kernel")
    amps = state.amplitudes.reshape(1, 2**n_qubits).copy()
    for op in ops:
        _apply_op(amps, op)
    return QuantumState(amps[0])


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
    _require_one_dense(state, "sample")
    rng = np.random.default_rng(seed)
    idx = _draw_outcomes(state.probabilities(), shots, rng)
    return _counts_to_sampleset(idx, state.n, shots)


_PAULI_PAIRS = [
    (a, b) for a, b in itertools.product("ixyz", repeat=2) if (a, b) != ("i", "i")
]

#: Largest stack of amplitudes built at once, in bytes; a batch that needs
#: more runs in several stacks, down to one state per stack.
STACK_BYTES = 64 * 2**20


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Per-row cumulative distribution as `Generator.choice(p=...)` builds
    it from `_draw_outcomes`' normalized probabilities."""
    cdf = (probs / probs.sum(axis=-1, keepdims=True)).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def run_noisy(
    ops: list[GateOp],
    n_qubits: int,
    noise: NoiseSpec,
    shots: int,
    seed: int,
    ideal: QuantumState | None = None,
) -> SampleSet:
    """Monte-Carlo trajectories: one per shot.

    After each two-qubit gate, with probability `two_qubit_error` one of the
    15 non-identity two-qubit Paulis (chosen uniformly) hits the gate's
    qubits.  Measured bits are then flipped according to the per-qubit
    readout rates.

    The draws are made shot by shot, in the order a one-shot-at-a-time loop
    makes them: the error locations of the shot in one batch, one Pauli per
    hit, then the one uniform that `Generator.choice` would spend on the
    shot's outcome.  Shots without any error read that uniform through the
    cached noiseless distribution.  The error-hit trajectories are then
    replayed together as stacks of at most `STACK_BYTES` of amplitudes,
    each Pauli applied only to the rows that drew it, and each outcome is
    the one `choice` would return, so the samples equal the one-shot loop's
    exactly.  With a zero gate-error rate no trajectory randomness is
    consumed, so the draw matches `sample(simulate_circuit(ops, n), shots,
    seed)` exactly.  `ideal` is that noiseless final state when the caller
    already has it (several noise settings on one circuit): it must be
    `simulate_circuit(ops, n_qubits)`, and saves simulating it again.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p2 = noise.two_qubit_error
    if ideal is None:
        ideal = simulate_circuit(ops, n_qubits)
    _require_one_dense(ideal, "run_noisy")
    probs0 = ideal.probabilities()
    two_q = [t for t, op in enumerate(ops) if op.is_two_qubit]

    if p2 == 0.0 or not two_q:
        outcomes = _draw_outcomes(probs0, shots, rng)
    else:
        # the draws, shot by shot
        uniforms = np.empty(shots)
        hit_shots: list[int] = []
        hit_errors: list[list[tuple[int, int]]] = []  # (gate position, Pauli)
        for shot in range(shots):
            hits = np.flatnonzero(rng.random(len(two_q)) < p2)
            if hits.size:
                hit_shots.append(shot)
                hit_errors.append([(two_q[h], int(rng.integers(15))) for h in hits])
            uniforms[shot] = rng.random()
        outcomes = np.searchsorted(_cdf(probs0), uniforms, side="right")
        # the error-hit trajectories, replayed as stacks
        per_stack = max(1, STACK_BYTES // ideal.amplitudes.nbytes)
        for at in range(0, len(hit_shots), per_stack):
            errors = hit_errors[at:at + per_stack]
            amps = np.array([zero_state(n_qubits).amplitudes for _ in errors])
            rows_at: dict[int, dict[int, list[int]]] = {}  # gate -> Pauli -> rows
            for row, shot_errors in enumerate(errors):
                for t, which in shot_errors:
                    rows_at.setdefault(t, {}).setdefault(which, []).append(row)
            for t, op in enumerate(ops):
                _apply_op(amps, op)
                for which, rows in rows_at.get(t, {}).items():
                    hit = amps[rows]
                    for name, q in zip(_PAULI_PAIRS[which], op.qubits):
                        if name != "i":
                            _apply_op(hit, _g(name, q))
                    amps[rows] = hit
            shot_at = hit_shots[at:at + per_stack]
            cdf = _cdf(QuantumState(amps).probabilities())
            # side="right" search in each row's non-decreasing CDF
            outcomes[shot_at] = (cdf <= uniforms[shot_at, None]).sum(axis=-1)

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
