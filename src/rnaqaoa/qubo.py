"""Stem-selection objective, its Ising form, and the exhaustive oracle.

The objective rewards selected base pairs (2k per stem of length k), charges
each stem a density penalty N_seq/(2k + epsilon), and couples stem pairs
through a relation penalty: -(k_i + k_j) for overlapping stems,
c_p*(k_i + k_j) for crossing (pseudoknotted) stems, 0 otherwise.  Higher is
better.  The Ising Hamiltonian is the same polynomial with x -> (1 - z)/2
and an overall sign flip, so its ground state is the objective's argmax:
ising_energy(x) == -objective(x) for every bitstring.

Spin convention, fixed once and asserted in tests: bit b maps to z = 1 - 2b,
i.e. a selected stem (bit 1) has z = -1.

`penalty` broadcasts like the relations it reads: `build_qubo` scores one
row block of stems against all stems per call (`rna.row_blocks`) and keeps
the nonzero couplings above the diagonal, as the arrays of a `Couplings`
mapping.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import ItemsView, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .rna import Domain, StemSet, pairs_cross, row_blocks, stems_overlap

#: Hard cap for exhaustive enumeration and dense simulation alike.
MAX_QUBITS = 24

#: Bytes one coupling takes in `QuboModel.quadratic` as a dict: the dict
#: slot, the key tuple with its two ints and the value (tracemalloc: 195 B
#: per entry of a 225,113-entry dict).  `build_qubo` keeps its couplings
#: as arrays (about 25 B each), and `model_to_dict` exports them from the
#: arrays, but this and MAX_QUADRATIC_BYTES stay sized for the dict,
#: because these paths still materialise it or iterate the key tuples:
#: indexing and `in` on `Couplings`, `to_ising`, `ising_diagonal`,
#: `qubo_diagonal`, `QuboModel.evaluate`, `ising_energy` and
#: `qaoa.gate_count_report`.
COUPLING_BYTES = 200

#: Largest `quadratic` dict `build_qubo` may have to hold when every stem
#: pair couples.  n stems have n(n-1)/2 pairs, so up to 3,277 stems pass:
#: random 400 nt sequences with --maximal (2,170-3,081 stems over 20
#: seeds) and 200 nt ones with all runs (1,451-1,949 over 5) fit.
MAX_QUADRATIC_BYTES = 1 << 30

#: Absolute tolerance used to detect degenerate optima.
DEGENERACY_ATOL = 1e-9


@dataclass(frozen=True)
class QuboParams:
    """Hyperparameters of the objective.

    epsilon is the averaged number of free bases per stem slot; it tunes how
    strongly short stems are discouraged (one length-6 stem beats two
    length-3 stems for any positive epsilon).  c_p weighs crossing stem
    pairs: 0 keeps nested and pseudoknotted alternatives degenerate.
    """

    epsilon: float = 6.0
    c_p: float = 0.0

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN fails too
            raise ValueError("epsilon must be nonnegative")
        if not abs(self.c_p) <= 1:
            raise ValueError("c_p must lie in [-1, 1]")


class Couplings(Mapping):
    """Couplings held as arrays, read as the dict `{(i, j): value}`.

    Entry t has key (i[t], j[t]) and value value[t], as an int where
    is_int[t] and as the array's scalar type elsewhere.  Iterating keys or
    items builds the tuples and values from `tolist()` columns; indexing
    (and `in`, `values()`) builds the dict once and reads it.  `len` reads
    the arrays, and the mapping equals a dict with the same items.  The
    arrays are read-only.
    """

    __slots__ = ("i", "j", "value", "is_int", "_dict")

    def __init__(self, i: np.ndarray, j: np.ndarray, value: np.ndarray, is_int: np.ndarray):
        for column in (i, j, value, is_int):
            column.flags.writeable = False
        self.i, self.j, self.value, self.is_int = i, j, value, is_int
        self._dict = None

    def columns(self, order=None) -> tuple[list, list, list]:
        """Keys' i and j and the values as lists, in `order` if given."""
        i, j, value, is_int = (self.i, self.j, self.value, self.is_int)
        if order is not None:
            i, j, value, is_int = i[order], j[order], value[order], is_int[order]
        values = value.astype(object)
        values[is_int] = value[is_int].astype(np.int64).astype(object)
        return i.tolist(), j.tolist(), values.tolist()

    def _as_dict(self) -> dict:
        if self._dict is None:
            self._dict = dict(self.items())
        return self._dict

    def __len__(self) -> int:
        return len(self.i)

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist())

    def __getitem__(self, key):
        return self._as_dict()[key]

    def items(self):
        return _CouplingItems(self)

    def __repr__(self) -> str:
        return f"Couplings({dict(self.items())!r})"


class _CouplingItems(ItemsView):
    def __iter__(self):
        i, j, values = self._mapping.columns()
        return zip(zip(i, j), values)


class CouplingRecords(Sequence):
    """The couplings table of `model_to_dict`, held as three columns.

    Reads as the list of records `{"i": i, "j": j, "value": value}`, one
    per row of the columns `i`, `j` and `value`: it indexes, iterates and
    compares equal like that list, building each record only when read.
    `exact` is True when the columns are known to hold only exact ints and
    finite floats, so `io.write_json` writes them without checking each
    value.  The columns are tuples, so the records are read-only.
    """

    KEYS = ("i", "j", "value")
    __slots__ = ("columns", "exact")

    def __init__(self, i, j, value, exact: bool = False):
        self.columns = (tuple(i), tuple(j), tuple(value))
        self.exact = exact

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CouplingRecords(*(c[index] for c in self.columns), exact=self.exact)
        return dict(zip(self.KEYS, (c[index] for c in self.columns)))

    def __iter__(self):
        return map(dict, map(zip, itertools.repeat(self.KEYS), zip(*self.columns)))

    def __eq__(self, other):
        if isinstance(other, (list, CouplingRecords)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CouplingRecords({list(self)!r})"


def _entries_valid(quadratic: Mapping, n: int) -> bool:
    """The per-entry checks of `QuboModel.quadratic` as array operations.

    True only when every key is a pair of integers with 0 <= j < i < n and
    every value is finite.  `Couplings` are checked on their arrays, other
    mappings on arrays read from their items.  False, also when the
    entries cannot be read as such, leaves the verdict and its message to
    the per-entry loop.
    """
    try:
        if isinstance(quadratic, Couplings):
            i, j, value = quadratic.i, quadratic.j, quadratic.value
        else:
            if set(map(len, quadratic)) - {2}:
                return False
            flat = map(operator.index, itertools.chain.from_iterable(quadratic))
            keys = np.fromiter(flat, dtype=np.int64, count=2 * len(quadratic))
            i, j, value = keys[0::2], keys[1::2], np.array(list(quadratic.values()))
        finite = np.isfinite(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return bool(((0 <= j) & (j < i) & (i < n) & finite).all())


@dataclass(frozen=True)
class QuboModel:
    """Coefficients of the selection objective.

    linear[i] multiplies x_i; quadratic[(i, j)] with j < i multiplies
    x_i * x_j; offset is added unconditionally.  `quadratic` is a dict or
    a `Couplings` (what `build_qubo` gives); both are checked the same way.
    """

    n: int
    linear: tuple[float, ...]
    quadratic: Mapping[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0

    def __post_init__(self):
        if len(self.linear) != self.n:
            raise ValueError("linear length mismatch")
        if _entries_valid(self.quadratic, self.n):
            return
        for (i, j), v in self.quadratic.items():
            if not (0 <= j < i < self.n):
                raise ValueError(f"quadratic key ({i}, {j}) must have j < i < n")
            if not np.isfinite(v):
                raise ValueError(f"non-finite coefficient at ({i}, {j})")

    def evaluate(self, bits) -> float:
        x = [int(b) for b in bits]
        if len(x) != self.n:
            raise ValueError(f"bitstring length {len(x)} != {self.n}")
        val = self.offset + sum(l * b for l, b in zip(self.linear, x))
        for (i, j), v in self.quadratic.items():
            val += v * x[i] * x[j]
        return val


@dataclass(frozen=True)
class IsingModel:
    """Diagonal Hamiltonian: constant + sum h_i Z_i + sum J_ij Z_i Z_j.

    J is stored upper-triangular (keys (i, j) with i < j).  Qubits beyond
    the stem variables (domain dummies) carry zero coefficients.
    """

    n: int
    h: tuple[float, ...]
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    constant: float = 0.0

    def __post_init__(self):
        if len(self.h) != self.n:
            raise ValueError("h length mismatch")
        for i, j in self.J:
            if not (0 <= i < j < self.n):
                raise ValueError(f"J key ({i}, {j}) must be upper-triangular")


def penalty(s1, s2, params: QuboParams):
    """Pairwise coupling: overlap is penalized, crossing is weighed by c_p.

    -(k1 + k2) for overlapping stems, c_p*(k1 + k2) for crossing ones and 0
    otherwise, as a float unless c_p is an int.  Overlap is tested once; a
    non-overlapping pair crosses iff its spans do.  Broadcasts over
    `StemBlock`s like the relations (see `rna`), giving the array of every
    pair's coupling.
    """
    ksum = s1.k + s2.k
    overlap = stems_overlap(s1, s2)
    crossing = pairs_cross(s1.span, s2.span) > overlap
    return params.c_p * ksum * crossing - ksum * overlap


def objective(selection, stems: StemSet, params: QuboParams) -> float:
    """Direct evaluation of the objective for one selection bitstring.

    Kept as straightforward sums over stems so it can serve as an
    independent check on the coefficient-based model.
    """
    bits = [int(b) for b in selection]
    if len(bits) != len(stems):
        raise ValueError(f"selection length {len(bits)} != stem count {len(stems)}")
    n_seq = len(stems.sequence)
    total = 0.0
    for bit, stem in zip(bits, stems):
        if bit:
            total += 2.0 * stem.k - n_seq / (2.0 * stem.k + params.epsilon)
    for (a, sa), (b, sb) in itertools.combinations(enumerate(stems), 2):
        if bits[a] and bits[b]:
            total += penalty(sa, sb, params)
    return total


def build_qubo(stems: StemSet, params: QuboParams = QuboParams()) -> QuboModel:
    """Assemble objective coefficients for a stem set.

    `penalty` scores each row block of stems j against the stems i after
    it.  The nonzero couplings become `quadratic`, a `Couplings` under keys
    (i, j) with j < i, ordered by j and then i: overlap couplings as the
    ints -(k_i + k_j), crossing ones as floats.  Refuses, before any pair
    is scored, stem sets whose pairs could need more than
    MAX_QUADRATIC_BYTES.
    """
    n = len(stems)
    pairs = n * (n - 1) // 2
    if pairs * COUPLING_BYTES > MAX_QUADRATIC_BYTES:
        raise ResourceLimitError(
            f"{n} stems make {pairs} stem pairs, whose couplings may need "
            f"{pairs * COUPLING_BYTES} bytes, over the limit of {MAX_QUADRATIC_BYTES}; "
            "use --maximal or a larger --min-stem"
        )
    n_seq = len(stems.sequence)
    linear = tuple(
        2.0 * s.k - n_seq / (2.0 * s.k + params.epsilon) for s in stems
    )
    block = stems.block()
    # an empty int column joins any value dtype unchanged, and stands for n = 0
    empty = np.zeros(0, dtype=np.int64)
    parts = [(empty, empty, empty, empty.astype(bool))]
    for lo, hi in row_blocks(n):
        rows, cols = block[lo:hi, None], block[lo:]
        values = penalty(rows, cols, params)
        # keep i > j: column c of the block is stem lo + c
        above = np.arange(n - lo) > np.arange(hi - lo)[:, None]
        r, c = np.nonzero(above & (values != 0.0))
        overlap = stems_overlap(rows[r, 0], cols[c])
        value = np.where(overlap, -(rows.k[r, 0] + cols.k[c]), values[r, c])
        parts.append((c + lo, r + lo, value, overlap))
    quadratic = Couplings(*map(np.concatenate, zip(*parts)))
    return QuboModel(n=n, linear=linear, quadratic=quadratic)


def to_ising(model: QuboModel, domains: list[Domain] | None = None) -> IsingModel:
    """Map the maximization objective to its cost Hamiltonian.

    Substitutes x_i -> (1 - Z_i)/2 and negates, so the ground state is the
    objective's argmax.  When `domains` is given (the excitation-preserving
    encoding), couplings between stems of the same domain are dropped
    entirely: those selections are excluded from the mixer's search space,
    so their penalty terms are redundant; and one zero-coefficient dummy
    qubit per domain is appended.
    """
    same_domain: set[tuple[int, int]] = set()
    if domains is not None:
        for dom in domains:
            same_domain.update(itertools.combinations(sorted(dom.members), 2))
    n_total = model.n + (len(domains) if domains is not None else 0)
    h = np.zeros(n_total)
    J: dict[tuple[int, int], float] = {}
    constant = -model.offset
    for i, lin in enumerate(model.linear):
        constant -= lin / 2.0
        h[i] += lin / 2.0
    for (i, j), k in model.quadratic.items():  # j < i
        if (j, i) in same_domain:
            continue
        constant -= k / 4.0
        h[i] += k / 4.0
        h[j] += k / 4.0
        J[(j, i)] = -k / 4.0
    return IsingModel(n=n_total, h=tuple(h), J=J, constant=constant)


def ising_energy(ising: IsingModel, bits) -> float:
    """Energy of one basis state, bit b on qubit i contributing z_i = 1 - 2b."""
    x = [int(b) for b in bits]
    if len(x) != ising.n:
        raise ValueError(f"bitstring length {len(x)} != {ising.n}")
    z = [1 - 2 * b for b in x]
    e = ising.constant + sum(hi * zi for hi, zi in zip(ising.h, z))
    for (i, j), jij in ising.J.items():
        e += jij * z[i] * z[j]
    return e


def check_dense(n: int):
    """Refuse more than MAX_QUBITS binary variables for exhaustive or dense work."""
    if n > MAX_QUBITS:
        raise ResourceLimitError(
            f"{n} binary variables exceed the exhaustive/dense limit of {MAX_QUBITS}"
        )


def ising_diagonal(ising: IsingModel) -> np.ndarray:
    """Energies of all 2^n basis states, index bit (n-1-i) holding qubit i.

    Equivalently: basis index int(bitstring, 2) with bitstring[i] = qubit i.
    """
    check_dense(ising.n)
    n = ising.n
    diag = np.full([2] * n if n else [1], ising.constant, dtype=float)
    if n == 0:
        return diag.reshape(-1)
    z_slices = [
        (tuple(np.s_[0] if ax == q else np.s_[:] for ax in range(n)),
         tuple(np.s_[1] if ax == q else np.s_[:] for ax in range(n)))
        for q in range(n)
    ]
    for q, hq in enumerate(ising.h):
        if hq:
            diag[z_slices[q][0]] += hq
            diag[z_slices[q][1]] -= hq
    for (i, j), jij in ising.J.items():
        if jij:
            for bi, bj in itertools.product((0, 1), repeat=2):
                sel = tuple(
                    np.s_[bi] if ax == i else (np.s_[bj] if ax == j else np.s_[:])
                    for ax in range(n)
                )
                diag[sel] += jij if bi == bj else -jij
    return diag.reshape(-1)


def qubo_diagonal(model: QuboModel) -> np.ndarray:
    """Objective values of all 2^n bitstrings, same index convention as above."""
    check_dense(model.n)
    n = model.n
    vals = np.full([2] * n if n else [1], model.offset, dtype=float)
    if n == 0:
        return vals.reshape(-1)
    for q, lin in enumerate(model.linear):
        if lin:
            sel = tuple(np.s_[1] if ax == q else np.s_[:] for ax in range(n))
            vals[sel] += lin
    for (i, j), k in model.quadratic.items():
        if k:
            sel = tuple(
                np.s_[1] if ax in (i, j) else np.s_[:] for ax in range(n)
            )
            vals[sel] += k
    return vals.reshape(-1)


def brute_force_solve(
    model: QuboModel, atol: float = DEGENERACY_ATOL
) -> tuple[tuple[str, ...], float]:
    """Exhaustive argmax of the objective.

    Returns every bitstring within `atol` of the best value (all degenerate
    optima, lexicographically sorted) and the best value itself.  Guarded to
    n <= 24 variables.
    """
    check_dense(model.n)
    if model.n == 0:
        return ("",), float(model.offset)
    vals = qubo_diagonal(model)
    best = float(vals.max())
    winners = np.flatnonzero(vals >= best - atol)
    strings = tuple(format(int(idx), f"0{model.n}b") for idx in winners)
    return strings, best


def model_to_dict(model: QuboModel, labels: list[str] | None = None) -> dict:
    """JSON-friendly export of the model coefficients and qubit labels.

    The couplings come ordered by key (i, then j), one record each, as
    `CouplingRecords`: the columns of `Couplings` sorted at once, or the
    sorted items of a plain dict.  Only the first are `exact`, from their
    arrays' dtypes and one finiteness test.
    """
    if labels is None:
        labels = [f"x{i}" for i in range(model.n)]
    if len(labels) != model.n:
        raise ValueError("label count mismatch")
    q = model.quadratic
    # the keys are unique pairs, so ordering them orders the entries
    if isinstance(q, Couplings):
        exact = (
            {q.i.dtype.kind, q.j.dtype.kind} <= {"i", "u"}
            and q.value.dtype.kind in "iuf"
            and bool(np.isfinite(q.value).all())
        )
        records = CouplingRecords(*q.columns(np.lexsort((q.j, q.i))), exact=exact)
    else:
        rows = [(i, j, v) for (i, j), v in sorted(q.items())]
        records = CouplingRecords(*(zip(*rows) if rows else ((), (), ())))
    return {
        "n": model.n,
        "variables": list(labels),
        "linear": list(model.linear),
        "quadratic": records,
        "offset": model.offset,
    }


def stem_labels(stems: StemSet) -> list[str]:
    return [f"stem_{s.i}_{s.j}_{s.k}" for s in stems]
