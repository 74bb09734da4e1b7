"""RNA sequences, stems and their relations.

A stem is a run of consecutive base pairs (i, j), (i+1, j-1), ..., read off
the pairing matrix as an anti-diagonal run of 1s.  Stems are the binary
decision units of the folding objective: a secondary structure is a subset of
the enumerated stems.  This module knows nothing about the objective itself;
it only provides the combinatorics (enumeration, overlap, crossing, domain
partition) that the QUBO layer builds on.  Each of these decisions has one
definition here:

- pairing: one table of the A-U, C-G and G-U pairs, read by `can_pair`,
  `StemSet` validation and `pairing_matrix`;
- overlap: a stem of length k occupies the two closed intervals
  [i, i+k-1] and [j-k+1, j], and two stems overlap iff some interval of one
  meets some interval of the other;
- crossing: `pairs_cross` tells whether two base pairs interleave
  (i1 < i2 < j1 < j2 or the mirror); two stems cross iff their outer spans
  do and they do not overlap.

The relations are written once, with `&`, `|` and single comparisons, so
they broadcast: given two `Stem`s they return a bool, given two `StemBlock`s
(the same i, j and k as int arrays, e.g. a column of rows against a row of
all stems) they return the bool array of every pair.  `StemSet.block()`
gives a stem set's arrays.

All indices in the public types are 1-based, matching the usual convention
for sequence positions.  Numpy matrices are 0-based internally.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError

BASES = "ACGU"

_CODES = {base: code for code, base in enumerate(BASES)}

#: Watson-Crick pairs plus the G-U wobble, indexed by base code: entry
#: [x, y] is True iff bases BASES[x] and BASES[y] can pair.
_PAIRS = ("AU", "CG", "GU")
_PAIR_TABLE = np.array([[a + b in _PAIRS or b + a in _PAIRS for b in BASES] for a in BASES])

#: Minimum number of unpaired bases between two pairing partners.  A base
#: cannot bond with its immediate neighbour, so 1 is the weakest physically
#: meaningful setting; it is also the one consistent with the stem counts of
#: the reference instances used in the test suite.
DEFAULT_MIN_LOOP = 1

#: Minimum stem length (base pairs) considered stable enough to keep.
DEFAULT_MIN_STEM = 3

#: Cells (stem pairs) per row block of a relation over a stem set.  Each
#: array of a block's relations takes at most 8 bytes per cell, so 2**16
#: cells bound every one of them to 512 KiB, whatever the stem count.
BLOCK_CELLS = 1 << 16


def _normalize_bases(raw: str) -> str:
    bases = raw.strip().upper().replace("T", "U")
    for pos, ch in enumerate(bases, start=1):
        if ch not in BASES:
            raise InputError(f"invalid base {ch!r} at position {pos}")
    if not bases:
        raise InputError("empty sequence")
    return bases


@dataclass(frozen=True)
class Sequence:
    """A validated RNA base string.

    DNA-style input is accepted: T is silently normalized to U.  Any symbol
    outside A/C/G/U/T raises InputError naming the offending position.
    """

    bases: str
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bases", _normalize_bases(self.bases))

    def __len__(self) -> int:
        return len(self.bases)

    def base(self, pos: int) -> str:
        """Base at 1-based position `pos`."""
        return self.bases[pos - 1]


class _Runs:
    """The intervals and span of a stem, read from its i, j and k."""

    @property
    def intervals(self):
        """The 5' and 3' runs as closed position intervals (first, last)."""
        return (self.i, self.i + self.k - 1), (self.j - self.k + 1, self.j)

    @property
    def span(self):
        """Outermost pair (i, j)."""
        return (self.i, self.j)


@dataclass(frozen=True, order=True)
class Stem(_Runs):
    """A run of `k` consecutive base pairs.

    `i` is the first base of the 5' run, `j` the last base of the 3' run,
    both 1-based, and k >= 1.  The pairs are (i, j), (i+1, j-1), ...,
    (i+k-1, j-k+1), so the stem occupies the closed intervals [i, i+k-1]
    and [j-k+1, j], the first strictly left of the second.
    """

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.i < 1:
            raise ValueError(f"bad stem ({self.i}, {self.j}, {self.k})")
        if self.i + self.k - 1 >= self.j - self.k + 1:
            raise ValueError(f"stem runs touch or cross: ({self.i}, {self.j}, {self.k})")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.i + t, self.j - t) for t in range(self.k))


class StemBlock(_Runs):
    """Stems as int arrays i, j and k of one shape, read like a `Stem`.

    Indexing indexes all three arrays, so `block[lo:hi, None]` is a column
    of rows that broadcasts against the row `block[lo:]` in the relations.
    """

    __slots__ = ("i", "j", "k")

    def __init__(self, i: np.ndarray, j: np.ndarray, k: np.ndarray):
        self.i, self.j, self.k = i, j, k

    def __getitem__(self, idx) -> StemBlock:
        return StemBlock(self.i[idx], self.j[idx], self.k[idx])


def can_pair(a: str, b: str) -> bool:
    """True iff {a, b} is A-U, C-G or the G-U wobble."""
    return a in _CODES and b in _CODES and bool(_PAIR_TABLE[_CODES[a], _CODES[b]])


def _codes(seq: Sequence) -> np.ndarray:
    """Base codes of a sequence, entry p - 1 holding base p's."""
    return np.array([_CODES[b] for b in seq.bases], dtype=np.intp)


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def pairing_matrix(seq: Sequence, min_loop: int = DEFAULT_MIN_LOOP) -> np.ndarray:
    """Boolean matrix of admissible base pairs.

    Entry [i-1, j-1] is True iff bases i and j can pair and are separated by
    more than `min_loop` positions.  Symmetric with a zero diagonal.
    """
    codes = _codes(seq)
    pos = np.arange(len(codes))
    band = np.abs(pos[:, None] - pos[None, :]) > min_loop
    return _PAIR_TABLE[codes[:, None], codes[None, :]] & band


_IJK = operator.attrgetter("i", "j", "k")


@dataclass(frozen=True)
class StemSet:
    """Stems of one sequence in canonical order (ascending i, then j).

    Construction validates bounds, uniqueness and that every constituent
    pair is admissible for the parent sequence, as array operations over
    the stems' i, j and k; the per-stem loop runs only to name the first
    offending stem.
    """

    sequence: Sequence
    stems: tuple[Stem, ...]

    def __post_init__(self):
        stems = tuple(self.stems)
        try:
            flat = map(operator.index, itertools.chain.from_iterable(map(_IJK, stems)))
            ijk = np.fromiter(flat, dtype=np.int64, count=3 * len(stems)).reshape(-1, 3)
        except (TypeError, ValueError, OverflowError):
            ordered = tuple(sorted(stems, key=lambda s: (s.i, s.j)))
            ijk = None
        else:
            order = np.lexsort((ijk[:, 1], ijk[:, 0]))  # stable, like `sorted`
            ordered = tuple(map(stems.__getitem__, order.tolist()))
            ijk = ijk[order]
        object.__setattr__(self, "stems", ordered)
        if ijk is None or not _stems_valid(ijk, _codes(self.sequence)):
            self._check_each()  # raises on the first offending stem
            ijk = np.array(list(map(_IJK, ordered)), dtype=np.int64).reshape(-1, 3)
        ijk.flags.writeable = False
        object.__setattr__(self, "_ijk", ijk)

    def _check_each(self):
        """The checks stem by stem, in order: raises on the first offender."""
        seen = set()
        n = len(self.sequence)
        for s in self.stems:
            if s in seen:
                raise ValueError(f"duplicate stem {s}")
            seen.add(s)
            if s.j > n:
                raise ValueError(f"stem {s} outside sequence of length {n}")
            for a, b in s.pairs():
                if not can_pair(self.sequence.base(a), self.sequence.base(b)):
                    raise ValueError(f"illegal pair ({a}, {b}) in stem {s}")

    def __len__(self) -> int:
        return len(self.stems)

    def __iter__(self):
        return iter(self.stems)

    def __getitem__(self, idx: int) -> Stem:
        return self.stems[idx]

    def block(self) -> StemBlock:
        """The stems' i, j and k as read-only 1-D int64 arrays, in canonical order."""
        return StemBlock(*self._ijk.T)


def _stems_valid(ijk: np.ndarray, codes: np.ndarray) -> bool:
    """`StemSet`'s checks over (i, j, k) rows of valid `Stem`s, as array operations.

    True iff no row repeats, every j is within the sequence of base codes
    `codes` and every constituent pair is admissible.
    """
    if not len(ijk):
        return True
    i, j, k = ijk.T
    if j.max() > len(codes):
        return False
    rows = ijk[np.lexsort((k, j, i))]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        return False
    t = _ranks(k)
    five, three = np.repeat(i, k) + t, np.repeat(j, k) - t
    return bool(_PAIR_TABLE[codes[five - 1], codes[three - 1]].all())


def enumerate_stems(
    seq: Sequence,
    min_len: int = DEFAULT_MIN_STEM,
    maximal_only: bool = False,
    min_loop: int = DEFAULT_MIN_LOOP,
) -> StemSet:
    """All stems of length >= min_len, as anti-diagonal runs of the pairing matrix.

    By default every contiguous run of admissible pairs is reported,
    including sub-runs of longer runs.  With maximal_only=True only runs
    that cannot be extended by another pair in either direction are kept,
    which shrinks the variable count at the cost of resolution (useful to
    fit large sequences into a qubit budget).

    The stems are read from run lengths: the admissible cells (i, j), i < j,
    are grouped by anti-diagonal i + j, and each cell gets the length L of
    the run from it inward, (i, j), (i+1, j-1), ...  A maximal stem is a
    run start with L >= min_len; with all runs every cell yields the
    lengths min_len..L.  Cells come row by row, so the stems come in
    canonical order, shorter before longer at one (i, j).
    """
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    if min_loop < 0:
        raise ValueError("min_loop must be >= 0")
    a, b = np.nonzero(np.triu(pairing_matrix(seq, min_loop), 1))  # 0-based, row by row
    diagonal = a + b
    order = np.argsort(diagonal, kind="stable")  # by anti-diagonal, then by a
    d, r = diagonal[order], a[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (d[1:] != d[:-1]) | (r[1:] != r[:-1] + 1)
    firsts = np.flatnonzero(start)
    ends = np.append(firsts[1:], len(order))  # one past each run's last cell
    length = np.empty(len(order), dtype=np.int64)
    length[order] = ends[np.cumsum(start) - 1] - np.arange(len(order))
    keep = length >= min_len
    if maximal_only:
        keep[order] &= start
        i, j, k = a[keep] + 1, b[keep] + 1, length[keep]
    else:
        counts = length[keep] - min_len + 1
        i, j = np.repeat(a[keep] + 1, counts), np.repeat(b[keep] + 1, counts)
        k = min_len + _ranks(counts)
    return StemSet(seq, tuple(map(Stem, i.tolist(), j.tolist(), k.tolist())))


def stems_overlap(s1, s2):
    """True iff some interval of one stem meets some interval of the other.

    That is, iff the two stems occupy at least one common base position.
    Closed intervals [lo, hi] and [lo', hi'] meet iff lo <= hi' and lo' <= hi.
    Broadcasts over `StemBlock`s (see the module docstring).
    """
    (a1, b1), (c1, d1) = s1.intervals
    (a2, b2), (c2, d2) = s2.intervals
    return (
        ((a1 <= b2) & (a2 <= b1))
        | ((a1 <= d2) & (c2 <= b1))
        | ((c1 <= b2) & (a2 <= d1))
        | ((c1 <= d2) & (c2 <= d1))
    )


def pairs_cross(p, q):
    """True iff base pairs p = (i1, j1) and q = (i2, j2) interleave.

    Interleaving means i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1; nested and
    side-by-side pairs do not cross.  Broadcasts over int arrays.
    """
    (i1, j1), (i2, j2) = p, q
    return ((i1 < i2) & (i2 < j1) & (j1 < j2)) | ((i2 < i1) & (i1 < j2) & (j2 < j1))


def stems_pseudoknot(s1, s2):
    """True iff the stems' outer spans cross and the stems do not overlap.

    Overlapping stems are never reported as pseudoknots; overlap and
    crossing are mutually exclusive relations.  On booleans `a > b` is
    "a and not b", which broadcasts as well.
    """
    return pairs_cross(s1.span, s2.span) > stems_overlap(s1, s2)


@dataclass(frozen=True)
class Domain:
    """A maximal group of mutually overlapping stems.

    At most one member of a domain can appear in a conflict-free structure.
    `dummy_index` is the index of the domain's extra qubit, appended after
    the stem qubits, whose set bit encodes "select none of this domain".
    """

    members: tuple[int, ...]
    dummy_index: int

    @property
    def size(self) -> int:
        return len(self.members)

    def ring(self) -> tuple[int, ...]:
        """Qubit ring for the excitation-preserving mixer: members then dummy."""
        return self.members + (self.dummy_index,)


def row_blocks(n: int):
    """Consecutive row ranges (lo, hi) of an n-column relation.

    Each block holds at most BLOCK_CELLS cells (one row at least), so the
    arrays of a block's relations stay bounded whatever n is.
    """
    rows = max(1, BLOCK_CELLS // max(n, 1))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def partition_domains(stems: StemSet) -> list[Domain]:
    """Greedy left-to-right partition of the stem list into domains.

    Scanning stems in canonical order, the current domain is extended while
    the next stem overlaps every stem already in it; otherwise a new domain
    starts.  Every stem lands in exactly one domain.  Dummy qubit indices
    are assigned after the stem qubits, one per domain in scan order.

    The scan reads rows of the overlap relation, computed per row block
    against the stems from the current domain's first member on.  A block
    of r rows starting b stems after that member scans b + r columns, so
    it takes the most rows with r(b + r) <= BLOCK_CELLS (one row at least).
    """
    n = len(stems)
    block = stems.block()
    starts = [0] if n else []
    lo = 0
    while lo < n:
        first = starts[-1]
        back = lo - first
        rows = max(1, (math.isqrt(back * back + 4 * BLOCK_CELLS) - back) // 2)
        hi = min(lo + rows, n)
        overlap = stems_overlap(block[lo:hi, None], block[first:hi])
        for idx in range(lo, hi):
            start = starts[-1]
            if not overlap[idx - lo, start - first : idx - first].all():
                starts.append(idx)
        lo = hi
    bounds = starts + [n]
    return [
        Domain(members=tuple(range(a, b)), dummy_index=n + d)
        for d, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def structure_from_selection(
    stems: StemSet, selection
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Base pairs of the selected stems, plus any overlap conflicts.

    `selection` is a bitstring (or any 0/1 sequence) over the stems, dummy
    bits excluded.  Returns (pairs, conflicts) where conflicts lists the
    stem index pairs that overlap; callers decide whether to reject.
    """
    bits = [int(b) for b in selection]
    if len(bits) != len(stems):
        raise ValueError(f"selection length {len(bits)} != stem count {len(stems)}")
    chosen = [idx for idx, b in enumerate(bits) if b]
    pairs: set[tuple[int, int]] = set()
    for idx in chosen:
        pairs.update(stems[idx].pairs())
    conflicts = tuple(
        (a, b)
        for a, b in itertools.combinations(chosen, 2)
        if stems_overlap(stems[a], stems[b])
    )
    return tuple(sorted(pairs)), conflicts
