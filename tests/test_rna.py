import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnaqaoa import rna
from rnaqaoa.errors import InputError
from rnaqaoa.instances import random_sequence
from rnaqaoa.qubo import QuboParams, penalty
from rnaqaoa.rna import (
    Sequence,
    Stem,
    StemBlock,
    StemSet,
    can_pair,
    enumerate_stems,
    pairing_matrix,
    partition_domains,
    pairs_cross,
    stems_overlap,
    stems_pseudoknot,
    structure_from_selection,
)

PKB092 = "AAAGUCGCUGAAGACUUAAAAUUCAGG"

sequences = st.text(alphabet="ACGU", min_size=1, max_size=40).map(Sequence)


# ---------------------------------------------------------------------------
# sequences and pairing


def test_sequence_normalizes_t_to_u():
    assert Sequence("acgt").bases == "ACGU"


def test_sequence_rejects_bad_symbol_with_position():
    with pytest.raises(InputError, match="position 3"):
        Sequence("ACXG")


def test_sequence_rejects_empty():
    with pytest.raises(InputError):
        Sequence("")


def test_can_pair_table():
    assert can_pair("A", "U") and can_pair("U", "A")
    assert can_pair("C", "G") and can_pair("G", "C")
    assert can_pair("G", "U") and can_pair("U", "G")
    assert not can_pair("A", "A")
    assert not can_pair("A", "C")
    assert not can_pair("A", "G")
    assert not can_pair("C", "U")


def test_pairing_matrix_example_entry():
    mat = pairing_matrix(Sequence("CUACGAUAG"))
    assert mat[0, 8]  # C1-G9
    assert not mat.diagonal().any()


def test_pairing_matrix_all_a_is_zero():
    assert not pairing_matrix(Sequence("AAAA")).any()


@given(sequences)
def test_pairing_matrix_symmetric(seq):
    mat = pairing_matrix(seq)
    assert (mat == mat.T).all()


def test_pairing_matrix_respects_min_loop():
    # A-U at distance 2 admissible only when the loop gap allows it
    seq = Sequence("ACU")
    assert not pairing_matrix(seq, min_loop=2).any()
    assert pairing_matrix(seq, min_loop=1)[0, 2]


@given(sequences, st.integers(min_value=0, max_value=4))
@settings(max_examples=200)
def test_pairing_matrix_matches_can_pair_loop(seq, min_loop):
    n = len(seq)
    want = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            want[a, b] = abs(a - b) > min_loop and can_pair(seq.bases[a], seq.bases[b])
    got = pairing_matrix(seq, min_loop)
    assert got.dtype == bool and got.shape == (n, n)
    assert (got == want).all()


# ---------------------------------------------------------------------------
# stems


def test_stem_validation():
    with pytest.raises(ValueError):
        Stem(1, 5, 3)  # innermost pair would sit on the diagonal
    with pytest.raises(ValueError):
        Stem(0, 0, 0)
    with pytest.raises(ValueError):
        Stem(1, 9, 0)
    assert Stem(1, 9, 3).pairs() == ((1, 9), (2, 8), (3, 7))


def test_enumerate_rejects_bad_lengths():
    with pytest.raises(ValueError, match="min_len"):
        enumerate_stems(Sequence(PKB092), min_len=0)
    with pytest.raises(ValueError, match="min_loop"):
        enumerate_stems(Sequence(PKB092), min_loop=-1)


def test_enumerate_single_stem_instance():
    stems = enumerate_stems(Sequence("CUACGAUAG"), min_len=3)
    assert [(s.i, s.j, s.k) for s in stems] == [(1, 9, 3)]


def test_enumerate_pkb092_count():
    assert len(enumerate_stems(Sequence(PKB092), min_len=3)) == 18


def test_enumerate_unpairable_sequence_is_empty():
    assert len(enumerate_stems(Sequence("AAAA"), min_len=3)) == 0


def test_enumerate_maximal_subset_of_all():
    seq = Sequence(PKB092)
    full = {(s.i, s.j, s.k) for s in enumerate_stems(seq)}
    maximal = {(s.i, s.j, s.k) for s in enumerate_stems(seq, maximal_only=True)}
    assert maximal < full
    assert len(maximal) == 8


@given(sequences)
@settings(max_examples=60)
def test_enumerated_stems_are_legal_and_ordered(seq):
    stems = enumerate_stems(seq, min_len=2)
    order = [(s.i, s.j) for s in stems]
    assert order == sorted(order)
    for s in stems:
        for a, b in s.pairs():
            assert can_pair(seq.base(a), seq.base(b))


@given(sequences)
@settings(max_examples=60)
def test_maximal_stems_cannot_be_extended(seq):
    mat = pairing_matrix(seq)
    n = len(seq)

    def hit(i, j):
        return 1 <= i < j <= n and mat[i - 1, j - 1]

    for s in enumerate_stems(seq, min_len=2, maximal_only=True):
        assert not hit(s.i - 1, s.j + 1)
        assert not hit(s.i + s.k, s.j - s.k)


def _scan_stems(seq, min_len, maximal_only, min_loop):
    """The per-cell scan: walk each run start of the pairing matrix inward.

    Returns (i, j, k) in canonical order: stably sorted by (i, j).
    """
    n = len(seq)
    mat = pairing_matrix(seq, min_loop)

    def hit(i, j):
        return 1 <= i < j <= n and mat[i - 1, j - 1]

    found = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not hit(i, j) or hit(i - 1, j + 1):
                continue  # not the start of a run
            k = 0
            while hit(i + k, j - k):
                k += 1
            if maximal_only:
                if k >= min_len:
                    found.append((i, j, k))
            else:
                for a in range(k):
                    for b in range(a + min_len - 1, k):
                        found.append((i + a, j - a, b - a + 1))
    return sorted(found, key=lambda s: s[:2])


@given(
    st.one_of(sequences, st.text(alphabet="AC", min_size=1, max_size=12).map(Sequence)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
@example(Sequence("A"), 1, 0, False)
@example(Sequence("GC"), 1, 0, False)  # a pair of neighbours, admissible at min_loop 0
@example(Sequence("GUC"), 1, 0, True)
@example(Sequence("GGGGGGGAAACCCCCCC"), 2, 1, False)  # one run of seven
@example(Sequence("GCGCGCGCGC"), 1, 0, False)  # runs meet the diagonal
@example(Sequence("ACACACAC"), 1, 0, False)  # no pairs at all
@settings(max_examples=300)
def test_enumerate_stems_matches_the_per_cell_scan(seq, min_len, min_loop, maximal_only):
    stems = enumerate_stems(seq, min_len=min_len, maximal_only=maximal_only, min_loop=min_loop)
    assert [(s.i, s.j, s.k) for s in stems] == _scan_stems(seq, min_len, maximal_only, min_loop)
    assert all(type(s.i) is int and type(s.j) is int and type(s.k) is int for s in stems)


def _stemset_loop(sequence, stems):
    """StemSet's checks as they were written before the array form."""
    ordered = tuple(sorted(stems, key=lambda s: (s.i, s.j)))
    seen = set()
    n = len(sequence)
    for s in ordered:
        if s in seen:
            raise ValueError(f"duplicate stem {s}")
        seen.add(s)
        if s.j > n:
            raise ValueError(f"stem {s} outside sequence of length {n}")
        for a, b in s.pairs():
            if not can_pair(sequence.base(a), sequence.base(b)):
                raise ValueError(f"illegal pair ({a}, {b}) in stem {s}")
    return ordered


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


_PKB092_STEMS = tuple(enumerate_stems(Sequence(PKB092)))


@pytest.mark.parametrize("bases, stems", [
    ("CUACGAUAG", ()),
    ("CUACGAUAG", (Stem(1, 9, 3),)),
    ("CUACGAUAG", [Stem(2, 8, 2), Stem(1, 9, 3), Stem(1, 9, 1)]),
    ("CUACGAUAG", (Stem(1, 9, 3), Stem(1, 9, 3))),
    ("CUACGAUAG", (Stem(1, 9, 3), Stem(1, 9, 2), Stem(1, 9, 3))),
    ("CUACGAUAG", (Stem(1, 10, 3),)),
    ("CUACGAUAG", (Stem(1, 9, 3), Stem(2, 12, 1))),
    ("CUACGAUAG", (Stem(1, 8, 2),)),
    ("CUACGAUAG", (Stem(1, 9, 2), Stem(1, 9, 4))),  # only the innermost pair is illegal
    ("CUACGAUAG", (Stem(2, 8, 1), Stem(1, 8, 2), Stem(3, 12, 2))),
    ("CUACGAUAG", (Stem(3, 12, 2), Stem(1, 8, 2), Stem(1, 8, 2))),
    ("CUACGAUAG", (Stem(2, 8, 1), Stem(2, 8, 1), Stem(1, 8, 2))),
    ("CUACGAUAG", (Stem(np.int64(1), np.int64(9), np.int64(3)),)),
    ("CUACGAUAG", (Stem(1.0, 9.0, 3),)),
    ("CUACGAUAG", (Stem(True, 9, 3),)),
    ("CUACGAUAG", (Stem(1, 9, 3), Stem(2, 2**70, 3))),
    (PKB092, _PKB092_STEMS),
    (PKB092, _PKB092_STEMS[::-1]),
    (PKB092, _PKB092_STEMS + _PKB092_STEMS[3:4]),
    ("A" + PKB092[1:], _PKB092_STEMS),
    (PKB092[:-1], _PKB092_STEMS),
])
def test_stemset_checks_accept_and_reject_as_the_per_stem_loop(bases, stems):
    sequence = Sequence(bases)
    want = _outcome(lambda: _stemset_loop(sequence, stems))
    got = _outcome(lambda: StemSet(sequence, stems).stems)
    assert got == want
    if isinstance(got, tuple) and all(isinstance(s, Stem) for s in got):
        block = StemSet(sequence, stems).block()
        assert [block.i.tolist(), block.j.tolist(), block.k.tolist()] == [
            [s.i for s in got], [s.j for s in got], [s.k for s in got]
        ]
        assert not block.i.flags.writeable


# ---------------------------------------------------------------------------
# relations


def _stems_of(seq_str, **kw):
    return enumerate_stems(Sequence(seq_str), **kw)


def test_overlap_shared_position():
    # both stems use bases 1..3
    stems = _stems_of("CCCAAAAGGGAAAGGGAAAA", maximal_only=True)
    assert [(s.i, s.j, s.k) for s in stems] == [(1, 10, 3), (1, 16, 3)]
    assert stems_overlap(stems[0], stems[1])


def test_disjoint_stems_do_not_overlap():
    s1, s2 = Stem(1, 10, 3), Stem(11, 20, 3)
    assert not stems_overlap(s1, s2)


def test_pseudoknot_crossing_true_nested_false():
    crossing = (Stem(1, 15, 3), Stem(8, 22, 3))
    assert stems_pseudoknot(*crossing)
    assert stems_pseudoknot(*reversed(crossing))
    nested = (Stem(1, 20, 3), Stem(6, 14, 3))
    assert not stems_pseudoknot(*nested)
    side_by_side = (Stem(1, 9, 3), Stem(11, 20, 3))
    assert not stems_pseudoknot(*side_by_side)


@st.composite
def stems_near_start(draw):
    """A stem within the first ~30 bases, so random pairs often touch or abut."""
    i = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=4))
    loop = draw(st.integers(min_value=0, max_value=4))
    return Stem(i, i + 2 * k - 1 + loop, k)


def _occupied(stem):
    return {pos for pair in stem.pairs() for pos in pair}


def _some_pairs_cross(s1, s2):
    return any(
        a < c < b < d or c < a < d < b for a, b in s1.pairs() for c, d in s2.pairs()
    )


@given(stems_near_start(), stems_near_start(), st.sampled_from([-1.0, -0.5, 0.0, 0.7]))
@example(Stem(1, 10, 3), Stem(3, 12, 2), 0.5)  # runs share one end position
@example(Stem(1, 8, 2), Stem(8, 14, 2), 0.5)  # 3' run meets the other 5' run
@example(Stem(1, 10, 3), Stem(4, 7, 1), 0.5)  # nested, both runs abut
@example(Stem(1, 10, 3), Stem(4, 13, 3), 0.5)  # crossing, 5' runs abut
@example(Stem(1, 10, 3), Stem(11, 20, 3), 0.5)  # side by side, abutting
@settings(max_examples=400)
def test_relations_match_position_set_oracle(s1, s2, c_p):
    overlap = bool(_occupied(s1) & _occupied(s2))
    crossing = not overlap and _some_pairs_cross(s1, s2)
    assert stems_overlap(s1, s2) == stems_overlap(s2, s1) == overlap
    assert stems_pseudoknot(s1, s2) == stems_pseudoknot(s2, s1) == crossing
    if overlap:
        want = -(s1.k + s2.k)
    elif crossing:
        want = c_p * (s1.k + s2.k)
    else:
        want = 0.0
    assert penalty(s1, s2, QuboParams(c_p=c_p)) == want


def _block(stems):
    return StemBlock(*(np.array([getattr(s, f) for s in stems], dtype=np.int64) for f in "ijk"))


@given(
    st.lists(stems_near_start(), min_size=1, max_size=8),
    st.lists(stems_near_start(), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.5, -0.7]),
)
@settings(max_examples=200)
def test_broadcast_relations_match_position_set_oracle(rows, cols, c_p):
    """A column block against a row block gives every pair's relation and coupling."""
    block_rows, block_cols = _block(rows)[:, None], _block(cols)
    overlap = stems_overlap(block_rows, block_cols)
    spans_cross = pairs_cross(block_rows.span, block_cols.span)
    knot = stems_pseudoknot(block_rows, block_cols)
    values = penalty(block_rows, block_cols, QuboParams(c_p=c_p))
    assert overlap.shape == knot.shape == values.shape == (len(rows), len(cols))
    assert values.dtype == np.float64
    for r, s1 in enumerate(rows):
        for c, s2 in enumerate(cols):
            want_overlap = bool(_occupied(s1) & _occupied(s2))
            want_knot = not want_overlap and _some_pairs_cross(s1, s2)
            assert overlap[r, c] == want_overlap
            assert spans_cross[r, c] == (s1.i < s2.i < s1.j < s2.j or s2.i < s1.i < s2.j < s1.j)
            assert knot[r, c] == want_knot
            if want_overlap:
                want = -(s1.k + s2.k)
            elif want_knot:
                want = c_p * (s1.k + s2.k)
            else:
                want = 0.0
            assert values[r, c] == want
            assert values[r, c] == penalty(s1, s2, QuboParams(c_p=c_p))


@given(sequences)
@settings(max_examples=40)
def test_relations_symmetric_and_exclusive(seq):
    stems = enumerate_stems(seq, min_len=2)
    for s1, s2 in itertools.combinations(list(stems)[:12], 2):
        assert stems_overlap(s1, s2) == stems_overlap(s2, s1)
        assert stems_pseudoknot(s1, s2) == stems_pseudoknot(s2, s1)
        assert not (stems_overlap(s1, s2) and stems_pseudoknot(s1, s2))


# ---------------------------------------------------------------------------
# domains


def test_domains_all_disjoint_gives_singletons():
    stems = _stems_of("CCCAAAAGGGAAAACCCAAAAGGG", maximal_only=True)
    disjoint = [s for s in stems if all(
        not stems_overlap(s, t) for t in stems if t != s)]
    if len(disjoint) == len(stems):
        doms = partition_domains(stems)
        assert all(d.size == 1 for d in doms)


def test_domains_all_overlapping_gives_one():
    stems = _stems_of("CCCAAAAGGGGG", maximal_only=True)
    assert all(
        stems_overlap(a, b) for a, b in itertools.combinations(stems, 2)
    )
    doms = partition_domains(stems)
    assert len(doms) == 1 and doms[0].size == len(stems)
    assert doms[0].dummy_index == len(stems)


def _prefix_scan_oracle(stems):
    """Independent greedy partition: longest prefix that stays mutually overlapping."""
    groups = []
    idx = 0
    items = list(stems)
    while idx < len(items):
        end = idx + 1
        while end < len(items) and all(
            stems_overlap(items[end], items[m]) for m in range(idx, end)
        ):
            end += 1
        groups.append(tuple(range(idx, end)))
        idx = end
    return groups


def test_pkb092_domains_match_prefix_scan_oracle():
    stems = enumerate_stems(Sequence(PKB092))
    doms = partition_domains(stems)
    assert [d.members for d in doms] == _prefix_scan_oracle(stems)
    assert [d.size for d in doms] == [8, 8, 2]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("maximal", [False, True])
def test_domains_with_split_blocks_match_prefix_scan_oracle(monkeypatch, seed, maximal):
    stems = enumerate_stems(random_sequence(np.random.default_rng(seed), 90), maximal_only=maximal)
    whole = partition_domains(stems)
    assert [d.members for d in whole] == _prefix_scan_oracle(stems)
    monkeypatch.setattr(rna, "BLOCK_CELLS", 3 * len(stems))  # three rows per block
    assert len(rna.row_blocks(len(stems))) > 1
    assert partition_domains(stems) == whole


def test_domain_blocks_scan_from_the_domain_start_within_block_cells(monkeypatch):
    """Blocks are sized by the columns they scan, not by the stem count."""
    stems = enumerate_stems(random_sequence(np.random.default_rng(0), 300))
    whole = partition_domains(stems)
    cells = []
    original = rna.stems_overlap

    def counted(rows, cols):
        out = original(rows, cols)
        cells.append(out.size)
        return out

    monkeypatch.setattr(rna, "stems_overlap", counted)
    assert partition_domains(stems) == whole
    assert max(cells) <= rna.BLOCK_CELLS
    assert len(cells) <= len(stems) / 100 < len(rna.row_blocks(len(stems)))


def test_row_blocks_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(rna, "BLOCK_CELLS", 20)
    assert rna.row_blocks(7) == [(0, 2), (2, 4), (4, 6), (6, 7)]
    assert rna.row_blocks(0) == []
    monkeypatch.setattr(rna, "BLOCK_CELLS", 3)
    assert rna.row_blocks(5) == [(i, i + 1) for i in range(5)]



@given(sequences)
@settings(max_examples=40)
def test_domain_partition_invariants(seq):
    stems = enumerate_stems(seq, min_len=2)
    doms = partition_domains(stems)
    covered = [m for d in doms for m in d.members]
    assert sorted(covered) == list(range(len(stems)))
    for d in doms:
        for a, b in itertools.combinations(d.members, 2):
            assert stems_overlap(stems[a], stems[b])
    for prev, nxt in zip(doms, doms[1:]):
        first = nxt.members[0]
        assert not all(
            stems_overlap(stems[first], stems[m]) for m in prev.members
        )


# ---------------------------------------------------------------------------
# selections


def test_selection_empty_gives_no_pairs():
    stems = enumerate_stems(Sequence("CUACGAUAG"))
    pairs, conflicts = structure_from_selection(stems, "0")
    assert pairs == () and conflicts == ()


def test_selection_single_stem():
    stems = enumerate_stems(Sequence("CUACGAUAG"))
    pairs, conflicts = structure_from_selection(stems, "1")
    assert pairs == ((1, 9), (2, 8), (3, 7))
    assert conflicts == ()


def test_selection_flags_conflicts():
    stems = _stems_of("CCCAAAAGGGAAAGGGAAAA", maximal_only=True)
    _, conflicts = structure_from_selection(stems, "11")
    assert conflicts == ((0, 1),)


def test_selection_length_checked():
    stems = enumerate_stems(Sequence("CUACGAUAG"))
    with pytest.raises(ValueError):
        structure_from_selection(stems, "10")


def test_stemset_rejects_illegal_pairing():
    with pytest.raises(ValueError, match="illegal pair"):
        StemSet(Sequence("AAAAAAAAAA"), (Stem(1, 10, 2),))
