import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnaqaoa import io as io_
from rnaqaoa import qubo as qubo_mod
from rnaqaoa import rna
from rnaqaoa.errors import ResourceLimitError
from rnaqaoa.instances import generate_instances, random_sequence
from rnaqaoa.qubo import (
    CouplingRecords,
    IsingModel,
    QuboModel,
    QuboParams,
    brute_force_solve,
    build_qubo,
    ising_diagonal,
    ising_energy,
    model_to_dict,
    objective,
    penalty,
    qubo_diagonal,
    stem_labels,
    to_ising,
)
from rnaqaoa.rna import (
    Sequence,
    Stem,
    enumerate_stems,
    pairs_cross,
    partition_domains,
    stems_overlap,
    stems_pseudoknot,
)

PKB092 = "AAAGUCGCUGAAGACUUAAAAUUCAGG"


def single_stem_instance():
    return enumerate_stems(Sequence("CUACGAUAG"))


def overlapping_pair_instance():
    # exactly two k=3 stems sharing their 5' run, 20 bases
    return enumerate_stems(Sequence("CCCAAAAGGGAAAGGGAAAA"), maximal_only=True)


def test_params_validation():
    with pytest.raises(ValueError):
        QuboParams(epsilon=-1.0)
    with pytest.raises(ValueError):
        QuboParams(c_p=1.5)


def test_penalty_overlap():
    assert penalty(Stem(1, 10, 3), Stem(2, 11, 4), QuboParams()) == -7


def test_penalty_pseudoknot_zero_weight():
    s1, s2 = Stem(1, 15, 3), Stem(8, 22, 3)
    assert stems_pseudoknot(s1, s2)
    assert penalty(s1, s2, QuboParams(c_p=0.0)) == 0.0
    assert penalty(s1, s2, QuboParams(c_p=0.5)) == 3.0


def test_penalty_unrelated_zero():
    assert penalty(Stem(1, 20, 3), Stem(6, 14, 3), QuboParams()) == 0.0


def test_objective_empty_selection():
    assert objective("0", single_stem_instance(), QuboParams()) == 0.0


def test_objective_single_stem_value():
    assert objective("1", single_stem_instance(), QuboParams()) == pytest.approx(5.25)


def test_objective_two_overlapping_stems():
    stems = overlapping_pair_instance()
    assert len(stems.sequence) == 20
    val = objective("11", stems, QuboParams())
    assert val == pytest.approx(12 - 2 * (20 / 12) - 6)
    # selecting both overlapping stems never beats the better single stem
    assert val < max(
        objective("10", stems, QuboParams()), objective("01", stems, QuboParams())
    )


def test_length_preference_single_long_beats_two_short():
    stems = enumerate_stems(Sequence("CCCCCCAAAAGGGGGG"), maximal_only=True)
    by_coord = {(s.i, s.j, s.k): idx for idx, s in enumerate(stems)}
    long_idx = by_coord[(1, 16, 6)]
    short_a, short_b = by_coord[(1, 13, 3)], by_coord[(4, 16, 3)]
    n = len(stems)

    def select(indices):
        return "".join("1" if q in indices else "0" for q in range(n))

    params = QuboParams(epsilon=6.0)
    assert objective(select({long_idx}), stems, params) > objective(
        select({short_a, short_b}), stems, params
    )


def test_build_qubo_single_stem():
    model = build_qubo(single_stem_instance(), QuboParams())
    assert model.n == 1
    assert model.linear == (pytest.approx(5.25),)
    assert model.quadratic == {}


def test_build_qubo_quadratic_keys_lower_index_second():
    model = build_qubo(enumerate_stems(Sequence(PKB092)), QuboParams())
    assert all(j < i for (i, j) in model.quadratic)


def _reference_quadratic(stems, c_p):
    """The per-pair loop: keys (i, j), j < i, by j then i; overlap as int."""
    out = {}
    for j, i in itertools.combinations(range(len(stems)), 2):
        si, sj = stems[i], stems[j]
        if stems_overlap(si, sj):
            out[(i, j)] = -(si.k + sj.k)
        elif pairs_cross(si.span, sj.span) and c_p * (si.k + sj.k) != 0.0:
            out[(i, j)] = c_p * (si.k + sj.k)
    return out


def _balanced_sequence(seed, length):
    bases = np.array(list("ACGU" * (length // 4 + 1))[:length])
    np.random.default_rng(seed).shuffle(bases)
    return Sequence("".join(bases))


@pytest.mark.parametrize("length", [88, 152])
@pytest.mark.parametrize("maximal", [False, True])
def test_build_qubo_entries_equal_the_per_pair_loop(monkeypatch, length, maximal):
    """Order, value and type of every coupling, with blocks split and whole."""
    stems = enumerate_stems(_balanced_sequence(length, length), maximal_only=maximal)
    whole = {cp: list(build_qubo(stems, QuboParams(c_p=cp)).quadratic.items()) for cp in (0.0, 0.3, -0.7)}
    monkeypatch.setattr(rna, "BLOCK_CELLS", 7 * len(stems))
    assert len(rna.row_blocks(len(stems))) > 1
    for cp in (0.0, 0.3, -0.7):
        want = list(_reference_quadratic(stems, cp).items())
        got = list(build_qubo(stems, QuboParams(c_p=cp)).quadratic.items())
        assert got == want == whole[cp]
        assert [type(v) for _, v in got] == [type(v) for _, v in want]
        assert all(type(i) is int and type(j) is int for (i, j), _ in got)
    assert any(type(v) is float for _, v in whole[0.3])
    assert any(type(v) is int for _, v in whole[0.3])
    # the mapping reads as the dict of the per-pair loop
    quadratic = build_qubo(stems, QuboParams(c_p=0.3)).quadratic
    want = _reference_quadratic(stems, 0.3)
    assert isinstance(quadratic, qubo_mod.Couplings)
    assert len(quadratic) == len(want) > 0
    assert quadratic == want and want == quadratic and not quadratic != want
    assert quadratic != {**want, (1, 0): 0.5} and quadratic != {}
    for key in itertools.islice(want, 0, None, 7):
        assert key in quadratic
        assert quadratic[key] == want[key] and type(quadratic[key]) is type(want[key])
    missing = (len(stems), 0)
    assert missing not in quadratic and (0, 1) not in quadratic
    with pytest.raises(KeyError):
        quadratic[missing]
    assert list(quadratic) == list(want) and list(quadratic.values()) == list(want.values())


def test_build_qubo_calls_penalty_once_per_block(monkeypatch):
    stems = enumerate_stems(_balanced_sequence(0, 88))
    calls = []
    original = qubo_mod.penalty

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qubo_mod, "penalty", counted)
    monkeypatch.setattr(rna, "BLOCK_CELLS", 10 * len(stems))
    build_qubo(stems, QuboParams())
    assert len(calls) == len(rna.row_blocks(len(stems))) > 1


def _loop_check(quadratic, n):
    """The per-entry checks as they were written before the array form."""
    for (i, j), v in quadratic.items():
        if not (0 <= j < i < n):
            raise ValueError(f"quadratic key ({i}, {j}) must have j < i < n")
        if not np.isfinite(v):
            raise ValueError(f"non-finite coefficient at ({i}, {j})")


def _outcome(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("quadratic", [
    {},
    {(1, 0): -6, (2, 1): 0.5},
    {(2, 2): 1.0},
    {(1, 2): 1.0},
    {(3, 0): 1.0},
    {(1, -1): 1.0},
    {(1, 0): float("nan")},
    {(1, 0): float("inf")},
    {(2, 0): -float("inf"), (1, 5): 1.0},
    {(1, 5): 1.0, (2, 0): float("nan")},
    {(2, 1): 1.0, (1, 0): float("nan"), (0, 0): 1.0},
    {(1.5, 0): 1.0},
    {(2, 0.5): 1.0},
    {(1, 0): 1j},
    {(1, 0): None},
    {(1, 0): "x"},
    {(1, None): 1.0},
    {(2, 1, 0): 1.0},
    {(1,): 1.0},
    {(1, 0): True, (2, 1): np.float64(2.5), (np.int64(2), 0): 3},
    {(1, 0): 1.0, (2, 1): "1"},
    {("1", "0"): 1.0},
    {(1, 0): Fraction(1, 2)},
    {(1, 0): 2**70},
    {(2**70, 0): 1.0},
    {(2, 1, 2): 1.0, (1,): 1.0},
    {3: 1.0},
    {"10": 1.0},
])
def test_qubo_model_checks_accept_and_reject_as_the_per_entry_loop(quadratic):
    want = _outcome(lambda: _loop_check(quadratic, 3))
    got = _outcome(lambda: QuboModel(n=3, linear=(0.0,) * 3, quadratic=dict(quadratic)))
    assert got == want


def _couplings(entries, is_int=None):
    i, j, value = (np.array(column) for column in zip(*entries)) if entries else ([],) * 3
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    value = np.asarray(value, dtype=float)
    return qubo_mod.Couplings(i, j, value, np.zeros(len(i), bool) if is_int is None else np.array(is_int))


@pytest.mark.parametrize("entries", [
    [],
    [(1, 0, -6.0), (2, 1, 0.5)],
    [(2, 2, 1.0)],
    [(1, 2, 1.0)],
    [(3, 0, 1.0)],
    [(1, -1, 1.0)],
    [(1, 0, float("nan"))],
    [(1, 0, float("inf"))],
    [(2, 0, -float("inf")), (1, 5, 1.0)],
    [(1, 5, 1.0), (2, 0, float("nan"))],
    [(2, 1, 1.0), (1, 0, float("nan")), (0, 0, 1.0)],
])
def test_qubo_model_checks_couplings_as_the_per_entry_loop(entries):
    couplings = _couplings(entries)
    want = _outcome(lambda: _loop_check(dict(((i, j), v) for i, j, v in entries), 3))
    got = _outcome(lambda: QuboModel(n=3, linear=(0.0,) * 3, quadratic=couplings))
    assert got == want


def test_couplings_give_ints_where_marked_and_are_read_only():
    couplings = _couplings([(1, 0, -6.0), (2, 1, 0.5), (2, 0, 3.0)], is_int=[True, False, False])
    assert list(couplings.items()) == [((1, 0), -6), ((2, 1), 0.5), ((2, 0), 3.0)]
    assert [type(v) for v in couplings.values()] == [int, float, float]
    assert couplings.columns(np.array([2, 0])) == ([2, 1], [0, 0], [3.0, -6])
    with pytest.raises(ValueError):
        couplings.value[0] = 1.0
    assert dict(couplings) == {(1, 0): -6, (2, 1): 0.5, (2, 0): 3.0}


def test_qubo_model_rejects_bad_keys_and_values():
    with pytest.raises(ValueError, match=r"quadratic key \(0, 1\) must have j < i < n"):
        QuboModel(n=2, linear=(0.0, 0.0), quadratic={(1, 0): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError, match=r"non-finite coefficient at \(1, 0\)"):
        QuboModel(n=2, linear=(0.0, 0.0), quadratic={(1, 0): float("nan")})


def test_build_qubo_refuses_too_many_stem_pairs_before_scoring(monkeypatch):
    stems = enumerate_stems(Sequence(PKB092))  # 18 stems, 153 pairs
    monkeypatch.setattr(qubo_mod, "MAX_QUADRATIC_BYTES", 153 * qubo_mod.COUPLING_BYTES)
    build_qubo(stems)
    monkeypatch.setattr(qubo_mod, "MAX_QUADRATIC_BYTES", 153 * qubo_mod.COUPLING_BYTES - 1)
    monkeypatch.setattr(qubo_mod, "penalty", None)
    with pytest.raises(ResourceLimitError, match="--maximal or a larger --min-stem"):
        build_qubo(stems)


def test_stem_pair_guard_admits_400nt_maximal_and_refuses_800nt_all_runs():
    stems = enumerate_stems(random_sequence(np.random.default_rng(0), 400), maximal_only=True)
    times = []
    for _ in range(3):  # best of three: the machine may be shared
        start = time.perf_counter()
        model = build_qubo(stems)
        times.append(time.perf_counter() - start)
    assert model.n == len(stems) > 2500
    assert min(times) < 1.0
    stems = enumerate_stems(random_sequence(np.random.default_rng(0), 800))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        build_qubo(stems)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("seed", range(3))
def test_stem_pair_guard_admits_benchmark_sized_inputs(seed):
    """All-runs stem sets of uniform random 88-152 nt sequences, whose stem counts vary widely."""
    for length in (88, 104, 120, 136, 152):
        stems = enumerate_stems(random_sequence(np.random.default_rng(seed), length))
        assert build_qubo(stems).n == len(stems)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_matches_objective_exhaustively(seed):
    stems = generate_instances(1, seed=seed, min_stems=3, max_stems=8)[0]
    params = QuboParams()
    model = build_qubo(stems, params)
    vals = qubo_diagonal(model)
    for idx in range(2**model.n):
        bits = format(idx, f"0{model.n}b")
        assert vals[idx] == pytest.approx(objective(bits, stems, params), abs=1e-9)


def test_to_ising_single_variable():
    model = build_qubo(single_stem_instance(), QuboParams())
    ising = to_ising(model)
    assert ising.h == (pytest.approx(2.625),)
    assert ising.constant == pytest.approx(-2.625)
    assert ising_energy(ising, "1") == pytest.approx(-5.25)
    assert ising_energy(ising, "0") == pytest.approx(0.0)


def test_to_ising_zero_model():
    ising = to_ising(QuboModel(n=2, linear=(0.0, 0.0)))
    assert ising.h == (0.0, 0.0) and ising.J == {} and ising.constant == 0.0


def test_to_ising_domain_reduction_drops_same_domain_terms():
    stems = enumerate_stems(Sequence(PKB092))
    domains = partition_domains(stems)
    model = build_qubo(stems, QuboParams())
    reduced = to_ising(model, domains)
    full = to_ising(model)
    assert reduced.n == model.n + len(domains)
    same = set()
    for dom in domains:
        same.update(itertools.combinations(sorted(dom.members), 2))
    assert not any(key in same for key in reduced.J)
    assert len(reduced.J) < len(full.J)
    # dummy qubits carry no coefficients
    assert all(reduced.h[q] == 0.0 for q in range(model.n, reduced.n))


@pytest.mark.parametrize("seed", range(5))
def test_ising_equals_negated_objective(seed):
    stems = generate_instances(1, seed=100 + seed, min_stems=3, max_stems=10)[0]
    params = QuboParams(c_p=0.3 if seed % 2 else 0.0)
    model = build_qubo(stems, params)
    ising = to_ising(model)
    qd, idg = qubo_diagonal(model), ising_diagonal(ising)
    assert np.abs(qd + idg).max() < 1e-9
    for idx in (0, 1, 2**model.n - 1):
        bits = format(idx, f"0{model.n}b")
        assert ising_energy(ising, bits) == pytest.approx(-objective(bits, stems, params), abs=1e-9)


def test_spin_convention_bit_one_is_minus_z():
    ising = IsingModel(n=1, h=(1.0,), constant=0.0)
    assert ising_energy(ising, "0") == 1.0
    assert ising_energy(ising, "1") == -1.0


def test_brute_force_single_stem():
    strings, value = brute_force_solve(build_qubo(single_stem_instance(), QuboParams()))
    assert strings == ("1",) and value == pytest.approx(5.25)


def test_brute_force_empty_model():
    strings, value = brute_force_solve(QuboModel(n=0, linear=()))
    assert strings == ("",) and value == 0.0


def test_brute_force_guard():
    with pytest.raises(ResourceLimitError):
        brute_force_solve(QuboModel(n=25, linear=(0.0,) * 25))


def test_brute_force_never_selects_overlapping_pair():
    for seed in range(4):
        stems = generate_instances(1, seed=300 + seed, min_stems=3, max_stems=8)[0]
        model = build_qubo(stems, QuboParams())
        strings, _ = brute_force_solve(model)
        from rnaqaoa.rna import structure_from_selection

        for bits in strings:
            _, conflicts = structure_from_selection(stems, bits)
            assert conflicts == ()


def _find_pseudoknot_degenerate_instance():
    """Instance whose optimum set mixes crossing and non-crossing structures."""
    for seed in range(200):
        stems = generate_instances(1, seed=1000 + seed, min_stems=3, max_stems=8)[0]
        strings, _ = brute_force_solve(build_qubo(stems, QuboParams(c_p=0.0)))
        if len(strings) < 2:
            continue

        def has_crossing(bits):
            chosen = [i for i, b in enumerate(bits) if b == "1"]
            return any(
                stems_pseudoknot(stems[a], stems[b])
                for a, b in itertools.combinations(chosen, 2)
            )

        flags = [has_crossing(b) for b in strings]
        if any(flags) and not all(flags):
            return stems, strings
    raise AssertionError("no degenerate instance found in the search budget")


def test_cp_zero_admits_pseudoknot_degenerate_optima():
    stems, strings = _find_pseudoknot_degenerate_instance()
    assert len(strings) >= 2


def test_model_export_shape():
    stems = single_stem_instance()
    model = build_qubo(stems, QuboParams())
    doc = model_to_dict(model, stem_labels(stems))
    assert doc["n"] == 1
    assert doc["variables"] == ["stem_1_9_3"]
    assert doc["linear"] == [pytest.approx(5.25)]
    assert doc["quadratic"] == [] and doc["offset"] == 0.0


@given(st.integers(min_value=0, max_value=2**10 - 1))
@settings(max_examples=30)
def test_qubo_diagonal_matches_evaluate(idx):
    stems = enumerate_stems(Sequence(PKB092), maximal_only=True)  # 8 stems
    model = build_qubo(stems, QuboParams())
    if idx >= 2**model.n:
        idx %= 2**model.n
    bits = format(idx, f"0{model.n}b")
    assert qubo_diagonal(model)[idx] == pytest.approx(model.evaluate(bits), abs=1e-9)


@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_model_export_orders_couplings_as_sorted_items(n, seed, density):
    """The couplings come out in the order of the sorted `(key, value)`
    items, whatever order they were inserted in; ints stay ints."""
    rng = np.random.default_rng(seed)
    keys = [(i, j) for i in range(n) for j in range(i) if rng.random() < density]
    rng.shuffle(keys)
    quadratic = {
        (int(i), int(j)): (int(rng.integers(-9, 9)) if rng.random() < 0.5 else float(rng.normal()))
        for i, j in keys
    }
    model = QuboModel(n=n, linear=(0.0,) * n, quadratic=quadratic)
    expected = [{"i": i, "j": j, "value": v} for (i, j), v in sorted(quadratic.items())]
    got = model_to_dict(model)["quadratic"]
    assert got == expected
    assert [type(e["value"]) for e in got] == [type(e["value"]) for e in expected]


@pytest.mark.parametrize("length, maximal", [(88, False), (120, True)])
@pytest.mark.parametrize("c_p", [0.0, 0.3, -0.7, 1])
def test_model_export_of_couplings_equals_that_of_their_dict(length, maximal, c_p):
    """Records and value types match for `build_qubo`'s arrays and the plain dict."""
    stems = enumerate_stems(_balanced_sequence(length, length), maximal_only=maximal)
    model = build_qubo(stems, QuboParams(c_p=c_p))
    plain = QuboModel(n=model.n, linear=model.linear, quadratic=dict(model.quadratic))
    assert type(plain.quadratic) is dict and plain == model
    got, want = model_to_dict(model)["quadratic"], model_to_dict(plain)["quadratic"]
    assert got == want and len(got) == len(model.quadratic)
    for g, w in zip(got, want):
        assert [type(g[k]) for k in ("i", "j", "value")] == [type(w[k]) for k in ("i", "j", "value")]
    assert {type(r["value"]) for r in got} == ({int} if c_p in (0.0, 1) else {int, float})


def _json_dumps_of(doc) -> str:
    """`json.dumps` text of a document with its coupling records as a list."""
    def plain(node):
        if isinstance(node, CouplingRecords):
            return list(node)
        if isinstance(node, dict):
            return {k: plain(v) for k, v in node.items()}
        if isinstance(node, list):
            return list(map(plain, node))
        return node

    return json.dumps(plain(doc), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("length, maximal", [(152, False), (120, True)])
@pytest.mark.parametrize("c_p", [0.0, 0.3, -0.7])
def test_model_document_text_equals_json_dumps_of_its_records(length, maximal, c_p):
    """At the long front end's scale the columns written at once give the
    bytes `json.dumps` gives the record list, nested as in the CLI."""
    stems = enumerate_stems(_balanced_sequence(length, length), maximal_only=maximal)
    model = build_qubo(stems, QuboParams(c_p=c_p))
    doc = {"results": [{"model": model_to_dict(model, stem_labels(stems))}]}
    records = doc["results"][0]["model"]["quadratic"]
    assert type(records) is CouplingRecords and records.exact
    assert len(records) == len(model.quadratic) > 1000
    assert io_.write_json(doc) == _json_dumps_of(doc)


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# QuboModel tests finiteness with np.isfinite, which takes ints of 64 bits
_int64s = st.integers(-(2**63), 2**63 - 1)
_coupling_values = {
    "ints": _int64s,
    "mixed": st.one_of(_int64s, _finite_floats),
    "float64": st.one_of(_int64s, _finite_floats, _finite_floats.map(np.float64)),
}


@st.composite
def _dict_models(draw):
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(i)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    values = _coupling_values[draw(st.sampled_from(sorted(_coupling_values)))]
    quadratic = {key: draw(values) for key in keys}
    return QuboModel(n=n, linear=(0.5,) * n, quadratic=quadratic)


@given(_dict_models())
@example(QuboModel(n=0, linear=()))
@example(QuboModel(n=3, linear=(0.5,) * 3, quadratic={(2, 0): np.float64(0.25), (1, 0): -3}))
@settings(max_examples=200, deadline=None)
def test_dict_model_document_text_equals_json_dumps_of_its_records(model):
    """Plain-dict couplings get the exact-type rule of every other table:
    exact ints and floats are written from the columns, and a column with an
    `np.float64` takes the path that writes value by value."""
    doc = model_to_dict(model)
    records = doc["quadratic"]
    expected = [{"i": i, "j": j, "value": v} for (i, j), v in sorted(model.quadratic.items())]
    assert type(records) is CouplingRecords and not records.exact
    assert records == expected and list(records) == expected
    assert records[1:3] == expected[1:3] and records[-1:] == expected[-1:]
    if expected:
        assert records[0] == expected[0]
    general = any(type(v) is np.float64 for v in model.quadratic.values())
    assert (io_._coupling_records_text(records, "\n") is None) == general
    assert io_.write_json(doc) == _json_dumps_of(doc)
