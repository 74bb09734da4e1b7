import hashlib
import json
import os
import time
from collections import OrderedDict
from importlib.resources import files

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rnaqaoa import io as io_
from rnaqaoa.cli import main
from rnaqaoa.errors import InputError
from rnaqaoa.instances import load_benchmark, load_sequences, random_sequence
from rnaqaoa.qaoa import ParameterSchedule
from rnaqaoa.rna import Sequence

PKB092 = "AAAGUCGCUGAAGACUUAAAAUUCAGG"


# ---------------------------------------------------------------------------
# FASTA


def test_parse_fasta_single_record(tmp_path):
    path = tmp_path / "one.fasta"
    path.write_text(">hairpin some description\nCUACGAUAG\n")
    seqs = io_.parse_fasta(path)
    assert len(seqs) == 1
    assert seqs[0].id == "hairpin" and len(seqs[0]) == 9


def test_parse_fasta_empty_file(tmp_path):
    path = tmp_path / "empty.fasta"
    path.write_text("")
    assert io_.parse_fasta(path) == []


def test_parse_fasta_multiline_and_t_normalization(tmp_path):
    path = tmp_path / "multi.fasta"
    path.write_text(">a\nACG\nT\n>b\nGGGG\n")
    seqs = io_.parse_fasta(path)
    assert seqs[0].bases == "ACGU"
    assert seqs[1].id == "b"


def test_parse_fasta_reports_bad_symbol_position(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text(">a\nACXG\n")
    with pytest.raises(InputError, match="position 3"):
        io_.parse_fasta(path)


def test_parse_fasta_rejects_headerless_data(tmp_path):
    path = tmp_path / "noheader.fasta"
    path.write_text("ACGU\n")
    with pytest.raises(InputError, match="before any"):
        io_.parse_fasta(path)


def test_fasta_roundtrip(tmp_path):
    seqs = [Sequence("CUACGAUAG", id="x"), Sequence(PKB092, id="PKB092")]
    path = tmp_path / "roundtrip.fasta"
    io_.write_fasta(seqs, path)
    assert io_.parse_fasta(path) == seqs


# ---------------------------------------------------------------------------
# dot-bracket


def test_parse_dotbracket_nested():
    seq = Sequence("CUACGAUAG")
    ref = io_.parse_dotbracket("(((...)))", seq)
    assert ref.pairs == frozenset({(1, 9), (2, 8), (3, 7)})


def test_parse_dotbracket_pseudoknot_layers():
    seq = Sequence("CCAAUUAAGGAAUU")
    ref = io_.parse_dotbracket("((..[[..))..]]", seq)
    assert ref.pairs == frozenset({(2, 9), (1, 10), (6, 13), (5, 14)})


def test_parse_dotbracket_all_dots():
    assert io_.parse_dotbracket("....", Sequence("ACGU")).pairs == frozenset()


def test_parse_dotbracket_unbalanced():
    with pytest.raises(InputError, match="unbalanced"):
        io_.parse_dotbracket("(((..)", Sequence("ACGUAC"))
    with pytest.raises(InputError, match="unbalanced"):
        io_.parse_dotbracket("..)...", Sequence("ACGUAC"))


def test_dotbracket_type_validates_balance():
    with pytest.raises(InputError):
        io_.DotBracket("((..")
    assert io_.DotBracket("(.[.).]").pairs() == frozenset({(1, 5), (3, 7)})


def test_parse_dotbracket_length_mismatch():
    with pytest.raises(InputError, match="length"):
        io_.parse_dotbracket("...", Sequence("ACGU"))


def _random_matching(draw_positions):
    # pair up an even number of positions, each base used once
    it = iter(draw_positions)
    pairs = []
    for a, b in zip(it, it):
        i, j = sorted((a, b))
        if i != j:
            pairs.append((i, j))
    return pairs


@given(st.permutations(list(range(1, 17))), st.integers(0, 7))
@settings(max_examples=60)
def test_dotbracket_roundtrip(perm, n_pairs):
    pairs = _random_matching(perm[: 2 * n_pairs])
    seen = set()
    clean = []
    for i, j in pairs:
        if i in seen or j in seen:
            continue
        seen.update((i, j))
        clean.append((i, j))
    try:
        text = io_.pairs_to_dotbracket(clean, 16)
    except InputError:
        assume(False)  # needs more than four crossing layers
    ref = io_.parse_dotbracket(text, Sequence("A" * 16))
    assert ref.pairs == frozenset(clean)


def test_pairs_to_dotbracket_layer_overflow():
    # five mutually crossing pairs need five layers
    pairs = [(i, i + 10) for i in range(1, 6)]
    crossing = [(1, 11), (2, 12), (3, 13), (4, 14), (5, 15)]
    with pytest.raises(InputError, match="four crossing layers"):
        io_.pairs_to_dotbracket(crossing, 15)


# ---------------------------------------------------------------------------
# config


def test_load_default_config():
    cfg = io_.load_config()
    assert cfg.qubo.epsilon == 6.0
    assert cfg.qaoa.p_max == 8
    assert set(cfg.warmup) == {"x", "parity_xy"}


def test_load_config_env_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    base = io_.load_config().snapshot()
    base["qubo"]["epsilon"] = 3.5
    path.write_text(json.dumps(base))
    monkeypatch.setenv(io_.CONFIG_ENV_VAR, str(path))
    assert io_.load_config().qubo.epsilon == 3.5


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InputError):
        io_.load_config(path)


def test_benchmark_fasta_ships_reference_sequence():
    seqs = {s.id: s for s in load_sequences()}
    assert seqs["PKB092"].bases == PKB092
    assert sum(1 for sid in seqs if sid.startswith("bench")) == 20
    assert sum(1 for sid in seqs if sid.startswith("small")) == 5


# ---------------------------------------------------------------------------
# CLI


def _write_hairpin(tmp_path):
    path = tmp_path / "hairpin.fasta"
    path.write_text(">hairpin\nCUACGAUAG\n")
    return path


def _load_json(path):
    return json.loads(path.read_text())


def _validate(doc, schema_name):
    jsonschema.validate(doc, io_.load_schema(schema_name))


def test_cli_stems_pkb092(tmp_path):
    fasta = tmp_path / "pkb092.fasta"
    fasta.write_text(f">PKB092\n{PKB092}\n")
    out = tmp_path / "stems.json"
    assert main(["stems", str(fasta), "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "stems_result")
    assert doc["results"][0]["n_stems"] == 18
    assert [d["members"] for d in doc["results"][0]["domains"]] == [
        list(range(8)), list(range(8, 16)), [16, 17]
    ]


def test_cli_qubo_document(tmp_path):
    out = tmp_path / "model.json"
    assert main(["qubo", str(_write_hairpin(tmp_path)), "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "qubo_result")
    model = doc["results"][0]["model"]
    assert model["n"] == 1 and model["linear"] == [5.25]


def test_cli_solve_brute(tmp_path):
    out = tmp_path / "brute.json"
    assert main(["solve", str(_write_hairpin(tmp_path)), "--method", "brute",
                 "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "solve_result")
    result = doc["results"][0]
    assert result["structures"][0]["pairs"] == [[1, 9], [2, 8], [3, 7]]
    assert result["structures"][0]["dot_bracket"] == "(((...)))"
    assert result["best_objective"] == 5.25


def test_cli_solve_qaoa_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv(io_.TIMESTAMP_ENV_VAR, "2026-01-01T00:00:00+00:00")
    fasta = _write_hairpin(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["solve", str(fasta), "--method", "qaoa-x", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = _load_json(out1)
    _validate(doc, "solve_result")
    assert doc["results"][0]["structures"][0]["pairs"] == [[1, 9], [2, 8], [3, 7]]


def test_cli_solve_qaoa_xy_with_noise_section(tmp_path):
    out = tmp_path / "noisy.json"
    assert main(["solve", str(_write_hairpin(tmp_path)), "--method", "qaoa-xy",
                 "--noise-p2", "0.01", "--readout", "0.01,0.02",
                 "--seed", "3", "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "solve_result")
    noisy = doc["results"][0]["noisy"]
    assert noisy["two_qubit_error"] == 0.01
    assert 0.0 <= noisy["ground_state_frequency"] <= 1.0


def test_cli_noisy_block_matches_per_state_oracle(tmp_path):
    from rnaqaoa.instances import load_benchmark
    from rnaqaoa.qubo import DEGENERACY_ATOL, QuboParams, build_qubo
    from rnaqaoa.rna import partition_domains

    stems = load_benchmark("small")[0]
    assert len(stems) > 1
    fasta = tmp_path / "small.fasta"
    io_.write_fasta([stems.sequence], fasta)
    out = tmp_path / "noisy.json"
    assert main(["solve", str(fasta), "--maximal", "--method", "qaoa-xy",
                 "--noise-p2", "0.02", "--readout", "0.01,0.02",
                 "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "solve_result")
    noisy = doc["results"][0]["noisy"]
    qubo = build_qubo(stems, QuboParams())
    n = len(stems)
    optimum = max(qubo.evaluate(format(i, f"0{n}b")) for i in range(2**n))
    rings = [dom.ring() for dom in partition_domains(stems)]
    ground = infeasible = 0
    for entry in noisy["samples"]["counts"]:
        bits, count = entry["bitstring"], entry["count"]
        ground += count * (qubo.evaluate(bits[:n]) >= optimum - DEGENERACY_ATOL)
        infeasible += count * any(sum(int(bits[q]) for q in ring) != 1 for ring in rings)
    shots = noisy["samples"]["shots"]
    assert noisy["ground_state_frequency"] == ground / shots
    assert noisy["infeasible_frequency"] == infeasible / shots
    assert infeasible > 0


@pytest.mark.parametrize("argv", [
    ["solve", "{fasta}", "--noise-p2", "-0.1"],
    ["solve", "{fasta}", "--noise-p2", "nan"],
    ["solve", "{fasta}", "--noise-p2", "1.5"],
    ["solve", "{fasta}", "--readout", "2,0"],
    ["sweep", "noise", "--instances", "{fasta}", "--p2-list", "-0.5"],
    ["sweep", "noise", "--instances", "{fasta}", "--level", "0"],
    ["sweep", "noise", "--instances", "{fasta}", "--mixers", "bogus"],
    ["sweep", "noise", "--instances", "{fasta}", "--p2-list", ""],
    ["sweep", "levels", "--instances", "{fasta}", "--mixers", "bogus"],
    ["sweep", "levels", "--instances", "{fasta}", "--pmax-list", "0"],
    ["sweep", "levels", "--instances", "{fasta}", "--pmax-list", "1,3"],
    ["sweep", "levels", "--instances", "{fasta}", "--pmax-list", ""],
    ["sweep", "levels", "--instances", "{fasta}", "--pmax-list", "2.7"],
])
def test_cli_bad_noise_flags_fail_before_solving(tmp_path, monkeypatch, argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before the flags were checked")

    monkeypatch.setattr("rnaqaoa.cli.solve", no_solve)
    monkeypatch.setattr("rnaqaoa.evaluation.solve", no_solve)
    fasta = str(_write_hairpin(tmp_path))
    assert main([a.format(fasta=fasta) for a in argv]) == 1


@pytest.mark.parametrize("argv", [
    ["stems", "{fasta}", "--min-stem", "0"],
    ["qubo", "{fasta}", "--min-stem", "0"],
    ["solve", "{fasta}", "--min-stem", "0"],
    ["stems", "{fasta}", "--min-loop", "-2"],
    ["qubo", "{fasta}", "--min-loop", "-2"],
    ["solve", "{fasta}", "--min-loop", "-2"],
    ["stems", "{fasta}", "--config", "{bad_config}"],
    ["solve", "{fasta}", "--seed", "-1"],
    ["sweep", "levels", "--instances", "{fasta}", "--seed", "-1"],
    ["warmup", "--instances", "{fasta}", "--grid-points", "0", "--out-config", "{out}"],
    ["warmup", "--instances", "{fasta}", "--count", "0", "--out-config", "{out}"],
    ["warmup", "--instances", "{fasta}", "--count", "-1", "--out-config", "{out}"],
])
def test_cli_bad_stem_seed_and_warmup_flags_fail_before_any_work(tmp_path, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the flags were checked")

    for target in ("rnaqaoa.cli.enumerate_stems", "rnaqaoa.cli.solve",
                   "rnaqaoa.evaluation.solve", "rnaqaoa.cli.warmup_parameters"):
        monkeypatch.setattr(target, no_work)
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"stems": {"min_len": 0}}))
    out = tmp_path / "warm.json"
    fasta = str(_write_hairpin(tmp_path))
    assert main([a.format(fasta=fasta, bad_config=bad_config, out=out) for a in argv]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["qubo", "{fasta}", "--epsilon", "nan"],
    ["qubo", "{fasta}", "--cp", "nan"],
])
def test_cli_nan_objective_flags_exit_1(tmp_path, argv):
    fasta = str(_write_hairpin(tmp_path))
    assert main([a.format(fasta=fasta) for a in argv]) == 1


def _count_oracle_calls(monkeypatch) -> list:
    import rnaqaoa.qaoa as qaoa_mod

    calls = []
    oracle = qaoa_mod.brute_force_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(qaoa_mod, "brute_force_solve", counted)
    return calls


def test_cli_noisy_solve_runs_the_oracle_once(tmp_path, monkeypatch):
    from rnaqaoa.instances import load_benchmark

    stems = load_benchmark("small")[0]
    assert stems.sequence.id == "small_000"
    fasta = tmp_path / "small.fasta"
    io_.write_fasta([stems.sequence], fasta)
    calls = _count_oracle_calls(monkeypatch)
    assert main(["solve", str(fasta), "--method", "qaoa-xy", "--noise-p2", "0.01",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_sweep_noise_runs_the_oracle_once_per_instance_and_mixer(monkeypatch):
    from rnaqaoa.evaluation import sweep_noise
    from rnaqaoa.instances import load_benchmark
    from rnaqaoa.qaoa import QaoaConfig
    from rnaqaoa.qubo import QuboParams

    calls = _count_oracle_calls(monkeypatch)
    result = sweep_noise(load_benchmark("small")[:2], QuboParams(), QaoaConfig(), [0.01],
                         shots=20, mixers=("x", "parity_xy"))
    assert len(result.rows) == 4
    assert len(calls) == 4


@pytest.mark.parametrize("argv", [
    ["solve", "{fasta}", "--method", "qaoa-x", "--noise-p2", "0.01"],
    ["solve", "{fasta}", "--method", "qaoa-xy", "--noise-p2", "0.01"],
    ["sweep", "noise", "--instances", "{fasta}", "--shots", "50"],
    ["sweep", "levels", "--instances", "{fasta}", "--pmax-list", "2,3"],
])
def test_cli_stem_free_input(tmp_path, argv):
    fasta = tmp_path / "bare.fasta"
    fasta.write_text(">bare\nAAAAAAAAAA\n")
    out = tmp_path / "out.json"
    assert main([a.format(fasta=fasta) for a in argv] + ["--out", str(out)]) == 0
    doc = _load_json(out)
    if argv[0] == "solve":
        _validate(doc, "solve_result")
        assert "noisy" not in doc["results"][0]
    else:
        _validate(doc, "sweep_result")
        assert doc["rows"] == []


def test_cli_score(tmp_path):
    fasta = _write_hairpin(tmp_path)
    pred = tmp_path / "pred.dbn"
    pred.write_text(">hairpin\nCUACGAUAG\n(((...)))\n")
    ref = tmp_path / "ref.dbn"
    ref.write_text("(((...)))\n")
    out = tmp_path / "score.json"
    assert main(["score", "--seq", str(fasta), "--prediction", str(pred),
                 "--reference", str(ref), "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "score_result")
    assert doc["score"]["sensitivity"] == 1.0
    assert doc["score"]["specificity"] == 1.0


def test_cli_sweep_levels(tmp_path):
    fasta = _write_hairpin(tmp_path)
    out = tmp_path / "sweep.json"
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "levels", "--instances", str(fasta),
                 "--pmax-list", "2,3", "--mixers", "x",
                 "--out", str(out), "--out-csv", str(csv_path)]) == 0
    doc = _load_json(out)
    _validate(doc, "sweep_result")
    assert len(doc["rows"]) == 2
    header = csv_path.read_text().splitlines()[0]
    assert "ground_state_frequency" in header


def test_cli_sweep_noise(tmp_path):
    fasta = _write_hairpin(tmp_path)
    out = tmp_path / "noise.json"
    assert main(["sweep", "noise", "--instances", str(fasta),
                 "--p2-list", "0.0,0.02", "--mixers", "parity_xy",
                 "--shots", "200", "--out", str(out)]) == 0
    doc = _load_json(out)
    _validate(doc, "sweep_result")
    assert {row["p2"] for row in doc["rows"]} == {0.0, 0.02}


def test_cli_warmup_writes_config(tmp_path):
    fasta = _write_hairpin(tmp_path)
    out_cfg = tmp_path / "warm.json"
    assert main(["warmup", "--instances", str(fasta), "--mixer", "x",
                 "--grid-points", "3", "--out-config", str(out_cfg)]) == 0
    doc = _load_json(out_cfg)
    assert "x" in doc["warmup"] and len(doc["warmup"]["x"]["betas"]) == 2
    # emitted config round-trips through the loader
    cfg = io_.load_config(out_cfg)
    assert cfg.warmup["x"].p == 2


def test_cli_warmup_skips_stem_free_sequences(tmp_path, monkeypatch):
    from rnaqaoa import cli

    fasta = tmp_path / "mixed.fasta"
    fasta.write_text(">bare\nAAAAAAAAAA\n>hairpin\nCUACGAUAG\n")
    calibrate = cli.warmup_parameters
    seen = []

    def recording(instances, *args, **kwargs):
        seen.append([stems.sequence.id for stems in instances])
        return calibrate(instances, *args, **kwargs)

    monkeypatch.setattr(cli, "warmup_parameters", recording)
    out_cfg = tmp_path / "warm.json"
    assert main(["warmup", "--instances", str(fasta), "--mixer", "x",
                 "--grid-points", "2", "--out-config", str(out_cfg)]) == 0
    assert seen == [["hairpin"]]
    assert io_.load_config(out_cfg).warmup["x"].p == 2


def test_cli_warmup_calibrates_on_the_shipped_instances_by_default(tmp_path, monkeypatch):
    from rnaqaoa import cli

    seen = []

    def recording(instances, *args, grid_points, **kwargs):
        seen.append(([stems.sequence.id for stems in instances], grid_points))
        return ParameterSchedule((0.0, 0.0), (0.0, 0.0))

    monkeypatch.setattr(cli, "warmup_parameters", recording)
    assert main(["warmup", "--mixer", "x", "--out-config", str(tmp_path / "warm.json")]) == 0
    # the set scripts/regenerate_warmup.py calibrates the shipped schedules on
    assert seen == [([stems.sequence.id for stems in load_benchmark("regular")[:20]], 16)]


def test_cli_warmup_without_any_stems_is_an_input_error(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("calibration ran without instances")

    monkeypatch.setattr("rnaqaoa.cli.warmup_parameters", no_work)
    fasta = tmp_path / "bare.fasta"
    fasta.write_text(">bare\nAAAAAAAAAA\n>short\nGC\n")
    out_cfg = tmp_path / "warm.json"
    assert main(["warmup", "--instances", str(fasta), "--mixer", "x",
                 "--grid-points", "2", "--out-config", str(out_cfg)]) == 1
    assert "stems" in capsys.readouterr().err
    assert not out_cfg.exists()


def test_cli_exit_code_input_error(tmp_path):
    bad = tmp_path / "bad.fasta"
    bad.write_text(">a\nACXG\n")
    assert main(["stems", str(bad)]) == 1


def test_cli_rejects_a_config_without_a_usable_fd_step(tmp_path, monkeypatch):
    config = io_.load_config().snapshot()
    config["qaoa"]["fd_step"] = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    solved = []
    monkeypatch.setattr("rnaqaoa.cli.solve", lambda *a, **k: solved.append(a))
    out = tmp_path / "out.json"
    argv = ["solve", str(_write_hairpin(tmp_path)), "--method", "qaoa-x",
            "--config", str(path), "--out", str(out)]
    assert main(argv) == 1
    assert not solved and not out.exists()


def test_cli_exit_code_bad_flag():
    assert main(["solve", "--method", "nonsense", "x.fasta"]) == 1


def test_cli_exit_code_resource_guard(tmp_path):
    import numpy as np

    from rnaqaoa.instances import random_sequence

    seq = random_sequence(np.random.default_rng(1), 70, id="huge")
    fasta = tmp_path / "huge.fasta"
    fasta.write_text(f">huge\n{seq.bases}\n")
    assert main(["solve", str(fasta), "--method", "brute"]) == 2


@pytest.mark.parametrize("method", ["qaoa-x", "qaoa-xy", "brute"])
def test_cli_solve_refuses_too_many_qubits_before_building_the_model(tmp_path, monkeypatch, capsys, method):
    def no_build(*args, **kwargs):
        raise AssertionError("the model was built before the qubit guard")

    monkeypatch.setattr("rnaqaoa.cli.build_qubo", no_build)
    monkeypatch.setattr("rnaqaoa.qaoa.build_qubo", no_build)
    fasta = tmp_path / "long.fasta"
    fasta.write_text(f">long\n{random_sequence(np.random.default_rng(1), 70).bases}\n")
    assert main(["solve", str(fasta), "--method", method]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ")
    assert "exceed the dense limit of 24" in err or "exceed the exhaustive/dense limit of 24" in err


@pytest.mark.parametrize("argv, message", [
    (["qubo"], "use --maximal or a larger --min-stem"),
    (["solve", "--method", "brute"], "exceed the exhaustive/dense limit"),
])
def test_cli_refuses_800nt_all_runs_within_seconds(tmp_path, capsys, argv, message):
    fasta = tmp_path / "long.fasta"
    fasta.write_text(f">long\n{random_sequence(np.random.default_rng(0), 800).bases}\n")
    start = time.perf_counter()
    assert main([argv[0], str(fasta), *argv[1:]]) == 2
    assert time.perf_counter() - start < 10.0
    assert message in capsys.readouterr().err


def test_cli_stems_finishes_1600nt_all_runs_within_seconds(tmp_path, capsys):
    fasta = tmp_path / "long.fasta"
    fasta.write_text(f">long\n{random_sequence(np.random.default_rng(0), 1600).bases}\n")
    start = time.perf_counter()
    assert main(["stems", str(fasta)]) == 0
    assert time.perf_counter() - start < 10.0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["n_stems"] == len(doc["results"][0]["stems"]) > 100_000


#: sha256 of the stems and qubo documents on the packaged benchmark FASTA
#: (written as benchmark.fasta in the working directory, timestamp pinned),
#: computed with the per-pair build_qubo and json.dumps writer they replace.
GOLDEN_DIGESTS = {
    ("stems",): "196512ac488627fb8611e93cdff2d8af1034646b74089aab9e874b08816c5400",
    ("stems", "--maximal"): "52c17e6bad21f02b2c92413e815eb034dc502fe5994304c66c91c6b53aef9258",
    ("qubo",): "ea8b6597117fa84a56d9c2fca9259ec64aa6ca9dbb1fce289d1ef2afed521de0",
    ("qubo", "--maximal"): "e2861f823b489925527407c9d2c93f7bccdf294f7783af361f085b62ceccb53c",
    ("qubo", "cp=0.3"): "8ee31133c3f671b8ae71aff03d55e8bd88ac3424405ea3c718fe96757b1b58c4",
    ("qubo", "--maximal", "cp=0.3"): "3f36f683645ed6b3ad37627742744f7b6b0f544b93076ff217cafa1dd923d93a",
    ("qubo", "cp=-0.7"): "df5673c56b7fc3ca4592eeece52e76136d3eb04130c88ca6fe8353feeb006a9b",
    ("qubo", "--maximal", "cp=-0.7"): "850a756decde73ac7dfcd19f08d9349cd86e2dc9952cb46b48c937f4676c00c2",
}


def _cli_document_digest(tmp_path, monkeypatch, argv) -> str:
    """sha256 of the document `argv` writes for the packaged benchmark FASTA."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(io_.CONFIG_ENV_VAR, raising=False)
    monkeypatch.setenv(io_.TIMESTAMP_ENV_VAR, "2026-01-01T00:00:00+00:00")
    (tmp_path / "benchmark.fasta").write_text(
        files("rnaqaoa").joinpath("data/benchmark.fasta").read_text()
    )
    flags = []
    for arg in argv[1:]:
        if arg.startswith("cp="):
            (tmp_path / "cp.json").write_text(json.dumps({"qubo": {"c_p": float(arg[3:])}}))
            flags += ["--config", "cp.json"]
        else:
            flags.append(arg)
    assert main([argv[0], "benchmark.fasta", *flags, "--out", "doc.json"]) == 0
    return hashlib.sha256((tmp_path / "doc.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_stems_and_qubo_documents_match_golden_digests(tmp_path, monkeypatch, argv):
    assert _cli_document_digest(tmp_path, monkeypatch, argv) == GOLDEN_DIGESTS[argv]


def test_qubo_couplings_are_written_without_per_row_dicts(tmp_path, monkeypatch):
    """`build_qubo`'s couplings reach the text from their columns: the
    records writer that reads rows back into columns never sees one."""
    from rnaqaoa.qubo import QuboParams, build_qubo, model_to_dict
    from rnaqaoa.rna import enumerate_stems

    records_text = io_._records_text

    def refuse_couplings(rows, indent):
        if type(rows[0]) is dict and rows[0].keys() == {"i", "j", "value"}:
            raise AssertionError("couplings went through per-row dicts")
        return records_text(rows, indent)

    monkeypatch.setattr(io_, "_records_text", refuse_couplings)
    for argv in [("qubo",), ("qubo", "--maximal", "cp=0.3")]:
        assert _cli_document_digest(tmp_path, monkeypatch, argv) == GOLDEN_DIGESTS[argv]
    model = build_qubo(enumerate_stems(Sequence(PKB092)), QuboParams(c_p=-0.7))
    doc = model_to_dict(model)
    assert len(doc["quadratic"]) == len(model.quadratic) > 0
    plain = {**doc, "quadratic": list(doc["quadratic"])}
    assert io_.write_json(doc) == json.dumps(plain, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# JSON writer


def _json_or_error(call):
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_as_json_dumps(obj):
    want = _json_or_error(lambda: json.dumps(obj, indent=2, sort_keys=True) + "\n")
    assert _json_or_error(lambda: io_.write_json(obj)) == want


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0]),
)


@st.composite
def _records(draw, values):
    """Lists of dicts with one key set, the shape of most document tables."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(min_value=1, max_value=4))
    return [{k: draw(values) for k in keys} for _ in range(rows)]


_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        _records(children),
        _records(_scalars),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
                        children, max_size=3),
    ),
    max_leaves=24,
)


@given(_json_values)
@example({"é\n\"\\\x01\u2028": [[], {}, (), (1, -0.0)], "": None})
@example([{"%s": 1, "a%": float("nan")}, {"%s": -0.0, "a%": "%d"}])
@example([float("inf"), -float("inf"), float("nan"), 1, 2.5, True, None, "x"])
@example({"a": [{"k": 1}, {"k": [1]}], "b": [{"k": 1}, {"j": 1}], "c": ({"k": 1},)})
@example([[1, 2], [3, 4]])
@example({1: "a", 2.5: "b"})
@example({True: 1, None: 2})
@example({"a": 1, 2: 3})
@example([{"a": 1, "b": 2.5}, {"b": None, "a": "x"}])  # one key set, another order
@example([{"a": 1}, OrderedDict(a=2)])
@example([OrderedDict(a=2), {"a": 1}])
@settings(max_examples=300)
def test_write_json_matches_json_dumps(obj):
    _assert_same_as_json_dumps(obj)


@pytest.mark.parametrize("obj", [
    object(),
    [1, {1j}],
    {"a": [{"k": 1}, {"k": np.int64(2)}]},
    [{"k": 1}, {"k": b"x"}],
    {"rows": [1.0, np.float64(2.0), np.bool_(True)]},
    {(1, 2): 3},
    [{"k": 1}, {"k": 2, (1,): 3}],
    {"a": 1, "b": set()},
])
def test_write_json_raises_as_json_dumps_on_unsupported_types(obj):
    with pytest.raises(TypeError):
        io_.write_json(obj)
    _assert_same_as_json_dumps(obj)


def _records_accepted_by_the_row_loop(rows):
    """`_records_text`'s row checks as they were written with a generator per row."""
    first = rows[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return False
    keys = first.keys()
    return all(type(row) is dict and row.keys() == keys for row in rows)


@pytest.mark.parametrize("rows", [
    [{"a": 1}],
    [{"a": 1}, {"a": 2.5}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
    [{"a": 1}, {"b": 2}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{}],
    [{"a": 1}, {}],
    [{1: 2}],
    [{"a": 1, 1: 2}],
    [{"a": 1}, {"a": 1, 1: 2}],
    [OrderedDict(a=1)],
    [{"a": 1}, OrderedDict(a=1)],
    [{"a": 1}, [1]],
    [{"a": 1}, None],
    [{"a": 1}, "a"],
])
def test_records_text_accepts_and_rejects_as_the_row_loop(rows):
    assert (io_._records_text(rows, "\n") is not None) == _records_accepted_by_the_row_loop(rows)
    _assert_same_as_json_dumps(rows)


def test_write_json_detects_circular_references_and_allows_shared_ones():
    loop = [1]
    loop.append(loop)
    _assert_same_as_json_dumps({"a": loop})
    mapping = {}
    mapping["self"] = mapping
    _assert_same_as_json_dumps([mapping])
    shared = [{"k": 1}, [2]]
    _assert_same_as_json_dumps({"x": shared, "y": [shared, shared]})


def test_write_json_writes_the_file(tmp_path):
    doc = {"b": [1, 2.5], "a": {"x": None}}
    path = tmp_path / "doc.json"
    text = io_.write_json(doc, path)
    assert path.read_text() == text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_cli_bad_readout_flag(tmp_path):
    assert main(["solve", str(_write_hairpin(tmp_path)), "--readout", "oops"]) == 1


def test_circuit_trace_schema():
    from rnaqaoa.qaoa import ParameterSchedule, build_problem, circuit_for_schedule
    from rnaqaoa.qubo import QuboParams
    from rnaqaoa.rna import enumerate_stems
    from rnaqaoa.simulator import circuit_to_dicts

    stems = enumerate_stems(Sequence("CUACGAUAG"))
    problem = build_problem(stems, QuboParams(), "parity_xy")
    trace = circuit_to_dicts(circuit_for_schedule(problem, ParameterSchedule((0.1,), (0.2,))))
    _validate(trace, "circuit_trace")
