"""Command-line surface.

Subcommands: stems, qubo, solve, score, sweep, warmup.  All emit JSON (to
stdout or --out) with an embedded run manifest.  Exit codes: 0 success,
1 input error, 2 resource-guard violation, 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .errors import InputError, ResourceLimitError
from .evaluation import noisy_replay, score, sweep_levels, sweep_noise
from .instances import load_benchmark
from .qaoa import gate_count_report, solve, warmup_parameters
from .qubo import brute_force_solve, build_qubo, check_dense, model_to_dict, stem_labels
from .rna import enumerate_stems, partition_domains
from .simulator import NoiseSpec
from . import io as io_


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; route them to InputError."""

    def error(self, message):
        raise InputError(message)


def _add_common(p: _Parser):
    p.add_argument("--config", help="JSON config file (or set $RNAQAOA_CONFIG)")
    p.add_argument("--out", help="write the JSON document here instead of stdout")


def _add_stem_flags(p: _Parser):
    p.add_argument("--min-stem", type=int, help="minimum stem length in base pairs")
    p.add_argument("--min-loop", type=int, help="minimum unpaired bases between partners")
    p.add_argument(
        "--maximal", action="store_true",
        help="keep only stems that cannot be extended (reduces qubit count)",
    )


def _add_objective_flags(p: _Parser):
    p.add_argument("--epsilon", type=float, help="averaged-free-bases penalty scale")
    p.add_argument("--cp", type=float, help="pseudoknot weight in [-1, 1]")


def _checked(build, *args, **kwargs):
    """Call `build`, reporting a ValueError as bad user input."""
    try:
        return build(*args, **kwargs)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolved(args) -> io_.AppConfig:
    return _checked(_resolve_config, args)


def _resolve_config(args) -> io_.AppConfig:
    cfg = io_.load_config(getattr(args, "config", None))
    stems_kw = {}
    if getattr(args, "min_stem", None) is not None:
        stems_kw["min_len"] = args.min_stem
    if getattr(args, "min_loop", None) is not None:
        stems_kw["min_loop"] = args.min_loop
    if getattr(args, "maximal", False):
        stems_kw["maximal_only"] = True
    if stems_kw:
        cfg = replace(cfg, stems=replace(cfg.stems, **stems_kw))
    qubo_kw = {}
    if getattr(args, "epsilon", None) is not None:
        qubo_kw["epsilon"] = args.epsilon
    if getattr(args, "cp", None) is not None:
        qubo_kw["c_p"] = args.cp
    if qubo_kw:
        cfg = replace(cfg, qubo=replace(cfg.qubo, **qubo_kw))
    qaoa_kw = {}
    for flag, field_ in (("pmax", "p_max"), ("shots", "shots"), ("seed", "seed")):
        if getattr(args, flag, None) is not None:
            qaoa_kw[field_] = getattr(args, flag)
    if qaoa_kw:
        cfg = replace(cfg, qaoa=replace(cfg.qaoa, **qaoa_kw))
    return cfg


def _enumerate(seq, cfg: io_.AppConfig):
    return enumerate_stems(
        seq,
        min_len=cfg.stems.min_len,
        maximal_only=cfg.stems.maximal_only,
        min_loop=cfg.stems.min_loop,
    )


def _emit(doc: dict, args) -> int:
    text = io_.write_json(doc, getattr(args, "out", None))
    if getattr(args, "out", None) is None:
        sys.stdout.write(text)
    return 0


def _parse_readout(raw: str | None) -> tuple[float, float]:
    if raw is None:
        return (0.0, 0.0)
    try:
        p10, p01 = (float(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(f"--readout expects 'p10,p01', got {raw!r}") from exc
    return (p10, p01)


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in raw.split(",") if x]
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated numbers, got {raw!r}") from exc
    if not values:
        raise InputError(f"{flag} needs at least one value")
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_stems(args) -> int:
    cfg = _resolved(args)
    results = []
    for seq in io_.parse_fasta(args.input):
        stems = _enumerate(seq, cfg)
        results.append(io_.stems_report_dict(stems, partition_domains(stems)))
    manifest = io_.make_manifest([args.input], cfg, cfg.qaoa.seed)
    return _emit({"results": results, "manifest": manifest.to_dict()}, args)


def cmd_qubo(args) -> int:
    cfg = _resolved(args)
    results = []
    for seq in io_.parse_fasta(args.input):
        stems = _enumerate(seq, cfg)
        model = build_qubo(stems, cfg.qubo)
        results.append(
            {
                "sequence": {"id": seq.id, "bases": seq.bases},
                "model": model_to_dict(model, stem_labels(stems)),
            }
        )
    manifest = io_.make_manifest([args.input], cfg, cfg.qaoa.seed)
    return _emit({"results": results, "manifest": manifest.to_dict()}, args)


def _noisy_section(cfg, result, noise):
    [(samples, ground, infeasible)] = noisy_replay(
        result.problem, result.levels[-1].schedule, [(noise, cfg.qaoa.seed)], cfg.qaoa.shots
    )
    return {
        "two_qubit_error": noise.two_qubit_error,
        "readout_flip": list(noise.readout_flip),
        "reused_level": result.levels[-1].level,
        "samples": io_.sampleset_to_dict(samples),
        "ground_state_frequency": ground,
        "infeasible_frequency": infeasible,
    }


def cmd_solve(args) -> int:
    cfg = _resolved(args)
    method = args.method
    noise = _checked(NoiseSpec, args.noise_p2, _parse_readout(args.readout))
    results = []
    for seq in io_.parse_fasta(args.input):
        stems = _enumerate(seq, cfg)
        manifest = io_.make_manifest([args.input], cfg, cfg.qaoa.seed)
        if method == "brute":
            check_dense(len(stems))
            bitstrings, value = brute_force_solve(build_qubo(stems, cfg.qubo))
            results.append(io_.brute_result_dict(stems, bitstrings, value, manifest))
            continue
        mixer = "x" if method == "qaoa-x" else "parity_xy"
        qcfg = replace(cfg.qaoa, mixer=mixer)
        cfg_run = replace(cfg, qaoa=qcfg)
        result = solve(stems, cfg_run.qubo, qcfg, warmup=cfg_run.warmup.get(mixer))
        doc = io_.solve_result_dict(result, stems, manifest, method)
        if len(stems) and (noise.two_qubit_error > 0.0 or any(noise.readout_flip)):
            doc["noisy"] = _noisy_section(cfg_run, result, noise)
        doc["gate_counts"] = _gate_count_dict(
            gate_count_report(stems, cfg.qubo, mixer, result.terminating_level)
        )
        results.append(doc)
    return _emit({"results": results}, args)


def _gate_count_dict(report) -> dict:
    return {
        "mixer": report.mixer,
        "levels": report.levels,
        "n_qubits": report.n_qubits,
        "cost_two_qubit_per_level": report.cost_two_qubit_per_level,
        "mixer_two_qubit_per_level": report.mixer_two_qubit_per_level,
        "state_prep_two_qubit": report.state_prep_two_qubit,
        "total_two_qubit": report.total_two_qubit,
        "domains": [
            {
                "size": d.size,
                "cost_two_qubit": d.cost_two_qubit,
                "mixer_two_qubit": d.mixer_two_qubit,
                "state_prep_two_qubit": d.state_prep_two_qubit,
            }
            for d in report.domains
        ],
    }


def _read_annotation(path) -> str:
    from pathlib import Path

    lines = [l.strip() for l in Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise InputError(f"{path}: empty annotation file")
    return lines[-1]  # .dbn convention: header / sequence / structure


def cmd_score(args) -> int:
    cfg = _resolved(args)
    seqs = io_.parse_fasta(args.seq)
    if len(seqs) != 1:
        raise InputError("score expects a single-record FASTA via --seq")
    seq = seqs[0]
    reference = io_.parse_dotbracket(_read_annotation(args.reference), seq)
    prediction = io_.parse_dotbracket(_read_annotation(args.prediction), seq)
    report = score(sorted(prediction.pairs), reference, seq)
    manifest = io_.make_manifest([args.seq, args.prediction, args.reference], cfg, cfg.qaoa.seed)
    return _emit(io_.score_result_dict(report, seq, manifest), args)


def cmd_sweep(args) -> int:
    cfg = _resolved(args)
    if args.instances:
        instances = [_enumerate(s, cfg) for s in io_.parse_fasta(args.instances)]
        inputs = [args.instances]
    else:
        instances = load_benchmark("small" if args.mode == "noise" else "suite")
        inputs = ["<packaged benchmark>"]
    mixers = tuple(args.mixers.split(","))
    for mixer in mixers:
        _checked(replace, cfg.qaoa, mixer=mixer)
    if args.mode == "levels":
        levels = _parse_float_list(args.pmax_list, "--pmax-list")
        if not all(x.is_integer() for x in levels):
            raise InputError(f"--pmax-list expects whole levels, got {args.pmax_list!r}")
        p_values = [int(x) for x in levels]
        for cap in p_values:
            _checked(replace, cfg.qaoa, p_max=cap)
        result = sweep_levels(
            instances, cfg.qubo, cfg.qaoa, p_values, mixers=mixers, warmup=cfg.warmup
        )
    else:
        p2_values = _parse_float_list(args.p2_list, "--p2-list")
        readout = _parse_readout(args.readout)
        for p2 in p2_values:
            _checked(NoiseSpec, p2, readout)
        _checked(replace, cfg.qaoa, p_start=args.level, p_max=args.level)
        result = sweep_noise(
            instances, cfg.qubo, cfg.qaoa, p2_values,
            level=args.level, readout=readout,
            shots=args.shots, mixers=mixers, warmup=cfg.warmup,
        )
    if args.out_csv:
        io_.write_csv(result.rows, args.out_csv)
    manifest = io_.make_manifest(inputs, cfg, cfg.qaoa.seed)
    return _emit(io_.sweep_result_dict(result, manifest), args)


def cmd_warmup(args) -> int:
    cfg = _resolved(args)
    if args.count < 1:
        raise InputError("--count must be >= 1")
    if args.grid_points < 1:
        raise InputError("--grid-points must be >= 1")
    if args.instances:
        instances = [_enumerate(s, cfg) for s in io_.parse_fasta(args.instances)]
    else:
        instances = load_benchmark("regular")
    # stem-free sequences have nothing to calibrate, as in the sweeps
    instances = [stems for stems in instances if len(stems)][: args.count]
    if not instances:
        raise InputError("no input sequence has stems to calibrate on")
    mixers = ("x", "parity_xy") if args.mixer == "both" else (args.mixer,)
    warmup = dict(cfg.warmup)
    for mixer in mixers:
        warmup[mixer] = warmup_parameters(
            instances, cfg.qubo, mixer, grid_points=args.grid_points,
            dropoff=cfg.qaoa.optimizer_dropoff,
        )
    updated = replace(cfg, warmup=warmup)
    io_.save_config(updated, args.out_config)
    sys.stdout.write(
        io_.write_json(
            {k: {"betas": list(v.betas), "gammas": list(v.gammas)} for k, v in warmup.items()}
        )
    )
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="rnaqaoa", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stems", help="enumerate stems and domains")
    p.add_argument("input", help="FASTA file")
    _add_stem_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_stems)

    p = sub.add_parser("qubo", help="emit the objective model as JSON")
    p.add_argument("input", help="FASTA file")
    _add_stem_flags(p)
    _add_objective_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_qubo)

    p = sub.add_parser("solve", help="predict structures")
    p.add_argument("input", help="FASTA file")
    p.add_argument("--method", choices=("brute", "qaoa-x", "qaoa-xy"), default="qaoa-x")
    _add_stem_flags(p)
    _add_objective_flags(p)
    p.add_argument("--pmax", type=int, help="maximum circuit level")
    p.add_argument("--shots", type=int, help="measurement shots per sample set")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--noise-p2", type=float, default=0.0,
                   help="two-qubit depolarizing rate for a noisy re-run at the final level")
    p.add_argument("--readout", help="readout flip rates 'p10,p01'")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("score", help="score a prediction against a reference")
    p.add_argument("--seq", required=True, help="single-record FASTA")
    p.add_argument("--prediction", required=True, help="dot-bracket file")
    p.add_argument("--reference", required=True, help="dot-bracket file")
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep", help="level or noise sweeps")
    p.add_argument("mode", choices=("levels", "noise"))
    p.add_argument("--instances", help="FASTA file (default: packaged benchmark)")
    p.add_argument("--mixers", default="x,parity_xy")
    p.add_argument("--pmax-list", default="2,3,4,5,6,7,8")
    p.add_argument("--p2-list", default="0.001,0.005,0.01,0.02")
    p.add_argument("--level", type=int, default=2, help="fixed level for noise sweeps")
    p.add_argument("--shots", type=int, help="trajectories per noisy cell")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--readout", help="readout flip rates 'p10,p01'")
    p.add_argument("--out-csv", help="also write rows as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("warmup", help="regenerate warm-start schedules")
    p.add_argument("--instances", help="FASTA file (default: the packaged regular set)")
    p.add_argument("--count", type=int, default=20, help="calibration instances to use")
    p.add_argument("--grid-points", type=int, default=16)
    p.add_argument("--mixer", choices=("x", "parity_xy", "both"), default="both")
    p.add_argument("--out-config", required=True, help="write the updated config JSON here")
    p.add_argument("--config")
    p.set_defaults(func=cmd_warmup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
