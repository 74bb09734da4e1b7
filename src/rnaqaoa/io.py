"""File formats, configuration and result serialization.

Supported interchange formats: FASTA for sequences and dot-bracket for
reference structures (bracket layers "()", "[]", "{}", "<>" encode crossing
orders, so pseudoknots round-trip up to four layers).  Results, models,
sweeps and circuit traces are emitted as JSON; every result document embeds
a RunManifest.  JSON schemas for the emitted documents live under
data/schemas/.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib.resources import files
from json.encoder import INFINITY, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from . import __version__
from .errors import InputError
from .evaluation import ReferenceStructure, ScoreReport
from .qaoa import ParameterSchedule, QaoaConfig, QaoaResult
from .qubo import CouplingRecords, QuboParams
from .rna import (
    DEFAULT_MIN_LOOP,
    DEFAULT_MIN_STEM,
    Sequence,
    StemSet,
    pairs_cross,
    structure_from_selection,
)
from .simulator import SampleSet

CONFIG_ENV_VAR = "RNAQAOA_CONFIG"
TIMESTAMP_ENV_VAR = "RNAQAOA_TIMESTAMP"

BRACKET_LAYERS = (("(", ")"), ("[", "]"), ("{", "}"), ("<", ">"))


# ---------------------------------------------------------------------------
# FASTA


def parse_fasta_text(text: str) -> list[Sequence]:
    """One Sequence per record; T is normalized to U, bad symbols raise."""
    records: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith(">"):
            records.append((line[1:].split()[0] if line[1:].split() else "", []))
        else:
            if not records:
                raise InputError(f"line {lineno}: sequence data before any '>' header")
            records[-1][1].append(line)
    out = []
    for rid, chunks in records:
        bases = "".join(chunks)
        if not bases:
            raise InputError(f"record {rid!r} has no sequence data")
        try:
            out.append(Sequence(bases, id=rid))
        except InputError as exc:
            raise InputError(f"record {rid!r}: {exc}") from exc
    return out


def parse_fasta(path) -> list[Sequence]:
    return parse_fasta_text(Path(path).read_text())


def write_fasta(seqs: list[Sequence], path) -> None:
    with open(path, "w") as fh:
        for seq in seqs:
            fh.write(f">{seq.id}\n{seq.bases}\n")


# ---------------------------------------------------------------------------
# dot-bracket


@dataclass(frozen=True)
class DotBracket:
    """Structure annotation string; brackets must balance within each layer.

    The four layers "()", "[]", "{}" and "<>" encode successive crossing
    orders, so pseudoknotted structures are representable up to four
    mutually crossing groups.
    """

    annotation: str

    def __post_init__(self):
        self.pairs()  # validates balance and characters

    def __len__(self) -> int:
        return len(self.annotation)

    def pairs(self) -> frozenset[tuple[int, int]]:
        openers = {o: layer for layer, (o, _) in enumerate(BRACKET_LAYERS)}
        closers = {c: layer for layer, (_, c) in enumerate(BRACKET_LAYERS)}
        stacks: list[list[int]] = [[] for _ in BRACKET_LAYERS]
        found: set[tuple[int, int]] = set()
        for pos, ch in enumerate(self.annotation, start=1):
            if ch == ".":
                continue
            if ch in openers:
                stacks[openers[ch]].append(pos)
            elif ch in closers:
                layer = closers[ch]
                if not stacks[layer]:
                    raise InputError(f"unbalanced {ch!r} at position {pos}")
                found.add((stacks[layer].pop(), pos))
            else:
                raise InputError(f"unexpected character {ch!r} at position {pos}")
        for layer, stack in enumerate(stacks):
            if stack:
                opener = BRACKET_LAYERS[layer][0]
                raise InputError(f"unbalanced {opener!r} opened at position {stack[-1]}")
        return frozenset(found)


def parse_dotbracket(text: str, seq: Sequence) -> ReferenceStructure:
    """Stack-match each bracket layer; crossing across layers is allowed."""
    annotation = DotBracket(text.strip())
    if len(annotation) != len(seq):
        raise InputError(
            f"annotation length {len(annotation)} != sequence length {len(seq)}"
        )
    return ReferenceStructure(sequence_id=seq.id, pairs=annotation.pairs())


def pairs_to_dotbracket(pairs, length: int) -> str:
    """Greedy layer assignment; fails above four crossing orders."""
    layers: list[list[tuple[int, int]]] = []
    chars = ["."] * length
    for pair in sorted(pairs):
        i, j = pair
        if not (1 <= i < j <= length):
            raise InputError(f"pair ({i}, {j}) outside sequence of length {length}")
        for layer, members in enumerate(layers):
            if not any(pairs_cross(pair, q) for q in members):
                members.append(pair)
                break
        else:
            if len(layers) >= len(BRACKET_LAYERS):
                raise InputError("structure needs more than four crossing layers")
            layers.append([pair])
            layer = len(layers) - 1
        o, c = BRACKET_LAYERS[layer]
        chars[i - 1], chars[j - 1] = o, c
    return "".join(chars)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StemOptions:
    min_len: int = DEFAULT_MIN_STEM
    min_loop: int = DEFAULT_MIN_LOOP
    maximal_only: bool = False

    def __post_init__(self):
        if self.min_len < 1:
            raise ValueError("min_len must be >= 1")
        if self.min_loop < 0:
            raise ValueError("min_loop must be >= 0")


@dataclass(frozen=True)
class AppConfig:
    stems: StemOptions = StemOptions()
    qubo: QuboParams = QuboParams()
    qaoa: QaoaConfig = QaoaConfig()
    warmup: dict = field(default_factory=dict)  # mixer -> ParameterSchedule

    def snapshot(self) -> dict:
        return {
            "stems": asdict(self.stems),
            "qubo": asdict(self.qubo),
            "qaoa": asdict(self.qaoa),
            "warmup": {
                k: {"betas": list(v.betas), "gammas": list(v.gammas)}
                for k, v in self.warmup.items()
            },
        }


def config_from_dict(raw: dict) -> AppConfig:
    warmup = {
        k: ParameterSchedule(betas=tuple(v["betas"]), gammas=tuple(v["gammas"]))
        for k, v in raw.get("warmup", {}).items()
    }
    return AppConfig(
        stems=StemOptions(**raw.get("stems", {})),
        qubo=QuboParams(**raw.get("qubo", {})),
        qaoa=QaoaConfig(**raw.get("qaoa", {})),
        warmup=warmup,
    )


def load_config(path=None) -> AppConfig:
    """Config resolution: explicit path, then $RNAQAOA_CONFIG, then defaults.

    The packaged defaults also provide the shipped warm-up schedules.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        raw = json.loads(files("rnaqaoa").joinpath("data/default_config.json").read_text())
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        return config_from_dict(raw)
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError(f"bad config content: {exc}") from exc


def save_config(config: AppConfig, path) -> None:
    write_json(config.snapshot(), path)


# ---------------------------------------------------------------------------
# manifests and result documents


@dataclass(frozen=True)
class RunManifest:
    inputs: tuple[str, ...]
    config: dict
    seed: int
    version: str
    created_at: str

    def to_dict(self) -> dict:
        return asdict(self)


def make_manifest(inputs, config: AppConfig, seed: int) -> RunManifest:
    stamp = os.environ.get(TIMESTAMP_ENV_VAR) or datetime.now(timezone.utc).isoformat()
    return RunManifest(
        inputs=tuple(str(i) for i in inputs),
        config=config.snapshot(),
        seed=seed,
        version=__version__,
        created_at=stamp,
    )


def sampleset_to_dict(samples: SampleSet) -> dict:
    return {
        "shots": samples.shots,
        "counts": [{"bitstring": b, "count": c} for b, c in samples.entries],
    }


def stems_report_dict(stems: StemSet, domains) -> dict:
    return {
        "sequence": {"id": stems.sequence.id, "bases": stems.sequence.bases},
        "n_stems": len(stems),
        "stems": [{"i": s.i, "j": s.j, "k": s.k} for s in stems],
        "domains": [
            {"members": list(d.members), "dummy_index": d.dummy_index} for d in domains
        ],
    }


def _structure_dict(stems: StemSet, bits: str) -> dict:
    pairs, conflicts = structure_from_selection(stems, bits)
    return {
        "selection": bits,
        "pairs": [list(p) for p in pairs],
        "dot_bracket": pairs_to_dotbracket(pairs, len(stems.sequence)),
        "conflicts": [list(c) for c in conflicts],
    }


def solve_result_dict(
    result: QaoaResult, stems: StemSet, manifest: RunManifest, method: str
) -> dict:
    doc = {
        "method": method,
        "sequence": {"id": stems.sequence.id, "bases": stems.sequence.bases},
        "best_objective": result.best_objective,
        "best_energy": result.best_energy,
        "ground_state_energy": result.ground_state_energy,
        "structures": [_structure_dict(stems, bits) for bits in result.best_bitstrings],
        "terminating_level": result.terminating_level,
        "termination_reason": result.termination_reason,
        "n_stems": result.n_stems,
        "n_qubits": result.n_qubits,
        "levels": [
            {
                "level": rec.level,
                "betas": list(rec.schedule.betas),
                "gammas": list(rec.schedule.gammas),
                "loss": rec.loss,
                "ground_state_frequency": rec.ground_state_frequency,
                "stopped": rec.stopped,
                "samples": sampleset_to_dict(rec.samples),
            }
            for rec in result.levels
        ],
        "manifest": manifest.to_dict(),
    }
    return doc


def brute_result_dict(
    stems: StemSet, bitstrings, value: float, manifest: RunManifest
) -> dict:
    return {
        "method": "brute",
        "sequence": {"id": stems.sequence.id, "bases": stems.sequence.bases},
        "best_objective": value,
        "best_energy": -value,
        "ground_state_energy": -value,
        "structures": [_structure_dict(stems, bits) for bits in bitstrings],
        "n_stems": len(stems),
        "manifest": manifest.to_dict(),
    }


def score_result_dict(
    report: ScoreReport, seq: Sequence, manifest: RunManifest
) -> dict:
    return {
        "sequence": {"id": seq.id, "bases": seq.bases},
        "score": report.to_dict(),
        "manifest": manifest.to_dict(),
    }


def sweep_result_dict(result, manifest: RunManifest) -> dict:
    return {
        "rows": list(result.rows),
        "summary": list(result.summary),
        "manifest": manifest.to_dict(),
    }


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == INFINITY:
        return "Infinity"
    if o == -INFINITY:
        return "-Infinity"
    return float.__repr__(o)


#: Text of a scalar, by exact type; subclasses take the general path.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda o: "true" if o else "false",
    type(None): lambda o: "null",
}


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return encode_basestring_ascii(_float_text(key))
    if key is True or key is False or key is None:
        return encode_basestring_ascii(_SCALAR_TEXT[type(key)](key))
    if isinstance(key, int):
        return encode_basestring_ascii(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _scalar_column(values: list):
    """Items for `%s` or `str` giving the JSON text of each value, or None.

    None unless every value has an exact scalar type.  An exact int or
    finite float is its own item (its `str` is its JSON text); other
    scalars become their text.
    """
    types = set(map(type, values))
    if not types <= _SCALAR_TEXT.keys():
        return None
    if types <= {int, float}:
        try:
            if all(map(math.isfinite, values)):
                return values
        except OverflowError:  # an int beyond the float range
            pass
    return [_SCALAR_TEXT[type(v)](v) for v in values]


def _records_join(keys, columns, indent: str) -> str:
    """Text of records with the sorted str `keys`, one per row of `columns`.

    Each column holds one key's items for `%s`, as `_scalar_column` gives
    them; every record is written through one %-template.
    """
    inner = indent + "  "
    field = inner + "  "
    heads = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + field + ("," + field).join(heads) + inner + "}"
    body = ("," + inner).join(map(template.__mod__, zip(*columns)))
    return "[" + inner + body + indent + "]"


def _records_text(rows: list, indent: str):
    """Text of a list of dicts with one set of str keys and scalar values, or None."""
    first = rows[0]
    if type(first) is not dict or not first or set(map(type, first)) != {str}:
        return None
    keys = first.keys()
    if set(map(type, rows)) != {dict} or not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    order = sorted(keys)
    columns = [_scalar_column(list(map(itemgetter(k), rows))) for k in order]
    if any(column is None for column in columns):
        return None
    return _records_join(order, columns, indent)


def _coupling_records_text(records: CouplingRecords, indent: str):
    """Text of the records, or None when a column has a value that is not
    of an exact scalar type.  `exact` columns are their own items."""
    if not records:
        return "[]"
    columns = records.columns
    if not records.exact:
        columns = list(map(_scalar_column, columns))
        if any(column is None for column in columns):
            return None
    return _records_join(records.KEYS, columns, indent)


def _write(o, indent: str, out: list, open_ids: set) -> None:
    """Append the text `json.dumps(o, indent=2, sort_keys=True)` gives `o`.

    `indent` is the newline and spaces of the line `o` starts on.  Types
    are tested in the order `json` tests them, with the same texts and
    errors, exact scalar types first.  A list of scalars is joined at once,
    and a list of records (dicts with the same str keys and scalar values)
    goes through one %-template, column by column.  `CouplingRecords`
    (by exact type) go through that template straight from their columns,
    and are written as the list of their records otherwise.
    """
    text = _SCALAR_TEXT.get(type(o))
    if text is not None:
        out.append(text(o))
    elif type(o) is CouplingRecords:
        text = _coupling_records_text(o, indent)
        if text is None:
            _write(list(o), indent, out, open_ids)
        else:
            out.append(text)
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, dict)):
        is_dict = isinstance(o, dict)
        if not o:
            out.append("{}" if is_dict else "[]")
            return
        inner = indent + "  "
        if not is_dict:
            column = _scalar_column(o)
            if column is not None:
                out.append("[" + inner + ("," + inner).join(map(str, column)) + indent + "]")
                return
            text = _records_text(o, indent)
            if text is not None:
                out.append(text)
                return
        if id(o) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(o))
        sep = ("{" if is_dict else "[") + inner
        for entry in sorted(o.items()) if is_dict else o:
            if is_dict:
                key, entry = entry
                out.append(sep + _key_text(key) + ": ")
            else:
                out.append(sep)
            _write(entry, inner, out, open_ids)
            sep = "," + inner
        out.append(indent + ("}" if is_dict else "]"))
        open_ids.discard(id(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def write_json(obj: dict, path=None) -> str:
    """Serialize with sorted keys so equal documents are byte-identical.

    The text is exactly `json.dumps(obj, indent=2, sort_keys=True) + "\n"`
    of the document with every `CouplingRecords` in it materialised as the
    list of its records (`json.dumps` itself refuses that type), written
    without the standard library's generator per node.
    """
    out: list[str] = []
    _write(obj, "\n", out, set())
    text = "".join(out) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def write_csv(rows, path) -> None:
    import csv

    rows = list(rows)
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def load_schema(name: str) -> dict:
    return json.loads(
        files("rnaqaoa").joinpath(f"data/schemas/{name}.schema.json").read_text()
    )
