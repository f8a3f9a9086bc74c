"""Interchange formats: rationals as "num/den" strings, the prior and
epistemic-model JSON documents, degree-sequence and edge-list text files,
and deterministic CSV report text.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .errors import ParseError
from .epistemic import EpistemicModel
from .model import (
    AgentType,
    ConcreteGraph,
    Prior,
    StatePrior,
    TypeDistribution,
    check_vertex_count,
)

PathLike = Union[str, Path]
ECHO = 40  # characters of a refused text that an error shows
# The rationals README documents, in ASCII digits: a sign, then "num/den" or
# an integer or decimal with an optional fractional part and exponent.
_RATIONAL = re.compile(
    r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)", re.ASCII
)


def read_input(path: PathLike, what: str, parse=str):
    """`parse` of the UTF-8 text of the input file at `path`. A file that
    cannot be read or decoded, or that `parse` rejects as JSON, raises
    ParseError "cannot read {what} {path}: ...". The bytes are decoded as
    they are, with no newline translation: every parser splits lines with
    `str.splitlines` or reads JSON, so CRLF files read the same."""
    try:
        with open(path, "rb") as file:
            return parse(file.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None


def _shown(value) -> str:
    """repr(value), cut to the first ECHO characters of a longer string or
    repr, and their count."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= ECHO:
        return repr(value)
    head = repr(text[:ECHO]) if text is value else text[:ECHO]
    return f"{head}... ({len(text)} characters)"


def parse_rational(text) -> Fraction:
    """Parse "num/den", an integer or a decimal such as "2.5E-3", exactly,
    as one `Fraction(int, int)`. Surrounding whitespace is stripped; any
    other text, a bool and a float are refused. A decimal exponent past the
    interpreter's limit on integer-string digits is refused before any power
    of ten, and each digit run goes through `int` first, which refuses a run
    past that limit. An error echoes at most ECHO characters of the text."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, (bool, float)):
        raise ParseError(
            f"refusing {type(text).__name__} {text!r}; pass a rational string like '2/5'"
        )
    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL.fullmatch(str(text).strip())
    try:
        if not match:
            raise ValueError("not an integer, num/den or decimal")
        sign, whole, den, fraction, exp = match.groups()
        exp = int(exp or 0)
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before 3.10.7
        if limit and abs(exp) > limit:
            raise ValueError(f"exponent past {limit}, the interpreter's integer-digit limit")
        num, den = int(whole or 0), int(den or 1)
        if fraction:  # int's own error on a run past the limit, before 10 ** its length
            num, exp = int(fraction) + num * 10 ** len(fraction), exp - len(fraction)
        if not den:
            raise ValueError("zero denominator")
        num = -num if sign == "-" else num
        return Fraction(num * 10**exp, den) if exp >= 0 else Fraction(num, den * 10**-exp)
    except ValueError as exc:
        raise ParseError(f"bad rational {_shown(text)}: {exc}") from None


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def format_reduced(num: int, den: int) -> str:
    """`format_rational` of num/den given in lowest terms, with no Fraction."""
    return f"{num}/{den}" if den != 1 else str(num)


def format_decimal(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Prior JSON
# ---------------------------------------------------------------------------


def _object(value, what: str) -> Mapping:
    # The exact type first: the first isinstance test of a type against an
    # ABC walks the ABC's whole subclass tree.
    if type(value) is not dict and not isinstance(value, Mapping):
        raise ParseError(f"{what} must be a JSON object")
    return value


def prior_from_dict(doc: Mapping) -> Prior:
    try:
        states = []
        doc = _object(doc, "prior document")
        for label, body in _object(doc["states"], "prior states").items():
            body = _object(body, f"prior state {label!r}")
            types = _object(body["types"], f"types of prior state {label!r}")
            states.append(
                StatePrior(
                    label=str(label),
                    prob=parse_rational(body["prob"]),
                    types=TypeDistribution(
                        alpha=parse_rational(types.get("alpha", 0)),
                        chi=parse_rational(types.get("chi", 0)),
                        nu=parse_rational(types.get("nu", 0)),
                    ),
                )
            )
        return Prior(
            p=parse_rational(doc["p"]),
            mu=parse_rational(doc["mu"]),
            states=tuple(states),
        )
    except KeyError as exc:
        raise ParseError(f"prior document missing field {exc}") from None


def prior_to_dict(prior: Prior) -> dict:
    return {
        "p": format_rational(prior.p),
        "mu": format_rational(prior.mu),
        "states": {
            s.label: {
                "prob": format_rational(s.prob),
                "types": {
                    t.value: format_rational(s.types.prob(t)) for t in AgentType
                },
            }
            for s in prior.states
        },
    }


def load_prior(path: PathLike) -> Prior:
    return prior_from_dict(read_input(path, "prior file", json.loads))


def dump_prior(prior: Prior, path: PathLike) -> None:
    Path(path).write_text(json.dumps(prior_to_dict(prior), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Epistemic model JSON
# ---------------------------------------------------------------------------


def _labels(items) -> list[str]:
    """Outcome labels as strings, spelled as JSON spells an object key (the
    `prob` keys are always strings, so an int outcome 1 is the key "1")."""
    labels = [o if isinstance(o, str) else json.dumps(o) for o in items]
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise ParseError(
                f"outcome label {label!r} appears twice when read as a string"
            )
        seen.add(label)
    return labels


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON array")
    return value


def epistemic_model_from_dict(doc: Mapping) -> EpistemicModel:
    """Read a model document; every outcome label, in `outcomes` and in the
    partitions, is read as a string."""
    try:
        doc = _object(doc, "model document")
        outcomes = _labels(_array(doc["outcomes"], "model outcomes"))
        probs = _object(doc["prob"], "model prob")
        prob = {o: parse_rational(probs[o]) for o in outcomes}
        partitions = {
            agent: [
                _labels(_array(cell, f"cell of agent {agent!r}"))
                for cell in _array(cells, f"partition of agent {agent!r}")
            ]
            for agent, cells in _object(doc["partitions"], "model partitions").items()
        }
    except KeyError as exc:
        raise ParseError(f"model document missing field {exc}") from None
    return EpistemicModel.make(prob, partitions)


def epistemic_model_to_dict(model: EpistemicModel) -> dict:
    return {
        "outcomes": list(model.space.outcomes),
        "prob": {
            o: format_rational(p)
            for o, p in zip(model.space.outcomes, model.space.probs)
        },
        "partitions": {
            agent: [sorted(cell) for cell in part.cells]
            for agent, part in zip(model.agents, model.partitions)
        },
    }


def load_epistemic_model(path: PathLike) -> EpistemicModel:
    return epistemic_model_from_dict(read_input(path, "model file", json.loads))


# ---------------------------------------------------------------------------
# Degree sequences and edge lists
# ---------------------------------------------------------------------------


def parse_degree_sequence(text: str, source: str = "<degrees>") -> list[int]:
    """One integer per line, or run-length lines "count x degree". A
    run-length line that would take the entry count past VERTEX_GUARD
    raises SpaceTooLargeError before it is expanded."""
    out: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "x" not in line:
                out.append(int(line))
                continue
            count_s, degree_s = line.split("x")
            count, degree = int(count_s), int(degree_s)
            if count < 0:
                raise ValueError("negative count")
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: bad degree line {line!r} ({exc})")
        check_vertex_count(len(out) + count)
        out.extend([degree] * count)
    if not out:
        raise ParseError(f"{source}: no degrees found")
    return out


def load_degree_sequence(path: PathLike) -> list[int]:
    return parse_degree_sequence(read_input(path, "degree file"), source=str(path))


def format_degree_sequence(seq: Sequence[int]) -> str:
    return "".join(f"{d}\n" for d in seq)


def parse_edge_list(text: str, source: str = "<edges>") -> ConcreteGraph:
    """Whitespace-separated "u v" per line, vertices 0-indexed. The vertex
    count is one past the largest endpoint unless a "# n <count>" header is
    present."""
    edges = []
    n = 0
    declared = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].split()
            if len(body) == 2 and body[0] == "n":
                try:
                    declared = int(body[1])
                    if declared < 0:
                        raise ValueError
                except ValueError:
                    raise ParseError(
                        f"{source}:{lineno}: vertex count in {line!r} is not a "
                        "nonnegative integer"
                    ) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{source}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: non-integer endpoint in {line!r}")
        edges.append((u, v))
        n = max(n, u + 1, v + 1)
    if declared is not None:
        n = max(n, declared)
    return ConcreteGraph(n, edges)


def load_edge_list(path: PathLike) -> ConcreteGraph:
    return parse_edge_list(read_input(path, "edge list"), source=str(path))


def format_edge_list(graph: ConcreteGraph) -> str:
    """The edge-list text, headed by "# n <count>" so that isolated
    vertices past the last endpoint survive a reload."""
    return f"# n {graph.n}\n" + "".join(f"{u} {v}\n" for u, v in graph.edge_list())


# ---------------------------------------------------------------------------
# Report text
# ---------------------------------------------------------------------------


def rows_to_csv(rows: Iterable[Mapping], columns: Sequence[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"

