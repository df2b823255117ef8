"""Parsing and serialization of diagram codes and bundled tables.

Two text formats are accepted for PD data: the bracketed form
``PD[X[a,b,c,d], ...]`` and a bare line format with four integers per
line.  Gauss codes are signed over/under sequences like ``O1+U2+O3+...``
with one link component per line.  Tables are JSON arrays of
``{"name": str, "pd": [[a,b,c,d], ...], "tags": {str: str}}``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .diagram import (
    Diagram,
    DiagramError,
    NonPlanar,
    build_from_crossing_list,
    crossing_signs,
)

PdTuple = tuple[int, int, int, int]


class CodeSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class NonRealizable(ValueError):
    """The Gauss sequence admits no sphere diagram."""


class SchemaError(ValueError):
    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"table entry {index}: {message}")


@dataclass(frozen=True)
class DiagramDocument:
    """A named table entry; ``tags`` carries expected-value annotations."""

    name: str
    pd: tuple[PdTuple, ...]
    tags: dict[str, str] = field(default_factory=dict)

    def build(self) -> Diagram:
        return build_from_crossing_list(list(self.pd))


# --------------------------------------------------------------------------
# PD text


def _line_col(src: str, pos: int) -> tuple[int, int]:
    line = src.count("\n", 0, pos) + 1
    col = pos - (src.rfind("\n", 0, pos) + 1) + 1
    return line, col


_X_TERM = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd_text(src: str) -> list[PdTuple]:
    """Parse PD text in either supported format; labels are kept verbatim."""
    stripped = src.strip()
    if not stripped:
        raise CodeSyntaxError("empty input", 1, 1)
    if stripped.startswith("PD"):
        return _parse_pd_bracketed(src)
    return _parse_pd_lines(src)


def _parse_pd_bracketed(src: str) -> list[PdTuple]:
    body_match = re.search(r"PD\[", src)
    if body_match is None or not src.rstrip().endswith("]"):
        raise CodeSyntaxError("expected PD[ ... ]", *_line_col(src, 0))
    inner = src[body_match.end():src.rstrip().rfind("]")]
    offset = body_match.end()
    tuples: list[PdTuple] = []
    pos = 0
    while pos < len(inner):
        ch = inner[pos]
        if ch.isspace() or ch == ",":
            pos += 1
            continue
        m = _X_TERM.match(inner, pos)
        if m is None:
            raise CodeSyntaxError(
                "expected X[a,b,c,d]", *_line_col(src, offset + pos))
        tuples.append(tuple(int(g) for g in m.groups()))
        if any(x <= 0 for x in tuples[-1]):
            raise CodeSyntaxError(
                "labels must be positive", *_line_col(src, offset + pos))
        pos = m.end()
    if not tuples:
        raise CodeSyntaxError("no crossings in PD[...]", *_line_col(src, offset))
    return tuples


def _parse_pd_lines(src: str) -> list[PdTuple]:
    tuples: list[PdTuple] = []
    for lineno, line in enumerate(src.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise CodeSyntaxError(
                f"expected four integers, got {len(parts)}", lineno, 1)
        try:
            tuples.append(tuple(int(p) for p in parts))
        except ValueError:
            raise CodeSyntaxError("labels must be integers", lineno, 1) from None
        if any(x <= 0 for x in tuples[-1]):
            raise CodeSyntaxError("labels must be positive", lineno, 1)
    if not tuples:
        raise CodeSyntaxError("no crossings", 1, 1)
    return tuples


def serialize_pd(d: Diagram) -> str:
    """PD text for a diagram, with slot 0 rotated to the incoming
    understrand of each crossing."""
    terms = []
    for c in range(d.n):
        under = (1, 3) if d.over_even[c] else (0, 2)
        u_in = next(k for k in under if not d.forward[4 * c + k])
        labels = [d.edge_label[d.dart(c, u_in + k)] for k in range(4)]
        terms.append("X[{},{},{},{}]".format(*labels))
    return "PD[" + ",".join(terms) + "]"


# --------------------------------------------------------------------------
# Gauss codes

_GAUSS_TOKEN = re.compile(r"\s*([OoUu])\s*(\d+)\s*([+-])")


def parse_gauss(src: str) -> Diagram:
    """Build a diagram from a signed Gauss code, one component per line.

    The crossing sign is the right-hand-rule sign; realizability on the
    sphere is checked by attempting the map construction.
    """
    passes: list[tuple[str, int, int]] = []  # (kind, crossing, sign)
    comp_lengths: list[int] = []
    for lineno, line in enumerate(src.strip().splitlines()):
        pos = 0
        count = 0
        line = line.strip()
        while pos < len(line):
            m = _GAUSS_TOKEN.match(line, pos)
            if m is None:
                raise CodeSyntaxError("expected O<k><sign> or U<k><sign>",
                                      lineno + 1, pos + 1)
            kind, label, sign = m.group(1).upper(), int(m.group(2)), m.group(3)
            passes.append((kind, label, 1 if sign == "+" else -1))
            pos = m.end()
            count += 1
        if count == 0:
            raise CodeSyntaxError("empty component line", lineno + 1, 1)
        comp_lengths.append(count)

    visits: dict[int, dict[str, tuple[int, int]]] = {}
    signs: dict[int, int] = {}
    offset = 0
    for comp_len in comp_lengths:
        for i in range(comp_len):
            kind, label, sign = passes[offset + i]
            e_in = offset + i
            e_out = offset + (i + 1) % comp_len
            visits.setdefault(label, {})
            if kind in visits[label]:
                raise NonRealizable(f"crossing {label} passed {kind} twice")
            visits[label][kind] = (e_in + 1, e_out + 1)
            if label in signs and signs[label] != sign:
                raise NonRealizable(f"crossing {label} has inconsistent signs")
            signs[label] = sign
        offset += comp_len
    for label, kinds in visits.items():
        if set(kinds) != {"O", "U"}:
            raise NonRealizable(f"crossing {label} lacks an O or U pass")

    pd: list[PdTuple] = []
    for label in sorted(visits):
        u_in, u_out = visits[label]["U"]
        o_in, o_out = visits[label]["O"]
        if signs[label] > 0:
            pd.append((u_in, o_in, u_out, o_out))
        else:
            pd.append((u_in, o_out, u_out, o_in))
    try:
        return build_from_crossing_list(pd)
    except NonPlanar as exc:
        raise NonRealizable(f"no sphere embedding: {exc}") from exc


def serialize_gauss(d: Diagram) -> str:
    """Signed Gauss code of the diagram, one component per line, following
    the stored orientation; inverse of ``parse_gauss`` up to canonical
    code."""
    signs = crossing_signs(d)
    lines = []
    done: set[int] = set()
    for comp in range(d.num_components):
        start = min(dart for dart in range(d.num_darts)
                    if d.component[dart] == comp and d.forward[dart])
        tokens = []
        dart = start
        while dart not in done:
            done.add(dart)
            arrive = d.partner[dart]
            c = arrive >> 2
            over = d.is_over_dart(arrive)
            sign = "+" if signs[c] > 0 else "-"
            tokens.append(f"{'O' if over else 'U'}{c + 1}{sign}")
            dart = d.dart(c, (arrive & 3) + 2)
        lines.append("".join(tokens))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# tables


def load_table(path) -> list[DiagramDocument]:
    """Load and validate a JSON table; all invalid entries are reported."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return _validate_table(data)


def _validate_table(data) -> list[DiagramDocument]:
    if not isinstance(data, list):
        raise SchemaError(-1, "top level must be an array")
    docs: list[DiagramDocument] = []
    problems: list[SchemaError] = []
    names: set[str] = set()
    for i, entry in enumerate(data):
        try:
            doc = _validate_entry(i, entry)
            if doc.name in names:
                raise SchemaError(i, f"duplicate name {doc.name!r}")
            names.add(doc.name)
            docs.append(doc)
        except SchemaError as exc:
            problems.append(exc)
    if problems:
        summary = "; ".join(str(p) for p in problems)
        err = SchemaError(problems[0].index, f"{len(problems)} bad entries: {summary}")
        err.indices = [p.index for p in problems]
        raise err
    return docs


def _validate_entry(index: int, entry) -> DiagramDocument:
    if not isinstance(entry, dict):
        raise SchemaError(index, "entry must be an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(index, "missing or invalid 'name'")
    pd = entry.get("pd")
    # ``type(x) is int``: JSON booleans load as bool, a subclass of int
    if (not isinstance(pd, list) or not pd
            or not all(isinstance(t, list) and len(t) == 4
                       and all(type(x) is int for x in t) for t in pd)):
        raise SchemaError(index, "'pd' must be a nonempty list of 4-int lists")
    tags = entry.get("tags", {})
    if not isinstance(tags, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in tags.items()):
        raise SchemaError(index, "'tags' must map strings to strings")
    doc = DiagramDocument(name, tuple(tuple(t) for t in pd), dict(tags))
    try:
        doc.build()
    except DiagramError as exc:
        raise SchemaError(index, f"pd does not build: {exc}") from exc
    return doc


BUNDLED_TABLE = "alternating_upto8.json"


def load_bundled_table() -> list[DiagramDocument]:
    """The packaged table of prime alternating knots through 8 crossings."""
    text = resources.files("taitkit.data").joinpath(BUNDLED_TABLE).read_text()
    return _validate_table(json.loads(text))
