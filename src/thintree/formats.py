"""Readers and writers for the EMB/1 and ATSP/1 text formats.

EMB/1::

    EMB 1 <V> <E>
    rot <vertex-id> <dart-id>...     (V lines, counterclockwise order)
    edge <edge-id> <dart-a> <dart-b> [cost]   (E lines)

ATSP/1::

    ATSP 1 <n>
    <n rows of n decimal costs>

Costs are decimal strings and are parsed exactly.  Unknown directives are
rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .embedding import EmbeddedGraph, build_embedding
from .errors import FormatError


def parse_cost(text: str) -> Fraction:
    """Exact value of a decimal string such as '12' or '0.375'.  A string
    of ASCII digits is read by int(), which skips Fraction's regex."""
    try:
        if text.isascii() and text.isdigit():
            value = Fraction(int(text))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad decimal cost {text!r}") from None
    if value < 0:
        raise FormatError(f"negative cost {text!r}")
    return value


def format_cost(value: Fraction | int) -> str:
    """Decimal string when the denominator is 2^a * 5^b, else 'p/q'."""
    den = value.denominator
    shift = 0
    while den % 2 == 0:
        den //= 2
        shift += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(shift, fives)
    scaled = value.numerator * 10 ** digits // value.denominator
    if digits == 0:
        return str(scaled)
    text = str(abs(scaled)).rjust(digits + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}".rstrip("0").rstrip(".")


def write_emb(g: EmbeddedGraph) -> str:
    lines = [f"EMB 1 {g.vertex_count} {g.edge_count}"]
    for v in range(g.vertex_count):
        darts = " ".join(str(d) for d in g.darts_at(v))
        lines.append(f"rot {v} {darts}".rstrip())
    for e in g.edges():
        line = f"edge {e} {2 * e} {2 * e + 1}"
        if g.edge_cost is not None and e in g.edge_cost:
            c = g.edge_cost[e]
            line += f" {format_cost(c if g.scale == 1 else Fraction(c, g.scale))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def read_emb(text: str) -> EmbeddedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty EMB input")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "EMB" or header[1] != "1":
        raise FormatError(f"bad EMB header {lines[0]!r}")
    try:
        n_vertices, n_edges = int(header[2]), int(header[3])
    except ValueError:
        raise FormatError(f"bad EMB header {lines[0]!r}") from None
    if len(lines) != 1 + n_vertices + n_edges:
        raise FormatError(
            f"expected {1 + n_vertices + n_edges} lines, got {len(lines)}")

    rotations = [None] * n_vertices
    twins = []
    costs = {}
    try:  # int() is the only call below that raises ValueError
        for ln in lines[1:1 + n_vertices]:
            parts = ln.split()
            if parts[0] != "rot" or len(parts) < 2:
                raise FormatError(f"expected 'rot <vertex-id> <dart-id>...', got {ln!r}")
            v = int(parts[1])
            if not 0 <= v < n_vertices or rotations[v] is not None:
                raise FormatError(f"bad or repeated vertex id in {ln!r}")
            rotations[v] = [int(p) for p in parts[2:]]

        for ln in lines[1 + n_vertices:]:
            parts = ln.split()
            if parts[0] != "edge" or len(parts) not in (4, 5):
                raise FormatError(f"expected 'edge <id> <dart> <dart> [cost]', got {ln!r}")
            e, da, db = int(parts[1]), int(parts[2]), int(parts[3])
            if {da, db} != {2 * e, 2 * e + 1}:
                raise FormatError(f"edge {e} must own darts {2*e},{2*e+1}: {ln!r}")
            twins.append((da, db))
            if len(parts) == 5:
                costs[e] = parse_cost(parts[4])
    except ValueError:
        raise FormatError(f"non-integer id in {ln!r}") from None
    return build_embedding(n_vertices, rotations, twins, costs or None)


def write_atsp(matrix: list[list[Fraction]]) -> str:
    n = len(matrix)
    lines = [f"ATSP 1 {n}"]
    for row in matrix:
        if len(row) != n:
            raise FormatError("cost matrix is not square")
        lines.append(" ".join(format_cost(c) for c in row))
    return "\n".join(lines) + "\n"


def read_atsp(text: str) -> list[list[Fraction]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty ATSP input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "ATSP" or header[1] != "1":
        raise FormatError(f"bad ATSP header {lines[0]!r}")
    try:
        n = int(header[2])
    except ValueError:
        raise FormatError(f"bad ATSP header {lines[0]!r}") from None
    if len(lines) != 1 + n:
        raise FormatError(f"expected {n} matrix rows, got {len(lines) - 1}")
    matrix = []
    for ln in lines[1:]:
        row = [parse_cost(tok) for tok in ln.split()]
        if len(row) != n:
            raise FormatError(f"row has {len(row)} entries, expected {n}")
        matrix.append(row)
    for i in range(n):
        if matrix[i][i] != 0:
            raise FormatError(f"diagonal entry ({i},{i}) must be 0")
    return matrix
