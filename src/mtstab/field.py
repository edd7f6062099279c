"""Piecewise linear scalar fields on graph 1-skeletons.

Only the 1-skeleton is stored: superlevel-set connectivity of a PL field is
determined by vertices and edges alone, which is all the split tree needs.
Vertex values must be pairwise distinct; generators are expected to jitter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (
    DimensionError,
    DisconnectedDomainError,
    DuplicateValueError,
    LengthMismatchError,
    UnknownVertexError,
    ValidationError,
)

#: Single absolute tolerance for every scalar comparison in the package.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Domain1Skeleton:
    """Connected graph on dense 0-based vertex ids; edges normalized (lo, hi).

    Connectivity is checked here, once per domain: a domain without
    vertices or with two components raises DisconnectedDomainError, however
    it is made.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _connected(self):
            raise DisconnectedDomainError("domain 1-skeleton is not connected")

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def build_domain(vertex_count: int, edges) -> Domain1Skeleton:
    """Validate and normalize an edge list into a Domain1Skeleton."""
    seen = set()
    norm = []
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise UnknownVertexError(f"edge ({u},{v}) outside 0..{vertex_count - 1}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValidationError(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
    norm.sort()
    adj = [[] for _ in range(vertex_count)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    # norm is sorted, so each list gets its lower neighbors in order, then
    # its higher ones in order: sorted already
    return Domain1Skeleton(vertex_count, tuple(norm), tuple(map(tuple, adj)))


def _connected(dom: Domain1Skeleton) -> bool:
    if dom.vertex_count == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in dom.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == dom.vertex_count


def build_grid_domain(rows: int, cols: int) -> Domain1Skeleton:
    """1-skeleton of a triangulated grid: 4-neighbor edges plus the
    (r,c)-(r+1,c+1) diagonal of every cell."""
    if rows < 2 or cols < 2:
        raise DimensionError(f"grid must be at least 2x2, got {rows}x{cols}")
    edges = []
    vid = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
            if r + 1 < rows and c + 1 < cols:
                edges.append((vid(r, c), vid(r + 1, c + 1)))
    return build_domain(rows * cols, edges)


@dataclass(frozen=True)
class ScalarField:
    domain: Domain1Skeleton
    values: tuple[float, ...]

    @property
    def vertex_count(self) -> int:
        return self.domain.vertex_count


def validate_field(domain: Domain1Skeleton, values) -> ScalarField:
    values = tuple(float(x) for x in values)
    if len(values) != domain.vertex_count:
        raise LengthMismatchError(
            f"{len(values)} values for {domain.vertex_count} vertices"
        )
    for v, x in enumerate(values):
        if not math.isfinite(x):
            raise ValidationError(f"value {x} at vertex {v} is not finite")
    order = sorted(range(len(values)), key=values.__getitem__)
    for a, b in zip(order, order[1:]):
        if values[a] == values[b]:
            raise DuplicateValueError(a, b, values[a])
    return ScalarField(domain, values)


def apply_value_change(field: ScalarField, vertex: int, new_value: float) -> ScalarField:
    """Return a copy of the field with one vertex value replaced."""
    if not (0 <= vertex < field.vertex_count):
        raise UnknownVertexError(f"vertex {vertex} not in field")
    new_value = float(new_value)
    if not math.isfinite(new_value):
        raise ValidationError(f"value {new_value} at vertex {vertex} is not finite")
    for v, x in enumerate(field.values):
        if v != vertex and x == new_value:
            raise DuplicateValueError(vertex, v, new_value)
    values = list(field.values)
    values[vertex] = new_value
    return ScalarField(field.domain, tuple(values))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def field_to_dict(field: ScalarField) -> dict:
    return {
        "vertices": [{"id": v, "value": field.values[v]} for v in range(field.vertex_count)],
        "edges": [list(e) for e in field.domain.edges],
    }


def field_from_dict(data: dict) -> ScalarField:
    """The field of a JSON payload: {"grid": {"rows", "cols", "values"}}, or
    {"vertices": [{"id", "value"}, ...], "edges": [[u, v], ...]} with dense
    0-based ids. Any other payload raises ValidationError: a missing key, a
    container of the wrong type, a value that is not a JSON number or is
    too large for a float, or a size, id or edge end that is not an
    integer."""
    try:
        if "grid" in data:
            g = data["grid"]
            rows, cols = _integer(g["rows"]), _integer(g["cols"])
            values = [_number(x) for x in g["values"]]
            edges = None
        else:
            verts = [(_integer(entry["id"]), _number(entry["value"])) for entry in data["vertices"]]
            edges = [(_integer(u), _integer(v)) for u, v in data["edges"]]
    except KeyError as e:
        raise ValidationError(f"field JSON missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"malformed field JSON: {e}") from e
    if edges is None:
        return validate_field(build_grid_domain(rows, cols), values)
    n = len(verts)
    values = [None] * n
    for i, value in verts:
        if not (0 <= i < n) or values[i] is not None:
            raise ValidationError(f"vertex ids must be dense 0-based, got {i}")
        values[i] = value
    return validate_field(build_domain(n, edges), values)


def _integer(x) -> int:
    # JSON true and 2.9 would pass int(); neither is a vertex id or a size
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _number(x) -> float:
    # JSON "0.5" and true would pass float(); neither is a field value
    if type(x) not in (int, float):
        raise ValueError(f"{x!r} is not a number")
    return float(x)


def load_field(path: str) -> ScalarField:
    """The field of a JSON file (see field_from_dict). A file that is not
    UTF-8, not JSON, or JSON nested too deeply for the parser, raises
    ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as e:
            raise ValidationError(f"field file is not UTF-8: {e}") from e
        except json.JSONDecodeError as e:
            raise ValidationError(f"field file is not JSON: {e}") from e
        except RecursionError as e:
            raise ValidationError("field JSON is nested too deeply") from e
    return field_from_dict(data)


def dump_field(field: ScalarField, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(field_to_dict(field), fh, indent=2, sort_keys=True)
        fh.write("\n")
