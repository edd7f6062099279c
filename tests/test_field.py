import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import superlevel_components
from mtstab import field
from mtstab.errors import (
    DimensionError,
    DisconnectedDomainError,
    DuplicateValueError,
    LengthMismatchError,
    UnknownVertexError,
    ValidationError,
)
from mtstab.field import (
    Domain1Skeleton,
    ScalarField,
    apply_value_change,
    build_domain,
    build_grid_domain,
    dump_field,
    field_from_dict,
    field_to_dict,
    load_field,
    validate_field,
)
from mtstab.stability import random_grid_field


def path_field(values):
    n = len(values)
    return validate_field(build_domain(n, [(i, i + 1) for i in range(n - 1)]), values)


@pytest.mark.parametrize(
    "rows,cols,vertices,edges",
    [(2, 2, 4, 5), (2, 3, 6, 9), (3, 3, 9, 16)],
)
def test_grid_domain_counts(rows, cols, vertices, edges):
    dom = build_grid_domain(rows, cols)
    assert dom.vertex_count == vertices
    assert len(dom.edges) == edges


def test_grid_domain_too_small():
    with pytest.raises(DimensionError):
        build_grid_domain(1, 5)


def test_grid_edge_count_formula():
    for r in range(2, 6):
        for c in range(2, 6):
            dom = build_grid_domain(r, c)
            assert len(dom.edges) == r * (c - 1) + c * (r - 1) + (r - 1) * (c - 1)


def test_validate_field_ok():
    f = path_field([0, 2, 1])
    assert f.values == (0.0, 2.0, 1.0)


def test_validate_field_duplicate():
    dom = build_domain(3, [(0, 1), (1, 2)])
    with pytest.raises(DuplicateValueError):
        validate_field(dom, [0, 1, 1])


def test_validate_field_disconnected():
    with pytest.raises(DisconnectedDomainError):
        build_domain(2, [])


#: Bad edge lists on n vertices, each with its error type and message: the
#: first bad edge in input order decides, and connectivity comes after the
#: edges.
BAD_EDGE_LISTS = {
    "self-loop": (3, [[0, 1], [1, 1], [1, 2]], ValidationError, "self-loop at vertex 1"),
    "end-above-range": (3, [[0, 1], [1, 3]], UnknownVertexError, "edge (1,3) outside 0..2"),
    "end-below-range": (3, [[0, 1], [-1, 2]], UnknownVertexError, "edge (-1,2) outside 0..2"),
    "duplicate-same-orientation": (3, [[0, 1], [1, 2], [0, 1]], ValidationError,
                                   "duplicate edge (0, 1)"),
    "duplicate-reversed": (3, [[0, 1], [1, 2], [2, 1]], ValidationError,
                           "duplicate edge (1, 2)"),
    "duplicate-before-self-loop": (3, [[0, 1], [1, 0], [2, 2]], ValidationError,
                                   "duplicate edge (0, 1)"),
    "out-of-range-before-duplicate": (3, [[0, 5], [0, 1], [1, 0]], UnknownVertexError,
                                      "edge (0,5) outside 0..2"),
    "disconnected": (4, [[0, 1], [2, 3]], DisconnectedDomainError,
                     "domain 1-skeleton is not connected"),
    "zero-vertices": (0, [], DisconnectedDomainError, "domain 1-skeleton is not connected"),
}


@pytest.mark.parametrize("via", ["field_from_dict", "build_domain"])
@pytest.mark.parametrize("n,edges,error,message", BAD_EDGE_LISTS.values(), ids=BAD_EDGE_LISTS)
def test_bad_edge_lists_raise_the_first_bad_edges_error(n, edges, error, message, via):
    with pytest.raises(error) as caught:
        if via == "field_from_dict":
            vertices = [{"id": i, "value": float(i)} for i in range(n)]
            field_from_dict({"vertices": vertices, "edges": edges})
        else:
            build_domain(n, [tuple(e) for e in edges])
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("ids, bad", [([0, 2], 2), ([1, 0, 3], 3), ([0, 0], 0), ([-1, 0], -1)],
                         ids=["gap", "past-the-end", "repeated", "negative"])
def test_field_from_dict_needs_dense_vertex_ids(ids, bad):
    vertices = [{"id": i, "value": float(k)} for k, i in enumerate(ids)]
    edges = [[k, k + 1] for k in range(len(ids) - 1)]
    with pytest.raises(ValidationError, match=f"^vertex ids must be dense 0-based, got {bad}$"):
        field_from_dict({"vertices": vertices, "edges": edges})


def test_a_disconnected_domain_made_directly_raises():
    with pytest.raises(DisconnectedDomainError, match="^domain 1-skeleton is not connected$"):
        validate_field(Domain1Skeleton(2, (), ((), ())), [0.0, 1.0])


def test_validate_field_length_mismatch():
    dom = build_domain(3, [(0, 1), (1, 2)])
    with pytest.raises(LengthMismatchError):
        validate_field(dom, [0, 1])


def test_grid_payload_size_is_checked_before_the_domain_is_built(monkeypatch):
    """4 values that claim a 400x400 grid raise validate_field's
    LengthMismatchError without building the 160,000-vertex domain; a grid
    below 2x2 still raises DimensionError first."""

    def refuse(rows, cols):
        raise AssertionError(f"built a {rows}x{cols} domain")

    payload = {"grid": {"rows": 400, "cols": 400, "values": [0, 1, 2, 3]}}
    monkeypatch.setattr(field, "build_grid_domain", refuse)
    with pytest.raises(LengthMismatchError, match="^4 values for 160000 vertices$"):
        field_from_dict(payload)
    monkeypatch.undo()
    with pytest.raises(DimensionError):
        field_from_dict({"grid": {"rows": 1, "cols": 400, "values": [0, 1, 2, 3]}})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_validate_field_non_finite(bad):
    dom = build_domain(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="vertex 1 is not finite"):
        validate_field(dom, [0, bad, 1])


def test_apply_value_change():
    f = path_field([0, 2, 1])
    g = apply_value_change(f, 2, 3.0)
    assert g.values == (0.0, 2.0, 3.0)
    assert f.values == (0.0, 2.0, 1.0)  # input unchanged
    with pytest.raises(DuplicateValueError):
        apply_value_change(f, 0, 2.0)
    with pytest.raises(UnknownVertexError):
        apply_value_change(f, 9, 5.0)
    # setting a vertex to its own value is the identity, not a duplicate
    assert apply_value_change(f, 1, 2.0).values == f.values


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_apply_value_change_non_finite(bad):
    f = validate_field(build_grid_domain(2, 2), [0, 3, 1, 2])
    with pytest.raises(ValidationError, match="vertex 1 is not finite"):
        apply_value_change(f, 1, bad)


def test_apply_value_change_round_trip():
    f = path_field([0, 2, 1])
    g = apply_value_change(apply_value_change(f, 1, 7.0), 1, 2.0)
    assert g.values == f.values


def test_superlevel_components_examples():
    f = path_field([0, 3, 1])
    assert superlevel_components(f, 0.5) == [frozenset({1, 2})]
    assert superlevel_components(f, 2) == [frozenset({1})]
    assert superlevel_components(f, 10) == []


@given(st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=9, unique=True),
       st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_superlevel_components_partition(raw, frac):
    values = [v / 10 ** 6 for v in raw]
    n = len(values)
    f = validate_field(build_domain(n, [(i, i + 1) for i in range(n - 1)]), values)
    t = frac * max(values)
    comps = superlevel_components(f, t)
    want = {v for v in range(n) if values[v] > t}
    got = set()
    for comp in comps:
        assert comp, "components are nonempty"
        assert not (got & comp), "components are disjoint"
        got |= comp
        for v in comp:  # internally connected in the induced subgraph
            assert comp == {v} or any(
                abs(v - w) == 1 for w in comp if w != v
            ), "path-induced component must be an interval"
    assert got == want


def test_field_json_round_trip(tmp_path):
    f = path_field([0, 2, 1])
    g = field_from_dict(field_to_dict(f))
    assert g.values == f.values and g.domain.edges == f.domain.edges
    grid = field_from_dict({"grid": {"rows": 2, "cols": 2, "values": [0, 1, 2, 3]}})
    assert grid.vertex_count == 4 and len(grid.domain.edges) == 5


def _byte_oracle_cases():
    rng = random.Random(36)
    for rows, cols in [(2, 2), (2, 5), (3, 3), (4, 4), (6, 3), (8, 8)]:
        yield pytest.param(random_grid_field(rng, rows, cols), id=f"grid{rows}x{cols}")
    grid = build_grid_domain(5, 5)
    wide = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(25)]
    yield pytest.param(validate_field(grid, wide), id="grid5x5-wide-magnitudes")
    unsorted = build_domain(4, [(3, 2), (0, 3), (2, 1), (1, 0), (0, 2)])
    yield pytest.param(validate_field(unsorted, [0.25, -1.5, 3.0, 2.0]), id="unsorted-edges")
    yield pytest.param(validate_field(build_domain(1, []), [0.5]), id="one-vertex")
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7]
    yield pytest.param(path_field(extremes), id="extreme-floats")
    values = tuple(np.float64(x) for x in (0.1, 2.5, -3.0, 1e16, 1e-7, 7.0))
    yield pytest.param(ScalarField(build_grid_domain(3, 2), values), id="numpy-values")


@pytest.mark.parametrize("f", _byte_oracle_cases())
def test_dump_field_writes_the_json_encoders_bytes(f, tmp_path):
    """dump_field writes the bytes of the json module's indent=2,
    sort_keys=True encoding and a newline, and load_field reads the same
    field back."""
    want = json.dumps(field_to_dict(f), indent=2, sort_keys=True) + "\n"
    assert field._field_text(f) == want
    path = tmp_path / "field.json"
    dump_field(f, str(path))
    assert path.read_bytes() == want.encode("utf-8")
    assert load_field(str(path)) == f
