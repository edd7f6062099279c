import math
import random

import pytest

from helpers import (
    build_augmented,
    check_minimal_by_ranks,
    classify_by_inclusion,
    decompose_by_resorting,
    embed_backtracking,
    random_field,
    random_graph_field,
    random_path_field,
    scenario_suite,
    staircase_field,
)
from mtstab import mergetree
from mtstab.distances import MetricId, tree_distance
from mtstab.errors import DomainMismatchError, DuplicateValueError, NotMinimalError, ValidationError
from mtstab.field import (
    ScalarField,
    apply_value_change,
    build_domain,
    build_grid_domain,
    validate_field,
)
from mtstab.mergetree import build_bdt, merge_tree_of, persistence_branch_decomposition
from mtstab.perturb import (
    ChangeClass,
    apply_perturbation,
    check_minimal,
    classify_change,
    classify_change_detailed,
    decompose_perturbation,
    enumerate_minimal_perturbations,
)
from mtstab.stability import random_grid_field


def path_field(values):
    n = len(values)
    return validate_field(build_domain(n, [(i, i + 1) for i in range(n - 1)]), values)


# ---------------------------------------------------------------------------
# Minimal perturbations
# ---------------------------------------------------------------------------

def test_enumerate_global_maximum_no_up_swap():
    f = path_field([0, 1, 2])
    cands = enumerate_minimal_perturbations(f, 2)
    assert all(not (p.direction == "up" and p.swap_partner is not None) for p in cands)
    assert len(cands) == 3  # up move, down move, down swap


def test_enumerate_middle_vertex():
    f = path_field([0, 2, 1])
    cands = enumerate_minimal_perturbations(f, 2)  # the value-1 vertex
    swaps = {p.direction: p for p in cands if p.swap_partner is not None}
    assert swaps["up"].swap_partner == 1  # passes the value-2 vertex
    assert swaps["down"].swap_partner == 0  # allowed: lands below the minimum
    assert swaps["down"].new_value < 0


@pytest.mark.parametrize("vertex, move", [
    (0, "up"),  # the up move lands on its own value
    (1, "down"),  # the down move lands on vertex 0's value
    (2, "down past vertex 1"),  # the down swap lands on vertex 0's value
], ids=["up", "down", "down-swap"])
def test_enumerate_between_adjacent_floats_raises_a_validation_error(vertex, move):
    """Vertex 0 and vertex 1 hold adjacent floats, so no value lies between
    them. Each move that must land between them raises ValidationError
    naming the vertex and both values, not a duplicate of a value the
    field never held twice."""
    f = path_field([1.0, math.nextafter(1.0, 2.0), 2.0])
    with pytest.raises(ValidationError) as err:
        enumerate_minimal_perturbations(f, vertex)
    assert type(err.value) is ValidationError
    assert str(err.value) == (
        f"vertex {vertex} cannot move {move}: no float lies strictly between "
        "1.0 and 1.0000000000000002"
    )


@pytest.mark.parametrize("values, vertex, move, why", [
    ([1e17, 0.0, 2e17], 2, "up", "2e+17 does not lie strictly between 2e+17 and inf"),
    ([1e17, 0.0, 2e17], 0, "up past vertex 2", "2e+17 does not lie strictly between 2e+17 and inf"),
    ([1e308, 0.0, 1.7e308], 0, "up", "inf does not lie strictly between 1e+308 and 1.7e+308"),
], ids=["step-vanishes", "swap-step-vanishes", "midpoint-overflows"])
def test_enumerate_a_move_that_rounds_outside_its_bounds_raises(values, vertex, move, why):
    """A step of 1.0 past the largest value rounds back to it at 2e17, and
    the midpoint of two values near the largest float overflows: each is a
    ValidationError naming where the move landed and its two bounds."""
    with pytest.raises(ValidationError) as err:
        enumerate_minimal_perturbations(path_field(values), vertex)
    assert type(err.value) is ValidationError
    assert str(err.value) == f"vertex {vertex} cannot move {move}: {why}"


def test_enumerate_candidates_all_validate():
    rng = random.Random(3)
    for _ in range(20):
        f = random_field(rng, 3, 3)
        v = rng.randrange(f.vertex_count)
        for p in enumerate_minimal_perturbations(f, v):
            q = check_minimal(f, apply_perturbation(f, p))
            assert q.vertex == p.vertex and q.swap_partner == p.swap_partner


def test_check_minimal_rejects_double_change():
    f = path_field([0, 1, 2, 3])
    g = validate_field(f.domain, [0, 1.1, 2.2, 3])
    with pytest.raises(NotMinimalError):
        check_minimal(f, g)


def test_check_minimal_rejects_double_crossing():
    f = path_field([0, 1, 2, 3])
    g = apply_value_change(f, 0, 2.5)  # crosses two vertices
    with pytest.raises(NotMinimalError):
        check_minimal(f, g)


def test_check_minimal_domain_mismatch():
    f = path_field([0, 1, 2])
    g = validate_field(build_grid_domain(2, 2), [0, 1, 2, 3])
    with pytest.raises(DomainMismatchError):
        check_minimal(f, g)


def test_check_minimal_identity():
    f = path_field([0, 1, 2])
    p = check_minimal(f, f)
    assert p.vertex is None and p.extent == 0.0


def _outcome(fn, f, f2):
    """fn(f, f2), or the type of the ValidationError it raised."""
    try:
        return fn(f, f2)
    except ValidationError as e:
        return type(e)


def test_check_minimal_matches_the_rank_oracle():
    """check_minimal, which counts the values the moved vertex crosses,
    returns the rank oracle's vertex, values, partner and direction, or
    raises its error type: on moves of one vertex into gaps of the value
    order near it and far from it, on two changed values, and on the
    identity."""
    rng = random.Random(71)
    results = []
    for rows, cols in [(2, 2), (3, 3), (4, 4), (6, 6), (8, 8)] * 50:
        f = random_field(rng, rows, cols)
        n = f.vertex_count
        ranked = sorted(f.values)
        x = rng.randrange(n)
        pairs = [(f, f)]
        for gap in (rng.randrange(n + 1), ranked.index(f.values[x]) + rng.choice((-1, 1, 2))):
            gap = min(max(gap, 0), n)
            lo = ranked[gap - 1] if gap else ranked[0] - 1.0
            hi = ranked[gap] if gap < n else ranked[-1] + 1.0
            pairs.append((f, apply_value_change(f, x, (lo + hi) / 2)))
        values = list(f.values)
        values[x] += 0.25
        values[(x + 1) % n] -= 0.25
        if len(set(values)) == n:
            pairs.append((f, validate_field(f.domain, values)))
        for a, b in pairs:
            got = _outcome(check_minimal, a, b)
            assert got == _outcome(check_minimal_by_ranks, a, b)
            results.append(got)
    assert len(results) >= 1000
    kinds = {r if isinstance(r, type) else r.swap_partner is not None for r in results}
    assert kinds == {NotMinimalError, True, False}


def test_decompose_matches_the_resorting_oracle():
    """decompose_perturbation, which swaps in one value order kept through
    phase one, returns the re-sorting oracle's fields and steps, or raises
    its error type, on grids up to 8x8 and eps up to 2.0."""
    rng = random.Random(72)
    outcomes = []
    for grid, count in ((3, 30), (4, 20), (6, 8), (8, 4)):
        for eps in (0.05, 0.5, 2.0):
            for _ in range(count):
                f = random_grid_field(rng, grid, grid)
                values = [v + rng.uniform(-eps, eps) for v in f.values]
                if len(set(values)) < len(values):
                    continue
                f2 = validate_field(f.domain, values)
                got = _outcome(decompose_perturbation, f, f2)
                assert got == _outcome(decompose_by_resorting, f, f2)
                outcomes.append(got)
    assert len(outcomes) >= 180
    assert DuplicateValueError in outcomes
    assert sum(len(o.steps) for o in outcomes if not isinstance(o, type)) > 10_000


@pytest.mark.xfail(raises=DuplicateValueError, strict=True, reason=(
    "phase one lands each vertex that crosses b at the midpoint just above "
    "b, so the gap above b halves with every crossing until the midpoint "
    "rounds onto an endpoint (ROADMAP item 2)"))
def test_decompose_the_finite_suites_8x8_eps_2_trial_2():
    """Trial 2 of `stability-run --mode finite --grid 8 --eps 2` at seed 0,
    built as the finite suite builds it."""
    rng = random.Random(2)
    f = random_grid_field(rng, 8, 8)
    while True:
        values = [v + rng.uniform(-2.0, 2.0) for v in f.values]
        if len(set(values)) == len(values):
            break
    f2 = validate_field(f.domain, values)
    assert decompose_perturbation(f, f2).fields[-1].values == f2.values


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_identity_classifies_simple_change():
    f = path_field([0, 1, 2])
    assert classify_change(f, f) is ChangeClass.SIMPLE_CHANGE


def test_scenario_suite_classes():
    for sc in scenario_suite():
        got = classify_change(sc.field, sc.perturbed)
        assert got is sc.expected, f"{sc.name}: {got} != {sc.expected}"


def test_scenario_suite_symmetric_direction():
    # the classification predicates are symmetric in the two fields
    for sc in scenario_suite():
        assert classify_change(sc.perturbed, sc.field) is sc.expected, sc.name


def test_scenario_distance_zero_cases():
    guards_ok = (MetricId.E, MetricId.P, MetricId.L, MetricId.G, MetricId.W, MetricId.X)
    for sc in scenario_suite():
        if not sc.distance_zero:
            continue
        t1 = merge_tree_of(sc.field)
        t2 = merge_tree_of(sc.perturbed)
        for m in guards_ok:
            assert tree_distance(m, t1, t2) == pytest.approx(0.0, abs=1e-9), (sc.name, m)


def _lemma_shape_ok(cls, f, f2):
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    b1 = build_bdt(persistence_branch_decomposition(t1))
    b2 = build_bdt(persistence_branch_decomposition(t2))
    dv = abs(t1.node_count() - t2.node_count())
    dbdt = abs(b1.node_count() - b2.node_count())
    if cls is ChangeClass.VERTICAL_SWAP:
        if set(t1.nodes()) != set(t2.nodes()) or t1.parent != t2.parent:
            return False
        diffs = [
            v
            for v in t1.nodes()
            if t1.parent[v] is not None
            and abs(
                (t1.value[v] - t1.value[t1.parent[v]])
                - (t2.value[v] - t2.value[t2.parent[v]])
            )
            > 1e-12
        ]
        return len(diffs) == 1
    if cls is ChangeClass.EDGE_SPLIT:
        return dv == 2 and dbdt == 1
    if cls is ChangeClass.SIMPLE_CHANGE:
        return dv <= 1 and dbdt <= 1 and dv == dbdt
    # horizontal swap: either two saddles trade places or one saddle
    # appears/disappears next to another
    if dv == 0:
        return True
    return dv == 1 and dbdt == 0


def test_classifier_exhaustive_and_lemma_shapes():
    """500 random minimal perturbations: exactly one class, and the
    per-class shape facts on node / edge / BDT counts hold."""
    rng = random.Random(99)
    seen = set()
    for i in range(500):
        f = random_field(rng, 3, 3)
        v = rng.randrange(f.vertex_count)
        cands = enumerate_minimal_perturbations(f, v)
        p = rng.choice(cands)
        f2 = apply_perturbation(f, p)
        cls = classify_change(f, f2)
        assert isinstance(cls, ChangeClass)
        seen.add(cls)
        assert _lemma_shape_ok(cls, f, f2), (cls, f.values, f2.values)
    assert ChangeClass.SIMPLE_CHANGE in seen


def test_classifier_consistency_flags():
    # tree and obdt inclusion flags line up with the class definition
    for sc in scenario_suite():
        info = classify_change_detailed(sc.field, sc.perturbed)
        cls = info.change_class
        if cls is ChangeClass.SIMPLE_CHANGE:
            assert info.tree_included and info.obdt_included
        elif cls is ChangeClass.VERTICAL_SWAP:
            assert info.tree_included and not info.obdt_included
        elif cls is ChangeClass.EDGE_SPLIT:
            assert not info.tree_included and info.obdt_included
        else:
            assert not info.tree_included and not info.obdt_included
            assert info.bdt_included is (cls is ChangeClass.ORDERED_HORIZONTAL_SWAP)


def test_observation_tree_edges_nonneighbor():
    """Swapping with a non-neighbor of the augmented tree keeps its edges."""
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        f = random_field(rng, 3, 3)
        aug = build_augmented(f)
        v = rng.randrange(f.vertex_count)
        for p in enumerate_minimal_perturbations(f, v):
            if p.swap_partner is None:
                continue
            x, y = p.vertex, p.swap_partner
            neighbors = aug.parent[x] == y or aug.parent[y] == x
            f2 = apply_perturbation(f, p)
            aug2 = build_augmented(f2)
            if not neighbors:
                assert aug.parent == aug2.parent
            else:
                # flipped edge and inherited parent
                assert aug2.parent.get(_lower(f2, x, y)) == aug.parent[_lower(f, x, y)]
            checked += 1


def _lower(f, x, y):
    return x if f.values[x] < f.values[y] else y


def test_classifier_on_a_10x10_grid_matches_the_oracle(monkeypatch):
    """Every minimal perturbation of every tree node of a 10x10 field: pairs
    of more than 64 combined tree nodes classify, and every inclusion flag
    is the backtracking oracle's."""
    f = random_field(random.Random(13), 10, 10)
    pairs = [
        (f, apply_perturbation(f, p))
        for v in merge_tree_of(f).sorted_nodes()
        for p in enumerate_minimal_perturbations(f, v)
    ]
    assert all(merge_tree_of(a).node_count() + merge_tree_of(b).node_count() > 64
               for a, b in pairs)
    got = [classify_change_detailed(a, b) for a, b in pairs]
    monkeypatch.setattr(mergetree, "_embed", embed_backtracking)
    assert got == [classify_change_detailed(a, b) for a, b in pairs]
    assert len({info.change_class for info in got}) == 4


def _classified(classify, f, f2):
    try:
        return classify(f, f2)
    except ValidationError as e:
        return type(e), str(e)


def _pairs_for_the_oracle():
    rng = random.Random(2103)
    fields = [random_field(rng, n, n) for n in (3, 4, 5, 6) for _ in range(8)]
    fields += [random_graph_field(rng, rng.randint(2, 12), rng.randint(0, 6)) for _ in range(40)]
    fields += [random_path_field(rng, rng.randint(2, 8)) for _ in range(20)]
    for f in fields:
        yield f, f
        for v in range(f.vertex_count):
            for p in enumerate_minimal_perturbations(f, v):
                yield f, apply_perturbation(f, p)
    for sc in scenario_suite():
        yield sc.field, sc.perturbed
        yield sc.perturbed, sc.field


def test_classifier_matches_the_inclusion_oracle():
    """On every minimal perturbation of random grids, random connected
    graphs and path fields, on the scenarios both ways and on identity
    pairs, the classifier returns the inclusion oracle's Classification, or
    raises its error when a merge tree is invalid. A pair that crosses no
    value builds no tree (docs/decisions.md section 21)."""
    seen, free_classified, free_raised = set(), 0, 0
    for f, f2 in _pairs_for_the_oracle():
        # copies without memos: the oracle memoizes trees on f and f2
        a, b = ScalarField(f.domain, f.values), ScalarField(f2.domain, f2.values)
        got = _classified(classify_change_detailed, a, b)
        assert got == _classified(classify_by_inclusion, f, f2), (f, f2)
        if check_minimal(f, f2).swap_partner is None:
            assert "_memo" not in vars(a) and "_memo" not in vars(b)
            if isinstance(got, tuple):
                free_raised += 1
            else:
                free_classified += 1
        if not isinstance(got, tuple):
            seen.add(got.change_class)
    assert seen == set(ChangeClass)
    assert free_classified > 1000 and free_raised > 0


def test_classifier_on_a_1200_level_staircase():
    """Minimal perturbations of a 2,400-vertex staircase field (a chain of
    1,199 saddles) classify without RecursionError, the same in both
    directions and with their lemma shapes."""
    f = staircase_field(2400, 0.0)
    seen = set()
    for v in (1, 4, 1200, 2398):
        for p in enumerate_minimal_perturbations(f, v):
            f2 = apply_perturbation(f, p)
            cls = classify_change(f, f2)
            assert classify_change(f2, f) is cls
            assert _lemma_shape_ok(cls, f, f2), (v, p)
            seen.add(cls)
    assert seen == {
        ChangeClass.SIMPLE_CHANGE,
        ChangeClass.VERTICAL_SWAP,
        ChangeClass.EDGE_SPLIT,
        ChangeClass.UNORDERED_HORIZONTAL_SWAP,
    }


# ---------------------------------------------------------------------------
# Decomposition into minimal steps
# ---------------------------------------------------------------------------

def test_decompose_identity():
    f = path_field([0, 1, 2])
    seq = decompose_perturbation(f, f)
    assert len(seq.fields) == 1 and not seq.steps


def test_decompose_single_transposition():
    f = path_field([0, 1, 2])
    g = validate_field(f.domain, [0, 2.5, 2])
    seq = decompose_perturbation(f, g)
    swaps = [p for p in seq.steps if p.swap_partner is not None]
    assert len(swaps) == 1
    assert seq.fields[-1].values == g.values


def test_decompose_properties_random():
    rng = random.Random(13)
    for _ in range(30):
        f = random_field(rng, 3, 3)
        eps = 0.08
        while True:
            values = [v + rng.uniform(-eps, eps) for v in f.values]
            if len(set(values)) == len(values):
                break
        g = validate_field(f.domain, values)
        seq = decompose_perturbation(f, g)
        assert seq.fields[0].values == f.values
        assert seq.fields[-1].values == g.values
        n = f.vertex_count
        # every adjacent pair is a (validated) minimal perturbation
        for fa, fb, p in zip(seq.fields, seq.fields[1:], seq.steps):
            q = check_minimal(fa, fb)
            assert q.vertex == p.vertex
        # no unnecessary transpositions: agreeing pairs never cross,
        # disagreeing pairs cross exactly once
        crossings = {}
        for fa, fb in zip(seq.fields, seq.fields[1:]):
            for a in range(n):
                for b in range(a + 1, n):
                    before = fa.values[a] < fa.values[b]
                    after = fb.values[a] < fb.values[b]
                    if before != after:
                        crossings[(a, b)] = crossings.get((a, b), 0) + 1
        inversions = 0
        for a in range(n):
            for b in range(a + 1, n):
                agree = (f.values[a] < f.values[b]) == (g.values[a] < g.values[b])
                if agree:
                    assert (a, b) not in crossings, f"agreeing pair {(a, b)} crossed"
                else:
                    inversions += 1
                    assert crossings.get((a, b)) == 1, f"pair {(a, b)} crossed twice"
        assert len(seq.steps) <= n + inversions
