"""Shared test utilities: random generators, the hand-built scenario suite of
named perturbation cases, the rank-based minimality check, re-sorting
decomposition and inclusion-based classifier that are perturb's oracles,
the sorting BDT and OBDT builders
and BDT dump that are the oracles of mergetree's branch order, canonical
tree comparison, a superlevel-set oracle and the two-pass augmented-tree
builder for merge tree construction, the deformation edit operations with
the top-down deletion replay that is editcore.contract's oracle and the
witness sequences built from it, an independent sequence-search oracle
for the deformation distances, a backtracking oracle for subtree
inclusion, the enumerative Selkow search and all-pairs oracles for the
one-degree DPs, which solve their child blocks on the in-place assignment
matrix, a switch between editcore's two assignment solvers, the
constrained branch and bound for the constrained DP, eager oracles for
the deformation searches, and the unpruned minima of the Tai and
deformation searches."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from mtstab import distances, editcore
from mtstab.editcore import (
    BRUTE_FORCE_NODE_LIMIT,
    EditMapping,
    EditOp,
    _ancestry,
    _better,
    _by_id,
    _collapse_costs,
    _iso,
    _length_diff,
    _order,
    _pairs_key,
    _qualifying_iso,
    _shapes,
    contract,
    cost_model_for,
)
from mtstab.errors import (
    DomainMismatchError,
    InapplicableOperationError,
    NotMinimalError,
    SizeGuardError,
    ValidationError,
)
from mtstab.field import (
    TOLERANCE,
    ScalarField,
    apply_value_change,
    build_domain,
    build_grid_domain,
    validate_field,
)
from mtstab.mergetree import (
    BDT_BIRTH_DEATH,
    BLANK,
    NODE_DIST_TO_PARENT,
    OBDT_BIRTH_DEATH,
    AbstractMergeTree,
    BranchDecomposition,
    LabeledTree,
    _check_abstract_invariants,
    _id_key,
    abstract_merge_tree,
    bdt_included_up_to_iso,
    build_bdt,
    build_obdt,
    label_for_scheme,
    merge_tree_of,
    persistence_branch_decomposition,
    tree_included_up_to_iso,
)
from mtstab.perturb import (
    ChangeClass,
    Classification,
    MinimalPerturbation,
    PerturbationSequence,
    apply_perturbation,
    check_minimal,
)
from mtstab.stability import random_grid_field, random_minimal_perturbation


def random_field(rng: random.Random, rows=3, cols=3):
    dom = build_grid_domain(rows, cols)
    while True:
        values = [rng.random() for _ in range(dom.vertex_count)]
        if len(set(values)) == len(values):
            return validate_field(dom, values)


def random_path_field(rng: random.Random, n=5):
    dom = build_domain(n, [(i, i + 1) for i in range(n - 1)])
    while True:
        values = [rng.random() for _ in range(n)]
        if len(set(values)) == len(values):
            return validate_field(dom, values)


def random_graph_field(rng: random.Random, n, extra_edges):
    """Field on a random connected graph from build_domain: a random
    spanning tree on n vertices plus up to extra_edges further edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra_edges):
        u, v = rng.sample(range(n), 2)
        if (v, u) not in edges:
            edges.add((u, v))
    dom = build_domain(n, edges)
    while True:
        values = [rng.random() for _ in range(n)]
        if len(set(values)) == len(values):
            return validate_field(dom, values)


def staircase_field(vertices, shift):
    """Path field whose saddles rise along the path and whose maxima fall
    along it, every maximum above every saddle.

    Each saddle carries the rest of the chain, so the merge tree is a chain
    of saddles; by the elder rule each maximum's branch ends on the branch
    of the maximum before it, so the BDT is a chain too.
    """
    k = (vertices - 2) // 2
    values = [0.0, 4.0 + shift]
    for j in range(k):
        values += [1.0 + (j + shift) / k, 4.0 - (j + 1 + shift) / (k + 1)]
    domain = build_domain(len(values), [(i, i + 1) for i in range(len(values) - 1)])
    return validate_field(domain, values)


def caterpillar_field(rng: random.Random, nodes):
    """Path field whose merge tree is a caterpillar with `nodes` nodes.

    The global minimum sits at one end; maxima and saddles alternate along
    the path, saddle values rise along it and every maximum lies above
    every saddle, so each saddle carries the rest of the chain plus one
    hanging maximum, and the BDT is a star. The tree shape depends only on
    `nodes`; the seed moves the values.
    """
    k = (nodes - 2) // 2
    saddles = sorted(rng.uniform(1.0, 2.0) for _ in range(k))
    maxima = sorted(rng.uniform(3.0, 4.0) for _ in range(k + 1))
    values = [0.0, maxima[0]]
    for s, m in zip(saddles, maxima[1:]):
        values += [s, m]
    domain = build_domain(len(values), [(i, i + 1) for i in range(len(values) - 1)])
    return validate_field(domain, values)


def random_abstract_tree(rng: random.Random, max_edges=6):
    """Abstract merge tree of a random small field; resamples until the
    edge budget is met."""
    while True:
        t = merge_tree_of(random_field(rng, 3, 3))
        if t.edge_count() <= max_edges:
            return t


def suite_trials(seed, trials, grid_size):
    """(merge tree, perturbed merge tree, perturbation extent) of each trial
    of run_stability_suite(seed, trials, grid_size), drawn as the suite
    draws them."""
    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        f = random_grid_field(rng, grid_size, grid_size)
        p = random_minimal_perturbation(rng, f)
        yield merge_tree_of(f), merge_tree_of(apply_perturbation(f, p)), p.extent


def suite_tree_pairs(seed, trials, grid_size):
    """The merge trees of each trial of run_stability_suite(seed, trials,
    grid_size), drawn as the suite draws them."""
    for t1, t2, _ in suite_trials(seed, trials, grid_size):
        yield t1, t2


def finite_tree_pairs(seed, trials, grid_size, eps):
    """The merge trees of each trial of run_finite_stability(seed, trials,
    grid_size, eps), drawn as the suite draws them."""
    for i in range(trials):
        rng = random.Random(seed * 7_368_787 + i)
        f = random_grid_field(rng, grid_size, grid_size)
        while True:
            values = [v + rng.uniform(-eps, eps) for v in f.values]
            if len(set(values)) == len(values):
                break
        yield merge_tree_of(f), merge_tree_of(validate_field(f.domain, values))


def random_tiny_tree(rng: random.Random, max_edges=3):
    from mtstab.errors import AbstractInvariantError

    while True:
        try:
            t = merge_tree_of(random_path_field(rng, rng.randint(3, 6)))
        except AbstractInvariantError:
            continue  # interior global minimum disconnects a path's superlevel set
        if t.edge_count() <= max_edges:
            return t


# ---------------------------------------------------------------------------
# Scenario suite: one constructed instance per named perturbation case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    field: ScalarField
    perturbed: ScalarField
    expected: ChangeClass
    distance_zero: bool = False  # tree and labels unchanged: all metrics 0


def _field(n, edges, values) -> ScalarField:
    return validate_field(build_domain(n, edges), values)


def _scenario(name, n, edges, values, vertex, new_value, expected, distance_zero=False):
    f = _field(n, edges, values)
    f2 = apply_value_change(f, vertex, new_value)
    check_minimal(f, f2)
    return Scenario(name, f, f2, expected, distance_zero)


def scenario_suite() -> list[Scenario]:
    """Hand-built fields realizing every named case of the perturbation
    case distinction that yields a well-defined class.

    Vertex 1 is the perturbed vertex x in the pass-a-neighbor cases; the
    layouts control which components stay adjacent to x after the move.
    """
    path3 = [(0, 1), (1, 2)]
    path4 = [(0, 1), (1, 2), (2, 3)]
    s = []
    # perturbations without any transposition
    s.append(_scenario("regular_moves", 3, path3, [0, 1, 2], 1, 1.5,
                       ChangeClass.SIMPLE_CHANGE, distance_zero=True))
    s.append(_scenario("minimum_moves", 3, path3, [0, 1, 2], 0, 0.5,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("saddle_moves", 4, [(0, 1), (1, 2), (1, 3)], [0, 1, 3, 4], 1, 1.5,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("maximum_moves", 3, path3, [0, 1, 2], 2, 3.0,
                       ChangeClass.SIMPLE_CHANGE))
    # transpositions of non-neighbors (in the augmented tree)
    s.append(_scenario("regular_passes_nonneighbor", 5,
                       [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)],
                       [0, 1, 2, 3, 4], 2, 3.5,
                       ChangeClass.SIMPLE_CHANGE, distance_zero=True))
    s.append(_scenario("saddle_passes_nonneighbor", 8,
                       [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)],
                       [0, 0.5, 1.0, 1.1, 2, 3, 4, 5], 2, 1.15,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("maximum_passes_maximum_parent_branch", 6,
                       [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                       [0, 4.1, 1, 4.0, 2, 3], 3, 4.2,
                       ChangeClass.VERTICAL_SWAP))
    s.append(_scenario("maximum_passes_maximum_sibling_branch", 6,
                       [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)],
                       [0, 0.5, 2, 1, 2.1, 4], 2, 2.15,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("maximum_passes_regular_nonneighbor", 5,
                       [(0, 1), (1, 2), (0, 3), (3, 4), (1, 3)],
                       [0, 1, 1.4, 1.5, 3], 2, 1.7,
                       ChangeClass.SIMPLE_CHANGE))
    # minimum passes its neighbor
    s.append(_scenario("minimum_passes_neighbor", 3, [(0, 1), (1, 2), (0, 2)],
                       [0, 1, 2], 0, 1.5,
                       ChangeClass.SIMPLE_CHANGE))
    # regular vertex passes a neighbor
    s.append(_scenario("regular_passes_regular_child_stays", 4, path4,
                       [0, 1, 2, 3], 1, 2.5,
                       ChangeClass.EDGE_SPLIT))
    s.append(_scenario("regular_passes_regular_child_moves", 4,
                       path4 + [(1, 3)], [0, 1, 2, 3], 1, 2.5,
                       ChangeClass.SIMPLE_CHANGE, distance_zero=True))
    s.append(_scenario("regular_passes_maximum", 3, path3, [0, 1, 2], 1, 2.5,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("regular_passes_saddle_all_children", 5,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4)],
                       [0, 1, 2, 3, 4], 1, 2.5,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("regular_passes_saddle_no_children", 5,
                       [(0, 1), (1, 2), (2, 3), (2, 4)],
                       [0, 1, 2, 3, 4], 1, 2.5,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("regular_passes_saddle_one_child", 5,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3)],
                       [0, 1, 2, 3, 4], 1, 2.5,
                       ChangeClass.SIMPLE_CHANGE, distance_zero=True))
    s.append(_scenario("regular_passes_saddle_some_children", 6,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (1, 3), (1, 4)],
                       [0, 1, 2, 3, 4, 5], 1, 2.5,
                       ChangeClass.UNORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("regular_passes_saddle_some_children_ordered", 6,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (1, 3), (1, 4)],
                       [0, 1, 2, 5, 4, 3], 1, 2.5,
                       ChangeClass.ORDERED_HORIZONTAL_SWAP))
    # saddle vertex passes a neighbor
    s.append(_scenario("saddle_passes_regular_child_stays_ordered", 6,
                       [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)],
                       [0, 1, 1.5, 3, 4, 5], 1, 1.7,
                       ChangeClass.ORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("saddle_passes_regular_child_stays_unordered", 6,
                       [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)],
                       [0, 1, 1.5, 5, 3, 4], 1, 1.7,
                       ChangeClass.UNORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("saddle_passes_regular_one_child_left", 5,
                       [(0, 1), (1, 2), (2, 3), (1, 4)],
                       [0, 1, 1.5, 3, 4], 1, 1.7,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("saddle_passes_regular_child_moves", 5,
                       [(0, 1), (1, 2), (2, 3), (1, 3), (1, 4)],
                       [0, 1, 1.5, 3, 4], 1, 1.7,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("saddle_passes_maximum_two_children_left", 5,
                       [(0, 1), (1, 2), (1, 3), (1, 4)],
                       [0, 1, 1.5, 3, 4], 1, 2.0,
                       ChangeClass.SIMPLE_CHANGE))
    s.append(_scenario("saddle_passes_maximum_one_child_left", 4,
                       [(0, 1), (1, 2), (1, 3)],
                       [0, 1, 1.5, 3], 1, 2.0,
                       ChangeClass.EDGE_SPLIT))
    s.append(_scenario("saddle_passes_saddle_all_move", 6,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 5)],
                       [0, 1, 2, 5, 6, 7], 1, 2.2,
                       ChangeClass.UNORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("saddle_passes_saddle_all_move_ordered", 6,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 5)],
                       [0, 1, 2, 5, 7, 6], 1, 2.2,
                       ChangeClass.ORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("saddle_passes_saddle_some_stay", 7,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 5), (1, 6)],
                       [0, 1, 2, 5, 6, 7, 8], 1, 2.2,
                       ChangeClass.UNORDERED_HORIZONTAL_SWAP))
    s.append(_scenario("saddle_passes_saddle_all_stay", 6,
                       [(0, 1), (1, 2), (2, 3), (2, 4), (1, 5)],
                       [0, 1, 2, 5, 6, 7], 1, 2.2,
                       ChangeClass.UNORDERED_HORIZONTAL_SWAP))
    return s


def check_minimal_by_ranks(f: ScalarField, f2: ScalarField) -> MinimalPerturbation:
    """Oracle for perturb.check_minimal: sort both fields and compare the
    rank of every vertex. The one changed vertex and at most one other may
    change rank, and then they swap adjacent ranks."""
    if f.domain.vertex_count != f2.domain.vertex_count or f.domain.edges != f2.domain.edges:
        raise DomainMismatchError("fields live on different domains")
    diffs = [v for v in range(f.vertex_count) if f.values[v] != f2.values[v]]
    if not diffs:
        return MinimalPerturbation(None, None, None, None, "none")
    if len(diffs) > 1:
        raise NotMinimalError(f"{len(diffs)} vertex values differ: {diffs}")
    (x,) = diffs
    order1 = sorted(range(f.vertex_count), key=f.values.__getitem__)
    order2 = sorted(range(f.vertex_count), key=f2.values.__getitem__)
    rank1 = {v: i for i, v in enumerate(order1)}
    rank2 = {v: i for i, v in enumerate(order2)}
    moved = [v for v in range(f.vertex_count) if rank1[v] != rank2[v]]
    direction = "up" if f2.values[x] > f.values[x] else "down"
    if not moved:
        return MinimalPerturbation(x, f.values[x], f2.values[x], None, direction)
    if len(moved) != 2 or x not in moved:
        raise NotMinimalError(f"vertex order changed at {moved}, not one transposition")
    y = moved[0] if moved[1] == x else moved[1]
    if abs(rank1[x] - rank1[y]) != 1 or rank1[x] != rank2[y] or rank1[y] != rank2[x]:
        raise NotMinimalError(f"vertices {x} and {y} do not swap adjacent ranks")
    return MinimalPerturbation(x, f.values[x], f2.values[x], y, direction)


def decompose_by_resorting(f: ScalarField, f2: ScalarField) -> PerturbationSequence:
    """Oracle for perturb.decompose_perturbation: phase one re-sorts the
    field after every swap and swaps the lowest inverted adjacent pair, and
    every step is checked by check_minimal_by_ranks."""
    if f.domain.vertex_count != f2.domain.vertex_count or f.domain.edges != f2.domain.edges:
        raise DomainMismatchError("fields live on different domains")
    fields, steps = [f], []

    def push(vertex, new_value):
        nxt = apply_value_change(fields[-1], vertex, new_value)
        steps.append(check_minimal_by_ranks(fields[-1], nxt))
        fields.append(nxt)

    n = f.vertex_count
    target_rank = {v: i for i, v in enumerate(sorted(range(n), key=f2.values.__getitem__))}
    while True:
        values = fields[-1].values
        order = sorted(range(n), key=values.__getitem__)
        swap = next(((a, b) for a, b in zip(order, order[1:]) if target_rank[a] > target_rank[b]), None)
        if swap is None:
            break
        a, b = swap
        pos = order.index(b)
        push(a, (values[b] + values[order[pos + 1]]) / 2 if pos + 1 < n else values[b] + 1.0)
    order = sorted(range(n), key=fields[-1].values.__getitem__)
    for v in order:
        if f2.values[v] < fields[-1].values[v]:
            push(v, f2.values[v])
    for v in reversed(order):
        if f2.values[v] > fields[-1].values[v]:
            push(v, f2.values[v])
    if fields[-1].values != f2.values:
        raise NotMinimalError("decomposition failed to reach the target field")
    return PerturbationSequence(tuple(fields), tuple(steps))


def classify_by_inclusion(f: ScalarField, f2: ScalarField) -> Classification:
    """Oracle for perturb.classify_change_detailed: every pair, crossing or
    not, goes through the inclusion tests on both merge trees and both
    OBDTs (and both BDTs for a horizontal swap), up to renaming of the
    perturbed vertex and its swap partner."""
    p = check_minimal(f, f2)
    exempt = frozenset(v for v in (p.vertex, p.swap_partner) if v is not None)
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    bd1, bd2 = persistence_branch_decomposition(t1), persistence_branch_decomposition(t2)

    def both_ways(check, a, b):
        return check(a, b, exempt=exempt) or check(b, a, exempt=exempt)

    tree_inc = both_ways(tree_included_up_to_iso, t1, t2)
    obdt_inc = both_ways(bdt_included_up_to_iso, build_obdt(bd1), build_obdt(bd2))
    if tree_inc and obdt_inc:
        cls = ChangeClass.SIMPLE_CHANGE
    elif tree_inc:
        cls = ChangeClass.VERTICAL_SWAP
    elif obdt_inc:
        cls = ChangeClass.EDGE_SPLIT
    else:
        bdt_inc = both_ways(bdt_included_up_to_iso, build_bdt(bd1), build_bdt(bd2))
        cls = (
            ChangeClass.ORDERED_HORIZONTAL_SWAP
            if bdt_inc
            else ChangeClass.UNORDERED_HORIZONTAL_SWAP
        )
        return Classification(cls, p, tree_inc, obdt_inc, bdt_inc)
    return Classification(cls, p, tree_inc, obdt_inc, None)


def superlevel_components(field, threshold):
    """Connected components of the strict superlevel set {v : f(v) > t}.

    Test oracle for merge tree construction; returned sorted by min vertex id.
    """
    alive = {v for v in range(field.vertex_count) if field.values[v] > threshold}
    comps = []
    unseen = set(alive)
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        unseen.discard(start)
        while stack:
            v = stack.pop()
            for w in field.domain.adjacency[v]:
                if w in alive and w not in comp:
                    comp.add(w)
                    unseen.discard(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


class AugmentedMergeTree(AbstractMergeTree):
    """Split tree over all field vertices."""


def build_augmented(field: ScalarField) -> AugmentedMergeTree:
    """Descending sweep with union-find over superlevel components.

    Processing vertices by decreasing value, each vertex becomes the lowest
    vertex of the union of adjacent components above it; their previous
    lowest vertices get it as parent.
    """
    values = field.values
    order = sorted(range(field.vertex_count), key=lambda v: -values[v])
    uf_parent = {}
    lowest = {}

    def find(v):
        r = v
        while uf_parent[r] != r:
            r = uf_parent[r]
        while uf_parent[v] != r:
            uf_parent[v], v = r, uf_parent[v]
        return r

    parent = {}
    for v in order:
        uf_parent[v] = v
        lowest[v] = v
        parent[v] = None
        for u in field.domain.adjacency[v]:
            if values[u] > values[v]:
                r = find(u)
                if lowest[r] != v:
                    parent[lowest[r]] = v
                    uf_parent[r] = find(v)
                    lowest[find(v)] = v
    root = order[-1]
    return AugmentedMergeTree(parent, {v: values[v] for v in range(field.vertex_count)}, root)


def prune_to_abstract(aug: AugmentedMergeTree) -> AbstractMergeTree:
    """Contract away regular vertices (exactly one child, not the root)."""
    keep = {
        v
        for v in aug.nodes()
        if v == aug.root or aug.child_count(v) != 1
    }
    parent = {}
    for v in keep:
        if v == aug.root:
            parent[v] = None
            continue
        p = aug.parent[v]
        while p not in keep:
            p = aug.parent[p]
        parent[v] = p
    tree = AbstractMergeTree(parent, {v: aug.value[v] for v in keep}, aug.root)
    _check_abstract_invariants(tree)
    return tree


def _sorting_key(b):
    return (b.death, b.birth, str(b.leaf))


def build_bdt_by_sorting(bd: BranchDecomposition) -> LabeledTree:
    """Oracle for mergetree.build_bdt: each branch's children sorted by
    (death, birth, leaf) instead of read in bd's branch order."""
    parent = {}
    children = {b: [] for b in bd.branches}
    for b in bd.branches:
        p = None if b is bd.main else bd.containing[b.start]
        parent[b] = p
        if p is not None:
            children[p].append(b)
    labels = {b: (b.birth, b.death) for b in bd.branches}
    ordered = {b: tuple(sorted(c, key=_sorting_key)) for b, c in children.items()}
    return LabeledTree(BDT_BIRTH_DEATH, bd.main, parent, labels, ordered)


def build_obdt_by_position(bd: BranchDecomposition) -> LabeledTree:
    """Oracle for mergetree.build_obdt: each branch's children grouped by
    the position of their start on the branch, the groups sorted by that
    position and each group by (birth, leaf), instead of taken as runs."""
    bdt = build_bdt_by_sorting(bd)
    groups = {}
    for b in bd.branches:
        pos = {v: i for i, v in enumerate(b.nodes)}
        by_attach = {}
        for c in bdt.children[b]:
            by_attach.setdefault(pos[c.start], []).append(c)
        groups[b] = tuple(
            tuple(sorted(by_attach[i], key=lambda a: (a.birth, str(a.leaf))))
            for i in sorted(by_attach)
        )
    return LabeledTree(OBDT_BIRTH_DEATH, bdt.root, bdt.parent, bdt.labels, bdt.children, groups)


def bdt_to_dict_by_sorting(bdt: LabeledTree) -> dict:
    """Oracle for mergetree.bdt_to_dict: the branches sorted by (death,
    birth, leaf) instead of walked in the BDT's node order."""
    out = []
    for b in sorted(bdt.nodes(), key=_sorting_key):
        entry = {
            "branch": b.name,
            "birth": b.birth,
            "death": b.death,
            "parent": bdt.parent[b].name if bdt.parent[b] is not None else None,
        }
        if bdt.groups is not None:
            entry["child_order"] = [[c.name for c in grp] for grp in bdt.groups[b]]
        out.append(entry)
    return {"root": bdt.root.name, "branches": out}


def labeled_canonical(lt):
    """Order-insensitive canonical form of a labeled tree."""

    def norm(label):
        if label is BLANK:
            return "blank"
        if isinstance(label, tuple):
            return tuple(round(x, 9) for x in label)
        return round(label, 9)

    def key(v):
        return (norm(lt.labels[v]), tuple(sorted(key(c) for c in lt.children[v])))

    return key(lt.root)


def length_tree(parent: dict, length: dict, root) -> LabeledTree:
    """The tree of `parent` labeled by distance to the parent, `length`
    holding each non-root node's; children sorted by id, as
    editcore.contract sorts them."""
    labels = {v: BLANK if p is None else float(length[v]) for v, p in parent.items()}
    return _by_id(NODE_DIST_TO_PARENT, root, dict(parent), labels)


def edges_of(lt: LabeledTree):
    """The non-root nodes of lt, each standing for its parent edge."""
    return [v for v, p in lt.parent.items() if p is not None]


# ---------------------------------------------------------------------------
# Deformation edit operations: the top-down deletion replay and witnesses
# ---------------------------------------------------------------------------

def apply_edge_op(lt: LabeledTree, op: EditOp) -> LabeledTree:
    """The tree, labeled by distance to the parent, that one deformation
    operation leaves, a new LabeledTree; raises KeyError or ValueError when
    op does not apply. A delete moves the edge's children to its parent and
    then prunes every node left regular, merging its edge into its child's
    (lengths sum). An insert with a split first cuts an existing edge in two
    at a new inner node."""
    parent, length = dict(lt.parent), dict(lt.labels)
    if op.kind == "edge_relabel":
        if parent.get(op.node) is None:
            raise KeyError(f"no edge below {op.node!r}")
        length[op.node] = float(op.label)
    elif op.kind == "edge_delete":
        v = op.node
        if parent.get(v) is None:
            raise KeyError(f"no edge below {v!r}")
        if abs(length[v] - op.cost) > TOLERANCE:
            raise ValueError(f"recorded cost {op.cost} does not match current length {length[v]}")
        for c in lt.children[v]:
            parent[c] = parent[v]
        del parent[v], length[v]
        _prune_regular(parent, length)
    elif op.kind == "edge_insert":
        v = op.node
        if v in parent:
            raise ValueError(f"node {v!r} already present")
        attach = op.parent
        if op.split is not None:
            child_edge, inner, upper, lower = op.split
            if parent.get(child_edge) is None:
                raise KeyError(f"no edge below {child_edge!r} to split")
            if inner in parent:
                raise ValueError(f"node {inner!r} already present")
            if abs(length[child_edge] - (upper + lower)) > TOLERANCE:
                raise ValueError("split lengths do not sum to the split edge")
            parent[inner], length[inner] = parent[child_edge], float(lower)
            parent[child_edge], length[child_edge] = inner, float(upper)
            attach = inner
        if attach not in parent:
            raise KeyError(f"no attach node {attach!r}")
        for c in op.moved_children:
            if parent.get(c) != attach:
                raise ValueError(f"{c!r} is not a child of {attach!r}")
        parent[v], length[v] = attach, float(op.label)
        for c in op.moved_children:
            parent[c] = v
    else:
        raise ValueError(f"unknown edge op {op.kind!r}")
    return _by_id(NODE_DIST_TO_PARENT, lt.root, parent, length)


def _prune_regular(parent, length):
    """Fold every non-root node with exactly one child into that child, in
    the order of the parent map; the child keeps its id and its edge takes
    both lengths (`length` maps each node to its label). A fold changes no
    node's child count, so one pass finds every regular node."""
    kids = {}
    for v, p in parent.items():
        kids.setdefault(p, []).append(v)
    only = {v: cs[0] for v, cs in kids.items() if len(cs) == 1}
    for v in list(parent):
        p = parent[v]
        if p is None or v not in only:
            continue
        c = only[v]
        length[c] += length[v]
        parent[c] = p
        del parent[v], length[v]
        if p in only:
            only[p] = c


def check_edge_sequence(tree, sequence) -> LabeledTree:
    """Apply a sequence of deformation operations, a tuple of EditOp, to a
    merge tree (its NODE_DIST_TO_PARENT labeling) or a tree labeled by
    distance to the parent; raises InapplicableOperationError with the
    offending step index."""
    current = (
        label_for_scheme(tree, NODE_DIST_TO_PARENT) if isinstance(tree, AbstractMergeTree) else tree
    )
    for i, op in enumerate(sequence):
        try:
            current = apply_edge_op(current, op)
        except (KeyError, ValueError) as exc:
            raise InapplicableOperationError(i, str(exc)) from exc
    return current


def delete_phase_ops(lt: LabeledTree, deleted):
    """(steps, resulting tree) of the top-down deletion of `deleted`, the
    operational replay of a delete phase. A step is (op, the edge's length
    before op, parent, children, split). For an edge_delete, parent and
    children are the edge's before op, and split is what inserting the edge
    back needs when an automatic prune followed the delete, in
    EditOp.split's layout: (the merged edge, the pruned parent, upper, lower
    length). When a prune folded a still-pending edge into a survivor, the
    pending deletion turns into an equal-cost relabel of the merged edge.
    """
    deleted = set(deleted)
    if lt.root in deleted:
        raise ValidationError("the root has no parent edge to delete")
    depth = {lt.root: 0}
    for v in _order(lt)[1:]:
        depth[v] = depth[lt.parent[v]] + 1
    sim = lt
    steps = []
    for v in sorted(deleted, key=lambda u: (depth[u], _id_key(u))):
        planned = lt.labels[v]
        cur = sim.labels[v]
        if abs(cur - planned) > TOLERANCE:
            # an automatic prune folded an ancestor edge into v; shaving off
            # v's own length removes exactly the planned material
            op = EditOp("edge_relabel", v, planned, label=cur - planned)
            steps.append((op, cur, None, (), None))
        else:
            parent, children = sim.parent[v], tuple(sim.children[v])
            split = None
            if sim.parent[parent] is not None:
                after = [c for c in sim.children[parent] if c != v] + list(children)
                if len(after) == 1:
                    (merged,) = after
                    split = (merged, parent, sim.labels[merged], sim.labels[parent])
            op = EditOp("edge_delete", v, cur)
            steps.append((op, cur, parent, children, split))
        sim = apply_edge_op(sim, op)
    return steps, sim


def replay_contract(lt: LabeledTree, deleted) -> LabeledTree:
    """Oracle of editcore.contract: the tree the top-down deletion replay
    of `deleted` leaves, with the node ids an actual edit sequence gives.
    Same shape and lengths as contract's, node ids may differ."""
    return delete_phase_ops(lt, deleted)[1]


@dataclass(frozen=True)
class DeformWitness:
    """A deformation plan: the two delete sets and the isomorphism of their
    quotients. iso_pairs name the nodes of replay_contract(lt1, deleted1)
    and replay_contract(lt2, deleted2), so deform_sequence rebuilds both
    quotients from the delete sets."""

    deleted1: frozenset
    deleted2: frozenset
    iso_pairs: tuple


def deform_sequence(t1, t2, witness: DeformWitness) -> tuple:
    """The normalized sequence of a deformation witness, a tuple of EditOp:
    T1's delete phase, the relabels of the isomorphism, then T2's delete
    phase run backwards, each step inverted into an insert or relabel."""
    steps1, q1 = delete_phase_ops(label_for_scheme(t1, NODE_DIST_TO_PARENT), witness.deleted1)
    steps2, q2 = delete_phase_ops(label_for_scheme(t2, NODE_DIST_TO_PARENT), witness.deleted2)
    ops = [step[0] for step in steps1]
    to_current = {b: a for a, b in witness.iso_pairs}
    for a, b in sorted(witness.iso_pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1]))):
        if q1.parent[a] is None:
            continue
        if abs(q1.labels[a] - q2.labels[b]) > TOLERANCE:
            ops.append(
                EditOp("edge_relabel", a, abs(q1.labels[a] - q2.labels[b]), label=q2.labels[b])
            )
    existing = set(q1.parent)
    fresh = {}

    def name_of(w):
        if w in to_current:
            return to_current[w]
        if w not in fresh:
            cand = w
            while cand in existing:
                cand = f"+{cand}"
            fresh[w] = cand
            existing.add(cand)
        return fresh[w]

    for op, before, parent, children, split in reversed(steps2):
        v = name_of(op.node)
        if op.kind == "edge_relabel":
            ops.append(EditOp("edge_relabel", v, op.cost, label=before))
            continue
        parent, children = name_of(parent), tuple(name_of(c) for c in children)
        if split is not None:
            split = (name_of(split[0]), name_of(split[1]), *split[2:])
        ops.append(
            EditOp(
                "edge_insert", v, before, label=before,
                parent=parent, moved_children=children, split=split,
            )
        )
    return tuple(ops)


# ---------------------------------------------------------------------------
# Independent oracle: Dijkstra over canonicalized length-labeled trees
# ---------------------------------------------------------------------------

def _frontier_moves(lt: LabeledTree, labels, one_degree, counter):
    """All applicable single operations with their costs and results."""
    moves = []

    def emit(op, cost):
        moves.append((cost, apply_edge_op(lt, op)))
    for v in edges_of(lt):
        if one_degree and lt.children[v]:
            continue
        emit(EditOp("edge_delete", v, lt.labels[v]), lt.labels[v])
    for v in edges_of(lt):
        for t in labels:
            if abs(t - lt.labels[v]) > 1e-9:
                emit(EditOp("edge_relabel", v, abs(t - lt.labels[v]), label=t), abs(t - lt.labels[v]))
    for ell in labels:
        for p in list(lt.parent):
            kids = lt.children[p]
            subsets = [()] if one_degree else [
                tuple(s) for r in range(len(kids) + 1) for s in itertools.combinations(kids, r)
            ]
            for moved in subsets:
                name = f"n{next(counter)}"
                emit(
                    EditOp("edge_insert", name, ell, label=ell, parent=p, moved_children=moved),
                    ell,
                )
        for e in edges_of(lt):  # split inserts
            total = lt.labels[e]
            for lower in labels:
                if lower <= 1e-9 or lower >= total - 1e-9:
                    continue
                name_leaf = f"n{next(counter)}"
                name_inner = f"m{next(counter)}"
                emit(
                    EditOp(
                        "edge_insert",
                        name_leaf,
                        ell,
                        label=ell,
                        parent=name_inner,
                        moved_children=(),
                        split=(e, name_inner, total - lower, lower),
                    ),
                    ell,
                )
    return moves


def _candidate_labels(lt1: LabeledTree, lt2: LabeledTree):
    """All downward path sums of both trees (achievable merged lengths)."""
    out = set()
    for lt in (lt1, lt2):
        for v in edges_of(lt):
            total = 0.0
            cur = v
            while lt.parent[cur] is not None:
                total += lt.labels[cur]
                out.add(round(total, 9))
                cur = lt.parent[cur]
    return sorted(out)


def deform_sequence_search(t1, t2, one_degree=False, *, cost_cap, max_extra_nodes=2):
    """Shortest edit-sequence cost from t1 to t2 over deformation operations,
    found by Dijkstra over canonicalized trees, or inf if none costs at most
    cost_cap. Relabels and insertions are restricted to the path-sum label
    set of the two trees; exact for tiny instances whose optimum only needs
    such labels, which covers every normalized plan.

    cost_cap is required: the search expands every state cheaper than the
    optimum, and without a cap it did not finish within 300 s on the 6-node
    fig8 pair, whose capped search at 0.2 returns inf in seconds."""
    lt1, lt2 = (
        t if isinstance(t, LabeledTree) else label_for_scheme(t, NODE_DIST_TO_PARENT)
        for t in (t1, t2)
    )
    labels = _candidate_labels(lt1, lt2)
    goal = labeled_canonical(lt2)
    max_nodes = max(len(lt1.parent), len(lt2.parent)) + max_extra_nodes
    dist = {labeled_canonical(lt1): 0.0}
    heap = [(0.0, 0, lt1)]
    counter = itertools.count(1)
    names = itertools.count()
    while heap:
        d, _, lt = heapq.heappop(heap)
        key = labeled_canonical(lt)
        if key == goal:
            return d
        if d > dist.get(key, float("inf")) + 1e-12:
            continue
        for cost, nxt in _frontier_moves(lt, labels, one_degree, names):
            nd = d + cost
            if nd > cost_cap + 1e-9:
                continue
            if len(nxt.parent) > max_nodes:
                continue
            k = labeled_canonical(nxt)
            if nd < dist.get(k, float("inf")) - 1e-12:
                dist[k] = nd
                heapq.heappush(heap, (nd, next(counter), nxt))
    return float("inf")


def _group_index(groups):
    """Each child's position among one node's ordered child groups."""
    return {c: i for i, grp in enumerate(groups) for c in grp}


def _order_consistent(gi1, gi2, pairs, a, b):
    """Mapped sibling pairs must agree on the attachment order exactly:
    same group iff same group, strictly before iff strictly before."""
    for a2, b2 in pairs:
        same1 = gi1[a] == gi1[a2]
        same2 = gi2[b] == gi2[b2]
        if same1 != same2:
            return False
        if not same1 and ((gi1[a] < gi1[a2]) != (gi2[b] < gi2[b2])):
            return False
    return True


def embed_backtracking(root1, root2, children1, children2, compatible, groups1, groups2):
    """Test oracle of mergetree._embed, with the same arguments and meaning:
    a recursive search over child assignments that backtracks on failure,
    exponential in the worst case, so only for small trees."""
    sizes1 = {}
    sizes2 = {}

    def size(v, children, sizes):
        if v not in sizes:
            sizes[v] = 1 + sum(size(c, children, sizes) for c in children[v])
        return sizes[v]

    def rec(u, w):
        if not compatible(u, w):
            return False
        if size(u, children1, sizes1) > size(w, children2, sizes2):
            return False
        cs1 = list(children1[u])
        cs2 = list(children2[w])
        if len(cs1) > len(cs2):
            return False
        if groups1 is not None:
            gi1 = _group_index(groups1[u])
            gi2 = _group_index(groups2[w])

        def assign(i, used, pairs):
            if i == len(cs1):
                return True
            a = cs1[i]
            for b in cs2:
                if b in used:
                    continue
                if groups1 is not None and not _order_consistent(gi1, gi2, pairs, a, b):
                    continue
                if rec(a, b):
                    used.add(b)
                    pairs.append((a, b))
                    if assign(i + 1, used, pairs):
                        return True
                    pairs.pop()
                    used.discard(b)
            return False

        return assign(0, set(), [])

    return rec(root1, root2)


# ---------------------------------------------------------------------------
# Oracles of the one-degree DPs: the Selkow search and all-pairs DPs
# ---------------------------------------------------------------------------

def selkow_brute_force(l1, l2):
    """Exact optimum over Selkow (one-degree) mappings, by enumeration:
    roots mapped, parents of mapped pairs mapped, child order honored when
    both trees are ordered. Returns (cost, EditMapping), ties resolved
    toward the lexicographically smallest mapping, with the cost model of
    l1's label scheme; trees above BRUTE_FORCE_NODE_LIMIT nodes raise
    SizeGuardError. Independent of the DPs it checks; optima of node pairs
    are kept for this call."""
    n = max(l1.node_count(), l2.node_count())
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise SizeGuardError("brute-force mapping search", n, BRUTE_FORCE_NODE_LIMIT)
    cost = cost_model_for(l1)
    ordered = l1.groups is not None and l2.groups is not None
    del1 = _collapse_costs(l1, cost)
    ins2 = _collapse_costs(l2, cost)
    memo = {}

    def best(v, w):
        if (v, w) in memo:
            return memo[v, w]
        cs1 = sorted(l1.children[v], key=_id_key)
        cs2 = sorted(l2.children[w], key=_id_key)
        gi1 = _group_index(l1.groups[v]) if ordered else None
        gi2 = _group_index(l2.groups[w]) if ordered else None
        state = [math.inf, None, None]  # cost, flat pairs, key

        def rec(i, used, acc, chosen):
            if i == len(cs1):
                total = acc + sum(ins2[d] for d in cs2 if d not in used)
                flat = []
                for _, _, sub in chosen:
                    flat.extend(sub)
                fkey = _pairs_key(flat)
                if _better(total, fkey, state[0], state[2]):
                    state[0], state[1], state[2] = total, tuple(flat), fkey
                return
            a = cs1[i]
            rec(i + 1, used, acc + del1[a], chosen)
            for b in cs2:
                if b in used:
                    continue
                if ordered and not _order_consistent(
                    gi1, gi2, [(x, y) for x, y, _ in chosen], a, b
                ):
                    continue
                sub_cost, sub_pairs = best(a, b)
                used.add(b)
                chosen.append((a, b, sub_pairs))
                rec(i + 1, used, acc + sub_cost, chosen)
                chosen.pop()
                used.discard(b)

        rec(0, set(), 0.0, [])
        memo[v, w] = (
            cost.relabel(l1.labels[v], l2.labels[w]) + state[0],
            ((v, w),) + tuple(state[1]),
        )
        return memo[v, w]

    c, pairs = best(l1.root, l2.root)
    return c, EditMapping.of(pairs)


# ---------------------------------------------------------------------------
# Oracle of the constrained DP: Zhang's mappings by branch and bound
# ---------------------------------------------------------------------------

def _lca_tables(lt, anc):
    """lca[a][b], the lowest common ancestor of a and b, and related[x], the
    nodes that are x, above x or below x."""
    up = {x: anc[x] | {x} for x in lt.nodes()}
    related = {x: up[x] | {y for y in lt.nodes() if x in anc[y]} for x in lt.nodes()}
    lca = {a: {b: max(up[a] & up[b], key=lambda x: len(anc[x])) for b in up} for a in up}
    return lca, related


def _zhang_ok(tables1, tables2, pairs, v3, w3):
    """Whether adding (v3, w3) to the Tai mapping `pairs` keeps every
    lowest-common-ancestor triple condition of the constrained edit
    distance: lca(a, b) is related to c in one tree iff it is in the other,
    for every three pairs. Triples with a repeated pair hold already."""
    (lca1, rel1), (lca2, rel2) = tables1, tables2
    for i, (v1, w1) in enumerate(pairs):
        for v2, w2 in pairs[i + 1:]:
            if (v3 in rel1[lca1[v1][v2]]) != (w3 in rel2[lca2[w1][w2]]):
                return False
        up1, up2 = rel1[lca1[v1][v3]], rel2[lca2[w1][w3]]
        for v2, w2 in pairs:
            if (v2 in up1) != (w2 in up2):
                return False
    return True


def zhang_brute_force(l1, l2, node_limit=BRUTE_FORCE_NODE_LIMIT):
    """Exact optimum over Zhang's constrained mappings: one-to-one,
    ancestor-preserving (Tai) and keeping every lowest-common-ancestor
    triple condition. Branch and bound in the order of the Tai search:
    each node of l1 by id takes each free compatible partner in turn, then
    none. Blank labels must mark both roots or neither, and blank roots map
    to each other. Returns (cost, EditMapping), ties resolved toward the
    lexicographically smallest mapping, with the cost model of l1's label
    scheme; trees above node_limit nodes raise SizeGuardError."""
    n = max(l1.node_count(), l2.node_count())
    if n > node_limit:
        raise SizeGuardError("brute-force mapping search", n, node_limit)
    cost = cost_model_for(l1)
    anc1, anc2 = _ancestry(l1), _ancestry(l2)
    all1, all2 = sorted(l1.nodes(), key=_id_key), sorted(l2.nodes(), key=_id_key)
    blank1 = [v for v in all1 if l1.labels[v] is BLANK]
    blank2 = [w for w in all2 if l2.labels[w] is BLANK]
    if len(blank1) > 1 or len(blank2) > 1 or bool(blank1) != bool(blank2):
        raise ValidationError("blank labels must mark exactly the two roots")
    nodes1 = [v for v in all1 if l1.labels[v] is not BLANK]
    nodes2 = [w for w in all2 if l2.labels[w] is not BLANK]
    del_cost = {v: cost.delete(l1.labels[v]) for v in nodes1}
    ins_cost = {w: cost.delete(l2.labels[w]) for w in nodes2}
    base = sum(del_cost.values()) + sum(ins_cost.values())
    gains = {
        v: {w: cost.relabel(l1.labels[v], l2.labels[w]) - del_cost[v] - ins_cost[w]
            for w in nodes2}
        for v in nodes1
    }
    suffix = [0.0] * (len(nodes1) + 1)
    for i in range(len(nodes1) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(0.0, min(gains[nodes1[i]].values(), default=0.0))
    tables1, tables2 = _lca_tables(l1, anc1), _lca_tables(l2, anc2)
    best = [math.inf, None, None]  # cost, pairs, key
    margin = TOLERANCE * (1.0 + base)  # covers the rounding of the bound

    def dfs(i, pairs, used, gain_acc):
        if base + gain_acc + suffix[i] - margin > best[0]:
            return
        if i == len(nodes1):
            key = _pairs_key(pairs)
            if _better(base + gain_acc, key, best[0], best[2]):
                best[0], best[1], best[2] = base + gain_acc, tuple(pairs), key
            return
        v = nodes1[i]
        for w in nodes2:
            if w in used:
                continue
            ok = True
            for v2, w2 in pairs:
                if (v2 in anc1[v]) != (w2 in anc2[w]) or (v in anc1[v2]) != (w in anc2[w2]):
                    ok = False
                    break
            if not ok or not _zhang_ok(tables1, tables2, pairs, v, w):
                continue
            pairs.append((v, w))
            used.add(w)
            dfs(i + 1, pairs, used, gain_acc + gains[v][w])
            used.discard(w)
            pairs.pop()
        dfs(i + 1, pairs, used, gain_acc)

    dfs(0, list(zip(blank1, blank2)), set(), 0.0)
    return best[0], EditMapping.of(best[1])


def tai_minimum_unpruned(l1, l2):
    """delta_G's exact oracle: the least float over every Tai mapping of l1
    and l2, no bound pruning and no tie-break. Each mapping's total is
    base + its gains added from 0.0 in the first tree's id order, the sums
    editcore._tai_dfs forms; blank roots map to each other."""
    cost = cost_model_for(l1)
    anc1, anc2 = _ancestry(l1), _ancestry(l2)
    all1, all2 = sorted(l1.nodes(), key=_id_key), sorted(l2.nodes(), key=_id_key)
    nodes1 = [v for v in all1 if l1.labels[v] is not BLANK]
    nodes2 = [w for w in all2 if l2.labels[w] is not BLANK]
    forced = [(v, w) for v in all1 if l1.labels[v] is BLANK for w in all2 if l2.labels[w] is BLANK]
    del_cost = {v: cost.delete(l1.labels[v]) for v in nodes1}
    ins_cost = {w: cost.delete(l2.labels[w]) for w in nodes2}
    base = sum(del_cost.values()) + sum(ins_cost.values())

    def totals(i, pairs, gain_acc):
        if i == len(nodes1):
            yield base + gain_acc
            return
        v = nodes1[i]
        for w in nodes2:
            if all(w != w2 and (v2 in anc1[v]) == (w2 in anc2[w]) and (v in anc1[v2]) == (w in anc2[w2])
                   for v2, w2 in pairs):
                gain = cost.relabel(l1.labels[v], l2.labels[w]) - del_cost[v] - ins_cost[w]
                yield from totals(i + 1, pairs + [(v, w)], gain_acc + gain)
        yield from totals(i + 1, pairs, gain_acc)

    return min(totals(0, forced, 0.0))


def assignment_matrix_reference(cost_rows, del_costs, ins_costs):
    """The augmented matrix distances._assignment_min hands the solver,
    filled in place in one np.full array, as it was for every block size
    before small blocks were built from lists."""
    n1, n2 = len(del_costs), len(ins_costs)
    big = (
        sum(max(0.0, max(r, default=0.0)) for r in cost_rows)
        + sum(del_costs)
        + sum(ins_costs)
        + 1.0
    )
    size = n1 + n2
    mat = np.full((size, size), big)
    mat[:n1, :n2] = cost_rows
    mat[n1:, n2:] = 0.0
    diag1, diag2 = np.arange(n1), np.arange(n2)
    mat[diag1, n2 + diag1] = del_costs
    mat[n1 + diag2, diag2] = ins_costs
    return mat


def assignment_min_reference(cost_rows, del_costs, ins_costs):
    """Oracle of distances._assignment_min: its empty and 1x1 cases, and
    the solver's value on assignment_matrix_reference otherwise."""
    n1, n2 = len(del_costs), len(ins_costs)
    if n1 == 0:
        return sum(ins_costs)
    if n2 == 0:
        return sum(del_costs)
    if n1 == 1 and n2 == 1:
        c, d, i = cost_rows[0][0], del_costs[0], ins_costs[0]
        return c if c <= d or c - d < i else d + i
    mat = assignment_matrix_reference(cost_rows, del_costs, ins_costs)
    rows, cols = linear_sum_assignment(mat)
    return float(mat[rows, cols].sum())


def solved_both_ways(monkeypatch, fn):
    """(fn() with every list matrix solved by editcore's Python solver, fn()
    with every matrix solved by the compiled one, the number of matrices
    the Python solver answered): the two paths between which
    editcore.linear_sum_assignment chooses by whether numpy is imported.
    fn must build its inputs itself, so that no memo carries a value from
    the first call to the second."""
    calls = [0]

    def python_first(mat):
        if type(mat) is list:
            calls[0] += 1
            return editcore._solve_in_python(mat)
        return editcore._solver()(mat)

    results = []
    for solve in (python_first, editcore._solver()):
        monkeypatch.setattr(editcore, "linear_sum_assignment", solve)
        monkeypatch.setattr(distances, "linear_sum_assignment", solve)
        results.append(fn())
    return results[0], results[1], calls[0]


def all_pair_order(l1, l2):
    """Every node pair reachable from the root pair, each after its parent
    pair, leaves included."""
    ch1, ch2 = l1.children, l2.children
    order = [(l1.root, l2.root)]
    for v, w in order:
        cs2 = ch2[w]
        if cs2:
            order.extend((a, b) for a in ch1[v] for b in cs2)
    return order


def one_degree_dp_all_pairs(l1, l2, cost) -> float:
    """Oracle of distances.one_degree_dp: the same recurrence with every
    reachable pair in the memo, leaf pairs included."""
    del1 = _collapse_costs(l1, cost)
    ins2 = _collapse_costs(l2, cost)
    ch1, ch2 = l1.children, l2.children
    memo = {}
    for v, w in reversed(all_pair_order(l1, l2)):
        relabel = cost.relabel(l1.labels[v], l2.labels[w])
        cs1, cs2 = ch1[v], ch2[w]
        if not cs1 and not cs2:
            memo[v, w] = relabel
            continue
        rows = [[memo[a, b] for b in cs2] for a in cs1]
        memo[v, w] = relabel + assignment_min_reference(
            rows, [del1[a] for a in cs1], [ins2[b] for b in cs2]
        )
    return memo[l1.root, l2.root]


def ordered_one_degree_dp_all_pairs(l1, l2, cost) -> float:
    """Oracle of distances.ordered_one_degree_dp: every reachable pair in
    the memo, and the group alignment filled forward, each cell pushing to
    its three successors."""
    del1 = _collapse_costs(l1, cost)
    ins2 = _collapse_costs(l2, cost)
    groups1, groups2 = l1.groups, l2.groups
    memo = {}
    for v, w in reversed(all_pair_order(l1, l2)):
        relabel = cost.relabel(l1.labels[v], l2.labels[w])
        g1, g2 = groups1[v], groups2[w]
        if not g1 and not g2:
            memo[v, w] = relabel
            continue
        dels = [[del1[a] for a in grp] for grp in g1]
        inss = [[ins2[b] for b in grp] for grp in g2]
        drop1 = [sum(costs) for costs in dels]
        drop2 = [sum(costs) for costs in inss]
        n, m = len(g1), len(g2)
        align = [[math.inf] * (m + 1) for _ in range(n + 1)]
        align[0][0] = 0.0
        for i in range(n + 1):
            for j in range(m + 1):
                if i < n:
                    align[i + 1][j] = min(align[i + 1][j], align[i][j] + drop1[i])
                if j < m:
                    align[i][j + 1] = min(align[i][j + 1], align[i][j] + drop2[j])
                if i < n and j < m:
                    rows = [[memo[a, b] for b in g2[j]] for a in g1[i]]
                    pair = assignment_min_reference(rows, dels[i], inss[j])
                    align[i + 1][j + 1] = min(align[i + 1][j + 1], align[i][j] + pair)
        memo[v, w] = relabel + align[n][m]
    return memo[l1.root, l2.root]


# ---------------------------------------------------------------------------
# Eager oracles of the deformation searches: every quotient built up front
# ---------------------------------------------------------------------------

def eager_subset_variants(lt: LabeledTree):
    """(cost, delete set, quotient, quotient's _shapes map) for every delete
    set, sorted by cost, then by the sorted ids of the set; each cost summed
    in id order and each quotient built before any search starts."""
    edges = sorted((v for v in lt.nodes() if lt.parent[v] is not None), key=_id_key)
    out = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            subset = frozenset(combo)
            cost = sum(lt.labels[v] for v in combo)
            q = contract(lt, subset)
            out.append((cost, subset, q, _shapes(q)))
    out.sort(key=lambda item: (item[0], tuple(sorted(map(_id_key, item[1])))))
    return out


def _by_root_shape(variants):
    buckets = {}
    for item in variants:
        buckets.setdefault(item[3][item[2].root], []).append(item)
    return buckets


def path_variants(lt: LabeledTree):
    """The entries of eager_subset_variants(lt) whose delete set is closed
    under descendants (iterated leaf-edge deletions), delta_P's delete
    sets, in the same order. Built from the unions of whole subtrees, so a
    16-edge tree does not build 2^16 quotients."""
    below, closed = {}, {}  # edges under v; descendant-closed sets of them
    for v in reversed(_order(lt)):
        below[v] = frozenset().union(*({c} | below[c] for c in lt.children[v]))
        options = [closed[c] + [below[c] | {c}] for c in lt.children[v]]
        closed[v] = [frozenset().union(*combo) for combo in itertools.product(*options)]
    out = []
    for subset in closed[lt.root]:
        ids = sorted(subset, key=_id_key)
        q = contract(lt, subset)
        out.append((sum(lt.labels[v] for v in ids), subset, q, _shapes(q)))
    out.sort(key=lambda item: (item[0], tuple(sorted(map(_id_key, item[1])))))
    return out


def path_brute_force(t1, t2):
    """delta_P's oracle: the walk of eager_deform_brute_force over the
    descendant-closed delete sets of both merge trees, no size guard."""
    lt1, lt2 = (label_for_scheme(t, NODE_DIST_TO_PARENT) for t in (t1, t2))
    return eager_deform_brute_force(lt1, path_variants(lt1), lt2, path_variants(lt2))


def eager_deform_brute_force(lt1, variants1, lt2, variants2, want_witness=False):
    """Oracle of editcore.deform_brute_force on two length-labeled trees and
    their eager_subset_variants: the second tree's variants bucketed by root
    shape, each bucket walked in cost order. With want_witness, also the
    DeformWitness of the least cost, named on the replay quotients that
    deform_sequence rebuilds."""
    buckets2 = _by_root_shape(variants2)
    best = math.inf
    win = None
    for c1, d1, q1, s1 in variants1:
        if c1 >= best:
            break
        for c2, d2, q2, s2 in buckets2.get(s1[q1.root], ()):
            if c1 + c2 >= best:
                break
            total = c1 + c2 + _iso(q1, s1, q2, s2, _length_diff)[0]
            if total < best:
                best = total
                win = (d1, d2)
    if not want_witness:
        return best
    d1, d2 = win
    q1, q2 = replay_contract(lt1, d1), replay_contract(lt2, d2)
    pairs = _iso(q1, _shapes(q1), q2, _shapes(q2), _length_diff)[1]
    return best, DeformWitness(d1, d2, tuple(pairs))


def deform_minimum_unpruned(t1, t2):
    """delta_E's exact oracle on two merge trees: the least float of
    c1 + c2 + the isomorphism cost over every pair of
    eager_subset_variants entries whose quotients have the same root
    shape, with no stop and no skip. No size guard."""
    lt1, lt2 = (label_for_scheme(t, NODE_DIST_TO_PARENT) for t in (t1, t2))
    buckets2 = _by_root_shape(eager_subset_variants(lt2))
    return min(c1 + c2 + _iso(q1, s1, q2, s2, _length_diff)[0]
               for c1, _, q1, s1 in eager_subset_variants(lt1)
               for c2, _, q2, s2 in buckets2.get(s1[q1.root], ()))


def eager_deform_witness_search(lt1, variants1, lt2, variants2, max_ops, max_op_cost):
    """Oracle of editcore.deform_witness_search on two length-labeled trees:
    the first qualifying plan as a DeformWitness, or None. The variants are lists in
    cost order whose entries hold a delete set second, those of
    eager_subset_variants or of editcore._variants_of. Each usable delete set
    gets its replay quotient, and the second tree's are bucketed by root
    shape, so the witness names the nodes deform_sequence rebuilds."""
    cap = max_op_cost + TOLERANCE

    def usable(lt, variants):
        out = []
        for item in variants:
            d = item[1]
            if len(d) <= max_ops and all(lt.labels[v] <= cap for v in d):
                q = replay_contract(lt, d)
                out.append((d, q, _shapes(q)))
        return out

    buckets2 = {}
    for d2, q2, s2 in usable(lt2, variants2):
        buckets2.setdefault(s2[q2.root], []).append((d2, q2, s2))
    for d1, q1, s1 in usable(lt1, variants1):
        for d2, q2, s2 in buckets2.get(s1[q1.root], ()):
            budget = max_ops - len(d1) - len(d2)
            iso = None if budget < 0 else _qualifying_iso(q1, s1, q2, s2, budget, cap)
            if iso is not None:
                return DeformWitness(d1, d2, tuple(iso))
    return None
