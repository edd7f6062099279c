"""The eight merge tree edit distances.

Polynomial dynamic programs for the Wasserstein (w), Saikia (x) and
constrained classic (l) distances; exact exponential search behind size
guards for the general classic (g), Sridharamurthy (s), deformation-based
(e) and path-mapping (p) distances. The branch-mapping distance (b) runs
x's DP on the pairs of branch decompositions that a lower bound does not
rule out; the enumeration is guarded. e, p and b skip candidates by exact
lower bounds and keep their values bit for bit (docs/decisions.md §11).

Each metric fixes one (input kind, label scheme, mapping constraint, cost
model) combination:

    w : unordered BDT,  birth-death points,  one-degree,        Wasserstein
    x : ordered BDT,    birth-death points,  one-degree,        Wasserstein
    s : merge tree,     branch labels,       Zhang-constrained, Wasserstein
    l : merge tree,     dist-to-parent,      one-degree,        |l1 - l2|
    g : merge tree,     dist-to-parent,      general (Tai),     |l1 - l2|
    e : merge tree,     edge lengths,        deformation,       |l1 - l2|
    p : merge tree,     edge lengths,        one-degree deform, |l1 - l2|
    b : merge tree,     branch pairs,        branch mapping,    Wasserstein
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

from . import editcore, mergetree
from .editcore import (
    ABS_DIFF,
    BRUTE_FORCE_NODE_LIMIT,
    DEFORM_EDGE_LIMIT,
    WASSERSTEIN_POINT,
    MappingConstraint,
    brute_force_distance,
    deform_brute_force,
    linear_sum_assignment,
)
from .errors import SizeGuardError, ValidationError
from .field import ScalarField
from .mergetree import (
    AbstractMergeTree,
    LabeledTree,
    build_bdt,
    build_obdt,
    decomposition_from_choice,
    label_for_scheme,
    merge_tree_of,
    persistence_branch_decomposition,
)


class MetricId(Enum):
    W = "w"
    X = "x"
    S = "s"
    L = "l"
    G = "g"
    P = "p"
    E = "e"
    B = "b"


@dataclass(frozen=True)
class Guards:
    """Size limits for the exponential metrics; CLI flags override them."""

    mapping_nodes: int = BRUTE_FORCE_NODE_LIMIT  # g, s brute force
    deform_edges: int = DEFORM_EDGE_LIMIT        # e, p subset enumeration
    branch_edges: int = 8                        # b decomposition enumeration


DEFAULT_GUARDS = Guards()


# ---------------------------------------------------------------------------
# One-degree DPs (w, x, l)
# ---------------------------------------------------------------------------

#: Blocks with n1 + n2 up to this size are built as Python lists and handed
#: to numpy in one np.array call; larger ones are filled in place. The lists
#: took 4.1 against 12.6 µs at size 3 and 16.5 against 18.2 µs at 14, but
#: 19.8 against 19.5 µs at 16 and 8.3 against 2.3 ms at 400
#: (docs/decisions.md §3).
_LIST_BLOCK_MAX = 14


def _assignment_min(cost_rows, del_costs, ins_costs):
    """Min-cost matching of children where leaving row i unmatched costs
    del_costs[i] and column j unmatched costs ins_costs[j].

    A 1x1 block [[c]] is solved in closed form. The solver's 2x2 matrix is
    [[c, d], [i, 0.0]], and its two assignments sum to c or to d + i. The
    closed form makes the solver's own comparisons (c <= d, then c - d < i),
    so it returns the solver's value bit for bit, near-ties included
    (docs/decisions.md). Larger blocks go to the solver as the augmented
    (n1 + n2)-square matrix: costs top left, deletions on the top right
    diagonal, insertions on the bottom left one, zeros bottom right and
    `big` everywhere else. Small ones are built from lists, large ones in
    place; both give the same bytes.
    """
    n1, n2 = len(del_costs), len(ins_costs)
    if n1 == 0:
        return sum(ins_costs)
    if n2 == 0:
        return sum(del_costs)
    if n1 == 1 and n2 == 1:
        c, d, i = cost_rows[0][0], del_costs[0], ins_costs[0]
        return c if c <= d or c - d < i else d + i
    import numpy as np

    # rows are non-empty (n2 >= 1) and no cell is below +0.0 or NaN, so big
    # exceeds every assignment that avoids it (docs/decisions.md §3)
    big = sum(map(max, cost_rows)) + sum(del_costs) + sum(ins_costs) + 1.0
    size = n1 + n2
    if size <= _LIST_BLOCK_MAX:
        fill1, fill2, zeros = [big] * n1, [big] * n2, [0.0] * n1
        block = []
        for i, (r, d) in enumerate(zip(cost_rows, del_costs)):
            row = [*r, *fill1]
            row[n2 + i] = d
            block.append(row)
        for j, c in enumerate(ins_costs):
            row = fill2 + zeros
            row[j] = c
            block.append(row)
        mat = np.array(block, dtype=float)
    else:
        mat = np.full((size, size), big)
        mat[:n1, :n2] = cost_rows
        mat[n1:, n2:] = 0.0
        diag1, diag2 = np.arange(n1), np.arange(n2)
        mat[diag1, n2 + diag1] = del_costs
        mat[n1 + diag2, diag2] = ins_costs
    rows, cols = linear_sum_assignment(mat)
    return float(mat[rows, cols].sum())


def _pair_order(l1: LabeledTree, l2: LabeledTree):
    """The root pair, then every pair of inner nodes reachable from it, each
    after its parent pair.

    The child pairs of (v, w) are children(v) x children(w); a pair's parent
    pair is unique, so every pair is listed once. A pair with a leaf needs
    no memo entry: its parent pair computes it in closed form
    (_child_costs), so only pairs of inner nodes are listed. The DPs fill
    their memo over this list in reverse, children before parents, with no
    recursion.
    """
    ch1, ch2 = l1.children, l2.children
    order = [(l1.root, l2.root)]
    for v, w in order:  # grows while it is walked: a breadth-first queue
        inner2 = [b for b in ch2[w] if ch2[b]]
        if inner2:
            order.extend((a, b) for a in ch1[v] if ch1[a] for b in inner2)
    return order


def _group_pair_costs(rows, g1, g2, del1, ins2):
    """Optimal matching cost of each child group pair, one row per group of
    g1, from the child cost matrix `rows` over the flattened groups.

    A 1x1 pair takes _assignment_min's closed form inline; larger pairs
    slice the matrix and call it.
    """
    spans2 = []
    left = 0
    for gb in g2:
        spans2.append((left, left + len(gb), [ins2[b] for b in gb]))
        left += len(gb)
    top = 0
    for ga in g1:
        block = rows[top:top + len(ga)]
        top += len(ga)
        dels = [del1[a] for a in ga]
        out = []
        for lo, hi, inss in spans2:
            if hi - lo == 1 and len(dels) == 1:
                c, d, e = block[0][lo], dels[0], inss[0]
                out.append(c if c <= d or c - d < e else d + e)
            else:
                out.append(_assignment_min([row[lo:hi] for row in block], dels, inss))
        yield out


def _child_costs(cs1, cs2, l1, l2, cost, rest1, rest2, memo):
    """Cost of mapping child a onto child b, for a in cs1 and b in cs2.

    A pair of inner nodes reads the memo. A pair with a leaf is what the DP
    would compute for it, relabel(a, b) + rest1[a] + rest2[b], where rest is
    the DP's value against a node without children: collapsing every child.
    A leaf's rest is 0, and adding 0 leaves the non-negative sum unchanged,
    so a leaf-leaf cell is the relabel cost as it stands (docs/decisions.md
    §8).
    """
    ch1, ch2 = l1.children, l2.children
    labels1, labels2 = l1.labels, l2.labels
    rows = cost.relabel_rows([labels1[a] for a in cs1], [labels2[b] for b in cs2])
    inner2 = [(j, b) for j, b in enumerate(cs2) if ch2[b]]
    for row, a in zip(rows, cs1):
        if ch1[a]:
            r = rest1[a]
            for j, b in enumerate(cs2):
                row[j] = memo[a, b] if ch2[b] else row[j] + r
        else:
            for j, b in inner2:
                row[j] += rest2[b]
    return rows


def one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """Classic one-degree (constrained) edit distance on unordered labeled
    trees: roots map to roots, children are matched by optimal assignment,
    unmatched subtrees collapse to deletions/insertions."""
    del1 = editcore._collapse_costs(l1, cost)
    ins2 = editcore._collapse_costs(l2, cost)
    ch1, ch2 = l1.children, l2.children
    # against a node without children every child collapses: the empty
    # matching, _assignment_min's sum when one side has no rows
    rest1 = {v: sum([del1[a] for a in cs]) for v, cs in ch1.items()}
    rest2 = {w: sum([ins2[b] for b in cs]) for w, cs in ch2.items()}
    memo = {}
    for v, w in reversed(_pair_order(l1, l2)):
        cs1, cs2 = ch1[v], ch2[w]
        rows = _child_costs(cs1, cs2, l1, l2, cost, rest1, rest2, memo)
        memo[v, w] = cost.relabel(l1.labels[v], l2.labels[w]) + _assignment_min(
            rows, [del1[a] for a in cs1], [ins2[b] for b in cs2]
        )
    return memo[l1.root, l2.root]


def ordered_one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """One-degree edit distance on ordered trees.

    Children come as groups ordered by attachment: the group sequences are
    aligned order-preservingly, and children inside an aligned group pair
    (attached at the same saddle, mutually incomparable) are matched by
    optimal assignment.
    """
    del1 = editcore._collapse_costs(l1, cost)
    ins2 = editcore._collapse_costs(l2, cost)
    groups1, groups2 = l1.groups, l2.groups
    # the cost of dropping each child group whole, and rest: the alignment
    # against a node without children drops every group, 0.0 + drop[0] + ...
    drop1 = {v: [sum([del1[a] for a in grp]) for grp in gs] for v, gs in groups1.items()}
    drop2 = {w: [sum([ins2[b] for b in grp]) for grp in gs] for w, gs in groups2.items()}
    rest1 = {v: functools.reduce(operator.add, drops, 0.0) for v, drops in drop1.items()}
    rest2 = {w: functools.reduce(operator.add, drops, 0.0) for w, drops in drop2.items()}
    memo = {}
    for v, w in reversed(_pair_order(l1, l2)):
        g1, g2 = groups1[v], groups2[w]
        rows = _child_costs(
            [a for grp in g1 for a in grp], [b for grp in g2 for b in grp],
            l1, l2, cost, rest1, rest2, memo,
        )
        d1, d2 = drop1[v], drop2[w]
        # align[i][j], filled row by row from its three neighbours
        prev = list(itertools.accumulate(d2, initial=0.0))
        for drop, pairs in zip(d1, _group_pair_costs(rows, g1, g2, del1, ins2)):
            left = prev[0] + drop
            cur = [left]
            for up, diag, d, pair in zip(prev[1:], prev, d2, pairs):
                c1, c2, c3 = up + drop, left + d, diag + pair
                left = c1 if c1 <= c2 and c1 <= c3 else c2 if c2 <= c3 else c3  # min, inlined
                cur.append(left)
            prev = cur
        memo[v, w] = cost.relabel(l1.labels[v], l2.labels[w]) + prev[-1]
    return memo[l1.root, l2.root]


# ---------------------------------------------------------------------------
# The eight metrics (tree level)
# ---------------------------------------------------------------------------

def delta_w(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Merge tree Wasserstein distance: one-degree edit distance on
    unordered BDTs with Euclidean birth-death costs."""
    l1 = build_bdt(persistence_branch_decomposition(t1))
    l2 = build_bdt(persistence_branch_decomposition(t2))
    return one_degree_dp(l1, l2, WASSERSTEIN_POINT)


def delta_x(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Saikia distance: the same one-degree edit distance on ordered BDTs."""
    l1 = build_obdt(persistence_branch_decomposition(t1))
    l2 = build_obdt(persistence_branch_decomposition(t2))
    return ordered_one_degree_dp(l1, l2, WASSERSTEIN_POINT)


def delta_l(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Constrained classic distance: one-degree on merge trees labeled by
    scalar distance to the parent (blank root label)."""
    l1 = label_for_scheme(t1, mergetree.NODE_DIST_TO_PARENT)
    l2 = label_for_scheme(t2, mergetree.NODE_DIST_TO_PARENT)
    return one_degree_dp(l1, l2, ABS_DIFF)


def delta_g(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """General classic distance: unordered Tai edit distance on the same
    labeled trees as delta_l. Exponential; guarded."""
    l1 = label_for_scheme(t1, mergetree.NODE_DIST_TO_PARENT)
    l2 = label_for_scheme(t2, mergetree.NODE_DIST_TO_PARENT)
    cost, _ = brute_force_distance(l1, l2, MappingConstraint.TAI, node_limit=guards.mapping_nodes)
    return cost


def delta_s(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Sridharamurthy distance: Zhang-constrained edit distance on merge
    trees whose nodes carry the birth-death pair of their branch."""
    l1 = label_for_scheme(t1, mergetree.BRANCH_LABEL_ON_NODES)
    l2 = label_for_scheme(t2, mergetree.BRANCH_LABEL_ON_NODES)
    cost, _ = brute_force_distance(
        l1, l2, MappingConstraint.ZHANG_CONSTRAINED, node_limit=guards.mapping_nodes
    )
    return cost


def delta_e(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Deformation-based edit distance (unconstrained)."""
    return deform_brute_force(t1, t2, one_degree=False, edge_limit=guards.deform_edges)


def delta_p(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Path mapping distance: the one-degree deformation variant."""
    return deform_brute_force(t1, t2, one_degree=True, edge_limit=guards.deform_edges)


def delta_b(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Branch mapping distance: minimum over all branch decompositions of
    both trees and all branch mappings (one-to-one, root branches mapped,
    parents mapped, ancestor relation and sibling ordering preserved) of the
    Wasserstein pair costs plus diagonal costs for unmapped branches.

    For one decomposition pair the optimal branch mapping is the ordered
    one-degree mapping of the two labeled ordered BDTs, which the DP of
    delta_x computes (docs/decisions.md §5); only the decomposition
    enumeration is exponential.

    The DP's value on a pair is its root relabel cost plus an alignment
    cost >= 0, so the root relabel cost bounds it from below, also after
    rounding. Pairs run in ascending (bound, i, j) order and the walk stops
    at the first bound >= the least value so far: no skipped pair could
    lower the minimum, which keeps its bits (docs/decisions.md §11).

    Not a metric; the free decomposition choice makes vertical swaps cheap.
    """
    m = max(t1.edge_count(), t2.edge_count())
    if m > guards.branch_edges:
        raise SizeGuardError("branch decomposition enumeration", m, guards.branch_edges)
    side1 = [build_obdt(bd) for bd in _all_decompositions(t1)]
    side2 = [build_obdt(bd) for bd in _all_decompositions(t2)]
    relabel = WASSERSTEIN_POINT.relabel
    bounds = sorted(
        (relabel(l1.labels[l1.root], l2.labels[l2.root]), i, j)
        for i, l1 in enumerate(side1)
        for j, l2 in enumerate(side2)
    )
    best = math.inf
    for bound, i, j in bounds:
        if bound >= best:
            break
        best = min(best, ordered_one_degree_dp(side1[i], side2[j], WASSERSTEIN_POINT))
    return best


def _all_decompositions(tree: AbstractMergeTree):
    inner = [v for v in tree.sorted_nodes() if tree.children(v)]
    options = [tree.children(v) for v in inner]
    for combo in itertools.product(*options):
        choice = dict(zip(inner, combo))
        yield decomposition_from_choice(tree, choice)


_TREE_METRICS = {
    MetricId.W: delta_w,
    MetricId.X: delta_x,
    MetricId.S: delta_s,
    MetricId.L: delta_l,
    MetricId.G: delta_g,
    MetricId.P: delta_p,
    MetricId.E: delta_e,
    MetricId.B: delta_b,
}


def tree_distance(metric: MetricId, t1, t2, guards=DEFAULT_GUARDS) -> float:
    return _TREE_METRICS[metric](t1, t2, guards)


def compute(metric: MetricId, f1: ScalarField, f2: ScalarField, guards=DEFAULT_GUARDS) -> float:
    """Field-level convenience: build both abstract merge trees, dispatch."""
    return tree_distance(metric, merge_tree_of(f1), merge_tree_of(f2), guards)


def metric_from_string(name: str) -> MetricId:
    try:
        return MetricId(name.lower())
    except ValueError:
        raise ValidationError(f"unknown metric {name!r}, expected one of w x s l g p e b")
