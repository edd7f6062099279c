"""The eight merge tree edit distances.

Polynomial dynamic programs for the Wasserstein (w), Saikia (x) and
constrained classic (l) distances; exact exponential search behind size
guards for the general classic (g), Sridharamurthy (s), deformation-based
(e), path-mapping (p) and branch-mapping (b) distances.

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

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import editcore, mergetree
from .editcore import (
    ABS_DIFF,
    WASSERSTEIN_POINT,
    MappingConstraint,
    brute_force_distance,
    deform_brute_force,
)
from .errors import SizeGuardError
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

    mapping_nodes: int = 12     # g, s brute force
    deform_edges: int = 10      # e, p subset enumeration
    branch_edges: int = 8       # b decomposition enumeration


DEFAULT_GUARDS = Guards()


# ---------------------------------------------------------------------------
# One-degree DP on unordered trees (w, l)
# ---------------------------------------------------------------------------

def _assignment_min(cost_rows, del_costs, ins_costs):
    """Min-cost matching of children where leaving row i unmatched costs
    del_costs[i] and column j unmatched costs ins_costs[j]."""
    n1, n2 = len(del_costs), len(ins_costs)
    if n1 == 0:
        return sum(ins_costs)
    if n2 == 0:
        return sum(del_costs)
    big = (
        sum(max(0.0, max(r, default=0.0)) for r in cost_rows)
        + sum(del_costs)
        + sum(ins_costs)
        + 1.0
    )
    size = n1 + n2
    mat = np.full((size, size), 0.0)
    for i in range(n1):
        for j in range(n2):
            mat[i, j] = cost_rows[i][j]
        for j in range(n2, size):
            mat[i, j] = del_costs[i] if (j - n2) == i else big
    for i in range(n1, size):
        for j in range(n2):
            mat[i, j] = ins_costs[j] if (i - n1) == j else big
        for j in range(n2, size):
            mat[i, j] = 0.0
    rows, cols = linear_sum_assignment(mat)
    return float(mat[rows, cols].sum())


def one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """Classic one-degree (constrained) edit distance on unordered labeled
    trees: roots map to roots, children are matched by optimal assignment,
    unmatched subtrees collapse to deletions/insertions."""
    del1 = editcore._collapse_costs(l1, cost, deleting=True)
    ins2 = editcore._collapse_costs(l2, cost, deleting=False)
    memo = {}

    def dp(v, w):
        key = (v, w)
        if key not in memo:
            cs1, cs2 = l1.children[v], l2.children[w]
            rows = [[dp(a, b) for b in cs2] for a in cs1]
            memo[key] = cost.relabel(l1.labels[v], l2.labels[w]) + _assignment_min(
                rows, [del1[a] for a in cs1], [ins2[b] for b in cs2]
            )
        return memo[key]

    return dp(l1.root, l2.root)


def ordered_one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """One-degree edit distance on ordered trees.

    Children come as groups ordered by attachment: the group sequences are
    aligned order-preservingly, and children inside an aligned group pair
    (attached at the same saddle, mutually incomparable) are matched by
    optimal assignment.
    """
    del1 = editcore._collapse_costs(l1, cost, deleting=True)
    ins2 = editcore._collapse_costs(l2, cost, deleting=False)
    memo = {}

    def dp(v, w):
        key = (v, w)
        if key in memo:
            return memo[key]
        g1 = l1.groups[v]
        g2 = l2.groups[w]
        drop1 = [sum(del1[a] for a in grp) for grp in g1]
        drop2 = [sum(ins2[b] for b in grp) for grp in g2]
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
                    rows = [[dp(a, b) for b in g2[j]] for a in g1[i]]
                    pair = _assignment_min(
                        rows, [del1[a] for a in g1[i]], [ins2[b] for b in g2[j]]
                    )
                    align[i + 1][j + 1] = min(align[i + 1][j + 1], align[i][j] + pair)
        memo[key] = cost.relabel(l1.labels[v], l2.labels[w]) + align[n][m]
        return memo[key]

    return dp(l1.root, l2.root)


# ---------------------------------------------------------------------------
# The eight metrics (tree level)
# ---------------------------------------------------------------------------

def delta_w(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Merge tree Wasserstein distance: one-degree edit distance on
    unordered BDTs with Euclidean birth-death costs."""
    l1 = label_for_scheme(build_bdt(persistence_branch_decomposition(t1)), mergetree.BDT_BIRTH_DEATH)
    l2 = label_for_scheme(build_bdt(persistence_branch_decomposition(t2)), mergetree.BDT_BIRTH_DEATH)
    return one_degree_dp(l1, l2, WASSERSTEIN_POINT)


def delta_x(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Saikia distance: the same one-degree edit distance on ordered BDTs."""
    l1 = label_for_scheme(build_obdt(persistence_branch_decomposition(t1)), mergetree.OBDT_BIRTH_DEATH)
    l2 = label_for_scheme(build_obdt(persistence_branch_decomposition(t2)), mergetree.OBDT_BIRTH_DEATH)
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
    cost, _ = brute_force_distance(
        l1, l2, MappingConstraint.TAI, ABS_DIFF, node_limit=guards.mapping_nodes
    )
    return cost


def delta_s(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Sridharamurthy distance: Zhang-constrained edit distance on merge
    trees whose nodes carry the birth-death pair of their branch."""
    l1 = label_for_scheme(t1, mergetree.BRANCH_LABEL_ON_NODES)
    l2 = label_for_scheme(t2, mergetree.BRANCH_LABEL_ON_NODES)
    cost, _ = brute_force_distance(
        l1, l2, MappingConstraint.ZHANG_CONSTRAINED, WASSERSTEIN_POINT,
        node_limit=guards.mapping_nodes,
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

    Not a metric; the free decomposition choice makes vertical swaps cheap.
    """
    m = max(t1.edge_count(), t2.edge_count())
    if m > guards.branch_edges:
        raise SizeGuardError("branch decomposition enumeration", m, guards.branch_edges)
    best = math.inf
    for bd1 in _all_decompositions(t1):
        o1 = build_obdt(bd1)
        l1 = label_for_scheme(o1, mergetree.OBDT_BIRTH_DEATH)
        for bd2 in _all_decompositions(t2):
            o2 = build_obdt(bd2)
            l2 = label_for_scheme(o2, mergetree.OBDT_BIRTH_DEATH)
            cost, _ = brute_force_distance(
                l1, l2, MappingConstraint.SELKOW, WASSERSTEIN_POINT,
                node_limit=guards.mapping_nodes,
            )
            best = min(best, cost)
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
        raise ValueError(f"unknown metric {name!r}, expected one of w x s l g p e b")
