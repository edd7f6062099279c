"""The eight merge tree edit distances.

Polynomial dynamic programs for the Wasserstein (w), Saikia (x),
Sridharamurthy (s), constrained classic (l) and path mapping (p)
distances; exact exponential search behind size guards for the general
classic (g) and deformation-based (e) distances. The branch-mapping
distance (b) runs x's DP on the pairs of branch decompositions that a
lower bound does not rule out; the enumeration is guarded. e and b skip
candidates by exact lower bounds and keep their values bit for bit
(docs/decisions.md §11).

Each metric fixes one (input kind, label scheme, mapping constraint, cost
model) combination:

    w : unordered BDT,  birth-death points,  one-degree,        Wasserstein
    x : ordered BDT,    birth-death points,  one-degree,        Wasserstein
    s : merge tree,     branch labels,       Zhang-constrained, Wasserstein
    l : merge tree,     dist-to-parent,      one-degree,        |l1 - l2|
    g : merge tree,     dist-to-parent,      general (Tai),     |l1 - l2|
    e : merge tree,     edge lengths,        deformation,       |l1 - l2|
    p : merge tree,     dist-to-parent,      path mapping,      |l1 - l2|
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
    WASSERSTEIN_POINT,
    brute_force_distance,
    deform_brute_force,
    linear_sum_assignment,
)
from .errors import SizeGuardError, ValidationError
from .field import TOLERANCE, ScalarField
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
    """Size limits for the exponential metrics; CLI flags override them.
    delta_g, delta_e and delta_b refuse a pair above their limit before they
    search; no other module decides a guard (docs/decisions.md section 23)."""

    mapping_nodes: int = 12  # g brute force
    deform_edges: int = 10   # e subset enumeration
    branch_edges: int = 8    # b decomposition enumeration

    def __post_init__(self):
        # a negative limit would skip every check of its metric as over size
        for name, limit in vars(self).items():
            if limit < 0:
                raise ValidationError(f"guard {name} must be at least 0, got {limit}")


DEFAULT_GUARDS = Guards()


# ---------------------------------------------------------------------------
# One-degree DPs (w, x, l)
# ---------------------------------------------------------------------------

#: Blocks with n1 + n2 up to this size are built as Python lists and stay
#: lists: the solver takes them as they are, and Python sums the chosen
#: cells. Larger ones are filled in place in a float64 array. Built for
#: numpy, the lists took 4.1 against 12.6 µs at size 3 and 16.5 against
#: 18.2 µs at 14, but 19.8 against 19.5 µs at 16 and 8.3 against 2.3 ms at
#: 400 (docs/decisions.md §3).
_LIST_BLOCK_MAX = 14


#: A node pair whose sides both have at least this many children (x: child
#: groups) computes its child cost matrix, and x's alignment, on float64
#: arrays in mtstab.widepairs, with the row loop's floats; below it the
#: Python rows are faster (docs/decisions.md §15).
_WIDE_PAIR_MIN = 64


#: numpy adds fewer than 8 values one after another and, from 8 on, keeps 8
#: partial sums, so a left fold is its sum of up to 7 cells (numpy 2.4.6;
#: docs/decisions.md §3).
_FOLD_SUM_MAX = 7


def _matching_sums(cost_rows, del_costs, ins_costs):
    """Each partial matching of a 2x2 block, or of a block with one row or
    one column, summed as the solver's value would sum it; and the sum of
    the block's cells.

    A matching's full assignment takes, in row order, each row's cost or
    deletion, then each column's insertion or a 0.0 when the column is
    matched. numpy adds those cells in row order; skipping the 0.0 cells
    changes no sum of non-negative floats. The folds are written out:
    Python's sum() compensates its rounding from 3.12 on.
    """
    if len(cost_rows) == 2 and len(ins_costs) == 2:
        (c00, c01), (c10, c11) = cost_rows
        d0, d1 = del_costs
        e0, e1 = ins_costs
        sums = [d0 + d1 + e0 + e1, c00 + d1 + e1, c01 + d1 + e0,
                d0 + c10 + e1, d0 + c11 + e0, c00 + c11, c01 + c10]
        return sums, sums[0] + c00 + c01 + c10 + c11
    if len(cost_rows) == 1:
        # no match: d, then every insertion; row 0 on column j: c0j, then
        # every insertion but ej
        row, none = cost_rows[0], del_costs[0]
        for e in ins_costs:
            none += e
        sums = [none]
        for j, c in enumerate(row):
            for k, e in enumerate(ins_costs):
                if k != j:
                    c += e
            sums.append(c)
        return sums, none + sum(row)
    # no match: every deletion, then e; row i on the column: the deletions
    # with ci0 in place of di
    col, dels = [r[0] for r in cost_rows], del_costs
    none = dels[0]
    for d in dels[1:]:
        none += d
    sums = [none + ins_costs[0]]
    for i, c in enumerate(col):
        s = c if i == 0 else dels[0]
        for k in range(1, len(dels)):
            s += c if k == i else dels[k]
        sums.append(s)
    return sums, sums[0] + sum(col)


def _assignment_min(cost_rows, del_costs, ins_costs):
    """Min-cost matching of children where leaving row i unmatched costs
    del_costs[i] and column j unmatched costs ins_costs[j].

    The value is the solver's, bit for bit, whichever way it is found
    (docs/decisions.md §3). A 1x1 block [[c]] makes the solver's own
    comparisons on its 2x2 matrix [[c, d], [i, 0.0]]: c <= d, then
    c - d < i. A 2x2 block, or one with one row or one column and
    n1 + n2 <= _FOLD_SUM_MAX, returns its least matching sum, if finite,
    when every other one is the same float or lies more than TOLERANCE *
    (1 + the block's sum) above it: the solver then takes the cells of one
    of the least matchings and numpy sums them in the same order, to that
    float whichever it takes. Every other block goes to the solver as the
    augmented (n1 + n2)-square matrix: costs top left, deletions on the
    top right diagonal, insertions on the bottom left one, zeros bottom
    right and `big` everywhere else. Small ones are built as lists, which
    the Python solver answers while numpy is not imported, large ones in
    place; both hold the same floats.
    """
    n1, n2 = len(del_costs), len(ins_costs)
    if n1 == 0:
        return sum(ins_costs)
    if n2 == 0:
        return sum(del_costs)
    if n1 == 1 and n2 == 1:
        c, d, i = cost_rows[0][0], del_costs[0], ins_costs[0]
        return c if c <= d or c - d < i else d + i
    if n1 == n2 == 2 or ((n1 == 1 or n2 == 1) and n1 + n2 <= _FOLD_SUM_MAX):
        sums, total = _matching_sums(cost_rows, del_costs, ins_costs)
        sums.sort()
        least = sums[0]
        above = sums[sums.count(least):]  # exact ties of the least left out
        if least < math.inf and (not above or above[0] > least + TOLERANCE * (1.0 + total)):
            return least
    size = n1 + n2
    if size > _LIST_BLOCK_MAX:
        import numpy as np

        mat = np.empty((size, size))
        mat[:n1, :n2] = cost_rows
        return _augmented_min(mat, del_costs, ins_costs)
    # rows are non-empty (n2 >= 1) and no cell is below +0.0 or NaN, so big
    # exceeds every assignment that avoids it (docs/decisions.md §3)
    big = sum(map(max, cost_rows)) + sum(del_costs) + sum(ins_costs) + 1.0
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
    return _solved(block)


def _augmented_min(mat, del_costs, ins_costs):
    """_assignment_min of the n1 x n2 cost block in the top left corner of
    mat, the (n1 + n2)-square float64 matrix the solver takes. The rest of
    mat is filled here: `big` (the same float as the row maxima summed in
    Python), the deletions and insertions on their diagonals and zeros
    bottom right, the bytes np.full(big) and its overwrites gave."""
    import numpy as np

    n1, n2 = len(del_costs), len(ins_costs)
    big = sum(mat[:n1, :n2].max(axis=1).tolist()) + sum(del_costs) + sum(ins_costs) + 1.0
    mat[:n1, n2:] = big
    mat[n1:, :n2] = big
    mat[n1:, n2:] = 0.0
    diag1, diag2 = np.arange(n1), np.arange(n2)
    mat[diag1, n2 + diag1] = del_costs
    mat[n1 + diag2, diag2] = ins_costs
    return _solved(mat)


def _solved(mat) -> float:
    """The solver's value of an augmented matrix, a list-built block or a
    float64 array: the cells it chose, summed by _numpy_order_sum in
    numpy's order. A block whose costs overflow sums to inf without a
    warning; tree_distance names the metric that met it."""
    try:
        rows, cols = linear_sum_assignment(mat)
    except ValueError as exc:
        # only an overflowed block fails: big is then inf, and the solver
        # finds no matching of finite cells or meets a NaN
        raise ValidationError(f"an assignment block's costs overflow a float: {exc}") from exc
    if type(mat) is list:
        return _numpy_order_sum([mat[r][c] for r, c in zip(rows, cols)])
    return _numpy_order_sum(mat[rows, cols].tolist())


def _numpy_order_sum(cells) -> float:
    """float(np.array(cells).sum()) in Python: numpy's pairwise sum. Above
    128 cells, the sums of two halves, the first a multiple of 8 long; up
    to 128, a left fold from 0.0 below 8 cells, and from 8 on, eight
    partial sums over the cells in strides of 8, combined as ((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail folded on, the
    whole added to the reduction's initial 0.0 (docs/decisions.md section
    3)."""
    n = len(cells)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_order_sum(cells[:half]) + _numpy_order_sum(cells[half:])
    total = 0.0
    if n < 8:
        for x in cells:
            total += x
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = cells[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += cells[i]
        r1 += cells[i + 1]
        r2 += cells[i + 2]
        r3 += cells[i + 3]
        r4 += cells[i + 4]
        r5 += cells[i + 5]
        r6 += cells[i + 6]
        r7 += cells[i + 7]
    part = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in cells[end:]:
        part += x
    return total + part


def _pair_order(l1: LabeledTree, l2: LabeledTree):
    """The root pair, then every pair of inner nodes reachable from it, each
    after its parent pair.

    The child pairs of (v, w) are children(v) x children(w); a pair's parent
    pair is unique, so every pair is listed once. A pair with a leaf needs
    no memo entry: its parent pair computes it in closed form
    (docs/decisions.md §8), so only pairs of inner nodes are listed. The DPs
    fill their memo over this list in reverse, children before parents,
    with no recursion.
    """
    ch1, ch2 = l1.children, l2.children
    order = [(l1.root, l2.root)]
    for v, w in order:  # grows while it is walked: a breadth-first queue
        inner2 = [b for b in ch2[w] if ch2[b]]
        if inner2:
            order.extend((a, b) for a in ch1[v] if ch1[a] for b in inner2)
    return order


#: The view of a node without children: it has no rows and no groups.
_NO_CHILDREN = ([], [], [], [], [], [])


def _child_views(lt: LabeledTree, groups, collapse):
    """What the DP's pairs read of each node's children, built once per DP
    call: groups[v] lists v's child groups, and its children in group order
    are the rows (or columns) of v's child cost matrix.

    Per node: the children's labels and collapse costs; (position, child,
    rest of child) for each child with children, and the positions of the
    leaves; each group's (first, end, collapse costs) span; drop, the cost
    of collapsing each group whole. rest is the DP's value against a node
    without children, which collapses every group: the fold 0.0 + drop[0] +
    drop[1] + ... A leaf's rest, 0.0, is never read.
    """
    labels, children = lt.labels, lt.children
    views, rest = dict.fromkeys(groups, _NO_CHILDREN), {}
    for v, gs in groups.items():
        if gs:
            kids, costs, spans, drop = [], [], [], []
            for grp in gs:
                cs = [collapse[a] for a in grp]
                spans.append((len(kids), len(kids) + len(grp), cs))
                drop.append(sum(cs))
                kids += grp
                costs += cs
            rest[v] = functools.reduce(operator.add, drop, 0.0)
            views[v] = kids, costs, spans, drop
    for v in rest:  # every child's rest is known now
        kids, costs, spans, drop = views[v]
        inner, leaves = [], []
        for i, a in enumerate(kids):
            if children[a]:
                inner.append((i, a, rest[a]))
            else:
                leaves.append(i)
        views[v] = ([labels[a] for a in kids], costs, inner, leaves, spans, drop)
    return views


def _child_rows(view1, view2, memo, relabel_rows):
    """A narrow pair's child cost matrix as rows: the relabel costs, each
    inner column's rest added on the leaf rows (a pair with a leaf adds the
    DP's one rest term, docs/decisions.md §8), each inner row's rest added
    along its row, then the memo over the inner x inner cells. The list
    twin of widepairs.child_rows."""
    lab1, _, inner1, leaves1, _, _ = view1
    lab2, _, inner2, _, _, _ = view2
    rows = relabel_rows(lab1, lab2)
    for i in leaves1:
        row = rows[i]
        for j, _, r in inner2:
            row[j] += r
    for i, a, r in inner1:
        rows[i] = row = [c + r for c in rows[i]]
        for j, b, _ in inner2:
            row[j] = memo[a, b]
    return rows


def one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """Classic one-degree (constrained) edit distance on unordered labeled
    trees: roots map to roots, children are matched by optimal assignment,
    unmatched subtrees collapse to deletions/insertions.

    A node's children form one group, so rest is 0.0 + the sum of their
    collapse costs: the sum itself, _assignment_min's value when one side
    has no rows.
    """
    views1 = _child_views(l1, {v: [cs] if cs else [] for v, cs in l1.children.items()},
                          editcore._collapse_costs(l1, cost))
    views2 = _child_views(l2, {w: [cs] if cs else [] for w, cs in l2.children.items()},
                          editcore._collapse_costs(l2, cost))
    labels1, labels2 = l1.labels, l2.labels
    relabel, relabel_rows = cost.relabel, cost.relabel_rows
    memo = {}
    for v, w in reversed(_pair_order(l1, l2)):
        view1, view2 = views1[v], views2[w]
        dels, inss = view1[1], view2[1]
        if len(dels) >= _WIDE_PAIR_MIN and len(inss) >= _WIDE_PAIR_MIN:
            from . import widepairs

            memo[v, w] = relabel(labels1[v], labels2[w]) + widepairs.assignment_min(
                view1, view2, memo, cost)
            continue
        rows = _child_rows(view1, view2, memo, relabel_rows)
        memo[v, w] = relabel(labels1[v], labels2[w]) + _assignment_min(rows, dels, inss)
    return memo[l1.root, l2.root]


def ordered_one_degree_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """One-degree edit distance on ordered trees.

    Children come as groups ordered by attachment: the group sequences are
    aligned order-preservingly, and children inside an aligned group pair
    (attached at the same saddle, mutually incomparable) are matched by
    optimal assignment.
    """
    views1 = _child_views(l1, l1.groups, editcore._collapse_costs(l1, cost))
    views2 = _child_views(l2, l2.groups, editcore._collapse_costs(l2, cost))
    labels1, labels2 = l1.labels, l2.labels
    relabel, relabel_rows = cost.relabel, cost.relabel_rows
    memo = {}
    for v, w in reversed(_pair_order(l1, l2)):
        view1, view2 = views1[v], views2[w]
        spans1, d1 = view1[4:]
        spans2, d2 = view2[4:]
        if len(spans1) >= _WIDE_PAIR_MIN and len(spans2) >= _WIDE_PAIR_MIN:
            from . import widepairs

            memo[v, w] = relabel(labels1[v], labels2[w]) + widepairs.alignment(
                view1, view2, memo, cost)
            continue
        rows = _child_rows(view1, view2, memo, relabel_rows)
        # align[i][j], filled row by row from its three neighbours
        prev = list(itertools.accumulate(d2, initial=0.0))
        for (top, bottom, dels), drop in zip(spans1, d1):
            block = rows[top:bottom]
            left = prev[0] + drop
            cur = [left]
            for up, diag, d, (lo, hi, inss) in zip(prev[1:], prev, d2, spans2):
                if bottom - top == 1 and hi - lo == 1:  # _assignment_min's 1x1 form
                    c, dd, e = block[0][lo], dels[0], inss[0]
                    pair = c if c <= dd or c - dd < e else dd + e
                else:
                    pair = _assignment_min([row[lo:hi] for row in block], dels, inss)
                c1, c2, c3 = up + drop, left + d, diag + pair
                left = c1 if c1 <= c2 and c1 <= c3 else c2 if c2 <= c3 else c3  # min, inlined
                cur.append(left)
            prev = cur
        memo[v, w] = relabel(labels1[v], labels2[w]) + prev[-1]
    return memo[l1.root, l2.root]


# ---------------------------------------------------------------------------
# Constrained DP (s)
# ---------------------------------------------------------------------------

def _constrained_nodes(lt: LabeledTree, cost):
    """Per node of lt, children first: its label, its delete cost, and its
    children's positions, collapse costs, hops and climbs. A child's hop
    collapses its siblings and deletes the child alone; its climb deletes
    the node and collapses the child's siblings."""
    order = editcore._order(lt)[::-1]
    at = {v: i for i, v in enumerate(order)}
    collapse, labels, delete = editcore._collapse_costs(lt, cost), lt.labels, cost.delete
    out = []
    for v in order:
        kids = lt.children[v]
        cs = [collapse[c] for c in kids]
        d, total = delete(labels[v]), sum(cs)
        rests = [total - c for c in cs]
        hops = [r + delete(labels[c]) for r, c in zip(rests, kids)]
        out.append((labels[v], d, [at[c] for c in kids], cs, hops, [d + r for r in rests]))
    return out


def constrained_dp(l1: LabeledTree, l2: LabeledTree, cost) -> float:
    """Zhang's constrained edit distance on unordered labeled trees (Zhang,
    Algorithmica 1996), no node forced to map: T(v, w) for the subtrees and
    F(v, w) for the child forests, children first, plus the T case
    del(v) + ins(w) + F for costs that break the triangle inequality
    through the empty label (docs/decisions.md §13). Each row is read by
    its parent's row only, so it is dropped once that row is done."""
    nodes1, nodes2 = _constrained_nodes(l1, cost), _constrained_nodes(l2, cost)
    labels2, relabel = [node[0] for node in nodes2], cost.relabel
    n2 = len(nodes2)
    T, F = [None] * len(nodes1), [None] * len(nodes1)
    for i, (lab1, d1, kids1, cols1, hops1, climbs1) in enumerate(nodes1):
        rel = [relabel(lab1, b) for b in labels2]  # roots included, blank ones too
        Tk, Fk = [T[a] for a in kids1], [F[a] for a in kids1]
        Tv, Fv = [0.0] * n2, [0.0] * n2
        for j, (_, d2, kids2, cols2, hops2, climbs2) in enumerate(nodes2):
            Fv[j] = f = min([_assignment_min([[Ta[b] for b in kids2] for Ta in Tk], cols1, cols2),
                             *[h + Fv[b] for b, h in zip(kids2, hops2)],
                             *[h + Fa[j] for Fa, h in zip(Fk, hops1)]])
            Tv[j] = min([rel[j] + f, d1 + d2 + f,
                         *[h + Tv[b] for b, h in zip(kids2, climbs2)],
                         *[h + Ta[j] for Ta, h in zip(Tk, climbs1)]])
        T[i], F[i] = Tv, Fv
        for a in kids1:
            T[a] = F[a] = None
    return T[-1][-1]


# ---------------------------------------------------------------------------
# Path mapping DP (p)
# ---------------------------------------------------------------------------

def _path_nodes(lt: LabeledTree):
    """Per node of lt, children first: its children's positions and subtree
    lengths R, and the paths down from it: (position of u, L, S) for each
    descendant-or-self u, L the length from the node's parent down to u and
    S the R of the side subtrees cut off above u. The root has no paths."""
    order = editcore._order(lt)[::-1]
    at = {v: i for i, v in enumerate(order)}
    R, labels, children = editcore._collapse_costs(lt, ABS_DIFF), lt.labels, lt.children
    out = []
    for c in order:
        paths = [] if lt.parent[c] is None else [(c, labels[c], 0.0)]
        for u, length, side in paths:  # grows while it is walked
            kids = children[u]
            for k in kids:
                paths.append((k, length + labels[k], side + sum(R[o] for o in kids if o != k)))
        kids = children[c]
        out.append(([at[k] for k in kids], [R[k] for k in kids],
                    [(at[u], length, side) for u, length, side in paths]))
    return out


def path_mapping_dp(l1: LabeledTree, l2: LabeledTree) -> float:
    """Path mapping distance (Wetzels, Leitte & Garth, TVCG 2024) of two
    trees labeled by distance to the parent: the least cost of deleting
    whole subtrees of both trees so that, once the nodes left with one
    child are merged away, the rest is isomorphic, plus the length
    differences of the paired edges (docs/decisions.md §14).

    G(x, y) matches x's children with y's: a pair (c, d) costs the least
    |L(c→u) − L(d→w)| + S(c→u) + S(d→w) + G(u, w) over the paths down from
    c and d, and an unmatched child costs R. G is filled children first
    with no recursion; δ_P = G(root1, root2).
    """
    nodes1, nodes2 = _path_nodes(l1), _path_nodes(l2)
    # a leaf against y inserts y's child subtrees: _assignment_min's value
    # with no rows, as x against a leaf is its value with no columns
    leaf_row = [sum(inss) for _, inss, _ in nodes2]
    G = []
    for kids1, dels, _ in nodes1:
        if not kids1:
            G.append(leaf_row)
            continue
        drop, Gx = sum(dels), []
        for kids2, inss, _ in nodes2:
            if not kids2:
                Gx.append(drop)
                continue
            rows = []
            for c in kids1:
                paths1, row = nodes1[c][2], []
                for d in kids2:
                    paths2, best = nodes2[d][2], math.inf
                    for u, a, s in paths1:
                        Gu = G[u]
                        for w, b, t in paths2:
                            v = abs(a - b) + s + t + Gu[w]
                            if v < best:
                                best = v
                    row.append(best)
                rows.append(row)
            Gx.append(_assignment_min(rows, dels, inss))
        G.append(Gx)
    return float(G[-1][-1])


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
    n = max(l1.node_count(), l2.node_count())
    if n > guards.mapping_nodes:
        raise SizeGuardError("brute-force mapping search", n, guards.mapping_nodes)
    cost, _ = brute_force_distance(l1, l2)
    return cost


def delta_s(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Sridharamurthy distance: Zhang-constrained edit distance on merge
    trees whose nodes carry the birth-death pair of their branch."""
    l1 = label_for_scheme(t1, mergetree.BRANCH_LABEL_ON_NODES)
    l2 = label_for_scheme(t2, mergetree.BRANCH_LABEL_ON_NODES)
    return constrained_dp(l1, l2, WASSERSTEIN_POINT)


def delta_e(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Deformation-based edit distance (unconstrained). Exponential; guarded."""
    m = max(t1.edge_count(), t2.edge_count())
    if m > guards.deform_edges:
        raise SizeGuardError("deformation enumeration", m, guards.deform_edges)
    return deform_brute_force(t1, t2)


def delta_p(t1: AbstractMergeTree, t2: AbstractMergeTree, guards=DEFAULT_GUARDS) -> float:
    """Path mapping distance: the one-degree deformation variant, by the
    path mapping DP on the same labeled trees as delta_l. No guard."""
    l1 = label_for_scheme(t1, mergetree.NODE_DIST_TO_PARENT)
    l2 = label_for_scheme(t2, mergetree.NODE_DIST_TO_PARENT)
    return path_mapping_dp(l1, l2)


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
    """metric's distance between two merge trees. A value that is not
    finite, a float overflow on trees of huge values, raises
    ValidationError naming the metric, and so does an error of the
    computation, such as an assignment block whose costs overflow."""
    try:
        d = _TREE_METRICS[metric](t1, t2, guards)
    except ValidationError as exc:
        raise ValidationError(f"delta_{metric.value}: {exc}") from exc
    if not math.isfinite(d):
        raise ValidationError(f"delta_{metric.value} overflows a float: {d}")
    return d


def compute(metric: MetricId, f1: ScalarField, f2: ScalarField, guards=DEFAULT_GUARDS) -> float:
    """Field-level convenience: build both abstract merge trees, dispatch."""
    return tree_distance(metric, merge_tree_of(f1), merge_tree_of(f2), guards)


def metric_from_string(name: str) -> MetricId:
    try:
        return MetricId(name.lower())
    except ValueError:
        raise ValidationError(f"unknown metric {name!r}, expected one of w x s l g p e b")
