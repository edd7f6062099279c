"""Common machinery of the edit distances: cost models, edit mappings,
exact brute-force optimizers and edit sequences.

Distances are computed through mapping / edge-subset characterizations
rather than literal operation-sequence search: optimal sequences normalize
to delete -> relabel -> insert, so the minimum over mappings equals the
minimum over sequences. Tiny instances are cross-checked against an
independent sequence search in the test suite.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from itertools import combinations, product, repeat, tee

from .errors import InapplicableOperationError, ValidationError
from .field import TOLERANCE
from .mergetree import (
    BLANK,
    NODE_DIST_TO_PARENT,
    LabeledTree,
    _id_key,
    _memoized,
    label_for_scheme,
)

SQRT2 = math.sqrt(2.0)


_solve = None


def _solver():
    """scipy's compiled linear_sum_assignment, loaded on first use from its
    own extension module, scipy/optimize/_lsap, without running
    scipy.optimize's __init__ (docs/decisions.md §16). It is the function
    scipy.optimize exports, so every distance keeps its bits; where no such
    file exists, it is taken from scipy.optimize."""
    global _solve
    if _solve is None:
        from importlib.machinery import EXTENSION_SUFFIXES
        from importlib.util import find_spec, module_from_spec, spec_from_file_location

        scipy = find_spec("scipy")
        paths = [os.path.join(d, "optimize", "_lsap" + suffix)
                 for d in (scipy.submodule_search_locations if scipy else ())
                 for suffix in EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            from scipy.optimize import linear_sum_assignment as _solve
        else:
            spec = spec_from_file_location("scipy.optimize._lsap", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            _solve = module.linear_sum_assignment
    return _solve


def linear_sum_assignment(cost_matrix):
    """The assignment solver of every distance and of the classifier's
    matching: (rows, cols) of a least-cost assignment. A list matrix is
    solved by _solve_in_python while numpy is not imported, so a process
    whose blocks are all small never loads it; every other matrix goes to
    _solver()'s compiled function. Both return the same rows and columns
    (docs/decisions.md sections 16 and 20)."""
    if type(cost_matrix) is list and "numpy" not in sys.modules:
        return _solve_in_python(cost_matrix)
    return (_solve or _solver())(cost_matrix)


def _solve_in_python(cost):
    """scipy's rectangular solver, Crouse's shortest augmenting path
    (IEEE TAES 52(4), 2016), on a list of equal-length rows: the same float
    operations in the same order, so the same (rows, cols) as lists and
    the same ValueError for a NaN or -inf entry and for an infeasible
    matrix (docs/decisions.md section 20)."""
    if not cost:
        raise ValueError("expected a matrix (2-D array), got a 1 array")
    nc = len(cost[0])
    for row in cost:
        total = sum(row)  # NaN or -inf whenever the row holds either
        if (total != total or total == -math.inf) and any(
                x != x or x == -math.inf for x in row):
            raise ValueError("matrix contains invalid numeric entries")
    nr = len(cost)
    if nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = list(zip(*cost))
        nr, nc = nc, nr
    inf = math.inf
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # the shortest augmenting path from row cur; `remaining` is filled
        # in reverse, so a constant matrix gives the identity
        remaining = list(range(nc - 1, -1, -1))
        left = nc
        shortest = [inf] * nc
        rows_seen, cols_seen = [], []
        min_val, i = 0.0, cur
        while True:
            rows_seen.append(i)
            index, lowest = -1, inf
            ui, row = u[i], cost[i]
            for it in range(left):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # on an equal cost, an unassigned column ends the path
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            cols_seen.append(j)
            left -= 1
            remaining[index] = remaining[left]
            if row4col[j] == -1:
                break
            i = row4col[j]
        # the dual variables, then the path's assignments flipped
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[j] for j in cols], cols
    return list(range(nr)), col4row


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CostModel:
    """Relabel and delete costs over one label kind.

    Nonnegative, zero on equal labels, symmetric. Deletion uses the empty
    symbol: scalar labels compare against 0, birth-death points against
    their diagonal projection. Inserting a label costs what deleting it
    does, so delete prices both.

    Compared and hashed by identity: the two module singletons below are
    the only instances, and _collapse_costs keys its memo on them.
    """

    kind: str

    def relabel(self, a, b) -> float:
        if self.kind == "scalar":
            a_blank, b_blank = a is BLANK, b is BLANK
            if a_blank or b_blank:
                return 0.0 if (a_blank and b_blank) else math.inf
            return abs(a - b)
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def relabel_rows(self, labels_a, labels_b) -> list:
        """[[relabel(a, b) for b in labels_b] for a in labels_a], the same
        floats, for labels that are not blank: the one-degree DPs pass
        child labels, and only a merge tree's root is blank."""
        if self.kind == "scalar":
            return [[abs(a - b) for b in labels_b] for a in labels_a]
        hypot = math.hypot
        return [[hypot(a0 - b0, a1 - b1) for b0, b1 in labels_b] for a0, a1 in labels_a]

    def relabel_block(self, labels_a, labels_b, out):
        """relabel_rows written into out, a float64 array of len(labels_a)
        rows and len(labels_b) columns, and returned; the same floats.
        Scalar blocks take relabel_rows' own rows; birth-death rows run
        math.dist(a, b), which runs CPython's vector_norm on the same
        |a0 - b0| and |a1 - b1| as math.hypot(a0 - b0, a1 - b1)
        (docs/decisions.md §15)."""
        import numpy as np

        if self.kind == "scalar":
            out[:] = self.relabel_rows(labels_a, labels_b)
            return out
        n2, dist = len(labels_b), math.dist
        for i, a in enumerate(labels_a):
            out[i] = np.fromiter(map(dist, repeat(a, n2), labels_b), float, n2)
        return out

    def delete(self, a) -> float:
        if self.kind == "scalar":
            if a is BLANK:
                return math.inf
            return abs(a)
        return abs(a[0] - a[1]) / SQRT2


#: |l1 - l2| with empty symbol 0; blank labels pair only with each other.
ABS_DIFF = CostModel("scalar")

#: Euclidean distance in birth-death space; delete/insert to the diagonal.
WASSERSTEIN_POINT = CostModel("birth_death")


def cost_model_for(labeled: LabeledTree) -> CostModel:
    if labeled.scheme == NODE_DIST_TO_PARENT:
        return ABS_DIFF
    return WASSERSTEIN_POINT


@dataclass(frozen=True)
class EditMapping:
    """One-to-one node correspondence, stored sorted for determinism."""

    pairs: tuple

    @staticmethod
    def of(pairs) -> "EditMapping":
        return EditMapping(
            tuple(sorted(pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1]))))
        )


def _pairs_key(pairs):
    return tuple([  # from a list, not a generator: docs/decisions.md section 6
        (_id_key(a), _id_key(b))
        for a, b in sorted(pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1])))
    ])


def _better(cost, key, best_cost, best_key):
    """Whether (cost, key) beats the best so far: a smaller float, or the
    same float and a smaller mapping key."""
    return cost < best_cost or (cost == best_cost and (best_key is None or key < best_key))


# ---------------------------------------------------------------------------
# Brute force over Tai mappings
# ---------------------------------------------------------------------------

def brute_force_distance(l1: LabeledTree, l2: LabeledTree):
    """Exact minimum over all Tai mappings, the edit distance of delta_G,
    with the cost model of l1's label scheme.

    Returns (cost, EditMapping): the least float over all mappings, each
    summing its gains in the first tree's node order, and of the mappings
    with exactly that total the lexicographically smallest. Deformation
    constraints live in deform_brute_force.
    """
    c, pairs = _tai_search(l1, l2, cost_model_for(l1))
    return c, EditMapping.of(pairs)


def _parents_first(lt: LabeledTree):
    """Every node of lt, parents first: the root, then each listed node's
    children in lt.children order. Reversed, it puts children before their
    parents and the root last, which is all the bottom-up fills need."""
    order = [lt.root]
    for v in order:
        order.extend(lt.children[v])
    return order


#: _parents_first kept on the tree, for trees walked more than once: the
#: base tree of delta_E and the witness search, walked by _root_shape for
#: every set and by contract for every quotient, and the trees of s, p and
#: the Tai search, walked per pair. A quotient is walked once, by _shapes,
#: and _collapse_costs once per tree and cost model; both call
#: _parents_first directly, so a long-lived tree that only they walk keeps
#: no order.
_order = _memoized(_parents_first)


@_memoized
def _collapse_costs(lt: LabeledTree, cost: CostModel):
    """Cost of deleting, or inserting, each node's whole subtree. Kept on
    the labeled tree per cost model, so a tree that meets many partners, as
    each decomposition does in delta_b, or meets itself, is summed once;
    callers only read the dict. Pass the arguments positionally: the memo
    keys on them."""
    out = {}
    for v in reversed(_parents_first(lt)):
        out[v] = cost.delete(lt.labels[v]) + sum(out[c] for c in lt.children[v])
    return out


def _ancestry(lt: LabeledTree):
    anc = {}
    for v in _order(lt):
        p = lt.parent[v]
        anc[v] = frozenset() if p is None else anc[p] | {p}
    return anc


def _tai_search(l1: LabeledTree, l2: LabeledTree, cost: CostModel):
    """Branch and bound over one-to-one ancestor-preserving mappings (Tai)."""
    anc1, anc2 = _ancestry(l1), _ancestry(l2)
    all1 = sorted(l1.nodes(), key=_id_key)
    all2 = sorted(l2.nodes(), key=_id_key)
    blank1 = [v for v in all1 if l1.labels[v] is BLANK]
    blank2 = [w for w in all2 if l2.labels[w] is BLANK]
    if len(blank1) > 1 or len(blank2) > 1 or bool(blank1) != bool(blank2):
        raise ValidationError("blank labels must mark exactly the two roots")
    forced = list(zip(blank1, blank2))
    nodes1 = [v for v in all1 if l1.labels[v] is not BLANK]
    nodes2 = [w for w in all2 if l2.labels[w] is not BLANK]
    del_cost = {v: cost.delete(l1.labels[v]) for v in nodes1}
    ins_cost = {w: cost.delete(l2.labels[w]) for w in nodes2}
    base = sum(del_cost.values()) + sum(ins_cost.values())
    gains = {
        v: {
            w: cost.relabel(l1.labels[v], l2.labels[w]) - del_cost[v] - ins_cost[w]
            for w in nodes2
        }
        for v in nodes1
    }
    suffix = [0.0] * (len(nodes1) + 1)
    for i in range(len(nodes1) - 1, -1, -1):
        g = min(0.0, min(gains[nodes1[i]].values(), default=0.0))
        suffix[i] = suffix[i + 1] + g

    best = [math.inf, None, None]  # cost, pairs, key
    margin = TOLERANCE * (1.0 + base)
    search = (anc1, nodes1, anc2, nodes2, gains, base, suffix, margin, best)
    _tai_dfs(search, 0, list(forced), set(), 0.0)
    return best[0], best[1]


def _tai_dfs(search, i, pairs, used, gain_acc):
    """_tai_search from the i-th node of the first tree on: each free
    compatible partner in turn, then no partner. A module-level recursion,
    so a call leaves no reference cycle behind (a self-recursive closure
    would). A branch is pruned only when its lower bound, less a margin
    for the bound's rounding, exceeds the best total: every total that
    could beat or tie it is reached (docs/decisions.md section 22)."""
    anc1, nodes1, anc2, nodes2, gains, base, suffix, margin, best = search
    if base + gain_acc + suffix[i] - margin > best[0]:
        return
    if i == len(nodes1):
        total = base + gain_acc
        key = _pairs_key(pairs)
        if _better(total, key, best[0], best[2]):
            best[0], best[1], best[2] = total, tuple(pairs), key
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
        if not ok:
            continue
        pairs.append((v, w))
        used.add(w)
        _tai_dfs(search, i + 1, pairs, used, gain_acc + gains[v][w])
        used.discard(w)
        pairs.pop()
    _tai_dfs(search, i + 1, pairs, used, gain_acc)


# ---------------------------------------------------------------------------
# Deformation-based distances: quotient enumeration
# ---------------------------------------------------------------------------

def _shapes(lt: LabeledTree):
    """Every node's shape, the sorted tuple of its children's shapes,
    filled children first with no recursion."""
    out = {}
    for v in reversed(_parents_first(lt)):
        out[v] = tuple(sorted(out[c] for c in lt.children[v]))
    return out


def _by_id(scheme, root, parent: dict, labels: dict) -> LabeledTree:
    """The LabeledTree of a parent map, each node's children sorted by id."""
    ch = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            ch[p].append(v)
    children = {v: tuple(sorted(c, key=_id_key)) for v, c in ch.items()}
    return LabeledTree(scheme, root, parent, labels, children)


def contract(lt: LabeledTree, deleted) -> LabeledTree:
    """The quotient of lt, a tree labeled by distance to the parent, by the
    parent edges of `deleted`: each deleted edge contracted, then every node
    left with one child and a parent pruned, its edge merged into the
    child's (lengths sum). Built directly in O(n); tests/helpers.py replays
    the same deletions one operation at a time as its oracle.

    A node's class top is its nearest ancestor-or-self whose parent edge
    survives. Every non-root class with exactly one child class folds into
    that child, which keeps its id and takes the lengths along the chain.
    The quotient's children are sorted by id, whatever lt's order.
    """
    if lt.root in deleted:
        raise ValidationError("the root has no parent edge to delete")
    top, kids = {}, {}
    for v in _order(lt):
        p = lt.parent[v]
        if p is not None and v in deleted:
            top[v] = top[p]
        else:
            top[v] = v
            kids[v] = []
            if p is not None:
                kids[top[p]].append(v)
    parent, labels = {}, {}
    attach, carry = {lt.root: None}, {lt.root: 0.0}
    for u, cs in kids.items():  # class tops, parents first
        above = attach[u]
        if above is not None and len(cs) == 1:
            attach[cs[0]], carry[cs[0]] = above, carry[u] + lt.labels[u]
            continue
        parent[u] = above
        labels[u] = BLANK if above is None else lt.labels[u] + carry[u]
        for c in cs:
            attach[c], carry[c] = u, 0.0
    return _by_id(NODE_DIST_TO_PARENT, lt.root, parent, labels)


def _iso(q1: LabeledTree, shapes1, q2: LabeledTree, shapes2, edge_cost):
    """Root-preserving isomorphism of two same-shape trees labeled by
    distance to the parent (`shapes1` and `shapes2` their _shapes maps) with
    the least total edge_cost(length in q1, length in q2); returns (cost,
    node pairs)."""
    return _iso_below(q1, shapes1, q2, shapes2, edge_cost, q1.root, q2.root)


def _iso_below(q1, shapes1, q2, shapes2, edge_cost, v, w):
    """_iso on the subtrees of v and w. A module-level recursion, so a call
    leaves no reference cycle behind (a self-recursive closure would)."""
    cost = 0.0
    if q1.parent[v] is not None:
        cost = edge_cost(q1.labels[v], q2.labels[w])
    pairs = [(v, w)]
    by_shape1 = {}
    for c in q1.children[v]:
        by_shape1.setdefault(shapes1[c], []).append(c)
    by_shape2 = {}
    for c in q2.children[w]:
        by_shape2.setdefault(shapes2[c], []).append(c)
    for s in sorted(by_shape1):
        group1, group2 = by_shape1[s], by_shape2[s]
        sub = [
            [_iso_below(q1, shapes1, q2, shapes2, edge_cost, a, b) for b in group2]
            for a in group1
        ]
        if len(group1) == 1:
            c0, p0 = sub[0][0]
            cost += c0
            pairs.extend(p0)
            continue
        rows, cols = linear_sum_assignment([[entry[0] for entry in row] for row in sub])
        for r, c in zip(rows, cols):
            cost += sub[r][c][0]
            pairs.extend(sub[r][c][1])
    return cost, pairs


def _length_diff(a, b):
    return abs(a - b)


def _delete_sets(lt: LabeledTree):
    """(cost, [delete set, its quotient's root shape, None]) for every
    delete set of lt in (cost, edge indices) order, edges indexed by id,
    made on demand. A heap grows a set only by edges of a higher index than
    its last, so a cost is its lengths summed in id order from int 0, as sum
    gives, and never below the cost of the set it grew from: the pops come
    in a full sort's order (docs/decisions.md section 9)."""
    from heapq import heappop, heappush  # here: only delta_E loads heapq

    edges = sorted((v for v in lt.nodes() if lt.parent[v] is not None), key=_id_key)
    heap = [(0, ())]
    while heap:
        cost, idx = heappop(heap)
        d = frozenset(map(edges.__getitem__, idx))
        yield cost, [d, _root_shape(lt, d), None]
        for j in range(idx[-1] + 1 if idx else 0, len(edges)):
            heappush(heap, (cost + lt.labels[edges[j]], idx + (j,)))


def _root_shape(lt: LabeledTree, deleted):
    """The root's entry in _shapes(contract(lt, deleted)), found without the
    quotient: a deleted node hands its child shapes to its parent, and a
    kept non-root node with one child shape is pruned into that child."""
    below = {}  # node -> the shapes handed to it so far, if any
    for v in reversed(_order(lt)[1:]):  # children first, the root left out
        got, p = below.pop(v, None), lt.parent[v]
        if v not in deleted:
            shape = () if got is None else got[0] if len(got) == 1 else tuple(sorted(got))
            below.setdefault(p, []).append(shape)
        elif got:
            below.setdefault(p, []).extend(got)
    return tuple(sorted(below.get(lt.root, ())))


def _shaped(lt: LabeledTree, item):
    """(quotient, its _shapes map) of an entry, built on the first call
    and kept in the entry; only a pair of one root shape needs it."""
    built = item[2]
    if built is None:
        q = contract(lt, item[0])
        built = item[2] = (q, _shapes(q))
    return built


def deform_brute_force(t1, t2):
    """Exact deformation-based edit distance by enumerating delete sets.

    Minimizes len(D1) + len(D2) + optimal relabel cost over all pairs of
    contractible edge sets whose quotients are isomorphic rooted trees.

    Both trees' delete sets are walked in cost order, the second's through
    a tee whose buffer grows only as far as an inner walk reads. The inner
    walk skips sets of another root shape, found without a quotient, and
    stops where a walk bucketed by shape would: costs do not decrease and
    `best` only moves on a matching entry (docs/decisions.md section 9). The
    stops compare exactly: a total adds non-negative floats to c1 and to
    c1 + c2, and rounding never takes such a sum below either, so the walk
    returns the least float over all pairs, in whatever order they are
    visited (section 22).

    Once a witness is found, the inner walk also skips, before building the
    quotients, every pair whose lower bound c1 + c2 + |(L1 - c1) - (L2 - c2)|
    reaches `best`, L being a tree's total edge length (its non-root labels
    summed in dict order). A quotient keeps every surviving length, so its
    total is L - c, and an isomorphism costs at least the difference of the
    totals; the margin covers the rounding of these sums. A skip rests on
    its own pair's bound alone, so it is a `continue`, not a stop
    (docs/decisions.md section 11).
    """
    lt1, lt2 = (label_for_scheme(t, NODE_DIST_TO_PARENT) for t in (t1, t2))
    len1, len2 = (sum(x for x in lt.labels.values() if x is not BLANK) for lt in (lt1, lt2))
    margin = TOLERANCE * (1.0 + len1 + len2)
    best = math.inf  # no stop or skip fires while it is
    sets2 = tee(_delete_sets(lt2), 1)[0]  # each copy reads from the first set
    for c1, item1 in _delete_sets(lt1):
        if c1 >= best:
            break
        shape, rest1 = item1[1], len1 - c1
        for c2, item2 in sets2.__copy__():
            if c1 + c2 >= best:
                break
            if item2[1] != shape or c1 + c2 + abs(rest1 - (len2 - c2)) - margin >= best:
                continue
            total = c1 + c2 + _iso(*_shaped(lt1, item1), *_shaped(lt2, item2), _length_diff)[0]
            if total < best:
                best = total
    return best


def deform_witness_search(t1, t2, max_ops: int, max_op_cost: float) -> bool:
    """Whether some deformation plan has a normalized sequence of at most
    max_ops operations, each of cost at most max_op_cost.

    This verifies the existence clause of the stability theorems: the
    qualifying sequence need not be cost-optimal. A plan is two delete sets
    and an isomorphism of their quotients (docs/decisions.md section 2).
    Only usable delete sets are made (at most max_ops edges, each within
    the cap), grouped by root shape one edge count at a time as the pairs of
    counts, tried by n1 + n2 <= max_ops, first need them. A quotient is built
    only for a pair of one shape, so a near pair stops at the two empty sets.
    """
    lt1, lt2 = (label_for_scheme(t, NODE_DIST_TO_PARENT) for t in (t1, t2))
    cap = max_op_cost + TOLERANCE
    short1, short2 = ([v for v in _order(lt)[1:] if lt.labels[v] <= cap] for lt in (lt1, lt2))
    groups1, groups2 = {}, {}  # edge count -> {root shape: entries}, as first reached
    sizes = product(range(min(max_ops, len(short1)) + 1), range(min(max_ops, len(short2)) + 1))
    for n1, n2 in sorted(sizes, key=sum):
        budget = max_ops - n1 - n2
        if budget < 0:
            break
        for lt, short, n, groups in ((lt1, short1, n1, groups1), (lt2, short2, n2, groups2)):
            if n not in groups:
                groups[n] = {}
                for d in map(frozenset, combinations(short, n)):
                    shape = _root_shape(lt, d)
                    groups[n].setdefault(shape, []).append([d, shape, None])
        for shape, items1 in groups1[n1].items():
            for e1, e2 in product(items1, groups2[n2].get(shape, ())):
                if _qualifying_iso(*_shaped(lt1, e1), *_shaped(lt2, e2), budget, cap) is not None:
                    return True
    return False


def _qualifying_iso(q1: LabeledTree, shapes1, q2: LabeledTree, shapes2, max_relabels: int, cap: float):
    """The isomorphism with the fewest relabels, if it needs at most
    max_relabels, none above cap; otherwise None. An edge pair counts 0
    within TOLERANCE, 1 within cap, and above cap more than max_relabels
    and the edge count, so no total within max_relabels includes it
    (docs/decisions.md section 2)."""
    over = max_relabels + len(q1.parent)

    def relabels(a, b):
        d = abs(a - b)
        return 0 if d <= TOLERANCE else 1 if d <= cap else over

    count, iso = _iso(q1, shapes1, q2, shapes2, relabels)
    return iso if count <= max_relabels else None


# ---------------------------------------------------------------------------
# Edit operations and sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditOp:
    """One edit operation; an edit sequence is a tuple of them. The edge
    kinds and `split` describe the deformation operations, which
    tests/helpers.py builds and replays on trees labeled by distance to the
    parent."""

    kind: str  # node_delete | node_insert | node_relabel | edge_delete | edge_insert | edge_relabel
    node: object
    cost: float
    label: object = None
    parent: object = None
    moved_children: tuple = ()
    split: tuple | None = None  # (existing child edge, new inner id, upper len, lower len)


def check_sequence(tree: LabeledTree, sequence) -> LabeledTree:
    """Apply an edit sequence of node operations, a tuple of EditOp, to a
    LabeledTree; raises InapplicableOperationError with the offending step
    index."""
    current = tree
    for i, op in enumerate(sequence):
        try:
            current = _apply_node_op(current, op)
        except (KeyError, ValueError) as exc:
            raise InapplicableOperationError(i, str(exc)) from exc
    return current


def _apply_node_op(lt: LabeledTree, op: EditOp) -> LabeledTree:
    parent = dict(lt.parent)
    labels = dict(lt.labels)
    if op.kind == "node_relabel":
        if op.node not in parent:
            raise KeyError(f"no node {op.node!r}")
        labels[op.node] = op.label
    elif op.kind == "node_delete":
        v = op.node
        if v not in parent:
            raise KeyError(f"no node {v!r}")
        if parent[v] is None:
            raise ValueError("cannot delete the root")
        for c, p in list(parent.items()):
            if p == v:
                parent[c] = parent[v]
        del parent[v], labels[v]
    elif op.kind == "node_insert":
        v = op.node
        if v in parent:
            raise ValueError(f"node {v!r} already present")
        if op.parent not in parent:
            raise KeyError(f"no attach node {op.parent!r}")
        for c in op.moved_children:
            if parent.get(c) != op.parent:
                raise ValueError(f"{c!r} is not a child of {op.parent!r}")
        parent[v] = op.parent
        labels[v] = op.label
        for c in op.moved_children:
            parent[c] = v
    else:
        raise ValueError(f"unknown node op {op.kind!r}")
    return _by_id(lt.scheme, lt.root, parent, labels)


# ---------------------------------------------------------------------------
# Mapping -> normalized sequence
# ---------------------------------------------------------------------------

def mapping_to_sequence(l1, l2, mapping) -> tuple:
    """Normalized delete -> relabel -> insert sequence realizing a mapping,
    a tuple of EditOp.

    Takes two LabeledTrees and an EditMapping between them, and emits node
    operations. The total cost equals the mapping cost; check_sequence
    reproduces l2 up to isomorphism.
    """
    cost = cost_model_for(l1)
    mapped1 = {a: b for a, b in mapping.pairs}
    mapped2 = {b: a for a, b in mapping.pairs}
    if len(mapped1) != len(mapping.pairs) or len(mapped2) != len(mapping.pairs):
        raise ValidationError("mapping is not one-to-one")
    for a, b in mapping.pairs:
        if a not in l1.parent or b not in l2.parent:
            raise ValidationError(f"mapping pair ({a!r}, {b!r}) references unknown nodes")
    if l1.root not in mapped1 or mapped1[l1.root] != l2.root:
        raise ValidationError("mapping must match the roots")
    depth1, depth2 = _depths(l1), _depths(l2)
    ops = []
    for v in sorted(
        (v for v in l1.nodes() if v not in mapped1), key=lambda v: (-depth1[v], _id_key(v))
    ):
        ops.append(EditOp("node_delete", v, cost.delete(l1.labels[v])))
    for a, b in mapping.pairs:
        r = cost.relabel(l1.labels[a], l2.labels[b])
        if r > 0.0:
            ops.append(EditOp("node_relabel", a, r, label=l2.labels[b]))
    existing = set(l1.nodes())
    current_id = dict(mapped2)
    # simulate the delete phase so insertions can re-parent the mapped nodes
    # hanging below them (they sit at their nearest mapped ancestor until the
    # intermediate chain is rebuilt)
    sim = l1
    for op in ops:
        sim = _apply_node_op(sim, op)
    anc2 = _ancestry(l2)
    counterpart = {a: b for a, b in mapping.pairs}
    insert_ops = []
    for w in sorted(
        (w for w in l2.nodes() if w not in mapped2), key=lambda w: (depth2[w], _id_key(w))
    ):
        wid = w
        while wid in existing:
            wid = f"+{wid}"
        existing.add(wid)
        current_id[w] = wid
        attach = current_id[l2.parent[w]]
        moved = tuple(
            c
            for c in sim.children[attach]
            if w in anc2[counterpart[c]]
        )
        op = EditOp(
            "node_insert",
            wid,
            cost.delete(l2.labels[w]),
            label=l2.labels[w],
            parent=attach,
            moved_children=moved,
        )
        sim = _apply_node_op(sim, op)
        counterpart[wid] = w
        insert_ops.append(op)
    return tuple(ops + insert_ops)


def _depths(lt) -> dict:
    depth = {}
    for v in _order(lt):
        p = lt.parent[v]
        depth[v] = 0 if p is None else depth[p] + 1
    return depth
