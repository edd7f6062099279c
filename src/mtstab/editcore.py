"""Common machinery of the edit distances: cost models, edit mappings,
mapping-constraint predicates, exact brute-force optimizers and edit
sequences.

Distances are computed through mapping / edge-subset characterizations
rather than literal operation-sequence search: optimal sequences normalize
to delete -> relabel -> insert, so the minimum over mappings equals the
minimum over sequences. Tiny instances are cross-checked against an
independent sequence search in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    InapplicableOperationError,
    SizeGuardError,
    ValidationError,
)
from .field import TOLERANCE
from .mergetree import (
    BLANK,
    AbstractMergeTree,
    LabeledTree,
    _id_key,
)

SQRT2 = math.sqrt(2.0)
#: Tie-break slack of the optimizers: costs within _EPS count as equal. Far
#: below field.TOLERANCE, the one tolerance for comparing lengths and costs.
_EPS = 1e-12


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Relabel / delete / insert costs over one label kind.

    Nonnegative, zero on equal labels, symmetric. Deletion and insertion use
    the empty symbol: scalar labels compare against 0, birth-death points
    against their diagonal projection.
    """

    kind: str

    def relabel(self, a, b) -> float:
        if self.kind == "scalar":
            a_blank, b_blank = a is BLANK, b is BLANK
            if a_blank or b_blank:
                return 0.0 if (a_blank and b_blank) else math.inf
            return abs(a - b)
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def delete(self, a) -> float:
        if self.kind == "scalar":
            if a is BLANK:
                return math.inf
            return abs(a)
        return abs(a[0] - a[1]) / SQRT2

    def insert(self, b) -> float:
        return self.delete(b)


#: |l1 - l2| with empty symbol 0; blank labels pair only with each other.
ABS_DIFF = CostModel("scalar")

#: Euclidean distance in birth-death space; delete/insert to the diagonal.
WASSERSTEIN_POINT = CostModel("birth_death")


def cost_model_for(labeled: LabeledTree) -> CostModel:
    from . import mergetree as mt

    if labeled.scheme in (mt.EDGE_LENGTH, mt.NODE_DIST_TO_PARENT):
        return ABS_DIFF
    return WASSERSTEIN_POINT


class MappingConstraint(Enum):
    TAI = "tai"
    SELKOW = "selkow"
    ZHANG_CONSTRAINED = "zhang_constrained"
    DEFORM_FREE = "deform_free"
    DEFORM_ONE_DEGREE = "deform_one_degree"


@dataclass(frozen=True)
class EditMapping:
    """One-to-one node correspondence, stored sorted for determinism."""

    pairs: tuple

    @staticmethod
    def of(pairs) -> "EditMapping":
        return EditMapping(
            tuple(sorted(pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1]))))
        )


BRUTE_FORCE_NODE_LIMIT = 12


def _pairs_key(pairs):
    return tuple(
        (_id_key(a), _id_key(b))
        for a, b in sorted(pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1])))
    )


def _better(cost, key, best_cost, best_key):
    if cost < best_cost - _EPS:
        return True
    return cost <= best_cost + _EPS and (best_key is None or key < best_key)


# ---------------------------------------------------------------------------
# Brute force over constrained mappings
# ---------------------------------------------------------------------------

def brute_force_distance(
    l1: LabeledTree,
    l2: LabeledTree,
    constraint: MappingConstraint,
    cost: CostModel | None = None,
    node_limit: int = BRUTE_FORCE_NODE_LIMIT,
):
    """Exact minimum over all mappings satisfying the constraint.

    Returns (cost, EditMapping); ties resolved toward the lexicographically
    smallest mapping. Deformation constraints live in deform_brute_force.
    """
    if constraint in (MappingConstraint.DEFORM_FREE, MappingConstraint.DEFORM_ONE_DEGREE):
        raise ValidationError("use deform_brute_force for deformation constraints")
    if cost is None:
        cost = cost_model_for(l1)
    n1, n2 = l1.node_count(), l2.node_count()
    if max(n1, n2) > node_limit:
        raise SizeGuardError("brute-force mapping search", max(n1, n2), node_limit)
    if constraint is MappingConstraint.SELKOW:
        c, pairs = _selkow_enum(l1, l2, cost)
        return c, EditMapping.of(pairs)
    zhang = constraint is MappingConstraint.ZHANG_CONSTRAINED
    c, pairs = _tai_search(l1, l2, cost, zhang)
    return c, EditMapping.of(pairs)


def _postorder(lt: LabeledTree):
    out = []
    stack = [(lt.root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            out.append(v)
        else:
            stack.append((v, True))
            for c in lt.children[v]:
                stack.append((c, False))
    return out


def _collapse_costs(lt: LabeledTree, cost: CostModel, deleting: bool):
    out = {}
    for v in _postorder(lt):
        own = cost.delete(lt.labels[v]) if deleting else cost.insert(lt.labels[v])
        out[v] = own + sum(out[c] for c in lt.children[v])
    return out


def _group_indices(lt: LabeledTree, v):
    if lt.groups is None:
        return None
    gi = {}
    for i, grp in enumerate(lt.groups[v]):
        for c in grp:
            gi[c] = i
    return gi


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


def _selkow_enum(l1: LabeledTree, l2: LabeledTree, cost: CostModel):
    """Enumerative optimum over Selkow (one-degree) mappings: roots mapped,
    parents of mapped pairs mapped. Honors child order when both trees are
    ordered. Independent of the polynomial DPs in the distances module."""
    ordered = l1.groups is not None and l2.groups is not None
    del1 = _collapse_costs(l1, cost, deleting=True)
    ins2 = _collapse_costs(l2, cost, deleting=False)
    memo = {}

    def best(v, w):
        key = (v, w)
        if key in memo:
            return memo[key]
        cs1 = sorted(l1.children[v], key=_id_key)
        cs2 = sorted(l2.children[w], key=_id_key)
        gi1 = _group_indices(l1, v) if ordered else None
        gi2 = _group_indices(l2, w) if ordered else None
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
        result = (
            cost.relabel(l1.labels[v], l2.labels[w]) + state[0],
            ((v, w),) + tuple(state[1]),
        )
        memo[key] = result
        return result

    return best(l1.root, l2.root)


def _ancestry(lt: LabeledTree):
    anc = {}
    order = [lt.root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        order.extend(lt.children[v])
    for v in order:
        p = lt.parent[v]
        anc[v] = frozenset() if p is None else anc[p] | {p}
    return anc


def _lca(lt: LabeledTree, anc, a, b):
    if a == b:
        return a
    cur = a
    bset = anc[b] | {b}
    while cur is not None:
        if cur in bset:
            return cur
        cur = lt.parent[cur]
    return lt.root


def _tai_search(l1: LabeledTree, l2: LabeledTree, cost: CostModel, zhang: bool):
    """Branch and bound over one-to-one ancestor-preserving mappings (Tai);
    with `zhang`, additionally the lowest-common-ancestor triple condition
    of the constrained edit distance."""
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
    ins_cost = {w: cost.insert(l2.labels[w]) for w in nodes2}
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

    best = [math.inf, None, None]

    def related(anc, a, b):
        return a == b or a in anc[b] or b in anc[a]

    def zhang_ok(pairs, v3, w3):
        for i in range(len(pairs)):
            v1, w1 = pairs[i]
            for j in range(len(pairs)):
                if i == j:
                    continue
                v2, w2 = pairs[j]
                if related(anc1, _lca(l1, anc1, v1, v2), v3) != related(
                    anc2, _lca(l2, anc2, w1, w2), w3
                ):
                    return False
                if related(anc1, _lca(l1, anc1, v1, v3), v2) != related(
                    anc2, _lca(l2, anc2, w1, w3), w2
                ):
                    return False
        return True

    def dfs(i, pairs, used, gain_acc):
        if base + gain_acc + suffix[i] > best[0] + _EPS:
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
            if zhang and not zhang_ok(pairs, v, w):
                continue
            pairs.append((v, w))
            used.add(w)
            dfs(i + 1, pairs, used, gain_acc + gains[v][w])
            used.discard(w)
            pairs.pop()
        dfs(i + 1, pairs, used, gain_acc)

    start = list(forced)
    dfs(0, start, set(), 0.0)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# Deformation-based distances: quotient enumeration
# ---------------------------------------------------------------------------

class EdgeTree:
    """Rooted tree with a length per non-root node (its parent edge); the
    working representation for deformation-based operations."""

    def __init__(self, parent: dict, length: dict, root):
        self.parent = dict(parent)
        self.length = {v: float(x) for v, x in length.items()}
        self.root = root
        self._rebuild()

    def _rebuild(self):
        ch = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                ch[p].append(v)
        self.children = {v: sorted(c, key=_id_key) for v, c in ch.items()}

    def copy(self) -> "EdgeTree":
        return EdgeTree(self.parent, self.length, self.root)

    def nodes(self):
        return self.parent.keys()

    def edge_count(self):
        return len(self.parent) - 1

    def depth(self, v):
        d = 0
        while self.parent[v] is not None:
            v = self.parent[v]
            d += 1
        return d

    def total_length(self):
        return sum(self.length.values())

    def shape(self):
        memo = {}

        def key(v):
            if v not in memo:
                memo[v] = tuple(sorted(key(c) for c in self.children[v]))
            return memo[v]

        return key(self.root)


def edge_tree_of(tree: AbstractMergeTree) -> EdgeTree:
    length = {
        v: tree.value[v] - tree.value[tree.parent[v]]
        for v in tree.nodes()
        if tree.parent[v] is not None
    }
    return EdgeTree(dict(tree.parent), length, tree.root)


def contract(et: EdgeTree, deleted) -> EdgeTree:
    """Contract the parent edges of `deleted`, with the automatic pruning of
    emerging regular nodes (merged labels sum).

    Implemented operationally (top-down deletions), so the surviving node
    ids match what an actual edit sequence produces; when an automatic prune
    folds a still-pending edge into a survivor, the pending deletion turns
    into an equal-cost relabel of the merged edge (see _delete_phase_ops).
    The distance searches use _quotient; this replay builds witnesses and
    serves as its test oracle.
    """
    return _delete_phase_ops(et, deleted)[1]


def _delete_phase_ops(et: EdgeTree, deleted):
    """(ops, resulting tree) of the top-down deletion of `deleted`."""
    deleted = set(deleted)
    if et.root in deleted:
        raise ValidationError("the root has no parent edge to delete")
    sim = et.copy()
    ops = []
    for v in sorted(deleted, key=lambda u: (et.depth(u), _id_key(u))):
        planned = et.length[v]
        cur = sim.length[v]
        if abs(cur - planned) <= TOLERANCE:
            op = EditOp("edge_delete", v, cur)
        else:
            # an automatic prune folded an ancestor edge into v; shaving off
            # v's own length removes exactly the planned material
            op = EditOp("edge_relabel", v, planned, label=cur - planned)
        _apply_edge_op(sim, op)
        ops.append(op)
    return ops, sim


def _quotient(et: EdgeTree, deleted, order) -> EdgeTree:
    """The tree contract(et, deleted) yields, built directly in O(n): same
    shape and lengths, node ids may differ. `order` lists et's nodes with
    parents first.

    A node's class top is its nearest ancestor-or-self whose parent edge
    survives. Every non-root class with exactly one child class folds into
    that child, which keeps its id and takes the lengths along the chain.
    """
    top, kids = {}, {}
    for v in order:
        p = et.parent[v]
        if p is not None and v in deleted:
            top[v] = top[p]
        else:
            top[v] = v
            kids[v] = []
            if p is not None:
                kids[top[p]].append(v)
    parent, length = {}, {}
    attach, carry = {et.root: None}, {et.root: 0.0}
    for u, cs in kids.items():  # class tops, parents first
        above = attach[u]
        if above is not None and len(cs) == 1:
            attach[cs[0]], carry[cs[0]] = above, carry[u] + et.length[u]
            continue
        parent[u] = above
        if above is not None:
            length[u] = et.length[u] + carry[u]
        for c in cs:
            attach[c], carry[c] = u, 0.0
    return EdgeTree(parent, length, et.root)


def _iso_min_cost(q1: EdgeTree, q2: EdgeTree):
    """Minimum total |length difference| over root-preserving isomorphisms
    of two same-shape edge trees; returns (cost, node pairs) or None."""
    memo1, memo2 = {}, {}

    def shape_of(et, v, memo):
        if v not in memo:
            memo[v] = tuple(sorted(shape_of(et, c, memo) for c in et.children[v]))
        return memo[v]

    if shape_of(q1, q1.root, memo1) != shape_of(q2, q2.root, memo2):
        return None

    def go(v, w):
        cost = 0.0
        if q1.parent[v] is not None:
            cost = abs(q1.length[v] - q2.length[w])
        pairs = [(v, w)]
        by_shape1 = {}
        for c in q1.children[v]:
            by_shape1.setdefault(shape_of(q1, c, memo1), []).append(c)
        by_shape2 = {}
        for c in q2.children[w]:
            by_shape2.setdefault(shape_of(q2, c, memo2), []).append(c)
        for s in sorted(by_shape1):
            group1, group2 = by_shape1[s], by_shape2[s]
            sub = [[go(a, b) for b in group2] for a in group1]
            if len(group1) == 1:
                c0, p0 = sub[0][0]
                cost += c0
                pairs.extend(p0)
                continue
            mat = np.array([[entry[0] for entry in row] for row in sub])
            rows, cols = linear_sum_assignment(mat)
            for r, c in zip(rows, cols):
                cost += sub[r][c][0]
                pairs.extend(sub[r][c][1])
        return cost, pairs

    return go(q1.root, q2.root)


DEFORM_EDGE_LIMIT = 10


@dataclass(frozen=True)
class DeformWitness:
    deleted1: frozenset
    deleted2: frozenset
    quotient1: EdgeTree
    quotient2: EdgeTree
    iso_pairs: tuple


def _path_variants(et: EdgeTree, variants):
    """The delta_P variants: descendant-closed delete sets (iterated
    leaf-edge deletions), in the order of `variants`."""
    return [
        item
        for item in variants
        if all(c in item[1] for v in item[1] for c in et.children[v])
    ]


def _subset_variants(et: EdgeTree):
    """(cost, delete set, quotient, quotient shape) for every delete set,
    sorted by cost, then by the sorted ids of the set."""
    edges = sorted((v for v in et.nodes() if et.parent[v] is not None), key=_id_key)
    order = [et.root]
    for v in order:
        order.extend(et.children[v])
    out = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            subset = frozenset(combo)
            cost = sum(et.length[v] for v in subset)
            q = _quotient(et, subset, order)
            out.append((cost, subset, q, q.shape()))
    out.sort(key=lambda item: (item[0], tuple(sorted(map(_id_key, item[1])))))
    return out


def _variants_of(t):
    """(edge tree, _subset_variants) of a merge tree or edge tree.

    Merge trees are immutable, so their list is enumerated once and kept on
    the tree: delta_E, delta_P and the witness search on the same tree
    objects share it. Two threads that miss the memo at once both enumerate
    the same list, and either one is kept. Edge trees are mutable and
    enumerate afresh."""
    if isinstance(t, EdgeTree):
        return t, _subset_variants(t)
    memo = getattr(t, "_deform_variants", None)
    if memo is None:
        et = edge_tree_of(t)
        memo = t._deform_variants = (et, _subset_variants(et))
    return memo


def _guarded_variants(t1, t2, edge_limit, what):
    m = max(t1.edge_count(), t2.edge_count())
    if m > edge_limit:
        raise SizeGuardError(what, m, edge_limit)
    return _variants_of(t1), _variants_of(t2)


def deform_brute_force(
    t1,
    t2,
    one_degree: bool = False,
    edge_limit: int = DEFORM_EDGE_LIMIT,
    want_witness: bool = False,
):
    """Exact deformation-based edit distance by enumerating delete sets.

    Minimizes len(D1) + len(D2) + optimal relabel cost over all pairs of
    contractible edge sets whose quotients are isomorphic rooted trees; with
    `one_degree`, delete sets must be closed under descendants (iterated
    leaf-edge deletions only).
    """
    (et1, variants1), (et2, variants2) = _guarded_variants(
        t1, t2, edge_limit, "deformation enumeration"
    )
    if one_degree:
        variants1, variants2 = _path_variants(et1, variants1), _path_variants(et2, variants2)
    buckets2 = {}
    for item in variants2:
        buckets2.setdefault(item[3], []).append(item)
    best = math.inf
    win = None
    for c1, d1, q1, s1 in variants1:
        if win is not None and c1 >= best - _EPS:
            break
        for c2, d2, q2, _ in buckets2.get(s1, ()):
            if win is not None and c1 + c2 >= best - _EPS:
                break
            iso = _iso_min_cost(q1, q2)
            if iso is None:
                continue
            total = c1 + c2 + iso[0]
            if total < best - _EPS:
                best = total
                win = (d1, d2)
    if not want_witness:
        return best
    # the witness lives on the operational quotients, whose node ids the
    # edit sequence reconstruction relies on
    d1, d2 = win
    q1, q2 = contract(et1, d1), contract(et2, d2)
    return best, DeformWitness(d1, d2, q1, q2, tuple(_iso_min_cost(q1, q2)[1]))


def deform_witness_search(
    t1,
    t2,
    max_ops: int,
    max_op_cost: float,
    one_degree: bool = False,
    edge_limit: int = DEFORM_EDGE_LIMIT,
    slack: float = TOLERANCE,
):
    """Search for a deformation witness whose normalized sequence has at
    most max_ops operations, each of cost at most max_op_cost.

    This verifies the existence clause of the stability theorems: the
    qualifying sequence need not be cost-optimal. Returns a DeformWitness
    or None when no enumerated plan qualifies.
    """
    (et1, variants1), (et2, variants2) = _guarded_variants(
        t1, t2, edge_limit, "deformation witness search"
    )
    if one_degree:
        variants1, variants2 = _path_variants(et1, variants1), _path_variants(et2, variants2)
    cap = max_op_cost + slack

    def usable(et, variants):
        return [
            item
            for item in variants
            if len(item[1]) <= max_ops
            and all(et.length[v] <= cap for v in item[1])
        ]

    buckets2 = {}
    for item in usable(et2, variants2):
        buckets2.setdefault(item[3], []).append(item)
    for _, d1, q1, s1 in usable(et1, variants1):
        for _, d2, q2, _ in buckets2.get(s1, ()):
            budget = max_ops - len(d1) - len(d2)
            if budget < 0 or _qualifying_iso(q1, q2, budget, cap) is None:
                continue
            # re-derive the isomorphism on the operational quotients, whose
            # node ids the edit sequence reconstruction relies on
            w1, w2 = contract(et1, d1), contract(et2, d2)
            iso = _qualifying_iso(w1, w2, budget, cap)
            if iso is not None:
                return DeformWitness(d1, d2, w1, w2, tuple(iso))
    return None


def _qualifying_iso(q1: EdgeTree, q2: EdgeTree, max_relabels: int, cap: float):
    """The _iso_for_witness pairs if they need at most max_relabels
    relabels, none costing more than cap; otherwise None."""
    iso = _iso_for_witness(q1, q2, cap)
    if iso is None:
        return None
    relabels = [
        d
        for d in (abs(q1.length[a] - q2.length[b]) for a, b in iso if q1.parent[a] is not None)
        if d > TOLERANCE
    ]
    if len(relabels) > max_relabels or any(d > cap for d in relabels):
        return None
    return iso


def _iso_for_witness(q1: EdgeTree, q2: EdgeTree, cap: float):
    """Root-preserving isomorphism preferring (1) no length difference above
    cap, (2) fewest differing edges, (3) smallest total difference."""
    memo1, memo2 = {}, {}

    def shape_of(et, v, memo):
        if v not in memo:
            memo[v] = tuple(sorted(shape_of(et, c, memo) for c in et.children[v]))
        return memo[v]

    if shape_of(q1, q1.root, memo1) != shape_of(q2, q2.root, memo2):
        return None
    w = q1.total_length() + q2.total_length() + 1.0
    k_count = 2.0 * w
    k_cap = 1e6 * (len(q1.parent) + len(q2.parent) + 2) * k_count

    def penalty(d):
        return d + (k_cap if d > cap else 0.0) + (k_count if d > TOLERANCE else 0.0)

    def go(v, u):
        cost = 0.0
        if q1.parent[v] is not None:
            cost = penalty(abs(q1.length[v] - q2.length[u]))
        pairs = [(v, u)]
        by_shape1 = {}
        for c in q1.children[v]:
            by_shape1.setdefault(shape_of(q1, c, memo1), []).append(c)
        by_shape2 = {}
        for c in q2.children[u]:
            by_shape2.setdefault(shape_of(q2, c, memo2), []).append(c)
        for s in sorted(by_shape1):
            group1, group2 = by_shape1[s], by_shape2[s]
            sub = [[go(a, b) for b in group2] for a in group1]
            if len(group1) == 1:
                c0, p0 = sub[0][0]
                cost += c0
                pairs.extend(p0)
                continue
            mat = np.array([[entry[0] for entry in row] for row in sub])
            rows, cols = linear_sum_assignment(mat)
            for r, c in zip(rows, cols):
                cost += sub[r][c][0]
                pairs.extend(sub[r][c][1])
        return cost, pairs

    return go(q1.root, q2.root)[1]


# ---------------------------------------------------------------------------
# Edit operations and sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EditOp:
    kind: str  # node_delete | node_insert | node_relabel | edge_delete | edge_insert | edge_relabel
    node: object
    cost: float
    label: object = None
    parent: object = None
    moved_children: tuple = ()
    split: tuple | None = None  # (existing child edge, new inner id, upper len, lower len)

    def to_dict(self):
        out = {"kind": self.kind, "node": self.node, "cost": self.cost}
        if self.label is not None and self.label is not BLANK:
            out["label"] = self.label
        if self.parent is not None:
            out["parent"] = self.parent
        if self.moved_children:
            out["moved_children"] = list(self.moved_children)
        if self.split is not None:
            out["split"] = list(self.split)
        return out


@dataclass(frozen=True)
class EditSequence:
    ops: tuple

    @property
    def total_cost(self) -> float:
        return sum(op.cost for op in self.ops)

    def __len__(self):
        return len(self.ops)

    def to_json(self):
        return [op.to_dict() for op in self.ops]


def check_sequence(tree, sequence: EditSequence):
    """Apply an edit sequence; raises InapplicableOperationError with the
    offending step index. Node ops act on LabeledTrees, edge ops on
    EdgeTrees (or merge trees, converted first)."""
    if isinstance(tree, AbstractMergeTree):
        current = edge_tree_of(tree)
    elif isinstance(tree, EdgeTree):
        current = tree.copy()
    else:
        current = _copy_labeled(tree)
    for i, op in enumerate(sequence.ops):
        try:
            if op.kind.startswith("edge_"):
                if not isinstance(current, EdgeTree):
                    raise ValueError("edge op on a node-labeled tree")
                _apply_edge_op(current, op)
            else:
                if not isinstance(current, LabeledTree):
                    raise ValueError("node op on an edge tree")
                current = _apply_node_op(current, op)
        except InapplicableOperationError:
            raise
        except (KeyError, ValueError) as exc:
            raise InapplicableOperationError(i, str(exc)) from exc
    return current


def _copy_labeled(lt: LabeledTree) -> LabeledTree:
    return LabeledTree(
        lt.scheme,
        lt.root,
        dict(lt.parent),
        dict(lt.labels),
        {v: tuple(c) for v, c in lt.children.items()},
        None if lt.groups is None else {v: tuple(map(tuple, g)) for v, g in lt.groups.items()},
    )


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
    ch = {u: [] for u in parent}
    for u, p in parent.items():
        if p is not None:
            ch[p].append(u)
    return LabeledTree(
        lt.scheme,
        lt.root,
        parent,
        labels,
        {u: tuple(sorted(c, key=_id_key)) for u, c in ch.items()},
    )


def _apply_edge_op(et: EdgeTree, op: EditOp) -> None:
    if op.kind == "edge_relabel":
        if op.node not in et.length:
            raise KeyError(f"no edge below {op.node!r}")
        et.length[op.node] = float(op.label)
    elif op.kind == "edge_delete":
        v = op.node
        if v not in et.length:
            raise KeyError(f"no edge below {v!r}")
        if abs(et.length[v] - op.cost) > TOLERANCE:
            raise ValueError(
                f"recorded cost {op.cost} does not match current length {et.length[v]}"
            )
        p = et.parent[v]
        for c in list(et.children[v]):
            et.parent[c] = p
        del et.parent[v], et.length[v]
        et._rebuild()
        _prune_regular(et)
    elif op.kind == "edge_insert":
        v = op.node
        if v in et.parent:
            raise ValueError(f"node {v!r} already present")
        attach = op.parent
        if op.split is not None:
            child_edge, inner, upper, lower = op.split
            if child_edge not in et.length:
                raise KeyError(f"no edge below {child_edge!r} to split")
            if inner in et.parent:
                raise ValueError(f"node {inner!r} already present")
            if abs(et.length[child_edge] - (upper + lower)) > TOLERANCE:
                raise ValueError("split lengths do not sum to the split edge")
            pp = et.parent[child_edge]
            et.parent[inner] = pp
            et.length[inner] = float(lower)
            et.parent[child_edge] = inner
            et.length[child_edge] = float(upper)
            attach = inner
            et._rebuild()
        if attach not in et.parent:
            raise KeyError(f"no attach node {attach!r}")
        for c in op.moved_children:
            if et.parent.get(c) != attach:
                raise ValueError(f"{c!r} is not a child of {attach!r}")
        et.parent[v] = attach
        et.length[v] = float(op.label)
        for c in op.moved_children:
            et.parent[c] = v
        et._rebuild()
    else:
        raise ValueError(f"unknown edge op {op.kind!r}")


def _prune_regular(et: EdgeTree) -> None:
    changed = True
    while changed:
        changed = False
        for v in list(et.parent):
            if et.parent[v] is None or len(et.children[v]) != 1:
                continue
            (c,) = et.children[v]
            et.length[c] += et.length[v]
            et.parent[c] = et.parent[v]
            del et.parent[v], et.length[v]
            et._rebuild()
            changed = True


# ---------------------------------------------------------------------------
# Mapping -> normalized sequence
# ---------------------------------------------------------------------------

def mapping_to_sequence(l1, l2, mapping, cost=None) -> EditSequence:
    """Normalized delete -> relabel -> insert sequence realizing a mapping.

    Accepts two LabeledTrees plus an EditMapping (classic node operations)
    or two merge trees plus a DeformWitness (deformation edge operations).
    The total cost equals the mapping cost; check_sequence reproduces l2 up
    to isomorphism.
    """
    if isinstance(mapping, DeformWitness):
        return _deform_sequence(l1, l2, mapping)
    if cost is None:
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
    sim = _copy_labeled(l1)
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
            cost.insert(l2.labels[w]),
            label=l2.labels[w],
            parent=attach,
            moved_children=moved,
        )
        sim = _apply_node_op(sim, op)
        counterpart[wid] = w
        insert_ops.append(op)
    return EditSequence(tuple(ops) + tuple(insert_ops))


def _depths(lt) -> dict:
    depth = {lt.root: 0}
    stack = [lt.root]
    while stack:
        v = stack.pop()
        for c in lt.children[v]:
            depth[c] = depth[v] + 1
            stack.append(c)
    return depth


def _deform_sequence(t1, t2, witness: DeformWitness) -> EditSequence:
    et1 = edge_tree_of(t1) if isinstance(t1, AbstractMergeTree) else t1.copy()
    et2 = edge_tree_of(t2) if isinstance(t2, AbstractMergeTree) else t2.copy()
    ops = list(_delete_phase_ops(et1, witness.deleted1)[0])
    q1, q2 = witness.quotient1, witness.quotient2
    to_current = {b: a for a, b in witness.iso_pairs}
    for a, b in sorted(witness.iso_pairs, key=lambda p: (_id_key(p[0]), _id_key(p[1]))):
        if q1.parent[a] is None:
            continue
        if abs(q1.length[a] - q2.length[b]) > TOLERANCE:
            ops.append(
                EditOp(
                    "edge_relabel",
                    a,
                    abs(q1.length[a] - q2.length[b]),
                    label=q2.length[b],
                )
            )
    # insert phase: invert the deletion ops that carve q2 out of et2
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

    sim = et2.copy()
    records = []
    for v in sorted(witness.deleted2, key=lambda u: (et2.depth(u), _id_key(u))):
        planned = et2.length[v]
        cur = sim.length[v]
        if abs(cur - planned) > TOLERANCE:
            records.append(("relabel", v, planned, cur))
            _apply_edge_op(sim, EditOp("edge_relabel", v, planned, label=cur - planned))
            continue
        parent_b = sim.parent[v]
        children_b = tuple(sim.children[v])
        prune_info = None
        if sim.parent.get(parent_b) is not None:
            after = [c for c in sim.children[parent_b] if c != v] + list(children_b)
            if len(after) == 1:
                (merged,) = after
                prune_info = (merged, sim.length[merged], sim.length[parent_b])
        _apply_edge_op(sim, EditOp("edge_delete", v, cur))
        records.append(("delete", v, planned, parent_b, children_b, prune_info))
    for record in reversed(records):
        if record[0] == "relabel":
            _, v, planned, oldlen = record
            ops.append(EditOp("edge_relabel", name_of(v), planned, label=oldlen))
            continue
        _, v, planned, parent_b, children_b, prune_info = record
        if prune_info is None:
            ops.append(
                EditOp(
                    "edge_insert",
                    name_of(v),
                    planned,
                    label=planned,
                    parent=name_of(parent_b),
                    moved_children=tuple(name_of(c) for c in children_b),
                )
            )
        else:
            merged, upper, lower = prune_info
            ops.append(
                EditOp(
                    "edge_insert",
                    name_of(v),
                    planned,
                    label=planned,
                    parent=name_of(parent_b),
                    moved_children=tuple(name_of(c) for c in children_b),
                    split=(name_of(merged), name_of(parent_b), upper, lower),
                )
            )
    return EditSequence(tuple(ops))
