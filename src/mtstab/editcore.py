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

import math
from dataclasses import dataclass
from enum import Enum

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
    _memoized,
)

SQRT2 = math.sqrt(2.0)
#: Tie-break slack of the optimizers: costs within _EPS count as equal. Far
#: below field.TOLERANCE, the one tolerance for comparing lengths and costs.
_EPS = 1e-12


_solve = None


def linear_sum_assignment(cost_matrix):
    """scipy.optimize.linear_sum_assignment, imported and bound when first
    called: scipy and numpy would otherwise take most of the time of
    `import mtstab.cli`."""
    global _solve
    if _solve is None:
        from scipy.optimize import linear_sum_assignment as _solve
    return _solve(cost_matrix)


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
        floats; rows without a blank label skip the method call per cell."""
        if self.kind == "scalar":
            if BLANK in labels_a or BLANK in labels_b:
                return [[self.relabel(a, b) for b in labels_b] for a in labels_a]
            return [[abs(a - b) for b in labels_b] for a in labels_a]
        hypot = math.hypot
        return [[hypot(a0 - b0, a1 - b1) for b0, b1 in labels_b] for a0, a1 in labels_a]

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
    from . import mergetree as mt

    if labeled.scheme == mt.NODE_DIST_TO_PARENT:
        return ABS_DIFF
    return WASSERSTEIN_POINT


class MappingConstraint(Enum):
    TAI = "tai"
    ZHANG_CONSTRAINED = "zhang_constrained"


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
    node_limit: int = BRUTE_FORCE_NODE_LIMIT,
):
    """Exact minimum over all mappings satisfying the constraint, with the
    cost model of l1's label scheme.

    Returns (cost, EditMapping); ties resolved toward the lexicographically
    smallest mapping. Deformation constraints live in deform_brute_force.
    """
    cost = cost_model_for(l1)
    n1, n2 = l1.node_count(), l2.node_count()
    if max(n1, n2) > node_limit:
        raise SizeGuardError("brute-force mapping search", max(n1, n2), node_limit)
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


@_memoized
def _collapse_costs(lt: LabeledTree, cost: CostModel):
    """Cost of deleting, or inserting, each node's whole subtree. Kept on
    the labeled tree per cost model, so a tree that meets many partners, as
    each decomposition does in delta_b, or meets itself, is summed once;
    callers only read the dict. Pass the arguments positionally: the memo
    keys on them."""
    out = {}
    for v in _postorder(lt):
        out[v] = cost.delete(lt.labels[v]) + sum(out[c] for c in lt.children[v])
    return out


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
    search = (l1, anc1, nodes1, l2, anc2, nodes2, gains, base, suffix, zhang, best)
    _tai_dfs(search, 0, list(forced), set(), 0.0)
    return best[0], best[1]


def _tai_dfs(search, i, pairs, used, gain_acc):
    """_tai_search from the i-th node of the first tree on: each free
    compatible partner in turn, then no partner. A module-level recursion,
    so a call leaves no reference cycle behind (a self-recursive closure
    would)."""
    l1, anc1, nodes1, l2, anc2, nodes2, gains, base, suffix, zhang, best = search
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
        if zhang and not _zhang_ok(l1, anc1, l2, anc2, pairs, v, w):
            continue
        pairs.append((v, w))
        used.add(w)
        _tai_dfs(search, i + 1, pairs, used, gain_acc + gains[v][w])
        used.discard(w)
        pairs.pop()
    _tai_dfs(search, i + 1, pairs, used, gain_acc)


def _related(anc, a, b):
    return a == b or a in anc[b] or b in anc[a]


def _zhang_ok(l1, anc1, l2, anc2, pairs, v3, w3):
    """Whether adding (v3, w3) to `pairs` keeps every lowest-common-ancestor
    triple condition of the constrained edit distance."""
    for i in range(len(pairs)):
        v1, w1 = pairs[i]
        for j in range(len(pairs)):
            if i == j:
                continue
            v2, w2 = pairs[j]
            if _related(anc1, _lca(l1, anc1, v1, v2), v3) != _related(
                anc2, _lca(l2, anc2, w1, w2), w3
            ):
                return False
            if _related(anc1, _lca(l1, anc1, v1, v3), v2) != _related(
                anc2, _lca(l2, anc2, w1, w3), w2
            ):
                return False
    return True


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

    def shapes(self):
        """Every node's shape, the sorted tuple of its children's shapes,
        filled children first with no recursion."""
        order = [self.root]
        for v in order:
            order.extend(self.children[v])
        out = {}
        for v in reversed(order):
            out[v] = tuple(sorted(out[c] for c in self.children[v]))
        return out


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
    The distance searches use _quotient; this replay names the nodes of
    witnesses, builds their sequences and serves as its test oracle.
    """
    return _delete_phase_ops(et, deleted)[1]


def _delete_phase_ops(et: EdgeTree, deleted):
    """(steps, resulting tree) of the top-down deletion of `deleted`, the
    one replay of a delete phase. A step is (op, the edge's length before
    op, parent, children, split). For an edge_delete, parent and children
    are the edge's before op, and split is what inserting the edge back
    needs when an automatic prune followed the delete, in EditOp.split's
    layout: (the merged edge, the pruned parent, upper, lower length).
    """
    deleted = set(deleted)
    if et.root in deleted:
        raise ValidationError("the root has no parent edge to delete")
    sim = et.copy()
    steps = []
    for v in sorted(deleted, key=lambda u: (et.depth(u), _id_key(u))):
        planned = et.length[v]
        cur = sim.length[v]
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
                    split = (merged, parent, sim.length[merged], sim.length[parent])
            op = EditOp("edge_delete", v, cur)
            steps.append((op, cur, parent, children, split))
        _apply_edge_op(sim, op)
    return steps, sim


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


def _iso(q1: EdgeTree, shapes1, q2: EdgeTree, shapes2, edge_cost):
    """Root-preserving isomorphism of two same-shape edge trees (`shapes1`
    and `shapes2` their shapes() maps) with the least total
    edge_cost(length in q1, length in q2); returns (cost, node pairs)."""
    return _iso_below(q1, shapes1, q2, shapes2, edge_cost, q1.root, q2.root)


def _iso_below(q1, shapes1, q2, shapes2, edge_cost, v, w):
    """_iso on the subtrees of v and w. A module-level recursion, so a call
    leaves no reference cycle behind (a self-recursive closure would)."""
    cost = 0.0
    if q1.parent[v] is not None:
        cost = edge_cost(q1.length[v], q2.length[w])
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


DEFORM_EDGE_LIMIT = 10


@dataclass(frozen=True)
class DeformWitness:
    """A deformation plan: the two delete sets and the isomorphism of their
    quotients. iso_pairs name the nodes of contract(et1, deleted1) and
    contract(et2, deleted2), the trees the deletion replay builds, so
    mapping_to_sequence rebuilds both quotients from the delete sets."""

    deleted1: frozenset
    deleted2: frozenset
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
    """[cost, delete set, None] for every delete set, sorted by cost, then by
    the sorted ids of the set. _shaped fills the third slot with the
    quotient and its shapes() map when a search first reaches the entry.
    Built by doubling over the edges in id order, so a set's cost is its
    lengths summed in id order from int 0, as sum gives, whatever the set's
    hash order, and one sort on (cost, edge indices) is the order above
    (docs/decisions.md section 9)."""
    edges = sorted((v for v in et.nodes() if et.parent[v] is not None), key=_id_key)
    grown = [(0, (), frozenset())]
    for j, v in enumerate(edges):
        length, one = et.length[v], frozenset((v,))
        grown += [(c + length, idx + (j,), d | one) for c, idx, d in grown]
    grown.sort()
    return [[c, d, None] for c, _, d in grown]


def _shaped(et: EdgeTree, order, item):
    """(quotient, its shapes() map) of a _subset_variants entry, built on the
    first call and kept in the entry for every later search."""
    built = item[2]
    if built is None:
        q = _quotient(et, item[1], order)
        built = item[2] = (q, q.shapes())
    return built


@_memoized
def _variants_of(t: AbstractMergeTree):
    """(edge tree, its nodes parents first, _subset_variants) of a merge
    tree, enumerated once and kept on the tree: delta_E, delta_P and the
    witness search share it, and with it every quotient one of them built."""
    et = edge_tree_of(t)
    order = [et.root]
    for v in order:
        order.extend(et.children[v])
    return et, order, _subset_variants(et)


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

    Both lists are walked in cost order and a quotient is built only when
    the walk reaches its entry. The inner walk skips quotients of another
    root shape instead of bucketing them, and stops where the bucket walk
    would: costs do not decrease and `best` only moves on a matching entry
    (docs/decisions.md section 9).

    Once a witness is found, the inner walk also skips, before building the
    quotient, every pair whose lower bound c1 + c2 + |(L1 - c1) - (L2 - c2)|
    reaches `best`, L being a tree's total edge length. A quotient keeps
    every surviving length, so its total is L - c, and an isomorphism costs
    at least the difference of the totals; the margin covers the rounding
    of these sums. A skip rests on its own pair's bound alone, so it is a
    `continue`, not a stop (docs/decisions.md section 11).
    """
    (et1, order1, variants1), (et2, order2, variants2) = _guarded_variants(
        t1, t2, edge_limit, "deformation enumeration"
    )
    if one_degree:
        variants1, variants2 = _path_variants(et1, variants1), _path_variants(et2, variants2)
    len1, len2 = et1.total_length(), et2.total_length()
    margin = TOLERANCE * (1.0 + len1 + len2)
    best = math.inf
    win = None
    for item1 in variants1:
        c1 = item1[0]
        if win is not None and c1 >= best - _EPS:
            break
        q1, s1 = _shaped(et1, order1, item1)
        shape = s1[q1.root]
        rest1 = len1 - c1
        for item2 in variants2:
            c2 = item2[0]
            if win is not None:
                if c1 + c2 >= best - _EPS:
                    break
                if c1 + c2 + abs(rest1 - (len2 - c2)) - margin >= best - _EPS:
                    continue
            q2, s2 = _shaped(et2, order2, item2)
            if s2[q2.root] != shape:
                continue
            total = c1 + c2 + _iso(q1, s1, q2, s2, _length_diff)[0]
            if total < best - _EPS:
                best = total
                win = (item1[1], item2[1])
    if not want_witness:
        return best
    # the witness lives on the operational quotients, whose node ids the
    # edit sequence reconstruction relies on
    d1, d2 = win
    q1, q2 = contract(et1, d1), contract(et2, d2)
    pairs = _iso(q1, q1.shapes(), q2, q2.shapes(), _length_diff)[1]
    return best, DeformWitness(d1, d2, tuple(pairs))


def deform_witness_search(
    t1,
    t2,
    max_ops: int,
    max_op_cost: float,
    edge_limit: int = DEFORM_EDGE_LIMIT,
):
    """Search for a deformation witness whose normalized sequence has at
    most max_ops operations, each of cost at most max_op_cost.

    This verifies the existence clause of the stability theorems: the
    qualifying sequence need not be cost-optimal. Returns a DeformWitness
    or None when no enumerated plan qualifies. Only the quotients of usable
    delete sets are built.
    """
    (et1, order1, variants1), (et2, order2, variants2) = _guarded_variants(
        t1, t2, edge_limit, "deformation witness search"
    )
    cap = max_op_cost + TOLERANCE

    def usable(et, variants):
        return [
            item
            for item in variants
            if len(item[1]) <= max_ops
            and all(et.length[v] <= cap for v in item[1])
        ]

    buckets2 = {}
    for item in usable(et2, variants2):
        q2, s2 = _shaped(et2, order2, item)
        buckets2.setdefault(s2[q2.root], []).append((item[1], q2, s2))
    for item in usable(et1, variants1):
        d1 = item[1]
        q1, s1 = _shaped(et1, order1, item)
        for d2, q2, s2 in buckets2.get(s1[q1.root], ()):
            budget = max_ops - len(d1) - len(d2)
            if budget < 0 or _qualifying_iso(q1, s1, q2, s2, budget, cap) is None:
                continue
            # re-derive the isomorphism on the operational quotients, whose
            # node ids the edit sequence reconstruction relies on
            w1, w2 = contract(et1, d1), contract(et2, d2)
            iso = _qualifying_iso(w1, w1.shapes(), w2, w2.shapes(), budget, cap)
            if iso is not None:
                return DeformWitness(d1, d2, tuple(iso))
    return None


def _qualifying_iso(q1: EdgeTree, shapes1, q2: EdgeTree, shapes2, max_relabels: int, cap: float):
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
    """One edit operation; an edit sequence is a tuple of them."""

    kind: str  # node_delete | node_insert | node_relabel | edge_delete | edge_insert | edge_relabel
    node: object
    cost: float
    label: object = None
    parent: object = None
    moved_children: tuple = ()
    split: tuple | None = None  # (existing child edge, new inner id, upper len, lower len)


def check_sequence(tree, sequence):
    """Apply an edit sequence, a tuple of EditOp; raises
    InapplicableOperationError with the offending step index. Node ops act
    on LabeledTrees, edge ops on EdgeTrees (or merge trees, converted
    first)."""
    if isinstance(tree, AbstractMergeTree):
        current = edge_tree_of(tree)
    elif isinstance(tree, EdgeTree):
        current = tree.copy()
    else:
        current = _copy_labeled(tree)
    for i, op in enumerate(sequence):
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

def mapping_to_sequence(l1, l2, mapping) -> tuple:
    """Normalized delete -> relabel -> insert sequence realizing a mapping,
    a tuple of EditOp.

    Accepts two LabeledTrees plus an EditMapping (classic node operations)
    or two merge trees plus a DeformWitness (deformation edge operations).
    The total cost equals the mapping cost; check_sequence reproduces l2 up
    to isomorphism.
    """
    if isinstance(mapping, DeformWitness):
        return _deform_sequence(l1, l2, mapping)
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
    depth = {lt.root: 0}
    stack = [lt.root]
    while stack:
        v = stack.pop()
        for c in lt.children[v]:
            depth[c] = depth[v] + 1
            stack.append(c)
    return depth


def _deform_sequence(t1, t2, witness: DeformWitness) -> tuple:
    """T1's delete phase, the relabels of the isomorphism, then T2's delete
    phase run backwards, each step inverted into an insert or relabel."""
    steps1, q1 = _delete_phase_ops(edge_tree_of(t1), witness.deleted1)
    steps2, q2 = _delete_phase_ops(edge_tree_of(t2), witness.deleted2)
    ops = [step[0] for step in steps1]
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
