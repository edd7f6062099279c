"""Shared test utilities: random generators, canonical tree comparison, a
superlevel-set oracle and the two-pass augmented-tree builder for merge tree
construction, an independent sequence-search oracle for the deformation
distances, a backtracking oracle for subtree inclusion, the enumerative
Selkow search and all-pairs oracles for the one-degree DPs, which solve
their child blocks on the in-place assignment matrix, and eager oracles for
the deformation searches."""

from __future__ import annotations

import heapq
import itertools
import math
import random

import numpy as np
from scipy.optimize import linear_sum_assignment

from mtstab.editcore import (
    _EPS,
    BRUTE_FORCE_NODE_LIMIT,
    DeformWitness,
    EdgeTree,
    EditMapping,
    _better,
    _collapse_costs,
    _iso,
    _length_diff,
    _pairs_key,
    _path_variants,
    _qualifying_iso,
    _quotient,
    contract,
    cost_model_for,
    edge_tree_of,
)
from mtstab.errors import SizeGuardError
from mtstab.field import TOLERANCE, ScalarField, build_domain, build_grid_domain, validate_field
from mtstab.mergetree import (
    BLANK,
    AbstractMergeTree,
    _check_abstract_invariants,
    _id_key,
    abstract_merge_tree,
    merge_tree_of,
)


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


def random_tiny_tree(rng: random.Random, max_edges=3):
    from mtstab.errors import AbstractInvariantError

    while True:
        try:
            t = merge_tree_of(random_path_field(rng, rng.randint(3, 6)))
        except AbstractInvariantError:
            continue  # interior global minimum disconnects a path's superlevel set
        if t.edge_count() <= max_edges:
            return t


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


def edge_canonical(et: EdgeTree):
    def key(v):
        own = round(et.length[v], 9) if et.parent[v] is not None else None
        return (own, tuple(sorted(key(c) for c in et.children[v])))

    return key(et.root)


# ---------------------------------------------------------------------------
# Independent oracle: Dijkstra over canonicalized edge trees
# ---------------------------------------------------------------------------

def _frontier_moves(et: EdgeTree, labels, one_degree, counter):
    """All applicable single operations with their costs and results."""
    from mtstab.editcore import EditOp, _apply_edge_op

    moves = []

    def emit(op, cost):
        nxt = et.copy()
        _apply_edge_op(nxt, op)
        moves.append((cost, nxt))
    for v in list(et.length):
        if one_degree and et.children[v]:
            continue
        emit(EditOp("edge_delete", v, et.length[v]), et.length[v])
    for v in list(et.length):
        for t in labels:
            if abs(t - et.length[v]) > 1e-9:
                emit(EditOp("edge_relabel", v, abs(t - et.length[v]), label=t), abs(t - et.length[v]))
    for ell in labels:
        for p in list(et.parent):
            kids = et.children[p]
            subsets = [()] if one_degree else [
                tuple(s) for r in range(len(kids) + 1) for s in itertools.combinations(kids, r)
            ]
            for moved in subsets:
                name = f"n{next(counter)}"
                emit(
                    EditOp("edge_insert", name, ell, label=ell, parent=p, moved_children=moved),
                    ell,
                )
        for e in list(et.length):  # split inserts
            total = et.length[e]
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


def _candidate_labels(et1: EdgeTree, et2: EdgeTree):
    """All downward path sums of both trees (achievable merged lengths)."""
    out = set()
    for et in (et1, et2):
        for v in et.length:
            total = 0.0
            cur = v
            while et.parent[cur] is not None:
                total += et.length[cur]
                out.add(round(total, 9))
                cur = et.parent[cur]
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
    et1 = edge_tree_of(t1) if not isinstance(t1, EdgeTree) else t1
    et2 = edge_tree_of(t2) if not isinstance(t2, EdgeTree) else t2
    labels = _candidate_labels(et1, et2)
    goal = edge_canonical(et2)
    max_nodes = max(len(et1.parent), len(et2.parent)) + max_extra_nodes
    start = et1.copy()
    dist = {edge_canonical(start): 0.0}
    heap = [(0.0, 0, start)]
    counter = itertools.count(1)
    names = itertools.count()
    while heap:
        d, _, et = heapq.heappop(heap)
        key = edge_canonical(et)
        if key == goal:
            return d
        if d > dist.get(key, float("inf")) + 1e-12:
            continue
        for cost, nxt in _frontier_moves(et, labels, one_degree, names):
            nd = d + cost
            if nd > cost_cap + 1e-9:
                continue
            if len(nxt.parent) > max_nodes:
                continue
            k = edge_canonical(nxt)
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

def eager_subset_variants(et: EdgeTree):
    """(cost, delete set, quotient, quotient's shapes() map) for every delete
    set, sorted by cost, then by the sorted ids of the set; each cost summed
    in id order and each quotient built before any search starts."""
    edges = sorted((v for v in et.nodes() if et.parent[v] is not None), key=_id_key)
    order = [et.root]
    for v in order:
        order.extend(et.children[v])
    out = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            subset = frozenset(combo)
            cost = sum(et.length[v] for v in combo)
            q = _quotient(et, subset, order)
            out.append((cost, subset, q, q.shapes()))
    out.sort(key=lambda item: (item[0], tuple(sorted(map(_id_key, item[1])))))
    return out


def _by_root_shape(variants):
    buckets = {}
    for item in variants:
        buckets.setdefault(item[3][item[2].root], []).append(item)
    return buckets


def eager_deform_brute_force(et1, variants1, et2, variants2, one_degree=False, want_witness=False):
    """Oracle of editcore.deform_brute_force on two edge trees and their
    eager_subset_variants: the second tree's variants bucketed by root
    shape, each bucket walked in cost order."""
    if one_degree:
        variants1, variants2 = _path_variants(et1, variants1), _path_variants(et2, variants2)
    buckets2 = _by_root_shape(variants2)
    best = math.inf
    win = None
    for c1, d1, q1, s1 in variants1:
        if win is not None and c1 >= best - _EPS:
            break
        for c2, d2, q2, s2 in buckets2.get(s1[q1.root], ()):
            if win is not None and c1 + c2 >= best - _EPS:
                break
            total = c1 + c2 + _iso(q1, s1, q2, s2, _length_diff)[0]
            if total < best - _EPS:
                best = total
                win = (d1, d2)
    if not want_witness:
        return best
    d1, d2 = win
    q1, q2 = contract(et1, d1), contract(et2, d2)
    pairs = _iso(q1, q1.shapes(), q2, q2.shapes(), _length_diff)[1]
    return best, DeformWitness(d1, d2, tuple(pairs))


def eager_deform_witness_search(et1, variants1, et2, variants2, max_ops, max_op_cost):
    """Oracle of editcore.deform_witness_search on two edge trees and their
    eager_subset_variants."""
    cap = max_op_cost + TOLERANCE

    def usable(et, variants):
        return [
            item
            for item in variants
            if len(item[1]) <= max_ops
            and all(et.length[v] <= cap for v in item[1])
        ]

    buckets2 = _by_root_shape(usable(et2, variants2))
    for _, d1, q1, s1 in usable(et1, variants1):
        for _, d2, q2, s2 in buckets2.get(s1[q1.root], ()):
            budget = max_ops - len(d1) - len(d2)
            if budget < 0 or _qualifying_iso(q1, s1, q2, s2, budget, cap) is None:
                continue
            w1, w2 = contract(et1, d1), contract(et2, d2)
            iso = _qualifying_iso(w1, w1.shapes(), w2, w2.shapes(), budget, cap)
            if iso is not None:
                return DeformWitness(d1, d2, tuple(iso))
    return None
