"""Merge (split) trees, branch decompositions, BDTs and label schemes.

Trees are stored as parent maps over hashable node ids (field vertices are
ints; hand-built counterexample trees use letters). Parents always have
strictly smaller scalar value than their children, so the root is the global
minimum and leaves are maxima.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import AbstractInvariantError, SchemeMismatchError, ValidationError
from .field import TOLERANCE, ScalarField


def _memoized(build):
    """Keep build(obj, *args) on the immutable obj, once per args: a derived
    structure is built once and lives exactly as long as obj. What build
    returns must not refer back to obj, or obj would sit on a reference
    cycle and wait for the cycle collector (docs/decisions.md section 6)."""

    @functools.wraps(build)
    def memoized(obj, *args):
        memo = vars(obj).setdefault("_memo", {})
        key = (build, *args)
        if key not in memo:
            memo[key] = build(obj, *args)
        return memo[key]

    return memoized


class AbstractMergeTree:
    """Merge tree with regular vertices pruned: root (degree 1), saddles,
    maxima. Immutable by convention."""

    def __init__(self, parent: dict, value: dict, root):
        if root not in value or parent.get(root) is not None:
            raise ValidationError("root must be a node without parent")
        if set(parent) != set(value):
            raise ValidationError("parent and value maps disagree on node set")
        self.parent = dict(parent)
        self.value = {v: float(x) for v, x in value.items()}
        self.root = root
        ch = {v: [] for v in value}
        for v, p in parent.items():
            if p is None:
                continue
            if p not in value:
                raise ValidationError(f"unknown parent {p!r} of node {v!r}")
            if not self.value[p] < self.value[v]:
                raise ValidationError(
                    f"parent {p!r} ({self.value[p]}) not below child {v!r} ({self.value[v]})"
                )
            ch[p].append(v)
        self._children = {
            v: tuple(sorted(c, key=lambda u: (self.value[u], str(u)))) for v, c in ch.items()
        }
        # reachability doubles as acyclicity check
        seen = set()
        stack = [root]
        while stack:
            v = stack.pop()
            seen.add(v)
            stack.extend(self._children[v])
        if len(seen) != len(value):
            raise ValidationError("tree is not connected to the root")

    def nodes(self):
        return self.value.keys()

    def children(self, v):
        return self._children[v]

    def child_count(self, v) -> int:
        return len(self._children[v])

    def leaves(self):
        return [v for v in self.sorted_nodes() if not self._children[v]]

    def sorted_nodes(self):
        return sorted(self.value, key=lambda v: (self.value[v], str(v)))

    def node_count(self) -> int:
        return len(self.value)

    def edge_count(self) -> int:
        return len(self.value) - 1


def _build_merge_tree(field: ScalarField) -> AbstractMergeTree:
    """Descending sweep with union-find over superlevel components (Carr,
    Snoeyink & Axen 2003) that emits only the root, saddles and maxima.

    A vertex whose higher neighbours lie in exactly one component, other
    than the global minimum, is regular: it joins that component. Any other
    vertex is a node: it becomes the parent of the lowest node of each
    component it merges, and the lowest node of their union
    (docs/decisions.md section 12). A component's union-find root is its
    lowest node. Nodes are listed in sweep order.
    """
    values = field.values
    order = sorted(range(field.vertex_count), key=lambda v: -values[v])
    uf_parent = list(range(field.vertex_count))

    def find(v):
        r = v
        while uf_parent[r] != r:
            r = uf_parent[r]
        while uf_parent[v] != r:
            uf_parent[v], v = r, uf_parent[v]
        return r

    root = order[-1]
    parent = {}
    for v in order:
        x = values[v]
        comps = {find(u) for u in field.domain.adjacency[v] if values[u] > x}
        if len(comps) == 1 and v != root:
            uf_parent[v] = comps.pop()
            continue
        parent[v] = None
        for r in comps:
            parent[r] = uf_parent[r] = v
    tree = AbstractMergeTree(parent, {v: values[v] for v in parent}, root)
    _check_abstract_invariants(tree)
    return tree


def _check_abstract_invariants(tree: AbstractMergeTree) -> None:
    if tree.child_count(tree.root) != 1:
        raise _root_error(tree.child_count(tree.root))
    for v in tree.nodes():
        if v != tree.root and tree.child_count(v) == 1:
            raise AbstractInvariantError(f"regular node {v!r} left in abstract tree")


def _root_error(children: int) -> AbstractInvariantError:
    return AbstractInvariantError(
        f"root has {children} children, expected 1 "
        "(domain superlevel sets disconnect at the global minimum)"
    )


def check_merge_tree_root(field: ScalarField) -> None:
    """Raise the AbstractInvariantError that merge_tree_of(field) raises at
    its root, without building the tree. The root is the global minimum m
    and every other vertex lies above it, so the root's children are the
    components of the domain without m; no other node of a field's tree
    can break an invariant (docs/decisions.md section 21)."""
    adjacency = field.domain.adjacency
    m = min(range(field.vertex_count), key=field.values.__getitem__)
    # flags in a list: a set of more than a few ints has its table allocated
    # outside Python's small-object allocator, and allocating one per check
    # raised the suites' peak RSS (docs/decisions.md section 21)
    seen = [False] * field.vertex_count
    seen[m] = True
    children = 0
    for s in adjacency[m]:
        if seen[s]:
            continue
        children += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    if children != 1:
        raise _root_error(children)


def abstract_merge_tree(parent: dict, value: dict, root=None) -> AbstractMergeTree:
    """Build an abstract merge tree directly (used for figure counterexamples)."""
    if root is None:
        roots = [v for v, p in parent.items() if p is None]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, got {roots}")
        root = roots[0]
    tree = AbstractMergeTree(parent, value, root)
    _check_abstract_invariants(tree)
    return tree


@_memoized
def merge_tree_of(field: ScalarField) -> AbstractMergeTree:
    return _build_merge_tree(field)


# ---------------------------------------------------------------------------
# Branch decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Branch:
    """Monotone path from its lowest node (start) to a leaf maximum.

    Compares and hashes by identity: a branch belongs to one decomposition,
    and BDT maps and DP memos key on it (docs/decisions.md section 10)."""

    nodes: tuple
    birth: float  # value at the leaf
    death: float  # value at the start

    @property
    def start(self):
        return self.nodes[0]

    @property
    def leaf(self):
        return self.nodes[-1]

    @property
    def name(self) -> str:
        return f"{self.leaf}-{self.start}"

    @property
    def persistence(self) -> float:
        return self.birth - self.death


@dataclass(frozen=True)
class BranchDecomposition:
    branches: tuple[Branch, ...]
    main: Branch
    containing: dict  # node -> Branch with node = b_i, i > 1 (root -> main)


def decomposition_from_choice(tree: AbstractMergeTree, choice: dict) -> BranchDecomposition:
    """Branch decomposition induced by one continuation child per internal
    node, in the branch order that BDTs read (docs/decisions.md section 10)."""
    branches = []
    containing = {}
    main = None
    for leaf in tree.leaves():
        path = [leaf]
        cur = leaf
        while tree.parent[cur] is not None and choice[tree.parent[cur]] == cur:
            cur = tree.parent[cur]
            path.append(cur)
        if tree.parent[cur] is not None:
            path.append(tree.parent[cur])
        nodes = tuple(reversed(path))
        b = Branch(nodes, birth=tree.value[leaf], death=tree.value[nodes[0]])
        branches.append(b)
        for v in nodes[1:]:
            containing[v] = b
        if nodes[0] == tree.root:
            main = b
    if main is None:
        raise ValidationError("decomposition has no branch containing the root")
    containing[tree.root] = main
    branches.sort(key=_branch_order)
    return BranchDecomposition(tuple(branches), main, containing)


def _branch_order(b: Branch):
    return (b.death, b.birth, str(b.leaf))


def persistence_choice(tree: AbstractMergeTree) -> dict:
    """Elder rule: at every inner node continue toward the highest maximum.

    Exact ties cannot occur for injective fields; the tie-break (leaf with
    the smaller id) keeps hand-built trees with repeated values reproducible.
    """
    best_leaf = {}
    choice = {}
    for v in sorted(tree.nodes(), key=lambda u: (-tree.value[u], str(u))):
        kids = tree.children(v)
        if not kids:
            best_leaf[v] = v
            continue
        best = min(kids, key=lambda c: (-tree.value[best_leaf[c]], _id_key(best_leaf[c])))
        choice[v] = best
        best_leaf[v] = best_leaf[best]
    return choice


def _id_key(node):
    # "lower id wins" tie-break, safe for mixed int/str ids
    return (0, node, "") if isinstance(node, int) else (1, 0, str(node))


@_memoized
def persistence_branch_decomposition(tree: AbstractMergeTree) -> BranchDecomposition:
    return decomposition_from_choice(tree, persistence_choice(tree))


# ---------------------------------------------------------------------------
# Labeled trees: BDTs and the label schemes of the merge trees
# ---------------------------------------------------------------------------

class _Blank:
    """Label of a merge tree root: forces the two roots onto each other."""

    def __repr__(self):
        return "BLANK"


BLANK = _Blank()

NODE_DIST_TO_PARENT = "node_dist_to_parent"
BDT_BIRTH_DEATH = "bdt_birth_death"
OBDT_BIRTH_DEATH = "obdt_birth_death"
BRANCH_LABEL_ON_NODES = "branch_label_on_nodes"


@dataclass(frozen=True)
class LabeledTree:
    scheme: str
    root: object
    parent: dict
    labels: dict
    children: dict
    groups: dict | None = None  # ordered child groups; None = unordered

    def nodes(self):
        return self.parent.keys()

    def node_count(self):
        return len(self.parent)


@_memoized
def build_bdt(bd: BranchDecomposition) -> LabeledTree:
    """Branch decomposition tree: a labeled tree over the branches of bd,
    each labeled by its (birth, death) pair; parenthood is nesting. Nodes
    and each child list keep bd's branch order (docs/decisions.md section 10)."""
    parent = {}
    children = {b: [] for b in bd.branches}
    for b in bd.branches:
        p = None if b is bd.main else bd.containing[b.start]
        parent[b] = p
        if p is not None:
            children[p].append(b)
    labels = {b: (b.birth, b.death) for b in bd.branches}
    ordered = {b: tuple(c) for b, c in children.items()}
    return LabeledTree(BDT_BIRTH_DEATH, bd.main, parent, labels, ordered)


@_memoized
def build_obdt(bd: BranchDecomposition) -> LabeledTree:
    """The BDT of bd plus, per branch, child groups ordered by attachment
    along the branch: the runs of children attached at one saddle, which
    share a group and stay incomparable (docs/decisions.md section 10).
    Shares the BDT's maps."""
    bdt = build_bdt(bd)
    groups = {
        b: tuple(tuple(run) for _, run in itertools.groupby(cs, key=lambda c: c.start))
        for b, cs in bdt.children.items()
    }
    return LabeledTree(OBDT_BIRTH_DEATH, bdt.root, bdt.parent, bdt.labels, bdt.children, groups)


@_memoized
def label_for_scheme(obj, scheme: str) -> LabeledTree:
    """Labeled merge tree for one of the per-distance schemes of the
    label-function catalogue; see the distances module for which distance
    uses which. BDTs come labeled from build_bdt and build_obdt. Shares the
    merge tree's parent and children maps, which nothing mutates
    (docs/decisions.md section 6)."""
    if scheme == NODE_DIST_TO_PARENT:
        if not isinstance(obj, AbstractMergeTree):
            raise SchemeMismatchError(f"{scheme} needs a merge tree")
        labels = {
            v: (BLANK if obj.parent[v] is None else obj.value[v] - obj.value[obj.parent[v]])
            for v in obj.nodes()
        }
        return LabeledTree(scheme, obj.root, obj.parent, labels, obj._children)
    if scheme == BRANCH_LABEL_ON_NODES:
        if not isinstance(obj, AbstractMergeTree):
            raise SchemeMismatchError(f"{scheme} needs an abstract merge tree")
        bd = persistence_branch_decomposition(obj)
        starting = {}
        for b in bd.branches:
            starting.setdefault(b.start, []).append(b)
        labels = {}
        for v in obj.nodes():
            if not obj.children(v):
                b = bd.containing[v]
            else:
                # saddle or root: longest branch starting here
                cands = starting.get(v, [])
                if not cands:
                    raise SchemeMismatchError(f"no branch starts at inner node {v!r}")
                b = min(cands, key=lambda a: (-a.persistence, -a.birth, _id_key(a.leaf)))
            labels[v] = (b.birth, b.death)
        return LabeledTree(scheme, obj.root, obj.parent, labels, obj._children)
    raise SchemeMismatchError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Subtree inclusion up to isomorphism
# ---------------------------------------------------------------------------

def tree_included_up_to_iso(t1, t2, *, exempt=frozenset()) -> bool:
    """Injective root- and parent-preserving embedding of merge tree t1 into
    merge tree t2.

    Nodes must agree in scalar value up to the global tolerance. Exempt
    nodes (renamed by a perturbation) match only exempt nodes, with no value
    constraint. BDTs go through bdt_included_up_to_iso.
    """
    if not (isinstance(t1, AbstractMergeTree) and isinstance(t2, AbstractMergeTree)):
        raise ValidationError("inclusion needs two merge trees")

    def compatible(u, w):
        e1, e2 = u in exempt, w in exempt
        if e1 or e2:
            return e1 and e2
        return abs(t1.value[u] - t2.value[w]) <= TOLERANCE

    return _embed(t1.root, t2.root, t1._children, t2._children, compatible, None, None)


def bdt_included_up_to_iso(b1: LabeledTree, b2: LabeledTree, *, exempt=frozenset()) -> bool:
    """Embedding of BDT b1 into BDT b2 matching branch ends by id (exempt
    ids match each other); ordered exactly when both have child groups."""

    def vmatch(a, b):
        return a == b or (a in exempt and b in exempt)

    def compatible(x: Branch, y: Branch):
        return vmatch(x.leaf, y.leaf) and vmatch(x.start, y.start)

    ordered = b1.groups is not None and b2.groups is not None
    groups = (b1.groups, b2.groups) if ordered else (None, None)
    return _embed(b1.root, b2.root, b1.children, b2.children, compatible, *groups)


def _embed(root1, root2, children1, children2, compatible, groups1, groups2) -> bool:
    """Whether the tree at root1 embeds into the tree at root2: roots onto
    roots, children onto children, injectively, compatible pairs only.

    The compatible pairs reachable from the root pair are listed parents
    first, each once; fits[u, w] is filled over that list in reverse, so a
    pair's child pairs are decided before it. Ordered (groups given), each
    child group of u goes onto its own later group of w, in order, and the
    first group of w that fits is taken (docs/decisions.md section 7).
    """
    if not compatible(root1, root2):
        return False
    order = [(root1, root2)]
    for u, w in order:  # grows while it is walked: a breadth-first queue
        cs2 = children2[w]
        order.extend((a, b) for a in children1[u] for b in cs2 if compatible(a, b))
    fits = {}
    for u, w in reversed(order):
        if groups1 is None:
            fits[u, w] = _covers(children1[u], children2[w], fits)
        else:
            # one iterator: each group of u searches on after the group of w
            # that the group before it took
            later = iter(groups2[w])
            fits[u, w] = all(any(_covers(g1, g2, fits) for g2 in later) for g1 in groups1[u])
    return fits[root1, root2]


def _covers(cs1, cs2, fits) -> bool:
    """Whether each node of cs1 gets its own node of cs2 that it fits: a
    bipartite matching that leaves no row unmatched."""
    if len(cs1) > len(cs2):
        return False
    if len(cs1) <= 1:
        return all(any(fits.get((a, b), False) for b in cs2) for a in cs1)
    from .editcore import linear_sum_assignment

    miss = [[0 if fits.get((a, b), False) else 1 for b in cs2] for a in cs1]
    rows, cols = linear_sum_assignment(miss)
    return not any(miss[r][c] for r, c in zip(rows, cols))


# ---------------------------------------------------------------------------
# JSON dumps
# ---------------------------------------------------------------------------

def tree_to_dict(tree: AbstractMergeTree) -> dict:
    return {
        "root": tree.root,
        "nodes": [
            {"id": v, "value": tree.value[v], "parent": tree.parent[v]}
            for v in tree.sorted_nodes()
        ],
    }


def bdt_to_dict(bdt: LabeledTree) -> dict:
    out = []
    for b in bdt.nodes():
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

