import itertools
import random

import pytest

from helpers import (
    bdt_to_dict_by_sorting,
    build_augmented,
    build_bdt_by_sorting,
    build_obdt_by_position,
    caterpillar_field,
    embed_backtracking,
    prune_to_abstract,
    random_abstract_tree,
    random_field,
    random_graph_field,
    random_path_field,
    staircase_field,
    superlevel_components,
)
from mtstab import field
from mtstab import mergetree as mt
from mtstab.distances import _all_decompositions
from mtstab.errors import AbstractInvariantError, SchemeMismatchError, ValidationError
from mtstab.field import build_domain, validate_field
from mtstab.mergetree import (
    BLANK,
    abstract_merge_tree,
    bdt_included_up_to_iso,
    build_bdt,
    build_obdt,
    label_for_scheme,
    merge_tree_of,
    persistence_branch_decomposition,
    tree_included_up_to_iso,
)


def path_field(values):
    n = len(values)
    return validate_field(build_domain(n, [(i, i + 1) for i in range(n - 1)]), values)


def figure_tree():
    """The running label-scheme example tree (values 0..10)."""
    parent = {"A": None, "B": "A", "C": "B", "F": "B", "E": "C", "D": "C",
              "G": "D", "H": "D", "I": "D"}
    value = {"A": 0, "B": 2, "C": 4, "D": 6, "E": 10, "F": 5, "G": 8,
             "H": 8.5, "I": 9}
    return abstract_merge_tree(parent, value)


def test_build_augmented_path_example():
    aug = build_augmented(path_field([0, 3, 1, 2]))
    assert aug.parent == {1: 2, 3: 2, 2: 0, 0: None}
    assert aug.root == 0
    assert set(aug.children(2)) == {1, 3}  # saddle with maxima 1 and 3


def test_build_augmented_monotone_chain():
    aug = build_augmented(path_field([0, 1, 2, 3]))
    assert aug.parent == {3: 2, 2: 1, 1: 0, 0: None}


def test_augmented_agrees_with_superlevel_oracle():
    rng = random.Random(5)
    for _ in range(40):
        f = random_field(rng, 3, 4)
        aug = build_augmented(f)
        for x in range(f.vertex_count):
            comps = superlevel_components(f, f.values[x])
            adjacent_lowest = {
                min(comp, key=lambda v: f.values[v])
                for comp in comps
                if any(w in f.domain.adjacency[x] for w in comp)
            }
            assert set(aug.children(x)) == adjacent_lowest


def test_prune_to_abstract():
    two = prune_to_abstract(build_augmented(path_field([0, 1, 2, 3])))
    assert two.parent == {0: None, 3: 0}
    saddle = prune_to_abstract(build_augmented(path_field([0, 3, 1, 2])))
    assert saddle.parent == {0: None, 1: 2, 3: 2, 2: 0}
    # the figure tree is already abstract
    t = figure_tree()
    assert t.child_count("A") == 1 and t.child_count("D") == 3


def test_prune_preserves_critical_values():
    rng = random.Random(11)
    for _ in range(25):
        f = random_field(rng, 3, 3)
        aug = build_augmented(f)
        t = prune_to_abstract(aug)
        maxima_aug = sorted(aug.value[v] for v in aug.nodes() if aug.child_count(v) == 0)
        maxima_abs = sorted(t.value[v] for v in t.nodes() if t.child_count(v) == 0)
        assert maxima_aug == maxima_abs
        saddles_aug = sorted(
            aug.value[v] for v in aug.nodes() if v != aug.root and aug.child_count(v) > 1
        )
        saddles_abs = sorted(
            t.value[v] for v in t.nodes() if v != t.root and t.child_count(v) > 1
        )
        assert saddles_aug == saddles_abs
        # leaves and the root survive, so the leaf-to-root spans do too
        assert set(aug.leaves()) == set(t.leaves()) and aug.root == t.root


def test_abstract_invariant_violation_reported():
    # removing the interior global minimum disconnects a path's superlevel set
    f = path_field([1, 0, 2])
    with pytest.raises(AbstractInvariantError):
        prune_to_abstract(build_augmented(f))


def _tree_or_error(build, f):
    try:
        t = build(f)
    except AbstractInvariantError as e:
        return str(e)
    return t.parent, t.value, t.root, {v: t.children(v) for v in t.nodes()}


def _union_find_count(n, edges, without=None):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        if without not in (u, v):
            parent[find(u)] = find(v)
    return len({find(v) for v in range(n) if v != without})


def _root_check(f):
    try:
        mt.check_merge_tree_root(f)
    except AbstractInvariantError as e:
        return str(e)
    return None


def test_components_match_a_union_find_count():
    """field._components, the one walk of the domain check and the root
    check, counts what union-find counts on random graphs, connected or
    not, with and without a removed vertex. check_merge_tree_root raises
    exactly when merge_tree_of raises "root has k children", with its
    message."""
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(0, 12)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)) // rng.choice((1, 2, 4)))
        adjacency = [[] for _ in range(n)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        assert field._components(adjacency) == _union_find_count(n, edges)
        for without in range(n):
            assert field._components(adjacency, without) == _union_find_count(n, edges, without)
    raised = 0
    fields = [random_graph_field(rng, rng.randint(2, 14), extra) for extra in (0, 0, 3, 20) * 40]
    fields += [random_field(rng, 2, 2), path_field([1, 0, 2]), path_field([0])]
    for f in fields:
        want = _tree_or_error(merge_tree_of, f)
        got = _root_check(f)
        if isinstance(want, str):
            assert want.startswith("root has ") and got == want
            raised += 1
        else:
            assert got is None
    assert 30 < raised < len(fields) - 30


def test_sweep_matches_pruned_augmented_tree():
    """merge_tree_of's one sweep gives prune(augmented), or the same error."""
    rng = random.Random(31)
    fields = [random_field(rng, n, m) for n in range(2, 17) for m in (n, rng.randint(2, 16))]
    fields += [random_path_field(rng, rng.randint(2, 40)) for _ in range(60)]
    fields += [staircase_field(n, s) for n in (2, 3, 10, 101) for s in (0.0, 0.3)]
    fields += [caterpillar_field(rng, 400), random_field(rng, 64, 64), path_field([1, 0, 2])]
    for f in fields:
        want = _tree_or_error(lambda g: prune_to_abstract(build_augmented(g)), f)
        assert _tree_or_error(merge_tree_of, f) == want
    assert want.startswith("root has 2 children")  # path_field([1, 0, 2]), the last


def test_figure_branch_decomposition():
    bd = persistence_branch_decomposition(figure_tree())
    assert sorted(b.name for b in bd.branches) == ["E-A", "F-B", "G-D", "H-D", "I-C"]
    assert bd.main.name == "E-A"
    bdt = build_bdt(bd)
    edges = sorted((c.name, p.name) for c, p in bdt.parent.items() if p is not None)
    assert edges == [("F-B", "E-A"), ("G-D", "I-C"), ("H-D", "I-C"), ("I-C", "E-A")]


def test_figure_obdt_order():
    bd = persistence_branch_decomposition(figure_tree())
    obdt = build_obdt(bd)
    by_name = {b.name: b for b in bd.branches}
    groups_main = [[c.name for c in g] for g in obdt.groups[by_name["E-A"]]]
    assert groups_main == [["F-B"], ["I-C"]]  # attach at B (2) before C (4)
    groups_ic = [[c.name for c in g] for g in obdt.groups[by_name["I-C"]]]
    assert groups_ic == [["G-D", "H-D"]]  # same saddle D: incomparable


def test_two_node_tree_single_branch():
    t = prune_to_abstract(build_augmented(path_field([0, 1, 2, 3])))
    bd = persistence_branch_decomposition(t)
    assert len(bd.branches) == 1
    assert bd.main.birth == 3.0 and bd.main.death == 0.0


def test_path_field_decomposition_example():
    t = merge_tree_of(path_field([0, 3, 1, 2]))
    bd = persistence_branch_decomposition(t)
    named = {b.name: (b.birth, b.death) for b in bd.branches}
    assert named == {"1-0": (3.0, 0.0), "3-2": (2.0, 1.0)}


def test_elder_rule_invariants():
    rng = random.Random(23)
    for _ in range(30):
        t = merge_tree_of(random_field(rng, 3, 3))
        bd = persistence_branch_decomposition(t)
        bdt = build_bdt(bd)
        global_max = max(t.value.values())
        assert bd.main.birth == global_max
        for b in bd.branches:
            for c in bdt.children[b]:
                assert b.birth >= c.birth  # the longest branch continues
        # edge label sum equals total persistence of the decomposition
        edge_sum = sum(
            t.value[v] - t.value[t.parent[v]] for v in t.nodes() if t.parent[v] is not None
        )
        pers_sum = sum(b.birth - b.death for b in bd.branches)
        assert abs(edge_sum - pers_sum) < 1e-9
        # one branch per leaf: the BDT size the finite-stability bound counts
        assert bdt.node_count() == len(t.leaves())


def test_obdt_forgets_to_bdt():
    rng = random.Random(31)
    for _ in range(20):
        bd = persistence_branch_decomposition(merge_tree_of(random_field(rng, 3, 3)))
        bdt, obdt = build_bdt(bd), build_obdt(bd)
        assert bdt.parent == obdt.parent
        for b in bd.branches:
            flat = [c for grp in obdt.groups[b] for c in grp]
            assert sorted(map(str, flat)) == sorted(map(str, bdt.children[b]))


def test_label_schemes_figure_values():
    t = figure_tree()
    node = label_for_scheme(t, mt.NODE_DIST_TO_PARENT)
    assert node.labels["A"] is BLANK
    # both schemes share the merge tree's maps instead of copying them
    assert node.parent is t.parent and node.children is t._children
    # parent edge lengths from the scalar values; the B-F edge spans 5 - 2 = 3
    assert {k: v for k, v in node.labels.items() if k != "A"} == {
        "B": 2.0, "C": 2.0, "E": 6.0, "D": 2.0, "G": 2.0, "H": 2.5, "I": 3.0, "F": 3.0,
    }
    bdt = build_bdt(persistence_branch_decomposition(t))
    labels = {b.name: label for b, label in bdt.labels.items()}
    assert labels["E-A"] == (10.0, 0.0) and labels["H-D"] == (8.5, 6.0)
    branch = label_for_scheme(t, mt.BRANCH_LABEL_ON_NODES)
    assert branch.parent is t.parent and branch.children is t._children
    assert branch.labels == {
        "A": (10.0, 0.0), "B": (5.0, 2.0), "C": (9.0, 4.0), "D": (8.5, 6.0),
        "E": (10.0, 0.0), "F": (5.0, 2.0), "G": (8.0, 6.0), "H": (8.5, 6.0),
        "I": (9.0, 4.0),
    }


def test_label_scheme_mismatch():
    with pytest.raises(SchemeMismatchError):
        label_for_scheme(figure_tree(), mt.BDT_BIRTH_DEATH)


@pytest.mark.parametrize("on, scheme, message", [
    ("tree", mt.BDT_BIRTH_DEATH, "unknown scheme 'bdt_birth_death'"),
    ("bdt", mt.NODE_DIST_TO_PARENT, "node_dist_to_parent needs a merge tree"),
    ("bdt", mt.BRANCH_LABEL_ON_NODES, "branch_label_on_nodes needs an abstract merge tree"),
])
def test_label_for_scheme_names_the_scheme_it_cannot_build(on, scheme, message):
    """A BDT scheme is not among the merge tree schemes, and the merge tree
    schemes need a merge tree."""
    t = figure_tree()
    obj = t if on == "tree" else build_bdt(persistence_branch_decomposition(t))
    with pytest.raises(SchemeMismatchError) as err:
        label_for_scheme(obj, scheme)
    assert str(err.value) == message


#: (parent, value, root) of a tree AbstractMergeTree refuses, and the start
#: of its error message.
BAD_TREES = {
    "root-with-parent": ({"r": "s", "s": None}, {"r": 0.0, "s": 1.0}, "r",
                         "root must be a node without parent"),
    "root-unknown": ({"r": None}, {"r": 0.0}, "z", "root must be a node without parent"),
    "node-sets-differ": ({"r": None, "a": "r"}, {"r": 0.0, "b": 1.0}, "r",
                         "parent and value maps disagree"),
    "unknown-parent": ({"r": None, "a": "z"}, {"r": 0.0, "a": 1.0}, "r",
                       "unknown parent 'z' of node 'a'"),
    "parent-not-below": ({"r": None, "a": "r"}, {"r": 1.0, "a": 1.0}, "r",
                         "parent 'r' (1.0) not below child 'a' (1.0)"),
    "unreached": ({"r": None, "a": "r", "b": None}, {"r": 0.0, "a": 1.0, "b": 2.0}, "r",
                  "tree is not connected to the root"),
}


@pytest.mark.parametrize("parent, value, root, message", BAD_TREES.values(), ids=BAD_TREES)
def test_abstract_merge_tree_rejects_a_bad_tree(parent, value, root, message):
    with pytest.raises(ValidationError) as err:
        mt.AbstractMergeTree(parent, value, root)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("parent, value, error, message", [
    ({"r": None, "a": "r", "b": None}, {"r": 0.0, "a": 1.0, "b": 2.0}, ValidationError,
     "expected exactly one root, got ['r', 'b']"),
    ({"r": "a", "a": "r"}, {"r": 0.0, "a": 1.0}, ValidationError, "expected exactly one root, got []"),
    ({"r": None, "a": "r", "b": "r"}, {"r": 0.0, "a": 1.0, "b": 2.0}, AbstractInvariantError,
     "root has 2 children, expected 1"),
    ({"r": None, "s": "r", "a": "s"}, {"r": 0.0, "s": 1.0, "a": 2.0}, AbstractInvariantError,
     "regular node 's' left in abstract tree"),
], ids=["two-roots", "no-root", "root-with-two-children", "regular-node"])
def test_abstract_merge_tree_needs_one_root_and_no_regular_node(parent, value, error, message):
    with pytest.raises(error) as err:
        abstract_merge_tree(parent, value)
    assert str(err.value).startswith(message)


def test_tree_inclusion_identity_and_values():
    t = figure_tree()
    assert tree_included_up_to_iso(t, t)
    two_matching = abstract_merge_tree({"r": None, "m": "r"}, {"r": 0.0, "m": 2.0})
    assert tree_included_up_to_iso(two_matching, t)  # maps onto A-B
    two_off = abstract_merge_tree({"r": None, "m": "r"}, {"r": 0.0, "m": 10.0})
    assert not tree_included_up_to_iso(two_off, t)  # no child of A has value 10
    bdt = build_bdt(persistence_branch_decomposition(t))
    with pytest.raises(ValidationError, match="two merge trees"):
        tree_included_up_to_iso(bdt, bdt)


def test_fig7_pair_not_included_either_direction():
    from mtstab.stability import CounterexampleFamily, counterexample

    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    ex = frozenset({"E", "F"})
    assert not tree_included_up_to_iso(t1, t2, exempt=ex)
    assert not tree_included_up_to_iso(t2, t1, exempt=ex)
    # but the ordered BDTs are nested
    o1 = build_obdt(persistence_branch_decomposition(t1))
    o2 = build_obdt(persistence_branch_decomposition(t2))
    assert bdt_included_up_to_iso(o2, o1, exempt=ex)


def _random_groups(rng, children):
    """Shuffle each child tuple and cut it into random consecutive groups."""
    shuffled, groups = {}, {}
    for v, cs in children.items():
        cs = list(cs)
        rng.shuffle(cs)
        shuffled[v] = tuple(cs)
        cuts = sorted(rng.sample(range(1, len(cs)), rng.randint(0, max(len(cs) - 1, 0))))
        bounds = [0] + cuts + [len(cs)]
        groups[v] = tuple(tuple(cs[i:j]) for i, j in zip(bounds, bounds[1:]) if i < j)
    return shuffled, groups


def _random_children(rng, n):
    children = {v: [] for v in range(n)}
    for v in range(1, n):
        children[rng.randrange(v)].append(v)
    return children


def _star_children(k):
    return {0: [1], 1: list(range(2, k + 2)), **{v: [] for v in range(2, k + 2)}}


def _embed_cases(rng):
    """Random tree pairs (up to 9 against up to 12 nodes) and star pairs
    (up to 7 leaves each) with labels from {0, 1, 2}, roots labeled 0."""
    for k in range(3000):
        if k % 5 == 4:
            c1, c2 = _star_children(rng.randint(0, 7)), _star_children(rng.randint(0, 7))
        else:
            c1 = _random_children(rng, rng.randint(1, 9))
            c2 = _random_children(rng, rng.randint(1, 12))
        yield c1, c2


def test_embed_matches_the_backtracking_oracle():
    """The bottom-up matching pass decides the same inclusions as the
    backtracking search, ordered and unordered, on trees whose labels
    repeat, so most pairs have several compatible partners."""
    rng = random.Random(71)
    found = {True: 0, False: 0}
    for k, (c1, c2) in enumerate(_embed_cases(rng)):
        (ch1, g1), (ch2, g2) = _random_groups(rng, c1), _random_groups(rng, c2)
        lab1 = {v: rng.randrange(3) if v else 0 for v in ch1}
        lab2 = {v: rng.randrange(3) if v else 0 for v in ch2}

        def compatible(u, w):
            return lab1[u] == lab2[w]

        groups = (g1, g2) if k % 2 else (None, None)
        got = mt._embed(0, 0, ch1, ch2, compatible, *groups)
        assert got == embed_backtracking(0, 0, ch1, ch2, compatible, *groups), (ch1, ch2, groups)
        found[got] += 1
    assert min(found.values()) > 300


def _random_merge_tree(rng, n):
    """Abstract merge tree with small integer values, so values repeat
    across siblings and cousins."""
    parent, value = {0: None, 1: 0}, {0: 0, 1: 1}
    for v in range(2, n):
        p = rng.randrange(1, v)
        parent[v], value[v] = p, value[p] + rng.randint(1, 2)
    kids = {}
    for v, p in parent.items():
        kids.setdefault(p, []).append(v)
    for v in range(1, n):
        if len(kids.get(v, ())) == 1:  # no regular nodes: give it a second child
            w = len(parent)
            parent[w], value[w] = v, value[v] + rng.randint(1, 2)
    return abstract_merge_tree(parent, value)


def test_inclusion_tests_match_the_oracle_with_exempt_sets(monkeypatch):
    """Both public inclusion tests, with exempt sets, give the oracle's
    answer on hand-built merge trees with repeated values and on their
    BDTs and ordered BDTs."""
    rng = random.Random(72)
    cases = []
    for _ in range(400):
        t1 = _random_merge_tree(rng, rng.randint(2, 7))
        t2 = _random_merge_tree(rng, rng.randint(2, 9))
        exempt = frozenset(rng.sample(range(9), rng.randint(0, 2)))
        bd1, bd2 = persistence_branch_decomposition(t1), persistence_branch_decomposition(t2)
        cases += [
            (tree_included_up_to_iso, t1, t2, exempt),
            (bdt_included_up_to_iso, build_bdt(bd1), build_bdt(bd2), exempt),
            (bdt_included_up_to_iso, build_obdt(bd1), build_obdt(bd2), exempt),
        ]
    got = [check(a, b, exempt=ex) for check, a, b, ex in cases]
    monkeypatch.setattr(mt, "_embed", embed_backtracking)
    assert got == [check(a, b, exempt=ex) for check, a, b, ex in cases]
    assert 100 < sum(got) < len(got) - 100


def test_bdt_orders_match_the_sorting_oracles():
    """BDT children, OBDT groups and the BDT dumps read the decomposition's
    branch order. The sorting builders and dump agree on every
    decomposition, up to 40 per tree, of 300 random trees: grids from 3x3
    to 6x6 and abstract trees with up to 9 edges."""
    rng = random.Random(10)
    trees = [merge_tree_of(random_field(rng, k, k)) for k in (3, 4, 5, 6) for _ in range(50)]
    trees += [random_abstract_tree(rng, max_edges=9) for _ in range(100)]
    decompositions = shared = ordered = 0
    for tree in trees:
        for bd in itertools.islice(_all_decompositions(tree), 40):
            bdt, obdt = build_bdt(bd), build_obdt(bd)
            ref_bdt, ref_obdt = build_bdt_by_sorting(bd), build_obdt_by_position(bd)
            assert bdt.children == ref_bdt.children
            assert obdt.groups == ref_obdt.groups
            assert mt.bdt_to_dict(bdt) == bdt_to_dict_by_sorting(ref_bdt)
            assert mt.bdt_to_dict(obdt) == bdt_to_dict_by_sorting(ref_obdt)
            decompositions += 1
            shared += sum(len(g) > 1 for gs in obdt.groups.values() for g in gs)
            ordered += sum(len(gs) > 1 for gs in obdt.groups.values())
    assert decompositions > 1000 and shared > 0 and ordered > 0
