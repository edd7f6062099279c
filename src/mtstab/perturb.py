"""Minimal vertex perturbations: generation, classification, decomposition.

A minimal vertex perturbation changes exactly one vertex value and swaps it
with at most one other vertex in the global value order. The classifier
sorts a field pair into the taxonomy simple change / edge split / vertical
swap / ordered or unordered horizontal swap: a step that crosses no value is
a simple change, a swap is sorted by subtree-inclusion tests on the merge
trees and their (ordered) branch decomposition trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainMismatchError, NotMinimalError, UnknownVertexError, ValidationError
from .field import ScalarField, apply_value_change
from .mergetree import (
    bdt_included_up_to_iso,
    build_bdt,
    build_obdt,
    check_merge_tree_root,
    merge_tree_of,
    persistence_branch_decomposition,
    tree_included_up_to_iso,
)


class ChangeClass(Enum):
    SIMPLE_CHANGE = "SimpleChange"
    EDGE_SPLIT = "EdgeSplit"
    VERTICAL_SWAP = "VerticalSwap"
    ORDERED_HORIZONTAL_SWAP = "OrderedHorizontalSwap"
    UNORDERED_HORIZONTAL_SWAP = "UnorderedHorizontalSwap"

    @property
    def is_horizontal(self) -> bool:
        return self in (
            ChangeClass.ORDERED_HORIZONTAL_SWAP,
            ChangeClass.UNORDERED_HORIZONTAL_SWAP,
        )


@dataclass(frozen=True)
class MinimalPerturbation:
    vertex: int | None
    old_value: float | None
    new_value: float | None
    swap_partner: int | None
    direction: str  # "up" | "down" | "none"

    @property
    def extent(self) -> float:
        if self.vertex is None:
            return 0.0
        return abs(self.new_value - self.old_value)


def _same_domain(f: ScalarField, f2: ScalarField) -> bool:
    return (
        f.domain.vertex_count == f2.domain.vertex_count
        and f.domain.edges == f2.domain.edges
    )


def check_minimal(f: ScalarField, f2: ScalarField) -> MinimalPerturbation:
    """Verify the two fields differ by a minimal vertex perturbation.

    Exactly one vertex value may differ, and it may cross at most one other
    value: the vertex's rank moves by the number of values it passes, and
    each of those moves by one, so one crossed value is one adjacent
    transposition of the value order. The identity (no change) counts as
    the degenerate extent-0 case.
    """
    if not _same_domain(f, f2):
        raise DomainMismatchError("fields live on different domains")
    diffs = [v for v in range(f.vertex_count) if f.values[v] != f2.values[v]]
    if not diffs:
        return MinimalPerturbation(None, None, None, None, "none")
    if len(diffs) > 1:
        raise NotMinimalError(f"{len(diffs)} vertex values differ: {diffs}")
    (x,) = diffs
    old, new = f.values[x], f2.values[x]
    lo, hi = min(old, new), max(old, new)
    crossed = [v for v, value in enumerate(f.values) if lo < value < hi]
    if len(crossed) > 1:
        raise NotMinimalError(f"vertex {x} crosses the values of vertices {crossed}, not one")
    partner = crossed[0] if crossed else None
    return MinimalPerturbation(x, old, new, partner, "up" if new > old else "down")


def enumerate_minimal_perturbations(field: ScalarField, vertex: int) -> list[MinimalPerturbation]:
    """Up to four candidates for one vertex: move up/down without crossing
    (midpoint toward the rank neighbor) and swap with the rank successor or
    predecessor (landing halfway to the next-but-one value, so a swap never
    crosses two vertices)."""
    if not 0 <= vertex < field.vertex_count:
        raise UnknownVertexError(f"vertex {vertex} not in field")
    order = sorted(range(field.vertex_count), key=field.values.__getitem__)
    pos = order.index(vertex)
    val = field.values[vertex]
    succ = field.values[order[pos + 1]] if pos + 1 < len(order) else math.inf
    succ2 = field.values[order[pos + 2]] if pos + 2 < len(order) else math.inf
    pred = field.values[order[pos - 1]] if pos - 1 >= 0 else -math.inf
    pred2 = field.values[order[pos - 2]] if pos - 2 >= 0 else -math.inf
    candidates = []

    def add(lo, hi, partner, direction):
        """The move to the midpoint of lo and hi, the values it must land
        strictly between, or 1.0 past the finite one when the other is
        infinite."""
        new_value = hi - 1.0 if lo == -math.inf else lo + 1.0 if hi == math.inf else (lo + hi) / 2
        if not lo < new_value < hi:
            # rounding: the midpoint of two adjacent floats lands on one of
            # them, a step of 1.0 can vanish from 2**53 up, and a midpoint
            # near the largest float can overflow
            past = "" if partner is None else f" past vertex {partner}"
            why = (f"no float lies strictly between {lo!r} and {hi!r}"
                   if math.nextafter(lo, hi) == hi
                   else f"{new_value!r} does not lie strictly between {lo!r} and {hi!r}")
            raise ValidationError(f"vertex {vertex} cannot move {direction}{past}: {why}")
        candidates.append(check_minimal(field, apply_value_change(field, vertex, new_value)))

    add(val, succ, None, "up")
    add(pred, val, None, "down")
    if succ < math.inf:
        add(succ, succ2, order[pos + 1], "up")
    if pred > -math.inf:
        add(pred2, pred, order[pos - 1], "down")
    return candidates


def apply_perturbation(field: ScalarField, p: MinimalPerturbation) -> ScalarField:
    if p.vertex is None:
        return field
    return apply_value_change(field, p.vertex, p.new_value)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    change_class: ChangeClass
    perturbation: MinimalPerturbation
    tree_included: bool
    obdt_included: bool
    bdt_included: bool | None  # computed only for horizontal swaps


def classify_change(f: ScalarField, f2: ScalarField) -> ChangeClass:
    return classify_change_detailed(f, f2).change_class


def classify_change_detailed(f: ScalarField, f2: ScalarField) -> Classification:
    """Sort a minimal vertex perturbation into the four-type taxonomy.

    A step that crosses no value, the identity included, keeps the vertex
    order, and the merge trees and their branch decompositions read only
    that order: it is a simple change, and no tree is built for it
    (docs/decisions.md section 21). A field whose merge tree would be
    invalid still raises. A swap goes through the inclusion tests, up to
    renaming of the perturbed vertex and its swap partner (they may change
    identity between the two trees); all other nodes must match in id and
    value.
    """
    p = check_minimal(f, f2)
    if p.swap_partner is None:
        check_merge_tree_root(f)
        return Classification(ChangeClass.SIMPLE_CHANGE, p, True, True, None)
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


# ---------------------------------------------------------------------------
# Decomposition of arbitrary perturbations into minimal ones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSequence:
    fields: tuple[ScalarField, ...]
    steps: tuple[MinimalPerturbation, ...]  # steps[i]: fields[i] -> fields[i+1]


def decompose_perturbation(f: ScalarField, f2: ScalarField) -> PerturbationSequence:
    """Split an arbitrary perturbation into minimal vertex perturbations
    with no unnecessary transpositions: pairs agreeing in order never swap,
    disagreeing pairs swap exactly once.

    Phase one fixes the vertex order by swapping adjacent inverted pairs
    (one swap per inversion); phase two moves values into place without any
    crossing (down-movers bottom-up, then up-movers top-down).
    """
    if not _same_domain(f, f2):
        raise DomainMismatchError("fields live on different domains")
    fields = [f]
    steps = []
    current = f

    def push(vertex, new_value):
        nonlocal current
        nxt = apply_value_change(current, vertex, new_value)
        steps.append(check_minimal(current, nxt))
        fields.append(nxt)
        current = nxt

    n = f.vertex_count
    target_rank = {v: i for i, v in enumerate(sorted(range(n), key=f2.values.__getitem__))}
    # phase one: adjacent transpositions toward the target order. Landing a
    # just above b swaps the two in `order` and changes only the pairs at
    # k - 1, k and k + 1; none below k is inverted, so the scan resumes at
    # k - 1.
    order = sorted(range(n), key=f.values.__getitem__)
    k = 0
    while k < n - 1:
        a, b = order[k], order[k + 1]
        if target_rank[a] < target_rank[b]:
            k += 1
            continue
        vb = current.values[b]
        push(a, (vb + current.values[order[k + 2]]) / 2 if k + 2 < n else vb + 1.0)
        order[k], order[k + 1] = b, a
        k = max(k - 1, 0)
    # phase two: value adjustment, crossing-free
    for v in order:  # down-movers bottom-up
        if f2.values[v] < current.values[v]:
            push(v, f2.values[v])
    for v in reversed(order):  # up-movers top-down
        if f2.values[v] > current.values[v]:
            push(v, f2.values[v])
    if current.values != f2.values:
        raise NotMinimalError("decomposition failed to reach the target field")
    return PerturbationSequence(tuple(fields), tuple(steps))
