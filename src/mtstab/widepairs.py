"""Wide node pairs of the one-degree DPs, on float64 arrays.

A node pair whose sides both have at least distances._WIDE_PAIR_MIN
children (x: child groups), as at the root of a caterpillar's BDT, is
computed here instead of in the DPs' row loop, with the same floats
(docs/decisions.md §15). The DPs import this module, and numpy with it, on
their first wide pair, so a run that meets none neither compiles nor loads
it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .distances import _assignment_min, _augmented_min


def child_rows(view1, view2, memo, cost, out):
    """The child cost matrix of a wide pair, written into the float64 array
    out: the relabel costs, each inner column's rest added on the leaf
    rows, each inner row's rest added along its row, then the memo written
    over the inner x inner cells. The array twin of distances._child_rows,
    a block at a time; call it under np.errstate."""
    lab1, _, inner1, leaves1, _, _ = view1
    lab2, _, inner2, _, _, _ = view2
    cost.relabel_block(lab1, lab2, out)
    cols = [j for j, _, _ in inner2]
    if cols and leaves1:
        out[np.ix_(leaves1, cols)] += [r for _, _, r in inner2]
    if inner1:
        rows = [i for i, _, _ in inner1]
        out[rows] += np.array([r for _, _, r in inner1])[:, None]
        if cols:
            out[np.ix_(rows, cols)] = [[memo[a, b] for _, b, _ in inner2] for _, a, _ in inner1]
    return out


def assignment_min(view1, view2, memo, cost):
    """_assignment_min of a wide pair's child cost matrix (w and l), which
    is written straight into the solver's matrix."""
    dels, inss = view1[1], view2[1]
    n1, n2 = len(dels), len(inss)
    mat = np.empty((n1 + n2, n1 + n2))
    with np.errstate(over="ignore"):
        child_rows(view1, view2, memo, cost, mat[:n1, :n2])
    return _augmented_min(mat, dels, inss)


def one_by_one(c, d, e):
    """_assignment_min's 1x1 form, c if c <= d or c - d < e else d + e, on
    float64 arrays that broadcast together; a new array. Call it under
    np.errstate: c - d is NaN where both are inf, and d + e can overflow."""
    take = c <= d
    out = np.subtract(c, d)
    take |= out < e
    np.add(d, e, out=out)
    np.copyto(out, c, where=take)
    return out


def alignment(view1, view2, memo, cost):
    """align[n][m] of a wide pair of the ordered DP (x). The pair matrix
    takes _assignment_min's 1x1 form on every group pair at once, and its
    value on each pair with a group of several children. The alignment is
    then filled one antidiagonal at a time: cell (i, j) on antidiagonal
    k = i + j reads (i - 1, j) and (i, j - 1) on k - 1 and (i - 1, j - 1)
    on k - 2, so each antidiagonal is the row loop's three adds per cell
    and a minimum of them, a vector at a time."""
    lab1, _, _, _, spans1, d1 = view1
    lab2, _, _, _, spans2, d2 = view2
    n, m = len(spans1), len(spans2)
    with np.errstate(over="ignore", invalid="ignore"):
        block = child_rows(view1, view2, memo, cost, np.empty((len(lab1), len(lab2))))
        c = block[np.ix_([top for top, _, _ in spans1], [lo for lo, _, _ in spans2])]
        pair = one_by_one(c, np.array([dels[0] for _, _, dels in spans1])[:, None],
                          np.array([inss[0] for _, _, inss in spans2]))
        many1 = [i for i, (top, bottom, _) in enumerate(spans1) if bottom - top > 1]
        many2 = [j for j, (lo, hi, _) in enumerate(spans2) if hi - lo > 1]
        for i, j in {*itertools.product(many1, range(m)), *itertools.product(range(n), many2)}:
            top, bottom, dels = spans1[i]
            lo, hi, inss = spans2[j]
            pair[i, j] = _assignment_min(block[top:bottom, lo:hi].tolist(), dels, inss)
        # older, old, cur hold antidiagonals k - 2, k - 1 and k, by row i;
        # row i of antidiagonal k reads drop2[k - i - 1] at rev2[m - k + i]
        # and pair[i - 1, k - i - 1] on the flipped pair's diagonal m - k + 1
        first_col = list(itertools.accumulate(d1, initial=0.0))
        first_row = list(itertools.accumulate(d2, initial=0.0))
        drop1, rev2, flipped = np.array(d1), np.array(d2[::-1]), pair[:, ::-1]
        older, old, cur = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
        old[0] = 0.0
        for k in range(1, n + m + 1):
            a, b = max(1, k - m), min(n, k - 1) + 1  # the rows with i, j >= 1
            if a < b:
                up = old[a - 1:b - 1] + drop1[a - 1:b - 1]
                np.minimum(up, old[a:b] + rev2[m - k + a:m - k + b], out=up)
                np.minimum(up, older[a - 1:b - 1] + flipped.diagonal(m - k + 1), out=cur[a:b])
            if k <= m:
                cur[0] = first_row[k]
            if k <= n:
                cur[k] = first_col[k]
            older, old, cur = old, cur, older
    return float(old[n])
