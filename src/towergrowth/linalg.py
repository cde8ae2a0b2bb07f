"""Exact elementary-divisor computations modulo l^N: one elimination kernel.

``divisor_valuations`` computes the cyclic decomposition of
Z^D / (column lattice + l^N Z^D).  The l^N identity columns are never
materialized: unimodular row operations preserve l^N Z^D inside the lattice,
so every entry only matters modulo l^N, and at the end a pivoted row
contributes Z/gcd(d, l^N) while an unpivoted row contributes Z/l^N.

Callers hand over the matrix as one ``{row: entry}`` dict of nonzero
entries per column.  The kernel eliminates rows, the ambient coordinates,
each a ``{column: residue}`` dict, and an index from each column to the live
rows holding it lets a pivot touch only the rows of its column.  Elimination
runs in phases of one valuation v at a time, on entries divided by l^v
modulo q = l^(N-v): the pivot is a unit entry of the shortest live row that
has one, and once no unit is left every entry is divisible by l, so all are
divided by l, q shrinks by l and v grows by one.  The pivot thus always has
minimal valuation in the remaining submatrix and divides everything there,
so one clearing pass per pivot suffices and the diagonal comes out with
nondecreasing valuations; any pivot of minimal valuation gives the same
multiset.  Entries and multipliers are kept in (-q, q) and reduced only
when they leave it, so a -1 stays -1 while nothing grows past q.

``span_invariants`` runs the same kernel at a precision N chosen past the
l-valuation of every nonzero elementary divisor of an integer matrix, so the
rank and the total l-valuation of its Smith form can be read off the folded
valuations (Cohen, GTM 138, §2.4: the Smith form modulo a multiple of the
determinant).  For nested spans, equality of those two numbers is equivalent
to equality of the l-local spans, so membership reduces to comparing them for
W and [W | v], and a whole batch of vectors can be tested at once against
[W | v_1 ... v_m].
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Collection
from heapq import heapify, heappop, heappush


def ell_valuation(x: int, ell: int) -> int:
    """Exponent of l in x, for x != 0."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    x = abs(x)
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


def divisor_valuations(columns: list[dict], dimension: int, ell: int, exponent: int) -> list[int]:
    """Valuations of the cyclic factors of Z^D / (columns + l^N Z^D), D = dimension.

    ``columns`` is the relation matrix, one ``{row: entry}`` dict per relation
    (zeros may be left out, keys in any order); it is read, never changed.
    Returns one value in [0, exponent] per ambient coordinate: min(v_l(d), N)
    for a pivoted row with diagonal d, in nondecreasing order, then N for each
    row the relations never reach.  Zero entries (unit divisors) are kept; the
    caller drops them when building a group.

    >>> divisor_valuations([{0: 2}, {1: 12}], 3, 2, 5)
    [1, 2, 5]

    With no unit entry the whole matrix is divided by l first (det -8):

    >>> divisor_valuations([{0: 2, 1: 6}, {0: 4, 1: 8}], 2, 2, 5)
    [1, 2]
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    q = ell**exponent
    live: defaultdict[int, dict[int, int]] = defaultdict(dict)
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for j, column in enumerate(columns):
        for i, x in column.items():
            if not -q < x < q:
                x %= q
            if x:
                live[i][j] = x
                holders[j].add(i)
    # (length, row) of every live row whose entries changed since it was
    # last found to hold no unit; stale lengths are skipped when popped
    queue = [(len(entries), i) for i, entries in live.items()]
    heapify(queue)
    diag: list[int] = []
    shift = 0
    while live:
        while queue:
            size, p = heappop(queue)
            pivot = live.get(p)
            if pivot is not None and len(pivot) == size:
                c = next((j for j, x in pivot.items() if x % ell), None)
                if c is not None:
                    break
        else:
            # no unit left: every live entry is divisible by l
            shift += 1
            q //= ell
            for entries in live.values():
                for j in entries:
                    entries[j] //= ell
            queue = [(len(entries), i) for i, entries in live.items()]
            heapify(queue)
            continue
        # The pivot row is never read again and column operations against it
        # would change only that row, so only the other rows of column c are
        # cleared.
        del live[p]
        for j in pivot:
            holders[j].discard(p)
        inv = pow(pivot.pop(c), -1, q)
        if inv > q >> 1:
            inv -= q
        for i in holders.pop(c):
            entries = live[i]
            f = entries.pop(c) * inv
            if not -q < f < q:
                f %= q
            for j, z in pivot.items():
                y = entries.get(j, 0) - f * z
                if not -q < y < q:
                    y %= q
                if y:
                    if j not in entries:
                        holders[j].add(i)
                    entries[j] = y
                elif j in entries:
                    del entries[j]
                    holders[j].discard(i)
            if entries:
                heappush(queue, (len(entries), i))
            else:
                del live[i]
        diag.append(shift)
    return diag + [exponent] * (dimension - len(diag))


def ceil_log(x: int, ell: int) -> int:
    """Least m >= 0 with l^m >= x, from a bit-length estimate below it by at most 3."""
    m = max(int(x.bit_length() / math.log2(ell)) - 2, 0) if x > 1 else 0
    while ell**m < x:
        m += 1
    return m


def _norm_exponent(column: Collection[int], ell: int) -> int:
    """Least k with l^k >= the Euclidean norm of the column's entries."""
    return (ceil_log(sum(map(operator.mul, column, column)), ell) + 1) // 2


def span_invariants(columns: list[dict], dimension: int, ell: int) -> tuple[int, int]:
    """Rank and total l-valuation of the Smith form of the matrix with these
    columns, given as for ``divisor_valuations``.

    For nested l-local spans W <= W' the pair is equal exactly when the spans
    are equal.  The kernel runs at N = 1 + the sum of the norm exponents of
    the min(rows, columns) largest columns: by Hadamard's inequality a nonzero
    r x r minor is at most the product of its columns' norms, and the product
    of the r nonzero elementary divisors divides every such minor, so each of
    them has l-valuation below N while the zero divisors fold to N.

    >>> span_invariants([{0: 2, 1: 1}, {1: 2}], 2, 2)
    (2, 2)
    >>> span_invariants([{0: 3, 1: 6}, {0: 1, 1: 2}], 2, 3)
    (1, 0)
    """
    norms = sorted((_norm_exponent(col.values(), ell) for col in columns), reverse=True)
    exponent = 1 + sum(norms[:dimension])
    vals = [v for v in divisor_valuations(columns, dimension, ell, exponent) if v < exponent]
    return len(vals), sum(vals)
