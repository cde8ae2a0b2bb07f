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

In ``span_elimination`` vectors ride along as carried columns: each row
operation is applied to them too, but they are never pivoted and never divided by l.  A carried v
lies in W + l^N Z^D exactly when its entry at every pivot row found at shift
s is divisible by l^s, since that column of the pivot clears it without
touching another live row, and its entry at every row left unpivoted is 0
mod l^N.

``span_elimination`` runs the same kernel at a precision N chosen past the
l-valuation of every nonzero elementary divisor of an integer matrix, raised
by the largest carried vector's norm exponent (Cohen, GTM 138, §2.4: the
Smith form modulo a multiple of the determinant).  One elimination then
gives the valuations of the nonzero elementary divisors, the membership of
each vector in the l-local span of the columns and the rank over Q of
chosen rows, which it pivots first.
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
    live, holders = _live_rows(columns, ell**exponent)
    diag, _ = _eliminate(live, holders, {}, ell, exponent)
    return diag + [exponent] * (dimension - len(diag))


def unit_pivots(
    columns: list[dict], rows: Collection[int], ell: int, exponent: int
) -> tuple[int, list[dict]]:
    """The unit phase of ``divisor_valuations`` with pivots only in ``rows``.

    Clears a unit pivot in one of the given rows while one is left, as the
    kernel's first phase does, and stops there, without dividing by l.
    Returns the number of pivots and what is left of the matrix, its Schur
    complement, as columns in the same format (entries in (-l^N, l^N)).  Each
    pivot adds a unit divisor, so Z^D / (columns + l^N Z^D) is
    Z^(D - pivots) / (remainder + l^N Z^(D - pivots)) on the rows left, and so
    is the same quotient mod l^M for every M <= N.  A pivot row is never
    changed by a left factor that fixes it, so the complement commutes with
    such a factor (``quotients`` applies one per level).

    >>> unit_pivots([{0: 1, 1: 2}, {0: 3, 1: 4}], [0], 2, 3)
    (1, [{1: -2}])
    """
    live, holders = _live_rows(columns, ell**exponent)
    diag, _ = _eliminate(live, holders, {}, ell, exponent, set(rows))
    return len(diag), _columns(live)


def _live_rows(columns: list[dict], q: int) -> tuple[defaultdict, defaultdict]:
    """The matrix by rows, {column: entry} with entries in (-q, q), and the
    rows holding each column."""
    live: defaultdict[int, dict[int, int]] = defaultdict(dict)
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for j, column in enumerate(columns):
        for i, x in column.items():
            if not -q < x < q:
                x %= q
            if x:
                live[i][j] = x
                holders[j].add(i)
    return live, holders


def _columns(rows: dict) -> list[dict]:
    """The matrix with these {row: {column: entry}} rows, as its columns."""
    columns: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for i, entries in rows.items():
        for j, x in entries.items():
            columns[j][i] = x
    return list(columns.values())


def _eliminate(
    live: dict, holders: dict, carry: dict, ell: int, exponent: int, pivot_rows: set | None = None
) -> tuple[list[int], set[int]]:
    """The pivot loop: the shift of every pivot in order, and the carried
    vectors found outside the span.  ``live``, ``holders`` and ``carry`` are
    reduced in place.  Given ``pivot_rows``, pivots are taken only there and
    the loop stops once none of them holds a unit."""
    q = top = ell**exponent
    outside: set[int] = set()
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
                if pivot_rows is not None and p not in pivot_rows:
                    continue
                c = next((j for j, x in pivot.items() if x % ell), None)
                if c is not None:
                    break
        else:
            if pivot_rows is not None:
                break
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
        moved = carry.pop(p, None)
        if moved:
            # a carried entry divisible by l^shift is cleared by column c,
            # which leaves its row operations exact mod l^N; any other is
            # outside the span
            unit = ell**shift
            outside.update(k for k, x in moved.items() if x % unit)
            moved = {k: x for k, x in moved.items() if x and k not in outside}
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
            if moved:
                row = carry[i]
                for k, x in moved.items():
                    y = row.get(k, 0) - f * x
                    row[k] = y if -top < y < top else y % top
        diag.append(shift)
    return diag, outside


def ceil_log(x: int, ell: int) -> int:
    """Least m >= 0 with l^m >= x, from a bit-length estimate below it by at most 3."""
    m = max(int(x.bit_length() / math.log2(ell)) - 2, 0) if x > 1 else 0
    while ell**m < x:
        m += 1
    return m


def _norm_exponent(column: Collection[int], ell: int) -> int:
    """Least k with l^k >= the Euclidean norm of the column's entries."""
    return (ceil_log(sum(map(operator.mul, column, column)), ell) + 1) // 2


def span_elimination(
    columns: list[dict], dimension: int, ell: int, vectors: list[dict], rows: Collection[int]
) -> tuple[list[int], list[bool], int]:
    """One elimination of the columns that carries the vectors, all given as
    for ``divisor_valuations``: the l-valuations of the nonzero elementary
    divisors of the matrix, in nondecreasing order; whether each vector lies
    in the l-local span of the columns; and the rank over Q of the matrix's
    ``rows``.

    It runs at N = 1 + the sum of the norm exponents of the
    min(dimension, columns) largest columns, plus the largest norm exponent
    of a vector.  By Hadamard's inequality a nonzero r x r minor is below
    l^(N-1) (a column's norm bounds its part in any rows too), and the
    product of the r nonzero elementary divisors divides every such minor,
    so each of them has valuation below N while the zero divisors fold to N.
    A vector outside the Q-span raises the rank: a nonzero (r+1)-minor of
    [W | v] is made of v and r columns of W, so one more factor of
    Z^D / ([W | v] + l^N Z^D) than of W's quotient is smaller than l^N.  A
    vector in the Q-span but outside the l-local span lowers the total
    valuation, which also stays below N.  Either way the two quotients
    differ, so v is not in W + l^N Z^D, while every v in the l-local span is.

    The unit pivots in ``rows`` are taken first (``unit_pivots``' pass), each
    adding one to their rank.  What is left of those rows is the Schur
    complement of their submatrix on the pivots, each of whose r'-minors is
    a (pivots + r')-minor of that submatrix times a unit, so its nonzero
    elementary divisors stay below N too; if any entry is left there, one
    kernel run on it at N counts them.  A second pass eliminates the rest.

    >>> span_elimination([{0: 2, 1: 1}, {1: 2}], 2, 2, (), ())
    ([0, 2], [], 0)
    >>> span_elimination([{0: 3, 1: 6}, {0: 1, 1: 2}], 2, 3, [{0: 2, 1: 4}, {1: 1}], [1])
    ([0], [True, False], 1)
    >>> span_elimination([{0: 2}], 2, 2, [{0: 6}, {0: 1}, {1: 4}, {}], ())[1]
    [True, False, False, True]
    """
    exponent = _hadamard_exponent(columns, dimension, ell)
    exponent += max((_norm_exponent(v.values(), ell) for v in vectors), default=0)
    top = ell**exponent
    live, holders = _live_rows(columns, top)
    # the carried entries by row, {vector: entry}, kept in (-l^N, l^N)
    carry: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for k, vector in enumerate(vectors):
        for i, x in vector.items():
            if not -top < x < top:
                x %= top
            if x:
                carry[i][k] = x
    rows = set(rows)
    diag, outside = _eliminate(live, holders, carry, ell, exponent, rows)
    rank, kept = len(diag), rows & live.keys()
    if kept:
        remainder = _columns({i: live[i] for i in kept})
        rank += sum(v < exponent for v in divisor_valuations(remainder, len(kept), ell, exponent))
    rest, more = _eliminate(live, holders, carry, ell, exponent)
    # what is left sits at unpivoted rows, where only 0 mod l^N is in the span
    outside |= more
    outside.update(k for row in carry.values() for k, x in row.items() if x)
    return diag + rest, [k not in outside for k in range(len(vectors))], rank


def _hadamard_exponent(columns: list[dict], dimension: int, ell: int) -> int:
    """1 + the sum of the norm exponents of the min(dimension, columns)
    largest columns: ``span_elimination``'s precision without vectors."""
    norms = sorted((_norm_exponent(col.values(), ell) for col in columns), reverse=True)
    return 1 + sum(norms[:dimension])
