"""Exact elementary-divisor computations over the integers and modulo l^N.

Two kernels live here.

``diagonal_entries`` diagonalizes an integer matrix by unimodular row and
column operations, used on the small matrices that decide whether a vector
lies in the l-local span of others (solvability with denominators prime to
l).  For nested spans, equality of rank plus total l-valuation of the
diagonal (``span_invariants``) is equivalent to equality of the spans, so
membership reduces to comparing those two numbers for W and [W | v], and a
whole batch of vectors can be tested at once against [W | v_1 ... v_m].

``divisor_valuations`` computes the cyclic decomposition of
Z^D / (column lattice + l^N Z^D).  The l^N identity columns are never
materialized: unimodular row operations preserve l^N Z^D inside the lattice,
which licenses reducing every entry mod l^N throughout, and at the end a
pivoted row contributes Z/gcd(d, l^N) while an unpivoted row contributes
Z/l^N.  Because the pivot is always a minimal-valuation entry of the
remaining submatrix it divides everything there modulo l^N, so a single
clearing pass per pivot suffices and the diagonal comes out with
nondecreasing valuations.  A numpy int64 fast path handles l^N < 2^31
(products stay below 2^62); a pure-Python path covers the rest and doubles
as an oracle for the fast path.

Pivot rule everywhere: minimal l-valuation first, ties broken by smallest
row then smallest column index.
"""

from __future__ import annotations

import numpy as np


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


def _find_pivot(a: list[list[int]], t: int, ell: int) -> tuple[int, int] | None:
    best = None
    best_v = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            if row[j]:
                v = ell_valuation(row[j], ell)
                if best_v is None or v < best_v:
                    best, best_v = (i, j), v
        if best_v == 0:
            break  # row-major scan: the first valuation-0 hit is minimal
    return best


def diagonal_entries(rows: list[list[int]], ell: int) -> list[int]:
    """Absolute values of the nonzero diagonal after full diagonalization.

    Any diagonalization by unimodular operations yields the same rank and the
    same multiset of l-valuations, which is all callers consume.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    out: list[int] = []
    t = 0
    while t < m and t < n:
        pos = _find_pivot(a, t, ell)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if a[t][t] < 0:
                            a[t] = [-x for x in a[t]]
            column_dirty = False
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a[t:]:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a[t:]:
                            row[t], row[j] = row[j], row[t]
                        if a[t][t] < 0:
                            a[t] = [-x for x in a[t]]
                        column_dirty = True
            if not column_dirty:
                break
        out.append(abs(a[t][t]))
        t += 1
    return out


def span_invariants(columns: list[list[int]], ell: int) -> tuple[int, int]:
    """Rank and total l-valuation of the diagonalized matrix with these columns.

    For nested l-local spans W <= W' the pair is equal exactly when the spans
    are equal.
    """
    d = diagonal_entries(list(zip(*columns)), ell)
    return len(d), sum(ell_valuation(x, ell) for x in d)


def in_local_span(columns: list[list[int]], target: list[int], ell: int) -> bool:
    """Whether target = W x is solvable with denominators prime to l.

    columns are the generators W (each a vector); membership is decided by
    comparing the span invariants of W and [W | target].
    """
    return span_invariants(columns, ell) == span_invariants([*columns, target], ell)


def _divisor_valuations_python(
    rows: list[list[int]], ell: int, exponent: int
) -> list[int]:
    q = ell**exponent
    a = [[x % q for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        best = None
        best_v = exponent
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    v = ell_valuation(x, ell)
                    if v < best_v:
                        best, best_v = (i, j), v
            if best_v == 0:
                break
        if best is None:
            break
        pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        pe = ell**best_v
        inv_u = pow(p // pe, -1, q)
        pivot_row = a[t]
        for i in range(t + 1, m):
            x = a[i][t]
            if x:
                f = (x // pe) * inv_u % q
                a[i] = [(y - f * z) % q for y, z in zip(a[i], pivot_row)]
        for j in range(t + 1, n):
            x = pivot_row[j]
            if x:
                # column op against column t; rows below have a zero there now
                pivot_row[j] = (x - (x // pe) * inv_u % q * p) % q
        diag.append(best_v)
        t += 1
    return diag + [exponent] * (m - t)


def _divisor_valuations_numpy(
    rows: list[list[int]], ell: int, exponent: int
) -> list[int]:
    q = ell**exponent
    a = np.array(rows, dtype=np.int64) % q
    m, n = a.shape
    powers = np.array([ell**v for v in range(exponent + 1)], dtype=np.int64)
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        sub = a[t:, t:]
        vals = np.searchsorted(powers, np.gcd(sub, q))
        v = int(vals.min())
        if v >= exponent:
            break
        i, j = np.unravel_index(int(np.argmax(vals == v)), vals.shape)
        i += t
        j += t
        if i != t:
            a[[t, i], :] = a[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
        p = int(a[t, t])
        pe = ell**v
        inv_u = pow(p // pe, -1, q)
        col = a[t + 1 :, t]
        if col.size and np.any(col):
            f = (col // pe) * inv_u % q
            a[t + 1 :, t:] = (a[t + 1 :, t:] - f[:, None] * a[t, t:]) % q
        row = a[t, t + 1 :]
        if row.size and np.any(row):
            f = (row // pe) * inv_u % q
            a[t, t + 1 :] = (row - f * p) % q
        diag.append(v)
        t += 1
    return diag + [exponent] * (m - t)


def divisor_valuations(rows: list[list[int]], ell: int, exponent: int) -> list[int]:
    """Valuations of the cyclic factors of Z^D / (columns + l^N Z^D).

    ``rows`` is the relation matrix (one row per ambient coordinate, one
    column per relation).  Returns one value in [0, exponent] per ambient
    coordinate: min(v_l(d), N) for a pivoted row with diagonal d, N for a row
    the relations never reach.  Zero entries (unit divisors) are kept; the
    caller drops them when building a group.
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    if n == 0:
        return [exponent] * m
    if ell**exponent < 2**31:
        return _divisor_valuations_numpy(rows, ell, exponent)
    return _divisor_valuations_python(rows, ell, exponent)
