"""Exact elementary-divisor computations modulo l^N: one elimination kernel.

``divisor_valuations`` computes the cyclic decomposition of
Z^D / (column lattice + l^N Z^D).  The l^N identity columns are never
materialized: unimodular row operations preserve l^N Z^D inside the lattice,
which licenses reducing every entry mod l^N throughout, and at the end a
pivoted row contributes Z/gcd(d, l^N) while an unpivoted row contributes
Z/l^N.  Because the pivot is always a minimal-valuation entry of the
remaining submatrix it divides everything there modulo l^N, so a single
clearing pass per pivot suffices and the diagonal comes out with
nondecreasing valuations.  No entry ever reaches l^N, so coefficients cannot
grow however long the elimination runs.

``span_invariants`` runs the same kernel at a precision N chosen past the
l-valuation of every nonzero elementary divisor of an integer matrix, so the
rank and the total l-valuation of its Smith form can be read off the folded
valuations (Cohen, GTM 138, §2.4: the Smith form modulo a multiple of the
determinant).  For nested spans, equality of those two numbers is equivalent
to equality of the l-local spans, so membership reduces to comparing them for
W and [W | v], and a whole batch of vectors can be tested at once against
[W | v_1 ... v_m].

Pivot rule: minimal l-valuation first, ties broken by smallest row then
smallest column index.  Any pivot rule gives the same multiset of valuations.
"""

from __future__ import annotations


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


def divisor_valuations(rows: list[list[int]], ell: int, exponent: int) -> list[int]:
    """Valuations of the cyclic factors of Z^D / (columns + l^N Z^D).

    ``rows`` is the relation matrix (one row per ambient coordinate, one
    column per relation).  Returns one value in [0, exponent] per ambient
    coordinate: min(v_l(d), N) for a pivoted row with diagonal d, N for a row
    the relations never reach.  Zero entries (unit divisors) are kept; the
    caller drops them when building a group.

    >>> divisor_valuations([[2, 0], [0, 12], [0, 0]], 2, 5)
    [1, 2, 5]
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    q = ell**exponent
    a = [[x % q for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # An entry beats the best so far only if the best's power of l does
        # not divide it, so valuations are computed only on improvement and
        # the scan ends at the first unit.
        best = None
        best_v = exponent
        bound = q
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                if row[j] % bound:
                    best_v = ell_valuation(row[j], ell)
                    best, bound = (i, j), ell**best_v
                    if best_v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        # The pivot row is never read again and column operations against it
        # would change only that row, so only the rows below are cleared.
        pivot = a[t][t:]
        inv_u = pow(pivot[0] // bound, -1, q)
        for i in range(t + 1, m):
            x = a[i][t]
            if x:
                f = (x // bound) * inv_u % q
                a[i][t:] = [(y - f * z) % q for y, z in zip(a[i][t:], pivot)]
        diag.append(best_v)
        t += 1
    return diag + [exponent] * (m - t)


def _norm_exponent(column: list[int], ell: int) -> int:
    """Least k with l^k >= the Euclidean norm of the column."""
    square = sum(x * x for x in column)
    k = 0
    power = 1
    while power * power < square:
        power *= ell
        k += 1
    return k


def span_invariants(columns: list[list[int]], ell: int) -> tuple[int, int]:
    """Rank and total l-valuation of the Smith form of the matrix with these columns.

    For nested l-local spans W <= W' the pair is equal exactly when the spans
    are equal.  The kernel runs at N = 1 + the sum of the norm exponents of
    the min(rows, columns) largest columns: by Hadamard's inequality a nonzero
    r x r minor is at most the product of its columns' norms, and the product
    of the r nonzero elementary divisors divides every such minor, so each of
    them has l-valuation below N while the zero divisors fold to N.

    >>> span_invariants([[2, 1], [0, 2]], 2)
    (2, 2)
    >>> span_invariants([[3, 6], [1, 2]], 3)
    (1, 0)
    """
    if not columns or not columns[0]:
        return 0, 0
    norms = sorted((_norm_exponent(col, ell) for col in columns), reverse=True)
    exponent = 1 + sum(norms[: len(columns[0])])
    vals = divisor_valuations(list(zip(*columns)), ell, exponent)
    vals = [v for v in vals if v < exponent]
    return len(vals), sum(vals)
