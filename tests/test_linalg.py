"""The elimination kernel modulo l^N and the span elimination built on it.

Both are cross-checked against determinantal divisors computed here from
their definition: D_i is the gcd of the i x i minors, the rank r is the
largest i with D_i != 0, and the elementary divisors are d_i = D_i / D_(i-1).
The cyclic divisors of Z^m / (columns + q Z^m) with q = l^exponent are then
gcd(d_i, q) for i <= r, plus one full q for every row beyond the rank.
Fixed cases were reduced by hand first.
"""

import copy
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from towergrowth.linalg import (
    _hadamard_exponent,
    _norm_exponent,
    ceil_log,
    divisor_valuations,
    ell_valuation,
    span_elimination,
    unit_pivots,
)

from conftest import (
    dense_divisor_valuations,
    first_level_over_by_multiplying,
    in_local_span,
    sparse_columns,
)


def span_invariants(columns, dimension, ell):
    """Rank and total l-valuation of the Smith form, from ``span_elimination``."""
    vals = span_elimination(columns, dimension, ell, (), ())[0]
    return len(vals), sum(vals)


def span_members(columns, vectors, dimension, ell):
    """Whether each vector lies in the l-local span, from ``span_elimination``."""
    return span_elimination(columns, dimension, ell, vectors, ())[1]


class TestEllValuation:
    def test_basics(self):
        assert ell_valuation(1, 2) == 0
        assert ell_valuation(8, 2) == 3
        assert ell_valuation(12, 2) == 2
        assert ell_valuation(-12, 2) == 2
        assert ell_valuation(45, 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ell_valuation(0, 2)


class TestSpanInvariants:
    """Each matrix is written by its rows; ``sparse_columns`` hands it over."""

    def test_already_diagonal(self):
        # divisors 2 and 3
        assert span_invariants(*sparse_columns([[2, 0], [0, 3]]), 2) == (2, 1)
        assert span_invariants(*sparse_columns([[2, 0], [0, 3]]), 3) == (2, 1)

    def test_upper_triangular(self):
        # det 4, entry gcd 1, so the divisors are 1 and 4
        assert span_invariants(*sparse_columns([[2, 1], [0, 2]]), 2) == (2, 2)

    def test_symmetric(self):
        # [[4,2],[2,4]]: gcd 2, det 12, divisors 2 and 6
        assert span_invariants(*sparse_columns([[4, 2], [2, 4]]), 2) == (2, 2)
        assert span_invariants(*sparse_columns([[4, 2], [2, 4]]), 3) == (2, 1)

    def test_zero_matrix(self):
        assert span_invariants(*sparse_columns([[0, 0], [0, 0]]), 2) == (0, 0)
        assert span_invariants(*sparse_columns([]), 2) == (0, 0)

    def test_hadamard_bound_is_reached(self):
        # |det| = 16 is the product of the four column norms 2; the
        # divisors 1, 2, 2, 4 need the precision from every column
        h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert span_invariants(*sparse_columns(h), 2) == (4, 4)
        assert span_invariants(*sparse_columns(h), 3) == (4, 0)

    def test_rectangular(self):
        # one column (2, 0); one row (6 4), that is the columns (6) and (4)
        assert span_invariants(*sparse_columns([[2], [0]]), 2) == (1, 1)
        assert span_invariants(*sparse_columns([[6, 4]]), 2) == (1, 1)


def _norm_exponent_by_powers(column, ell):
    """Least k with l^(2k) >= the squared norm, by multiplying up to it."""
    square = sum(x * x for x in column)
    k, power = 0, 1
    while power * power < square:
        power, k = power * ell, k + 1
    return k


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_norm_exponent_matches_multiplying_up(ell):
    rng = random.Random(9000 + ell)
    columns = [[], [0], [0, 0, 0], [1], [0, -1, 0], [1, 1], [ell], [ell, ell]]
    columns += [[ell**j + d] for j in range(1, 200) for d in (-1, 0, 1)]
    columns += [[ell**j, ell**j] for j in range(1, 200)]
    for _ in range(300):
        bound = 10 ** rng.randint(0, 40)
        columns.append([rng.randint(-bound, bound) for _ in range(rng.randint(1, 8))])
    for _ in range(100):
        columns.append([rng.randint(-(2**2000), 2**2000) for _ in range(rng.randint(1, 4))])
    for col in columns:
        assert _norm_exponent(col, ell) == _norm_exponent_by_powers(col, ell), col


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_ceil_log_matches_multiplying_up(ell):
    # least m with l^m >= x is least m with 1 * l^m > x - 1
    points = [-(ell**20), -(10**3), -5, -1, 0, 1] + [ell**m + d for m in range(1, 300) for d in (-1, 0, 1)]
    for x in points:
        assert ceil_log(x, ell) == first_level_over_by_multiplying(ell, 1, x - 1), x


class TestInLocalSpan:
    def test_zero_target_always_in_span(self):
        assert in_local_span([], [0, 0], 2)
        assert in_local_span([[2, 0]], [0, 0], 2)

    def test_no_columns_nonzero_target(self):
        assert not in_local_span([], [1], 2)

    def test_unit_scaling_is_free(self):
        # at l = 2 the column (3) spans everything the column (1) does
        assert in_local_span([[3]], [1], 2)
        assert not in_local_span([[3]], [1], 3)

    def test_strict_divisibility(self):
        assert not in_local_span([[2]], [1], 2)
        assert in_local_span([[1]], [2], 2)

    def test_needs_matching_coordinates(self):
        assert not in_local_span([[1, 0]], [0, 1], 2)
        assert in_local_span([[1, 0], [0, 1]], [1, 1], 2)

    def test_combination(self):
        # (1,0) + (1,2) = (2,2); but (1,3) would need the coefficient 3/2
        assert in_local_span([[1, 0], [1, 2]], [2, 2], 2)
        assert not in_local_span([[1, 0], [1, 2]], [1, 3], 2)
        assert not in_local_span([[2, 0], [0, 2]], [1, 0], 2)


class TestDivisorValuations:
    def test_diagonal_folding(self):
        assert sorted(divisor_valuations(*sparse_columns([[2, 0], [0, 4]]), 2, 3)) == [1, 2]
        # entries above the exponent saturate at it
        assert sorted(divisor_valuations(*sparse_columns([[16, 0], [0, 2]]), 2, 3)) == [1, 3]

    def test_unpivoted_rows_get_full_exponent(self):
        assert sorted(divisor_valuations(*sparse_columns([[2], [0]]), 2, 5)) == [1, 5]

    def test_no_columns(self):
        assert divisor_valuations(*sparse_columns([[], []]), 2, 4) == [4, 4]

    def test_empty_matrix(self):
        assert divisor_valuations(*sparse_columns([]), 2, 4) == []

    def test_unit_column_kills_a_row(self):
        assert sorted(divisor_valuations(*sparse_columns([[1], [0]]), 2, 4)) == [0, 4]


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def _determinantal_divisors(rows):
    """D_1, ..., D_r: the gcd of the i x i minors, up to the rank r."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    for size in range(1, min(m, n) + 1):
        d = 0
        for ri in itertools.combinations(range(m), size):
            for ci in itertools.combinations(range(n), size):
                d = math.gcd(d, _det([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        out.append(d)
    return out


def _fold_reference(rows, ell, exponent):
    """Independent value: elementary divisors D_i / D_(i-1), then fold."""
    dets = _determinantal_divisors(rows)
    steps = [ell_valuation(d, ell) for d in dets]
    vals = [min(b - a, exponent) for a, b in zip([0] + steps, steps)]
    vals += [exponent] * (len(rows) - len(dets))
    return sorted(vals)


def _span_reference(columns, ell):
    """Rank and l-valuation of D_r (the transpose has the same minors)."""
    dets = _determinantal_divisors(columns)
    return len(dets), ell_valuation(dets[-1], ell) if dets else 0


def _matrices(lo, hi, max_outer=4, max_inner=4):
    """Lists of up to max_outer lists, each of up to max_inner entries."""
    return st.integers(1, max_outer).flatmap(
        lambda m: st.integers(1, max_inner).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@st.composite
def _rank_deficient(draw):
    """An m x n product A B through an inner dimension below min(m, n)."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    inner = draw(st.integers(1, min(m, n) - 1))
    entries = st.integers(-1000, 1000)
    a = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=inner, max_size=inner))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


_primes = st.sampled_from([2, 3, 5])


class TestKernelAgreement:
    @given(rows=_matrices(-30, 30), ell=_primes, exponent=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_folded_matches_full_diagonalization(self, rows, ell, exponent):
        # exponents up to 40 run l^exponent from l up to past 2^92
        got = sorted(divisor_valuations(*sparse_columns(rows), ell, exponent))
        assert got == _fold_reference(rows, ell, exponent)

    def test_python_path_handles_huge_exponents(self):
        vals = divisor_valuations(*sparse_columns([[2**40, 0], [0, 6]]), 2, 35)
        assert sorted(vals) == [1, 35]

    def test_reference_on_a_hand_reduced_case(self):
        # [[4,2],[2,4]]: D_1 = 2, D_2 = 12
        assert _determinantal_divisors([[4, 2], [2, 4]]) == [2, 12]
        assert _fold_reference([[4, 2], [2, 4], [0, 0]], 2, 5) == [1, 1, 5]


class TestSpanAgreement:
    @given(
        # matrices by their rows; the second shape has more columns than rows
        rows=_matrices(-10**6, 10**6) | _matrices(-10**6, 10**6, max_outer=2, max_inner=6),
        ell=_primes,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_determinantal_divisors(self, rows, ell):
        assert span_invariants(*sparse_columns(rows), ell) == _span_reference(rows, ell)

    @given(matrix=_rank_deficient(), ell=_primes)
    @settings(max_examples=100, deadline=None)
    def test_rank_deficient(self, matrix, ell):
        got = span_invariants(*sparse_columns(matrix), ell)
        assert got == _span_reference(matrix, ell)
        assert got[0] < min(len(matrix), len(matrix[0]))


@st.composite
def _kernel_cases(draw):
    """(rows, l, N): up to 16 x 24 at any density, with zero rows and columns,
    negative entries, entries at or past l^N, entries +-l^k u and rows that
    depend on others."""
    ell = draw(_primes)
    exponent = draw(st.integers(1, 300))
    m, n = draw(st.integers(0, 16)), draw(st.integers(0, 24))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = ell**exponent

    def entry():
        sign = rng.choice((1, -1))
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(-9, 9)
        if kind == 1:
            return sign * rng.randint(q, 3 * q)
        if kind == 2:
            unit = ell * rng.randint(0, 40) + rng.randint(1, ell - 1)
            return sign * ell ** rng.randint(0, exponent + 1) * unit
        return rng.randint(-q, q)

    rows = [[entry() if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, m // 2) if m > 1 else 0):
        i, a, b = rng.sample(range(m), 2) + [rng.randrange(m)]
        k = rng.randint(0, 3)
        rows[i] = [x + ell**k * y for x, y in zip(rows[a], rows[b])]
    for i in rng.sample(range(m), rng.randint(0, m // 3)):
        rows[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n // 3)):
        for row in rows:
            row[j] = 0
    return rows, ell, exponent


class TestSparseKernel:
    @seed(20261019)
    @given(case=_kernel_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_dense_reference(self, case):
        rows, ell, exponent = case
        columns, dimension = sparse_columns(rows)
        snapshot = copy.deepcopy(columns)
        # the lists themselves, not their multisets
        expected = dense_divisor_valuations(rows, ell, exponent)
        assert divisor_valuations(columns, dimension, ell, exponent) == expected
        assert columns == snapshot

    @seed(20261020)
    @given(case=_kernel_cases(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_key_order_explicit_zeros_and_unreduced_entries(self, case, data):
        # the same matrix as stored columns may come: keys in any order, some
        # zero entries written out, entries moved by multiples of l^N
        rows, ell, exponent = case
        q = ell**exponent
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        columns = []
        for j in range(len(rows[0]) if rows else 0):
            keys = [i for i, row in enumerate(rows) if row[j] or rng.random() < 0.3]
            rng.shuffle(keys)
            columns.append({i: rows[i][j] + q * rng.randint(-3, 3) for i in keys})
        expected = dense_divisor_valuations(rows, ell, exponent)
        assert divisor_valuations(columns, len(rows), ell, exponent) == expected

    @given(rows=_matrices(-(10**6), 10**6, max_outer=6, max_inner=6), ell=_primes)
    @settings(max_examples=100, deadline=None)
    def test_span_invariants_leaves_its_columns_alone(self, rows, ell):
        columns, dimension = sparse_columns(rows)
        snapshot = copy.deepcopy(columns)
        span_invariants(columns, dimension, ell)
        assert columns == snapshot

    def test_no_unit_entry_divides_by_ell(self):
        # every entry even: the first pivot comes after one division by 2
        assert divisor_valuations(*sparse_columns([[2, 4], [6, 8]]), 2, 5) == [1, 2]
        assert divisor_valuations(*sparse_columns([[4, 0], [0, 8], [0, 0]]), 2, 2) == [2, 2, 2]
        assert divisor_valuations(*sparse_columns([[9, 0, 3], [0, 0, 0]]), 3, 4) == [1, 4]
        # divisors 4 and 32: the second folds to 2^4 only if each division
        # by l also lowers the precision
        assert divisor_valuations(*sparse_columns([[4, 8], [-12, 8]]), 2, 4) == [2, 4]

    def test_entries_past_the_precision_fold_to_zero(self):
        assert divisor_valuations(*sparse_columns([[-32, 32], [64, 0]]), 2, 5) == [5, 5]
        assert divisor_valuations(*sparse_columns([[-31, 32]]), 2, 5) == [0]


@st.composite
def _membership_cases(draw):
    """(W, vectors, D, l) in dense form, W a list of columns: up to 5 rows and
    6 columns, columns scaled by powers of l, empty rows; the vectors are
    combinations of W times a unit, such combinations divided by l, plus
    l^t e_j, plus multiples of l^(N+s), and random vectors."""
    ell = draw(_primes)
    rng = random.Random(draw(st.integers(0, 2**32)))
    dimension, width = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    empty = set(rng.sample(range(dimension), rng.randint(0, dimension // 2)))
    W = [
        [
            0 if i in empty or rng.random() < 0.3 else rng.randint(-9, 9) * ell ** rng.choice((0, 0, 1, 2))
            for i in range(dimension)
        ]
        for _ in range(width)
    ]
    exponent = _hadamard_exponent([{i: x for i, x in enumerate(c) if x} for c in W], dimension, ell)
    vectors = []
    for _ in range(rng.randint(1, 6)):
        v = [sum(c[i] * rng.randint(-4, 4) for c in W) for i in range(dimension)]
        kind = rng.randrange(5)
        if kind == 0:
            v = [x * (ell * rng.randint(-3, 3) + rng.randint(1, ell - 1)) for x in v]
        elif kind == 1 and all(x % ell == 0 for x in v):
            v = [x // ell for x in v]
        elif kind == 2:
            v[rng.randrange(dimension)] += rng.choice((1, -1)) * ell ** rng.randint(0, exponent + 2)
        elif kind == 3:
            v = [x + rng.randint(-3, 3) * ell ** (exponent + rng.randint(0, 3)) for x in v]
        elif kind == 4:
            v = [rng.randint(-50, 50) for _ in range(dimension)]
        vectors.append(v)
    return W, vectors, dimension, ell


class TestUnitPivots:
    """The unit phase restricted to some rows, against the dense reference:
    its Schur complement has the same quotient at every precision up to its
    own, and keeps it under a left factor that fixes the pivot rows."""

    @seed(20261023)
    @given(case=_kernel_cases(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_remainder_keeps_the_quotient_below_its_precision(self, case, data):
        rows, ell, exponent = case
        columns, dimension = sparse_columns(rows)
        snapshot = copy.deepcopy(columns)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        chosen = {i for i in range(dimension) if rng.random() < 0.6}
        pivots, remainder = unit_pivots(columns, chosen, ell, exponent)
        assert columns == snapshot
        # no unit is left in a chosen row
        assert all(x % ell == 0 for col in remainder for i, x in col.items() if i in chosen)
        other = [i for i in range(dimension) if i not in chosen]
        mix = {(i, j): rng.randint(-4, 4) for i in other for j in other}
        lower = rng.randint(1, exponent)

        def mixed(matrix):
            # each row outside ``chosen`` replaced by an integer combination of those rows
            width = len(matrix[0]) if matrix else 0
            return [
                [sum(mix[i, j] * matrix[j][c] for j in other) for c in range(width)]
                if i not in chosen else matrix[i]
                for i in range(dimension)
            ]

        dense = [[col.get(i, 0) for col in remainder] for i in range(dimension)]
        for left in (lambda matrix: matrix, mixed):
            whole = dense_divisor_valuations(left(rows), ell, lower)
            rest = divisor_valuations(
                sparse_columns(left(dense))[0], dimension - pivots, ell, lower
            )
            assert sorted(whole) == sorted([0] * pivots + rest)


def _dict(vector):
    return {i: x for i, x in enumerate(vector) if x}


class TestSpanMembers:
    """The carried-vector verdict of one elimination, against the span
    invariants of [W | v] and W compared one vector at a time."""

    @seed(20261021)
    @given(case=_membership_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_one_vector_comparison(self, case):
        W, vectors, dimension, ell = case
        columns, carried = [_dict(c) for c in W], [_dict(v) for v in vectors]
        snapshot = copy.deepcopy((columns, carried))
        got = span_members(columns, carried, dimension, ell)
        # in_local_span compares one-pass kernel runs at the Hadamard exponent
        assert got == [in_local_span(W, v, ell) for v in vectors]
        own = span_invariants(columns, dimension, ell)
        assert got == [span_invariants([*columns, v], dimension, ell) == own for v in carried]
        # and from the determinantal divisors, apart from the kernel
        base = _span_reference(W, ell)
        assert got == [_span_reference([*W, v], ell) == base for v in vectors]
        assert (columns, carried) == snapshot

    def test_no_columns(self):
        # only the zero vector lies in the span of nothing, however large N is
        assert span_members([], [{}, {0: 1}, {1: 2**100}, {0: -3}], 2, 2) == [True, False, False, False]
        assert span_members([], [], 3, 5) == []

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_in_the_q_span_but_not_l_integral(self, ell):
        # e_1 = (1/l)·(l e_1): a pivot at shift 1 where the vector has a unit
        assert span_members([{1: ell}], [{1: 1}, {1: ell}, {1: -(ell**2)}, {0: ell}], 2, ell) == [
            False,
            True,
            True,
            False,
        ]

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_outside_the_q_span_at_the_hadamard_exponent(self, ell):
        # l^M e_j with row j empty in W is never in the span; at M >= W's
        # own Hadamard exponent it is 0 mod l^N unless N counts the vector
        rng = random.Random(4000 + ell)
        for _ in range(20):
            W = [{i: rng.randint(-40, 40) or 1 for i in range(3)} for _ in range(rng.randint(1, 4))]
            own = _hadamard_exponent(W, 4, ell)
            vectors = [{3: ell**m} for m in range(max(own - 2, 0), own + 3)]
            vectors += [{0: 1, 3: -(ell**own)}, {3: ell**own * (ell + 1)}]
            assert span_members(W, vectors, 4, ell) == [False] * len(vectors)

    def test_entries_past_the_precision_and_negative(self):
        # W = [-70 e_0] spans 2 Z_(2) e_0; N counts each vector's norm, so an
        # entry of 2^200 is not folded away and negative entries reduce freely
        carried = [{0: 2 + 8 * 5}, {0: -6}, {0: -8 * 7 - 4}, {0: -(2**200)}]
        carried += [{0: -1}, {1: 8 - 1}, {0: 2**200 + 1}, {0: -8 * 3, 1: 2**200}]
        got = span_elimination([{0: 2 - 8 * 9}], 2, 2, carried, ())
        assert got == ([1], [True] * 4 + [False] * 4, 0)


class TestRowsFirst:
    """``span_elimination``'s first pass on chosen rows: it changes neither
    the valuations nor the memberships, and it counts the rank over Q of
    those rows' submatrix, against its determinantal divisors."""

    @seed(20261024)
    @given(case=_membership_cases(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rank_of_the_rows_and_nothing_else_changes(self, case, data):
        W, vectors, dimension, ell = case
        columns, carried = [_dict(c) for c in W], [_dict(v) for v in vectors]
        snapshot = copy.deepcopy((columns, carried))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = sorted(i for i in range(dimension) if rng.random() < 0.6)
        vals, members, rank = span_elimination(columns, dimension, ell, carried, rows)
        assert (vals, members, 0) == span_elimination(columns, dimension, ell, carried, ())
        assert vals == sorted(vals)
        assert rank == len(_determinantal_divisors([[c[i] for i in rows] for c in W]))
        assert (columns, carried) == snapshot

    @pytest.mark.parametrize(
        "rows,chosen,rank",
        [
            # no unit in the chosen row: its remainder is ranked by one kernel run
            ([[2, 4], [1, 0]], [0], 1),
            # one unit pivot, then a remainder [[2, 2], [2, 2]] of rank 1
            ([[1, 0, 0], [0, 2, 2], [0, 2, 2]], [0, 1, 2], 2),
            # the pivot on row 0 leaves (5 - 1) = 4 in row 1, no unit
            ([[1, 1], [1, 5]], [0, 1], 2),
            ([[2, 2], [2, 2]], [0, 1], 1),
            ([[0, 0], [3, 0]], [0], 0),
        ],
    )
    def test_hand_cases(self, rows, chosen, rank):
        columns, dimension = sparse_columns(rows)
        assert span_elimination(columns, dimension, 2, (), chosen)[2] == rank


def test_import_leaves_numpy_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    probe = "import sys, towergrowth; print([m in sys.modules for m in ('numpy', 'fractions')])"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, False]"
