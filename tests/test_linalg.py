"""The elimination kernel modulo l^N and the span invariants built on it.

Both are cross-checked against determinantal divisors computed here from
their definition: D_i is the gcd of the i x i minors, the rank r is the
largest i with D_i != 0, and the elementary divisors are d_i = D_i / D_(i-1).
The cyclic divisors of Z^m / (columns + q Z^m) with q = l^exponent are then
gcd(d_i, q) for i <= r, plus one full q for every row beyond the rank.
Fixed cases were reduced by hand first.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth.linalg import divisor_valuations, ell_valuation, span_invariants

from conftest import in_local_span


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
    def test_already_diagonal(self):
        # divisors 2 and 3
        assert span_invariants([[2, 0], [0, 3]], 2) == (2, 1)
        assert span_invariants([[2, 0], [0, 3]], 3) == (2, 1)

    def test_upper_triangular(self):
        # det 4, entry gcd 1, so the divisors are 1 and 4
        assert span_invariants([[2, 0], [1, 2]], 2) == (2, 2)

    def test_symmetric(self):
        # [[4,2],[2,4]]: gcd 2, det 12, divisors 2 and 6
        assert span_invariants([[4, 2], [2, 4]], 2) == (2, 2)
        assert span_invariants([[4, 2], [2, 4]], 3) == (2, 1)

    def test_zero_matrix(self):
        assert span_invariants([[0, 0], [0, 0]], 2) == (0, 0)
        assert span_invariants([], 2) == (0, 0)

    def test_hadamard_bound_is_reached(self):
        # |det| = 16 is the product of the four column norms 2; the
        # divisors 1, 2, 2, 4 need the precision from every column
        h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert span_invariants(h, 2) == (4, 4)
        assert span_invariants(h, 3) == (4, 0)

    def test_rectangular(self):
        # one column (2, 0); one row (6 4), that is the columns (6) and (4)
        assert span_invariants([[2, 0]], 2) == (1, 1)
        assert span_invariants([[6], [4]], 2) == (1, 1)


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
        assert sorted(divisor_valuations([[2, 0], [0, 4]], 2, 3)) == [1, 2]
        # entries above the exponent saturate at it
        assert sorted(divisor_valuations([[16, 0], [0, 2]], 2, 3)) == [1, 3]

    def test_unpivoted_rows_get_full_exponent(self):
        assert sorted(divisor_valuations([[2], [0]], 2, 5)) == [1, 5]

    def test_no_columns(self):
        assert divisor_valuations([[], []], 2, 4) == [4, 4]

    def test_empty_matrix(self):
        assert divisor_valuations([], 2, 4) == []

    def test_unit_column_kills_a_row(self):
        assert sorted(divisor_valuations([[1], [0]], 2, 4)) == [0, 4]


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
        got = sorted(divisor_valuations([list(r) for r in rows], ell, exponent))
        assert got == _fold_reference(rows, ell, exponent)

    def test_python_path_handles_huge_exponents(self):
        vals = divisor_valuations([[2**40, 0], [0, 6]], 2, 35)
        assert sorted(vals) == [1, 35]

    def test_reference_on_a_hand_reduced_case(self):
        # [[4,2],[2,4]]: D_1 = 2, D_2 = 12
        assert _determinantal_divisors([[4, 2], [2, 4]]) == [2, 12]
        assert _fold_reference([[4, 2], [2, 4], [0, 0]], 2, 5) == [1, 1, 5]


class TestSpanAgreement:
    @given(
        # the second shape has more columns than rows
        columns=_matrices(-10**6, 10**6) | _matrices(-10**6, 10**6, max_outer=6, max_inner=2),
        ell=_primes,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_determinantal_divisors(self, columns, ell):
        assert span_invariants(columns, ell) == _span_reference(columns, ell)

    @given(matrix=_rank_deficient(), ell=_primes)
    @settings(max_examples=100, deadline=None)
    def test_rank_deficient(self, matrix, ell):
        got = span_invariants(matrix, ell)
        assert got == _span_reference(matrix, ell)
        assert got[0] < min(len(matrix), len(matrix[0]))


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
