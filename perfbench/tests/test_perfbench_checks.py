"""Tests of the benchmark's own reference values and checks.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q

The closed forms in ``oracle`` are compared with towergrowth's brute-force
``enumeration_oracle`` at the levels whose ambient module fits a small element
cap, and every check is shown to report a deliberately wrong value as a
failed operation.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import child  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from towergrowth import (  # noqa: E402
    codescent_defect,
    enumeration_oracle,
    order_valuation,
    parse_run,
    validate_descent,
)
from workloads import CliResult, Op  # noqa: E402

ELEMENT_CAP = 2**24
SUBGROUP_CAP = 2**16
MIXED = (ROOT / "tests" / "golden" / "mixed.run").read_text(encoding="utf-8")


def _agree_with_enumeration(text, closed_form, levels):
    """Compare at every (n, k) whose ambient module fits ELEMENT_CAP and whose
    relation subgroup, of order l^(dim * (n + k) - x), fits SUBGROUP_CAP."""
    spec = parse_run(text)
    ell = spec.module.prime.value
    checked = 0
    for n, k in levels:
        ambient_log = spec.module.coordinate_count * ell**n * (n + k)
        x = closed_form(n, k)
        if ell**ambient_log > ELEMENT_CAP or ell ** (ambient_log - x) > SUBGROUP_CAP:
            continue
        got = enumeration_oracle(spec.module, spec.descent, n, k, element_cap=ELEMENT_CAP)
        assert got == x, (n, k)
        checked += 1
    return checked


# the closed forms hold from level 1 on
SMALL = [(n, k) for n in range(1, 4) for k in range(0, 4)]


class TestClosedFormsAgainstEnumeration:
    def test_mixed(self):
        assert _agree_with_enumeration(MIXED, oracle.x_mixed, SMALL) >= 2

    @pytest.mark.parametrize("ell", [2, 3])
    def test_special(self, ell):
        checked = _agree_with_enumeration(
            oracle.special_module_text(ell), lambda n, k: oracle.x_special(ell, n, k), SMALL
        )
        assert checked >= 1

    @pytest.mark.parametrize(
        "ell, rank, e", [(2, 1, 0), (2, 1, 1), (2, 1, 2), (3, 1, 0), (5, 2, 0)]
    )
    def test_full_span(self, ell, rank, e):
        levels = [(n, k) for n, k in SMALL if n > e]
        checked = _agree_with_enumeration(
            oracle.full_span_text(ell, rank, e),
            lambda n, k: oracle.x_full_span(ell, rank, e, n, k),
            levels,
        )
        assert checked >= 1

    def test_full_span_text_is_the_builtin_family(self):
        from towergrowth import builtin_scenario

        for name, ell, rank, e, _ in workloads.FULL_SPAN_FAMILIES:
            scenario = builtin_scenario(name)
            spec = parse_run(oracle.full_span_text(ell, rank, e))
            assert spec.module == scenario.module
            assert spec.descent == scenario.descent
            triple = scenario.expected
            assert (triple.rho, triple.mu, triple.lam_tilde) == oracle.full_span_triple(
                ell, rank, e
            )

    def test_derived_triples_match_the_closed_forms(self):
        for n in range(2, 9):
            rho, mu, lam = oracle.TRIPLE_MIXED
            assert oracle.x_mixed(n, 0) == rho * n * 2**n + mu * 2**n + lam * n
        for ell in (2, 3):
            for n in range(1, 9):
                rho, mu, lam = oracle.TRIPLE_SPECIAL
                assert oracle.x_special(ell, n, 0) == rho * n * ell**n + mu * ell**n + lam * n


class TestConstructedDescentData:
    @pytest.mark.parametrize(
        "slot", workloads.VERIFY_SLOTS + workloads.INVARIANT_SLOTS[:2] + workloads.INVARIANT_SLOTS[3:4]
    )
    def test_validity_and_kappa_by_construction(self, slot):
        ell, e, free_rank, spans, pad = slot
        rng = random.Random(5)
        for _ in range(3):
            case = oracle.descent_case(rng, ell, e, free_rank, spans, pad=pad)
            spec = parse_run(case.text)
            assert validate_descent(spec.module, spec.descent).valid
            assert codescent_defect(spec.module, spec.descent) == case.kappa
            assert case.generator_count == sum(spans)

    def test_truncated_span_is_invalid(self):
        rng = random.Random(9)
        ell, e, free_rank, spans, pad = workloads.INVALID_SLOT
        for _ in range(5):
            case = oracle.descent_case(rng, ell, e, free_rank, spans, truncate=True, pad=pad)
            spec = parse_run(case.text)
            assert not case.valid
            assert not validate_descent(spec.module, spec.descent).valid

    def test_small_levels_agree_with_enumeration(self):
        rng = random.Random(3)
        case = oracle.descent_case(rng, 2, 0, 1, (1, 1, 0))
        spec = parse_run(case.text)
        for n, k in [(1, 0), (1, 1)]:
            assert order_valuation(spec.module, spec.descent, n, k) == enumeration_oracle(
                spec.module, spec.descent, n, k, element_cap=ELEMENT_CAP
            )

    def test_planted_sequence(self):
        seq = oracle.planted(3, 2, 5, -4, "n mod 2", 1, 4)
        assert seq.values == tuple(2 * n * 3**n + 5 * 3**n - 4 * n + n % 2 for n in range(1, 5))
        assert seq.triple == (2, 5, -4)


def _doc(command, **payload):
    return CliResult(0, json.dumps({"schema": "towergrowth/1", "command": command, **payload}), "")


def _triple(rho, mu, lam, grade="bounded"):
    return {"rho": rho, "mu": mu, "lam_tilde": lam, "grade": grade, "nu": None}


class TestWrongValuesFail:
    def test_orders(self):
        x = oracle.x_mixed(3, 1)
        right = _doc("orders", prime=2, k=1, level=0, n_min=3, entries=[[3, x]])
        wrong = _doc("orders", prime=2, k=1, level=0, n_min=3, entries=[[3, x + 1]])
        assert workloads.check_orders(right, {3: x}, 1) is None
        assert workloads.check_orders(wrong, {3: x}, 1) is not None
        assert workloads.check_orders(CliResult(3, "", "error: cap"), {3: x}, 1) is not None

    def test_verify(self):
        good = _doc("verify", predicted=_triple(1, 2, 0), fitted=_triple(1, 2, 0, "strict"),
                    classification={}, detail="", passed=True)
        off = _doc("verify", predicted=_triple(1, 2, 0), fitted=_triple(1, 3, 0),
                   classification={}, detail="", passed=False)
        assert workloads.check_verify(good, (1, 2, 0)) is None
        assert workloads.check_verify(off, (1, 2, 0)) is not None
        assert workloads.check_verify(good, (1, 2, 1)) is not None

    def test_scenario(self):
        entries = [[n, oracle.x_special(2, n, 0)] for n in (1, 2)]
        doc = {"sequence": {"entries": entries}, "expected": _triple(1, 1, 2),
               "fitted": _triple(1, 1, 2), "passed": True}
        expected = {n: x for n, x in entries}
        assert workloads.check_scenario(_doc("scenario", **doc), expected, (1, 1, 2)) is None
        doc["sequence"] = {"entries": [[1, entries[0][1] + 1], entries[1]]}
        assert workloads.check_scenario(_doc("scenario", **doc), expected, (1, 1, 2)) is not None

    def test_invariants(self):
        case = oracle.descent_case(random.Random(1), 2, 1, 2, (2, 1, 1, 0))
        payload = dict(case="generic", free_rank=case.free_rank, mu=case.mu, lam=case.lam,
                       defect=case.kappa, defect_bound=4,
                       predicted=_triple(*case.predicted))
        assert workloads.check_invariants(_doc("invariants", **payload), case) is None
        payload["defect"] = case.kappa + 1
        assert workloads.check_invariants(_doc("invariants", **payload), case) is not None

    def test_invalid_datum_must_be_rejected(self):
        case = oracle.descent_case(
            random.Random(2), *workloads.INVALID_SLOT[:4], truncate=True
        )
        rejected = CliResult(2, "", "error: invalid descent datum: T * generator 0 ...")
        accepted = _doc("invariants", case="generic")
        assert workloads.check_invariants(rejected, case) is None
        assert workloads.check_invariants(accepted, case) is not None

    def test_fit(self):
        triple = (3, 4, -5)
        assert workloads.check_fit(("fit", triple), triple) is None
        assert workloads.check_fit(("fit", (3, 4, -4)), triple) is not None
        assert workloads.check_fit(("ambiguous", [(3, 4, -5), (3, 4, -6)]), triple) is None
        assert workloads.check_fit(("ambiguous", [(3, 4, -6)]), triple) is not None


class TestCounting:
    def _op(self, expected, known_fault=None):
        return Op("orders", lambda: {1: 4}, lambda got: None if got == expected else "wrong",
                  known_fault)

    def test_wrong_value_is_a_failed_operation(self):
        records = child.run_ops([self._op({1: 4}), self._op({1: 5})])
        assert [r[2] is None for r in records] == [True, False]
        assert run.tally(records) == (False, 1)

    def test_known_fault_fails_but_keeps_the_run_correct(self):
        records = child.run_ops([self._op({1: 4}), self._op({1: 5}, "known")])
        assert run.tally(records) == (True, 1)

    def test_exception_is_a_failed_operation(self):
        def boom():
            raise ValueError("broken")

        records = child.run_ops([Op("boom", boom, lambda r: None)])
        assert records[0][2] == "raised ValueError: broken"
        assert run.tally(records) == (False, 1)
