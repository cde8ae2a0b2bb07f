"""Built-in scenarios and the two-sided consistency identities."""

import dataclasses
import io

import pytest

from towergrowth import (
    ElementaryModule,
    GenericDescent,
    Grade,
    ParamTriple,
    Scenario,
    SpecialDescent,
    builtin_scenario,
    default_level_range,
    full_span_scenario,
    lambda_floor_holds,
    mirror_check,
    mirror_context_for_full_span,
    order_sequence,
    replicated_full_span_scenario,
)
from towergrowth import cli, scenarios
from towergrowth.cli import run_command
from towergrowth.scenarios import MirrorSide


class TestFullSpanScenarios:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_generator_count_and_expectation(self, level):
        s = full_span_scenario(level)
        assert len(s.descent.generators) == 2**level
        assert (s.expected.rho, s.expected.mu, s.expected.lam_tilde) == (
            1,
            0,
            -(2**level),
        )
        assert s.expected.grade is Grade.BOUNDED
        assert s.n_min == level + 1

    @pytest.mark.parametrize(
        "ell,level,rank", [(3, 0, 1), (3, 1, 1), (5, 0, 2), (7, 1, 3)]
    )
    def test_replicated_shape(self, ell, level, rank):
        s = replicated_full_span_scenario(ell, level)
        assert s.module.free_rank == rank
        assert len(s.descent.generators) == rank * ell**level
        assert (s.expected.rho, s.expected.mu, s.expected.lam_tilde) == (
            rank,
            0,
            -rank * ell**level,
        )

    def test_replicated_requires_odd_prime(self):
        with pytest.raises(ValueError):
            replicated_full_span_scenario(2, 0)

    def test_arguments_are_checked_in_order(self):
        with pytest.raises(ValueError, match="descent level must be nonnegative"):
            full_span_scenario(-1)
        with pytest.raises(ValueError, match="descent level must be nonnegative"):
            replicated_full_span_scenario(3, -1)
        # the prime is checked before the level
        with pytest.raises(ValueError, match="needs an odd prime"):
            replicated_full_span_scenario(2, -1)
        with pytest.raises(ValueError, match="4 is not prime"):
            replicated_full_span_scenario(4, -1)

    def test_descent_is_built_on_first_read(self, monkeypatch):
        calls = []
        build = scenarios._full_span_generators
        monkeypatch.setattr(
            scenarios, "_full_span_generators", lambda *args: calls.append(args) or build(*args)
        )
        s = full_span_scenario(3)
        assert calls == []
        gens = s.descent.generators
        assert len(gens) == 8 and s.descent.generators is gens
        assert len(calls) == 1
        # compared, hashed and replaced by the datum it builds
        assert s == dataclasses.replace(full_span_scenario(3))
        assert hash(s) == hash(full_span_scenario(3))
        assert s != dataclasses.replace(full_span_scenario(2), name=s.name)

    def test_descent_given_as_a_datum(self):
        def make(descent):
            module = ElementaryModule(prime=2, free_rank=1)
            expected = ParamTriple(1, 0, 0, Grade.STRICT)
            return Scenario("s", "d", module, descent=descent, expected=expected, n_min=1, n_max=4)

        special = make(SpecialDescent())
        assert special.descent == SpecialDescent()
        assert special == make(lambda: SpecialDescent())
        assert special != make(GenericDescent(level=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            special.descent = GenericDescent(level=0)

    def test_level_zero_sequence_matches_closed_form(self):
        s = full_span_scenario(0)
        seq = order_sequence(s.module, s.descent, s.n_min, 4)
        # n*2^n - n with the single generator 1 spanning everything
        assert seq.values == tuple(n * 2**n - n for n in range(1, 5))


class TestBuiltinRegistry:
    def test_lookup_with_arguments(self):
        s = builtin_scenario("prop14:e=2")
        assert s.name == "prop14:e=2"
        assert s.expected.lam_tilde == -4

    def test_lookup_two_arguments(self):
        s = builtin_scenario("prop15:l=3,e=1")
        assert len(s.descent.generators) == 3
        assert s.expected.lam_tilde == -3

    def test_demo_scenarios(self):
        sp = builtin_scenario("special-demo")
        tr = builtin_scenario("trivial-demo")
        assert (sp.expected.rho, sp.expected.mu, sp.expected.lam_tilde) == (1, 1, 2)
        assert (tr.expected.rho, tr.expected.mu, tr.expected.lam_tilde) == (1, 1, 1)
        assert sp.expected.grade is Grade.STRICT

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="prop14"):
            builtin_scenario("nonsense")

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("prop14:e", "malformed scenario argument 'e'"),
            ("prop14:e=x", "scenario argument 'e' needs an integer, got 'x'"),
            ("prop14:e=1,z=2", "scenario 'prop14' does not accept: z"),
            ("special-demo:e=1", "scenario 'special-demo' does not accept: e"),
            ("prop14:e=1,e=2", "duplicate scenario argument 'e'"),
            ("prop15:l=3, e=1,e =0", "duplicate scenario argument 'e'"),
        ],
    )
    def test_malformed_arguments(self, spec, message):
        with pytest.raises(ValueError) as exc:
            builtin_scenario(spec)
        assert str(exc.value) == message


class TestDefaultLevelRange:
    @pytest.mark.parametrize(
        "ell,level,expect",
        [(2, 0, (1, 6)), (3, 1, (2, 5)), (5, 0, (1, 4)), (7, 2, (3, 6))],
    )
    def test_windows(self, ell, level, expect):
        assert default_level_range(ell, level) == expect


class TestScenarioConsistency:
    def test_expected_must_match_prediction(self, monkeypatch):
        # the scenario command checks the expectation after the sequence
        good = full_span_scenario(0)
        bad_expected = ParamTriple(rho=1, mu=0, lam_tilde=0, grade=Grade.BOUNDED)
        bad = dataclasses.replace(good, expected=bad_expected)
        monkeypatch.setattr(cli, "builtin_scenario", lambda name: bad)
        out, err = io.StringIO(), io.StringIO()
        assert run_command(["scenario", good.name], out, err) == 2
        assert "disagrees with the predicted parameters" in err.getvalue()
        assert out.getvalue() == ""


def _perturb(side: MirrorSide, **changes) -> MirrorSide:
    if "params" in changes or not changes.keys() <= {"finite_defect", "stable_rank", "rho", "mu", "lam_tilde"}:
        raise AssertionError("unexpected perturbation key")
    param_changes = {k: changes.pop(k) for k in ("rho", "mu", "lam_tilde") if k in changes}
    params = dataclasses.replace(side.params, **param_changes) if param_changes else side.params
    return dataclasses.replace(side, params=params, **changes)


class TestMirrorIdentities:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_full_span_context_passes(self, level):
        left, right = mirror_context_for_full_span(level)
        report = mirror_check(left, right)
        assert report.passed
        assert report.verdict == "PASS"
        assert [c.name for c in report.checks] == ["rank", "mu", "lambda"]
        assert not report.warnings

    @pytest.mark.parametrize(
        "side,changes,broken",
        [
            ("left", {"rho": 2}, "rank"),
            ("right", {"mu": 1}, "mu"),
            ("left", {"lam_tilde": 0}, "lambda"),
            ("right", {"finite_defect": 3}, "rank"),
            ("left", {"stable_rank": 5}, "lambda"),
        ],
    )
    def test_single_field_perturbations_fail(self, side, changes, broken):
        left, right = mirror_context_for_full_span(2)
        if side == "left":
            left = _perturb(left, **changes)
        else:
            right = _perturb(right, **changes)
        report = mirror_check(left, right)
        assert not report.passed
        assert report.verdict == "FAIL"
        failed = {c.name for c in report.checks if not c.ok}
        assert broken in failed

    def test_defect_parity_warning(self):
        left, right = mirror_context_for_full_span(1)
        bumped = _perturb(right, finite_defect=right.finite_defect + 1)
        report = mirror_check(left, bumped)
        assert report.warnings
        assert any("parity" in w for w in report.warnings)

    def test_lambda_floor(self):
        assert lambda_floor_holds(0, 1)
        assert not lambda_floor_holds(0, 2)
        assert lambda_floor_holds(3, 4)
