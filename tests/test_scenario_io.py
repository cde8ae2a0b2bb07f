"""Run-file parsing and serialization."""

import ast
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth import (
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    IntPoly,
    LPower,
    ModuleElement,
    ScenarioParseError,
    SpecialDescent,
    parse_run,
    serialize_run,
)
from towergrowth import scenario_io
from towergrowth.scenario_io import RunSpec, _literal

from conftest import build_generic_case

CANONICAL = """\
# mixed module, one generator
[prime]
l = 2

[module]
free_rank = 1
lpower = 2
poly = [2, 1]

[descent]
kind = generic
e = 0
generator = [[1], [0, 1], [3]]

[run]
n_min = 1
n_max = 5
k = 0
"""


class TestParse:
    def test_canonical_file(self):
        spec = parse_run(CANONICAL)
        assert spec.module.prime.value == 2
        assert spec.module.free_rank == 1
        assert spec.module.torsion_factors == (
            LPower(2),
            DistinguishedFactor(IntPoly((2, 1))),
        )
        assert spec.descent == GenericDescent(
            0,
            (
                ModuleElement(
                    free_coords=(IntPoly((1,)),),
                    torsion_coords=(IntPoly((0, 1)), IntPoly((3,))),
                ),
            ),
        )
        assert (spec.n_min, spec.n_max, spec.shift) == (1, 5, 0)

    def test_comments_and_blank_lines_ignored(self):
        text = "# top\n\n[prime]\nl = 3\n# inner\n\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
        spec = parse_run(text)
        assert spec.module.prime.value == 3
        assert spec.descent == SpecialDescent()

    def test_run_section_defaults_from_level(self):
        text = "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = generic\ne = 1\ngenerator = [[1]]\ngenerator = [[0, 1]]\n"
        spec = parse_run(text)
        # default window starts above the descent level
        assert (spec.n_min, spec.n_max, spec.shift) == (2, 6, 0)

    def test_special_defaults(self):
        text = "[prime]\nl = 5\n[module]\nfree_rank = 2\n[descent]\nkind = special\n"
        spec = parse_run(text)
        assert (spec.n_min, spec.n_max) == (1, 4)

    def test_factor_order_preserved(self):
        text = (
            "[prime]\nl = 2\n[module]\nfree_rank = 0\npoly = [0, 1]\nlpower = 1\n"
            "poly = [2, 2, 1]\n[descent]\nkind = special\n"
        )
        spec = parse_run(text)
        kinds = tuple(type(f).__name__ for f in spec.module.torsion_factors)
        assert kinds == ("DistinguishedFactor", "LPower", "DistinguishedFactor")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("junk\n[prime]\nl = 2\n", 1, "section"),
            ("[prime]\nl = 2\nl = 3\n", 3, "duplicate"),
            ("[prime]\nl = 4\n", 2, "prime"),
            ("[prime]\nl = 2\n[module]\nfree_rank = x\n", 4, "integer"),
            ("[prime]\nl = 2\n[module]\nlevel = 1\n", 4, "unknown key"),
            ("[prime]\nl = 2\n[woods]\n", 3, "unknown section"),
            ("[prime]\nl = 2\n[module]\nfree_rank = 1\npoly = [1, 1]\n", 5, "monic"),
            ("[prime]\nl = 2\n[module]\nfree_rank = 1\nlpower = 0\n", 5, "positive"),
            (
                "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = generic\ne = 0\ngenerator = [[1], [2]]\n",
                8,
                "coordinate",
            ),
            (
                "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = special\ne = 1\n",
                7,
                "special",
            ),
            (
                "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = sideways\n",
                6,
                "kind",
            ),
            ("[prime\nl = 2\n", 1, "unterminated section header"),
            ("[prime]\nl = 2\n[module]\nfree_rank = -1\n", 4, "nonnegative"),
            ("[prime]\nl = 2\n[module]\npoly = []\n", 4, "degree at least one"),
            (
                "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
                "generator = [[1]]\n",
                7,
                "special descent takes no generators",
            ),
        ],
    )
    def test_line_numbered_errors(self, text, line, fragment):
        with pytest.raises(ScenarioParseError) as exc:
            parse_run(text)
        assert exc.value.line == line
        assert fragment in str(exc.value)

    def test_missing_sections(self):
        with pytest.raises(ScenarioParseError, match="prime"):
            parse_run("[module]\nfree_rank = 1\n[descent]\nkind = special\n")
        with pytest.raises(ScenarioParseError, match="descent"):
            parse_run("[prime]\nl = 2\n[module]\nfree_rank = 1\n")

    def test_generic_requires_level(self):
        text = "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = generic\n"
        with pytest.raises(ScenarioParseError):
            parse_run(text)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_run("l = 2\n[prime]\nl = 2\n")
        assert exc.value.line == 1

    def test_bad_window(self):
        text = (
            "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
            "[run]\nn_min = 3\nn_max = 2\n"
        )
        with pytest.raises(ScenarioParseError):
            parse_run(text)

    def test_error_formatting(self):
        err = ScenarioParseError(7, "bad thing")
        assert str(err) == "line 7: bad thing"
        assert str(ScenarioParseError(None, "no descent")) == "input: no descent"


class TestRoundTrip:
    def test_canonical_roundtrip(self):
        spec = parse_run(CANONICAL)
        assert parse_run(serialize_run(spec)) == spec

    def test_zero_polynomial_coordinate(self):
        mod = ElementaryModule(prime=2, free_rank=2)
        gen = ModuleElement(free_coords=(IntPoly(()), IntPoly((1,))), torsion_coords=())
        spec = RunSpec(
            module=mod, descent=GenericDescent(0, (gen,)), n_min=1, n_max=4, shift=0
        )
        text = serialize_run(spec)
        assert "[[0], [1]]" in text
        assert parse_run(text) == spec

    @given(seed=st.integers(0, 10_000), shift=st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_constructed_cases_roundtrip(self, seed, shift):
        case = build_generic_case(random.Random(seed))
        lo = case.descent.level + 1
        spec = RunSpec(
            module=case.module,
            descent=case.descent,
            n_min=lo,
            n_max=lo + 3,
            shift=shift,
        )
        assert parse_run(serialize_run(spec)) == spec



# values that reach past the plain parse: unhashable literals, nesting past
# the parser's limits, integers past the string-conversion limit
_NASTY = (
    "{[]: 1}",
    "{1, []}",
    "[" * 300,
    "-" * 100_000 + "1",
    "[[1], {2}]",
    "9" * 5000,
    "[1, 2.5]",
    "[[]]",
    "generic",
    "special",
    "-1",
)
_VALUES = st.one_of(st.sampled_from(_NASTY), st.text(max_size=20), st.integers().map(str))


@st.composite
def _mangled_canonical(draw):
    """The canonical file with some values replaced and maybe one stray line."""
    lines = []
    for line in CANONICAL.splitlines():
        key, sep, _ = line.partition("=")
        lines.append(f"{key}= {draw(_VALUES)}" if sep and draw(st.booleans()) else line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=30)))
    return "\n".join(lines)


class TestParseFuzz:
    @given(st.one_of(st.text(), _mangled_canonical()))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        try:
            parse_run(text)
        except ScenarioParseError:
            pass

    @pytest.mark.parametrize("value", ["{[]: 1}", "{1, []}", "-" * 100_000 + "1", "[" * 300])
    def test_hostile_literals_are_parse_errors(self, value):
        with pytest.raises(ScenarioParseError, match="line 4"):
            parse_run(f"[prime]\nl = 2\n[module]\npoly = {value}\n")


def _literal_reference(value, line, message):
    """The run-file literal parser without its json fast path."""
    try:
        return ast.literal_eval(value)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        raise ScenarioParseError(line, message) from None


def _outcome(parse, value):
    try:
        # repr tells True from 1 and 1.0 from 1
        return "value", repr(parse(value, 7, "needs a list"))
    except ScenarioParseError as exc:
        return "error", str(exc)


_PIECES = st.sampled_from(
    list("[](),+-_ 0123456789xobeE.\t\f\n\r")
    + ["true", "True", "null", "None", "NaN", "Infinity", "-Infinity", "01", "[1,]"]
    + ["1e3", "0x1f", "0b11", "0o7", "1_000", "\u0661", "[\u0661]", "\u0663\u0662"]
    + ["9" * 4301, "[" + "7" * 4400 + "]", "[" * 150 + "]" * 150, "[" * 3000 + "]" * 3000]
)
# JSON texts, mostly lists of ints, with the values json reads differently
_JSON_LISTS = st.recursive(
    st.integers(-(10**40), 10**40) | st.booleans() | st.none() | st.floats(),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=20,
).map(json.dumps)


class TestLiteralFastPath:
    @given(st.one_of(st.lists(_PIECES | _JSON_LISTS, max_size=12).map("".join), _JSON_LISTS))
    @settings(max_examples=300, deadline=None)
    def test_matches_literal_eval(self, value):
        assert _outcome(_literal, value) == _outcome(_literal_reference, value)

    @pytest.mark.parametrize(
        "value",
        ["[true]", "[[1], [false]]", "[1, NaN]", "[1e3]", "[[1], [2.0]]", "[null]", "[1,]"]
        + ["[01]", "\n [1]", "[1]\n "],
    )
    def test_json_only_forms_take_the_literal_eval_path(self, value):
        assert _outcome(_literal, value) == _outcome(_literal_reference, value)


def _parse_reference(text):
    """parse_run with every generator line decoded on its own through
    ``_literal_reference``, as the batch decode must read it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_io, "_GENERATOR", re.compile(r"(?!)"))
        mp.setattr(scenario_io, "_literal", _literal_reference)
        return scenario_io.parse_run(text)


def _run_outcome(parse, text):
    try:
        spec = parse(text)
    except ScenarioParseError as exc:
        return "error", str(exc), exc.line
    return "value", spec, repr(spec)


# generator values that json.loads, literal_eval or both read differently
_GENERATOR_LINES = [
    "[[01]]", "[[1,]]", "[[- 1]]", "((1,),)", "[[True]]", "[[1,\t2], [3]]", "[[1], [\t]]",
    "[[" + "7" * 700 + "], [1]]", "[[" + "7" * 600 + "], [-" + "7" * 600 + "]]",
    "[[1]],[[2]", "[3]]", "[[-0], []]", "[]", "[[]]", "[[1], [2], [3]]", "[1, [2]]",
    "[[1.0], [2]]", "[[true], [1]]", "[[1], [2]] x", "[ [ 1 , 2 ] , [ 3 ] ]",
]
_GENERATOR_VALUES = st.one_of(
    st.sampled_from(_GENERATOR_LINES),
    st.lists(st.lists(st.integers(-(10**40), 10**40), max_size=3), max_size=3).map(json.dumps),
)


def _generator_file(values, tail=""):
    lines = [f"generator = {v}" for v in values]
    return "\n".join(
        ["[prime]", "l = 2", "[module]", "free_rank = 1", "lpower = 1", "[descent]",
         "kind = generic", "e = 0", *lines, tail]
    )


class TestGeneratorBatchDecode:
    @given(st.lists(_GENERATOR_VALUES, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_line_by_line_decode(self, values):
        text = _generator_file(values)
        assert _run_outcome(parse_run, text) == _run_outcome(_parse_reference, text)

    @pytest.mark.parametrize("values", [[], ["[[1]],[[2]", "[3]]"], ["[[1], [2]]", "[[01]]"]])
    def test_an_earlier_bad_generator_wins_over_a_later_unknown_key(self, values):
        text = _generator_file(values, tail="colour = blue")
        outcome = _run_outcome(parse_run, text)
        assert outcome == _run_outcome(_parse_reference, text)
        assert outcome[0] == "error"
        assert ("unknown key" in outcome[1]) == (values == [])

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("digits", [600, 639, 640, 700])
    def test_matches_at_the_least_digit_limit(self, digits):
        text = _generator_file(["[[" + "7" * digits + "], [1]]"])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outcome = _run_outcome(parse_run, text)
            assert outcome == _run_outcome(_parse_reference, text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (outcome[0] == "error") == (digits > 640)

    def test_lines_that_balance_only_together_stay_apart(self):
        with pytest.raises(ScenarioParseError, match="line 10: generator needs a list"):
            parse_run(_generator_file(["[[1], [2]]", "[[1]],[[2]", "[3]]"]))
