"""Run-file parsing and serialization."""

import ast
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter

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
from towergrowth.cli import run_command
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


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


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

    def test_bad_window(self, tmp_path):
        # the reader keeps an empty window; the window commands refuse it
        text = (
            "[prime]\nl = 2\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
            "[run]\nn_min = 3\nn_max = 2\n"
        )
        spec = parse_run(text)
        assert (spec.n_min, spec.n_max) == (3, 2)
        path = tmp_path / "empty.run"
        path.write_text(text)
        for command in ("orders", "fit", "verify"):
            assert _cli(command, str(path)) == (2, "", "error: empty level range [3, 2]\n")
        # invariants reads no window
        assert _cli("invariants", str(path))[0] == 0

    @pytest.mark.parametrize("value", ["x", "(1, 2)", ""])
    def test_bad_prime_has_one_line_prefix(self, value, tmp_path):
        text = f"[prime]\nl = {value}\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
        message = f"line 2: l needs an integer, got {value!r}"
        with pytest.raises(ScenarioParseError) as exc:
            parse_run(text)
        assert (str(exc.value), exc.value.line) == (message, 2)
        path = tmp_path / "bad.run"
        path.write_text(text)
        assert _cli("orders", str(path)) == (2, "", f"error: {message}\n")

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


# lines the guard corpus inserts: stray, broken and unknown sections and
# keys, and keys that repeat or contradict the canonical ones
_BAD_LINES = (
    "[woods]", "[prime", "[prime]", "[module]", "[descent]", "[run]", "junk", "= 1",
    "colour = blue", "level = 1", "l = 3", "l = x", "free_rank = -1", "lpower = 0",
    "lpower = x", "poly = [1, 1]", "poly = []", "kind = special", "kind = sideways",
    "e = 1", "e = -1", "generator = [[1], [2]]", "generator = []", "n_min = 9",
    "n_max = 0", "k = -2",
)
# values the guard corpus puts in place of a canonical one
_BAD_VALUES = (
    "", "x", "(1, 2)", "-1", "0", "1", "3", "4", "9", "1.5", "1_0", " 7", "True", "9" * 5000,
    "[]", "[[]]", "[0, 1]", "[2, 1]", "[1, 2.5]", "{[]: 1}", "[[1], [2]]",
    "[[1], [0, 1], [3]]", "generic", "special",
)


def _mangled(rng):
    """The canonical file with one to three edits: a line deleted, duplicated,
    swapped with another or inserted from ``_BAD_LINES``, or a value replaced
    from ``_BAD_VALUES``."""
    lines = CANONICAL.splitlines()
    for _ in range(rng.randint(1, 3)):
        edit, i = rng.randrange(5), rng.randrange(len(lines))
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:
            lines.insert(i, rng.choice(_BAD_LINES))
        else:
            keyed = [i for i, line in enumerate(lines) if "=" in line]
            if keyed:
                i = rng.choice(keyed)
                lines[i] = lines[i].partition("=")[0] + "= " + rng.choice(_BAD_VALUES)
    return "\n".join(lines) + "\n"


def _guard_outcome(text):
    """(kind, outcome): the error's message and line, or the spec's repr.

    The digest was frozen when the reader itself refused an empty window, with
    ``input: empty level window [a, b]``, and put a bad l's line prefix on its
    message twice; both read as the outcomes the reader gives now."""
    try:
        spec = parse_run(text)
    except ScenarioParseError as exc:
        if "empty level window" in str(exc):
            return "empty window", "empty window"
        return "error", re.sub(r"^(line \d+: )\1", r"\1", str(exc)) + f"|{exc.line}"
    if spec.n_min > spec.n_max:
        return "empty window", "empty window"
    return "spec", repr(spec)


GUARD_SEED, GUARD_FILES = 2311, 6000
FROZEN_GUARD_KINDS = {"error": 5196, "spec": 790, "empty window": 14}
FROZEN_GUARD_DIGEST = "05bb653597c8083b"


class TestGuardCorpus:
    def test_outcomes_match_frozen_digest(self):
        """Every message, its line and which of two faults is reported first."""
        rng = random.Random(GUARD_SEED)
        digest = hashlib.sha256()
        kinds = Counter()
        for _ in range(GUARD_FILES):
            kind, outcome = _guard_outcome(_mangled(rng))
            kinds[kind] += 1
            digest.update(outcome.encode() + b"\0")
        assert dict(kinds) == FROZEN_GUARD_KINDS
        assert digest.hexdigest()[:16] == FROZEN_GUARD_DIGEST
