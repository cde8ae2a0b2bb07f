"""Command line interface: golden outputs, exit codes, stdin handling.

Golden files were generated by the CLI itself and then checked by hand
against the closed forms (see the sibling unit tests for the same numbers),
so they pin both the math and the output format.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from towergrowth import (
    OrderSequence,
    RunSpec,
    cli,
    fit_parameters,
    invariants,
    modules,
    order_valuation,
    parse_run,
    quotients,
    scenarios,
    serialize_run,
)
from towergrowth.cli import SCHEMA, run_command

GOLDEN = Path(__file__).parent / "golden"
MIXED = str(GOLDEN / "mixed.run")
SPECIAL = str(GOLDEN / "special.run")
TRANSIENT = str(GOLDEN / "transient.run")


def run(*argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run_command(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


# one call of each subcommand and its golden text output
GOLDEN_TEXT = [
    (("orders", MIXED), "orders_mixed.txt"),
    (("invariants", MIXED), "invariants_mixed.txt"),
    (("fit", SPECIAL), "fit_special.txt"),
    (("verify", SPECIAL), "verify_special.txt"),
    (("scenario", "prop14:e=1"), "scenario_prop14.txt"),
    (("mirror", "--level", "2"), "mirror_level2.txt"),
]


# the same calls with --json and their golden documents
GOLDEN_JSON = [
    (("orders", "--json", MIXED), "orders_mixed.json"),
    (("invariants", "--json", MIXED), "invariants_mixed.json"),
    (("fit", "--json", SPECIAL), "fit_special.json"),
    (("verify", "--json", SPECIAL), "verify_special.json"),
    (("scenario", "--json", "prop14:e=1"), "scenario_prop14.json"),
    (("mirror", "--json", "--level", "2"), "mirror_level2.json"),
]


class TestGoldenText:
    @pytest.mark.parametrize("argv,name", GOLDEN_TEXT)
    def test_matches_golden(self, argv, name):
        code, out, err = run(*argv)
        assert code == 0
        assert err == ""
        assert out == golden(name)


class TestGoldenJson:
    @pytest.mark.parametrize("argv,name", GOLDEN_JSON)
    def test_matches_golden(self, argv, name):
        code, out, err = run(*argv)
        assert code == 0
        assert out == golden(name)
        doc = json.loads(out)
        assert doc["schema"] == "towergrowth/1"
        assert doc["command"] == argv[0]


_SIDE = "rho=1,mu=0,lam_tilde=-4,defect=0,stable=1"
_RUN_OPTIONS = [(), ("--k", "2"), ("--k", "-1"), ("--cap", "10")]
_SCENARIO_OPTIONS = [
    (), ("--n-min", "1", "--n-max", "4"), ("--n-min", "2", "--n-max", "7"),
    ("--n-min", "3", "--n-max", "5"), *_RUN_OPTIONS[1:],
]
_SCENARIO_TOKENS = [
    "prop14", "prop14:e=1", " prop14: e = 2 ", "prop15:l=3,e=1", "prop15:l=5", "special-demo",
    "trivial-demo", "nonsense", "prop14:e", "prop14:e=x", "prop14:e=1,z=2", "special-demo:e=1",
    "prop15:l=4", "prop14:e=-1",
]
_MIRROR_SIDES = [
    ("--level", str(level)) for level in range(4)
] + [
    ("--left", _SIDE, "--right", "rho=0,mu=0,lam_tilde=3,defect=2,stable=8"),  # PASS
    ("--left", _SIDE, "--right", "rho=1,mu=0,lam_tilde=3,defect=2,stable=8"),  # FAIL
    ("--left", _SIDE, "--right", "rho=0,mu=0,lam_tilde=3,defect=1,stable=8"),  # parity warning
    ("--left", "rho=2,mu=1,lam_tilde=0,defect=3,stable=2", "--right", _SIDE),
    ("--left", _SIDE, "--right", "rho=1,mu"),
    ("--level", "1", "--left", _SIDE, "--right", _SIDE),
]


def _frozen_calls():
    """(group, argvs): every subcommand on the golden run files, the registry
    tokens, valid and invalid, and mirror at its levels and on explicit sides."""
    for path in (MIXED, SPECIAL, TRANSIENT):
        for command in ("orders", "invariants", "fit", "verify"):
            options = _RUN_OPTIONS if command != "invariants" else [()]
            yield f"{command} {Path(path).name}", [(command, path, *o) for o in options]
    for token in _SCENARIO_TOKENS:
        yield f"scenario {token}", [("scenario", token, *o) for o in _SCENARIO_OPTIONS]
    yield "mirror", [("mirror", *sides) for sides in _MIRROR_SIDES]


FROZEN_CALLS = dict(_frozen_calls())

# sha256 of (exit code, stdout, stderr) of each group's calls, text then --json
FROZEN_BYTES = {
    "orders mixed.run": "d2337bb9739159e4",
    "invariants mixed.run": "0640540a3639fa4a",
    "fit mixed.run": "9621f05434e10e3b",
    "verify mixed.run": "ef5a892b24aff6cd",
    "orders special.run": "980a23801799d4f1",
    "invariants special.run": "68c8d977e83ded12",
    "fit special.run": "54fc8edee9a816d0",
    "verify special.run": "d8104a88f6ac8f76",
    "orders transient.run": "2f49bff99cefb28d",
    "invariants transient.run": "c0b18a06247d5f1a",
    "fit transient.run": "92b251ceaea8ef47",
    "verify transient.run": "fc2875e97a167159",
    "scenario prop14": "9af34024f5084e9d",
    "scenario prop14:e=1": "8b9069f59a4ff192",
    "scenario  prop14: e = 2 ": "595601abadd55438",
    "scenario prop15:l=3,e=1": "b4a62d993451f0de",
    "scenario prop15:l=5": "d385fbbfe726fe6c",
    "scenario special-demo": "7079ae4f91cc0938",
    "scenario trivial-demo": "a9ebfc1cb87b4f8c",
    "scenario nonsense": "a3c4cf4773c35c5b",
    "scenario prop14:e": "14dbda941d8b0912",
    "scenario prop14:e=x": "c54f91d0d42d9cc6",
    "scenario prop14:e=1,z=2": "62b11fb8eae03180",
    "scenario special-demo:e=1": "deebf2bbde02f20d",
    "scenario prop15:l=4": "a87e30efe6996d7e",
    "scenario prop14:e=-1": "25156a277cb2a555",
    "mirror": "243b18ae5b9c70d2",
}


def _bytes_digest(group):
    h = hashlib.sha256()
    for argv in FROZEN_CALLS[group]:
        for json_flag in ((), ("--json",)):
            h.update(repr(run(*argv, *json_flag)).encode())
    return h.hexdigest()[:16]


class TestFrozenBytes:
    """Exit code, stdout and stderr of a fixed argv set, frozen from the CLI
    as it stood when each handler wrote its text rows beside its payload."""

    @pytest.mark.parametrize("group", list(FROZEN_CALLS))
    def test_bytes_match_frozen_digest(self, group):
        assert _bytes_digest(group) == FROZEN_BYTES[group]


class TestExitCodes:
    def test_verify_pass_is_zero(self):
        code, _, _ = run("verify", SPECIAL)
        assert code == 0

    def test_mirror_mismatch_is_one(self):
        code, out, _ = run(
            "mirror",
            "--left", "rho=1,mu=0,lam_tilde=-4,defect=0,stable=1",
            "--right", "rho=1,mu=0,lam_tilde=3,defect=2,stable=8",
        )
        assert code == 1
        assert "MISMATCH" in out
        assert "verdict\tFAIL" in out

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.run"
        bad.write_text("[prime]\nl = 6\n")
        code, out, err = run("orders", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2:")

    def test_missing_file_is_two(self):
        code, _, err = run("orders", "/nonexistent/x.run")
        assert code == 2
        assert err.startswith("error:")

    def test_cap_exceeded_is_three(self):
        code, _, err = run("orders", MIXED, "--cap", "4")
        assert code == 3
        assert "error:" in err

    def test_ambiguous_fit_is_two(self):
        # honest undecidability: the window is too short to separate triples
        code, _, err = run("fit", TRANSIENT)
        assert code == 2
        assert "extend the level range" in err

    def test_unknown_scenario_is_two(self):
        code, _, err = run("scenario", "nonsense")
        assert code == 2
        assert "error:" in err

    def test_invalid_descent_is_two(self, tmp_path):
        f = tmp_path / "invalid.run"
        f.write_text(
            "[prime]\nl = 2\n[module]\nfree_rank = 1\n"
            "[descent]\nkind = generic\ne = 1\ngenerator = [[1]]\n"
        )
        code, _, err = run("invariants", str(f))
        assert code == 2
        assert "error:" in err

    def test_verify_checks_the_cap_before_the_defect(self, tmp_path, monkeypatch):
        # the defect builds tower_poly(l, e) and ranks, so an over-cap window
        # must stop before predict_parameters reaches it
        calls = []
        defect = invariants.codescent_defect
        monkeypatch.setattr(
            invariants, "codescent_defect", lambda *args: calls.append(args) or defect(*args)
        )
        f = tmp_path / "over_cap.run"
        f.write_text(
            "[prime]\nl = 2\n[module]\nfree_rank = 1\n"
            "[descent]\nkind = generic\ne = 3\ngenerator = [[0]]\n"
            "[run]\nn_min = 4\nn_max = 20\nk = 0\n"
        )
        code, _, err = run("verify", str(f), "--cap", "64")
        assert code == 3
        assert calls == []
        assert "at level n=7" in err
        # invalid data in an allowed window still exit 2 from validation
        f.write_text(f.read_text().replace("[[0]]", "[[1]]").replace("n_max = 20", "n_max = 8"))
        code, _, err = run("verify", str(f))
        assert code == 2
        assert "invalid descent datum: T * generator 0" in err
        assert calls == []

    @pytest.mark.parametrize("ell,level", [(2, 20000), (3, 10**8)])
    def test_cap_at_a_huge_level_builds_no_power(self, tmp_path, ell, level):
        # l^n would overflow integer printing (l=2) or not finish (l=3)
        f = tmp_path / "huge.run"
        f.write_text(
            f"[prime]\nl = {ell}\n[module]\nfree_rank = 1\n[descent]\nkind = special\n"
            f"[run]\nn_min = {level}\nn_max = {level}\nk = 0\n"
        )
        start = time.perf_counter()
        code, _, err = run("orders", str(f))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert f"at level n={level}" in err

    @pytest.mark.parametrize("command", ["orders", "fit", "verify"])
    def test_module_without_coordinates_is_capped_by_level(self, tmp_path, command):
        # no ambient dimension to bound, but validation would build
        # tower_poly(2, 2^31) and the fitter 2^n; n + k stays at 1..4
        f = tmp_path / "zero.run"

        def run_at(e, n_min, k):
            f.write_text(
                "[prime]\nl = 2\n[module]\nfree_rank = 0\n"
                f"[descent]\nkind = generic\ne = {e}\ngenerator = []\n"
                f"[run]\nn_min = {n_min}\nn_max = {n_min + 3}\nk = {k}\n"
            )
            return run(command, str(f))

        start = time.perf_counter()
        code, out, err = run_at(2**31, 10**12, 1 - 10**12)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "l^n = 2^1000000000000 exceeds the cap 4096 at level n=1000000000000" in err
        # below the level cap every order is 0, and fitted as such
        assert run_at(1, 2, 0)[0] == 0

    @pytest.mark.parametrize("name", ["prop14:e=10", "prop15:l=61,e=1", "prop15:l=101,e=1"])
    def test_scenario_checks_the_cap_before_validation(self, monkeypatch, name):
        # building a scenario checks nothing; the window is over the cap
        calls = []
        for module, attr in ((modules, "validate_descent"), (invariants, "codescent_defect")):
            original = getattr(module, attr)
            monkeypatch.setattr(
                module, attr, lambda *args, f=original: calls.append(args) or f(*args)
            )
        code, _, err = run("scenario", name)
        assert code == 3
        assert "exceeds the cap" in err
        assert calls == []

    def test_precision_cap_stops_before_any_residue(self, monkeypatch):
        # l^N would have ten million bits; the window's dimension is far below the cap
        calls = []
        for attr in ("tower_residue_steps", "unit_pivots", "divisor_valuations"):
            original = getattr(quotients, attr)
            monkeypatch.setattr(
                quotients, attr, lambda *args, f=original: calls.append(args) or f(*args)
            )
        start = time.perf_counter()
        code, _, err = run("orders", MIXED, "--k", "10000000")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "precision N=10000001 exceeds the cap 4096 at level n=1" in err
        assert calls == []

    @pytest.mark.parametrize(
        "generators,level,first_over,size",
        [
            # a free coordinate: 1 + 2^e rows
            ("generator = [[1], [0]]", 22, 12, "the level-{e} presentation needs 1 + 1*2^{e} rows"),
            # tower_poly(2, e) all the same
            ("generator = [[0], [1]]", 22, 13, "tower_poly(2, {e}) has degree 2^{e}"),
            # no generators: the defect bound free_rank * 2^e
            ("", 10**12, 13, "tower_poly(2, {e}) has degree 2^{e} (defect bound 1*2^{e})"),
        ],
        ids=["free", "distinguished", "no-generators"],
    )
    def test_invariants_counts_the_presentation_before_validation(
        self, tmp_path, monkeypatch, generators, level, first_over, size
    ):
        calls = []
        validate = modules.validate_descent
        monkeypatch.setattr(
            modules, "validate_descent", lambda *args: calls.append(args) or validate(*args)
        )
        f = tmp_path / "high_level.run"

        def invariants_at(e):
            f.write_text(
                "[prime]\nl = 2\n[module]\nfree_rank = 1\npoly = [2, 1]\n"
                f"[descent]\nkind = generic\ne = {e}\n{generators}\n"
            )
            return run("invariants", str(f))

        start = time.perf_counter()
        code, _, err = invariants_at(level)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert size.format(e=level) in err
        assert calls == []
        # the first level over the cap exits 3, the one below it does not
        assert invariants_at(first_over)[0] == 3
        assert invariants_at(first_over - 1)[0] in (0, 2)

    @pytest.mark.parametrize("level", [14, 20])
    def test_scenario_checks_the_cap_before_building_generators(self, monkeypatch, level):
        # 2^e dense monomials T^j: quadratic in 2^e, gigabytes from e = 14
        calls = []
        build = scenarios._full_span_generators
        monkeypatch.setattr(
            scenarios, "_full_span_generators", lambda *args: calls.append(args) or build(*args)
        )
        start = time.perf_counter()
        code, _, err = run("scenario", f"prop14:e={level}")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert f"exceeds the cap 4096 at level n={level + 1}" in err
        assert calls == []
        assert run("scenario", "prop14:e=2")[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_short_window_is_refused_before_validation(
        self, tmp_path, monkeypatch, eliminations, command
    ):
        calls = []
        validate = modules.validate_descent
        monkeypatch.setattr(
            modules, "validate_descent", lambda *args: calls.append(args) or validate(*args)
        )
        f = tmp_path / "short.run"
        f.write_text(golden("mixed.run").replace("n_max = 5", "n_max = 3"))
        code, out, err = run(command, str(f))
        assert (code, out) == (2, "")
        assert err == "error: fitting needs at least four consecutive entries\n"
        assert (calls, eliminations) == ([], [])
        # the cap is still checked first; the run's own window 1..5 is fitted
        assert run(command, str(f), "--cap", "4")[0] == 3
        assert (calls, eliminations) == ([], [])
        # the same datum, validated once: its elimination comes first
        assert run(command, MIXED)[0] == 0
        assert calls
        assert [name for name, *_ in eliminations].count("span_elimination") == 1
        assert eliminations[0][0] == "span_elimination"

    @pytest.mark.parametrize("command", ["orders", "fit", "verify", "scenario"])
    def test_window_is_checked_once(self, tmp_path, monkeypatch, command):
        calls = []
        check = quotients.check_window

        def counted(*args):
            calls.append(args)
            check(*args)

        monkeypatch.setattr(quotients, "check_window", counted)
        monkeypatch.setattr(cli, "check_window", counted)
        f = tmp_path / "short.run"
        f.write_text(golden("mixed.run").replace("n_max = 5", "n_max = 3"))
        if command == "scenario":
            # window 2..6; --n-min 1 is refused at e = 1, after check_window
            cases = [((), 0), (("--n-max", "4"), 2), (("--cap", "4"), 3),
                     (("--n-min", "1"), 2), (("--k", "-2"), 2)]
            cases = [(("prop14:e=1", *argv), code) for argv, code in cases]
        else:
            short = 0 if command == "orders" else 2  # orders has no fitter
            cases = [((MIXED,), 0), ((str(f),), short), ((str(f), "--cap", "4"), 3),
                     ((MIXED, "--k", "-1"), 2)]
        for argv, code in cases:
            assert run(command, *argv)[0] == code, argv
            assert len(calls) == 1, argv
            calls.clear()
        assert not hasattr(cli, "check_caps")

    # orders, fit, verify and scenario on prop14:e=2 and the same window
    # (n_min, n_max, options): the one order is empty, n_min >= 0, n_min + k
    # >= 1, the ambient and precision caps, four levels (not for orders),
    # then n_min > e
    @pytest.mark.parametrize(
        "window,code,message,commands",
        [
            ((1, 3, "--cap", "4"), 3, "ambient dimension 8 exceeds the cap 4 at level n=3",
             ["orders", "fit", "verify", "scenario"]),
            ((1, 3), 2, "fitting needs at least four consecutive entries",
             ["fit", "verify", "scenario"]),
            ((1, 3), 2, "sequences for generic data start at n >= e+1 = 3", ["orders"]),
            ((1, 4), 2, "sequences for generic data start at n >= e+1 = 3",
             ["orders", "fit", "verify", "scenario"]),
            ((0, 3, "--k", "0"), 2, "need n + k >= 1, got n=0, k=0",
             ["orders", "fit", "verify", "scenario"]),
        ],
    )
    def test_same_datum_same_refusal(self, tmp_path, window, code, message, commands):
        n_min, n_max, *options = window
        scenario = scenarios.builtin_scenario("prop14:e=2")
        f = tmp_path / "prop14.run"
        f.write_text(serialize_run(RunSpec(scenario.module, scenario.descent, n_min, n_max)))
        for command in commands:
            if command == "scenario":
                argv = ("prop14:e=2", "--n-min", str(n_min), "--n-max", str(n_max))
            else:
                argv = (str(f),)
            assert run(command, *argv, *options) == (code, "", f"error: {message}\n"), command

    def test_each_refusal_is_stated_once(self):
        source = "".join(
            path.read_text() for path in Path(cli.__file__).parent.glob("*.py")
        )
        for message in [
            "mirror needs either",
            "malformed {what}",
            "duplicate {what}",
            "{what} {key!r} needs an integer",
            "need n + k >= 1",
            "level n must be nonnegative",
            "empty level range",
            "empty level",
            "sequences for generic data start at",
        ]:
            assert source.count(message) == 1, message

    def test_scenario_short_window_is_refused_before_building_generators(self, monkeypatch):
        calls = []
        build = scenarios._full_span_generators
        monkeypatch.setattr(
            scenarios, "_full_span_generators", lambda *args: calls.append(args) or build(*args)
        )
        window = ["--cap", "100000", "--n-min", "12"]
        code, out, err = run("scenario", "prop14:e=11", *window, "--n-max", "14")
        assert (code, out) == (2, "")
        assert err == "error: fitting needs at least four consecutive entries\n"
        assert calls == []
        assert run("scenario", "prop14:e=11", *window[2:], "--n-max", "14")[0] == 3
        assert calls == []
        assert run("scenario", "prop14:e=2", "--n-min", "3", "--n-max", "6")[0] == 0
        assert len(calls) == 1

    def test_usage_error_is_two(self, capsys):
        # argparse's message goes to the caller's err, not the process's stderr
        code, out, err = run("orders")
        assert (code, out) == (2, "")
        assert err.startswith("usage: towergrowth orders")
        assert "the following arguments are required: file" in err
        code, out, err = run("orders", MIXED, "--k", "three")
        assert (code, out) == (2, "")
        assert err.startswith("usage: towergrowth orders")
        assert "argument --k: invalid int value: 'three'" in err
        code, _, err = run("mirror", "--left", "rho=1,mu=0,lam_tilde=0,defect=0,stable=1")
        assert code == 2
        assert err.startswith("error: mirror needs")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "argv,usage",
        [(("--help",), "usage: towergrowth [-h]"), (("orders", "--help"), "usage: towergrowth orders")],
    )
    def test_help_is_zero(self, capsys, argv, usage):
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv,code", [(["orders"], 2), (["orders", "--help"], 0)])
    def test_main_prints_to_the_process_streams(self, monkeypatch, capsys, argv, code):
        # usage errors to stderr, help to stdout
        monkeypatch.setattr(sys, "argv", ["towergrowth", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        out, err = capsys.readouterr()
        printed, silent = (err, out) if code else (out, err)
        assert printed.startswith("usage: towergrowth orders")
        assert silent == ""


class TestSharedParser:
    """One parser serves every call in the process, and no call sees another's options."""

    def test_parser_is_built_once(self, monkeypatch):
        # well-formed argv is read from the command table; help and usage
        # errors build the parser on the first call that needs it
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            if parser.prog == "towergrowth":
                built.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        try:
            for argv, name in GOLDEN_TEXT * 4:
                assert run(*argv) == (0, golden(name), "")
            assert len(built) == 0
            for _ in range(4):
                code, out, err = run("--help")
                assert (code, err) == (0, "")
                assert out.startswith("usage: towergrowth [-h]")
                code, out, err = run("orders", MIXED, "--k", "three")
                assert (code, out) == (2, "")
                assert "argument --k: invalid int value: 'three'" in err
        finally:
            cli._build_parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize(
        "first,first_code,second,name",
        [
            (("orders", MIXED, "--k", "3", "--json"), 0, ("orders", MIXED), "orders_mixed.txt"),
            (
                ("scenario", "prop14:e=1", "--n-max", "9"),
                0,
                ("scenario", "prop14:e=1"),
                "scenario_prop14.txt",
            ),
            (("orders", MIXED, "--cap", "64"), 3, ("orders", MIXED), "orders_mixed.txt"),
        ],
        ids=["k-and-json", "window", "cap"],
    )
    def test_no_option_carries_over(self, first, first_code, second, name):
        assert run(*first)[0] == first_code
        assert run(*second) == (0, golden(name), "")


def _readme_argv():
    """The argv of every ``towergrowth ...`` example in the README."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("towergrowth ")]


# the argv shapes of the benchmark's calls, with the run text for "-"
BENCHMARK_ARGV = [
    (("orders", "-", "--json", "--k", "3"), MIXED),
    (("verify", SPECIAL, "--json"), None),
    (("verify", "-", "--json"), SPECIAL),
    (("invariants", "-", "--json"), MIXED),
    (("scenario", "prop14:e=1", "--n-min", "1", "--n-max", "4", "--json"), None),
    (("scenario", "prop14:e=2", "--n-max", "5", "--json"), None),
]

_HEADS = [*cli._COMMANDS, "nonsense", "-h", "--help"]
_OPTIONS = [
    "--k", "--cap", "--json", "--n-min", "--n-max", "--level", "--left", "--right",
    "--js", "--le", "--k=3", "--", "-h", "--help",
]
_VALUES = [
    # "\u0663" is the Arabic-Indic digit three, which int() and argparse's \d accept
    "0", "-1", "-.5", "-1_0", "1_0", " 3", "\u0663", "-\u0663", "", "-", "-x", "-x y", "three",
    *_OPTIONS,
]
# a command-like head, then options with a value each and loose tokens
_ARGV = st.builds(
    lambda head, pieces: [head, *(token for piece in pieces for token in piece)],
    st.sampled_from(_HEADS),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
            st.tuples(st.sampled_from(_VALUES)),
        ),
        max_size=5,
    ),
)


class TestArgvReader:
    """The command table reads well-formed argv the way argparse does, without it."""

    @seed(20261019)
    @settings(max_examples=600)
    @given(_ARGV)
    def test_reader_agrees_with_argparse(self, argv):
        args = cli._read_argv(argv)
        if args is None:
            return
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                expected = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv!r}, which argparse rejects: {err.getvalue()}")
        assert vars(args) == vars(expected)

    def test_readme_examples_are_found(self):
        assert len(_readme_argv()) >= 8

    @pytest.mark.parametrize(
        "argv,stdin",
        [(argv, None) for argv, _ in GOLDEN_TEXT + GOLDEN_JSON]
        + [(tuple(argv), None) for argv in _readme_argv()]
        + BENCHMARK_ARGV,
    )
    def test_well_formed_argv_builds_no_parser(self, monkeypatch, argv, stdin):
        def refuse():
            raise AssertionError(f"argparse was built for {argv!r}")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        text = None if stdin is None else Path(stdin).read_text()
        assert cli._read_argv(list(argv)) is not None
        run(*argv, stdin=text, monkeypatch=monkeypatch)


class TestClosedOutput:
    """A reader that goes away is not bad input."""

    class _ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("argv", [("scenario", "prop14:e=1", "--json"), ("orders", MIXED)])
    def test_closed_out_is_141(self, argv):
        err = io.StringIO()
        assert run_command(list(argv), self._ClosedPipe(), err) == 141
        assert err.getvalue() == ""

    def test_closed_stdout_pipe_exits_141(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "towergrowth.cli", "scenario", "prop14:e=1", "--json"],
                stdin=subprocess.DEVNULL,
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, b"")


class TestStdinAndOverrides:
    def test_stdin_dash(self, monkeypatch):
        text = Path(MIXED).read_text()
        code, out, _ = run("orders", "-", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out == golden("orders_mixed.txt")

    def test_shift_override(self):
        code, out, _ = run("orders", MIXED, "--k", "1")
        assert code == 0
        spec = parse_run(Path(MIXED).read_text())
        first = order_valuation(spec.module, spec.descent, 1, k=1)
        assert out.splitlines()[1] == f"1\t{first}"

    @pytest.mark.parametrize("path", [MIXED, SPECIAL])
    @pytest.mark.parametrize("k", [1, 3])
    def test_verify_passes_at_shift(self, path, k):
        # x(n, k) carries rho * k * l^n, which the fit must not read as mu
        code, out, _ = run("verify", path, "--k", str(k))
        assert code == 0, out
        assert "verdict\tPASS" in out

    def test_scenario_passes_at_shift(self):
        code, out, _ = run("scenario", "prop15:l=3,e=1", "--k", "2")
        assert code == 0, out

    def test_scenario_window_override(self):
        code, out, _ = run("scenario", "prop14:e=0", "--n-min", "1", "--n-max", "7")
        assert code == 0
        rows = [r for r in out.splitlines() if r and r[0].isdigit()]
        assert len(rows) == 7
        assert rows[-1] == f"7\t{7 * 2**7 - 7}"

    def test_mirror_explicit_sides_pass(self):
        code, out, _ = run(
            "mirror",
            "--left", "rho=1,mu=0,lam_tilde=-4,defect=0,stable=1",
            "--right", "rho=0,mu=0,lam_tilde=3,defect=2,stable=8",
        )
        assert code == 0
        assert "verdict\tPASS" in out

    SIDE = "rho=1,mu=0,lam_tilde=-4,defect=0,stable=1"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--level", "1", "--left", SIDE, "--right", SIDE),
             "pass either --level or explicit sides, not both"),
            ((), "mirror needs either --level or both --left and --right"),
            (("--left", SIDE), "mirror needs either --level or both --left and --right"),
            (("--left", "rho=1,mu", "--right", SIDE), "malformed mirror side field 'mu'"),
            (("--left", SIDE, "--right", "rho=x,mu=0"),
             "mirror side field 'rho' needs an integer, got 'x'"),
            (("--left", "rho=1,rho=2,mu=0,lam_tilde=-4,defect=0,stable=1", "--right", SIDE),
             "duplicate mirror side field 'rho'"),
            (("--left", SIDE, "--right", f"{SIDE}, stable =1"), "duplicate mirror side field 'stable'"),
            (("--left", f"=1,{SIDE}", "--right", SIDE), "malformed mirror side field '=1'"),
            (("--left", SIDE, "--right", f"{SIDE}, =1"), "malformed mirror side field ' =1'"),
        ],
    )
    def test_mirror_usage_errors(self, argv, message):
        assert run("mirror", *argv) == (2, "", f"error: {message}\n")

    def test_mirror_side_field_errors(self):
        code, _, err = run("mirror", "--left", "rho=1", "--right", "rho=1")
        assert code == 2
        assert "missing" in err
        code, _, err = run(
            "mirror",
            "--left", "rho=1,mu=0,lam_tilde=0,defect=0,stable=1,extra=2",
            "--right", "rho=1,mu=0,lam_tilde=0,defect=0,stable=1",
        )
        assert code == 2
        assert "unknown" in err


class TestClassificationRendering:
    """The fit's classification as ``fit`` writes it, text row and JSON.  No
    engine datum has been seen to give a completed fit that is not ultimately
    constant, so planted sequences reach the other two kinds."""

    @pytest.mark.parametrize(
        "values,text,doc",
        [
            (
                [n * 2**n + n % 2 for n in range(1, 9)],
                "bounded-spread low=0 high=1",
                {"kind": "bounded-spread", "low": 0, "high": 1},
            ),
            (
                [2**n + 5 * (n % 3) for n in range(1, 9)],
                "unbounded trend=increasing",
                {"kind": "unbounded", "trend": "increasing"},
            ),
        ],
    )
    def test_fit_text_and_json(self, monkeypatch, values, text, doc):
        planted = OrderSequence(2, 0, 0, 1, tuple(values))
        monkeypatch.setattr(cli, "_order_sequence", lambda *args, **kwargs: planted)
        code, out, err = run("fit", MIXED)
        assert (code, err) == (0, "")
        assert f"classification\t{text}\n" in out
        code, out, err = run("fit", MIXED, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["classification"] == doc


class TestTextIsThePayloadView:
    """The text output is ``_rows`` of the JSON document, which never renders it."""

    @pytest.mark.parametrize("group", list(FROZEN_CALLS))
    def test_text_is_rows_of_the_document(self, monkeypatch, group):
        rendered = []
        rows = cli._rows
        monkeypatch.setattr(cli, "_rows", lambda *args: rendered.append(args) or rows(*args))
        for argv in FROZEN_CALLS[group]:
            code, out, err = run(*argv, "--json")
            assert rendered == []
            if not err:
                payload = json.loads(out)
                assert (payload.pop("schema"), payload.pop("command")) == (SCHEMA, argv[0])
                out = "\n".join(rows(payload, cli._COMMANDS[argv[0]].json_only)) + "\n"
            assert run(*argv) == (code, out, err)
            assert bool(rendered) == (not err)
            rendered.clear()


# strings with quotes, backslashes, control characters and non-ASCII
_JSON_KEYS = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "a", " "])
)
_JSON_SCALARS = (
    st.integers(-(10**40), 10**40) | st.booleans() | st.none() | st.floats() | st.just(-0.0)
    | _JSON_KEYS
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """``--json`` writes exactly ``json.dumps(doc, indent=2)`` and a newline,
    without json's pure-Python encoder."""

    @given(_JSON_DOCUMENTS)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("group", list(FROZEN_CALLS))
    def test_matches_json_dumps_on_every_frozen_payload(self, monkeypatch, group):
        documents = []
        write = cli._json_text

        def recorded(value, indent=""):
            if not indent:
                documents.append(value)
            return write(value, indent)

        monkeypatch.setattr(cli, "_json_text", recorded)
        for argv in FROZEN_CALLS[group]:
            code, out, err = run(*argv, "--json")
            if err:
                assert (out, documents) == ("", [])
                continue
            (doc,) = documents
            assert out == json.dumps(doc, indent=2) + "\n"
            documents.clear()

    @pytest.mark.parametrize("argv,name", GOLDEN_JSON)
    def test_goldens_need_no_pure_python_encoder(self, monkeypatch, argv, name):
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps({}, indent=2)
        assert run(*argv) == (0, golden(name), "")


# negatives, 0, a few small values, and huge values up to 10^12
_EXTREME = st.one_of(
    st.integers(0, 3),
    st.sampled_from([-(10**12), -1, 10**12]),
    st.integers(-(10**12), -1),
    st.integers(2**31, 10**12),
)
_SMALL = st.integers(-1, 3)


@st.composite
def _generated_run(draw, level):
    """A small run file at l in {2, 3, 5}, with or without (possibly invalid) generators."""
    ell = draw(st.sampled_from([2, 3, 5]))
    free_rank = draw(st.integers(0, 2))
    lines = [f"[prime]\nl = {ell}\n[module]\nfree_rank = {free_rank}"]
    lines += [f"lpower = {m}" for m in draw(st.lists(st.integers(1, 2), max_size=1))]
    lines += [f"poly = [{ell * a}, 1]" for a in draw(st.lists(st.integers(0, 2), max_size=1))]
    coordinates = len(lines) - 1 + free_rank
    if draw(st.booleans()):
        lines.append("[descent]\nkind = special")
    else:
        lines.append(f"[descent]\nkind = generic\ne = {level}")
        coefficient_lists = st.lists(st.integers(-2, 2), max_size=2).map(str)
        for _ in range(draw(st.integers(0, 2))):
            coords = draw(st.lists(coefficient_lists, min_size=coordinates, max_size=coordinates))
            lines.append(f"generator = [{', '.join(coords)}]")
    return "\n".join(lines) + "\n"


def _window(text, level, n_min, n_max):
    head = text.split("[run]")[0].replace("e = 0", f"e = {level}")
    return head + f"[run]\nn_min = {n_min}\nn_max = {n_max}\nk = 0\n"


def _every_command(text, k, cap):
    """Exit codes of orders, invariants, fit and verify on the run text via stdin."""
    codes = []
    for command in ("orders", "invariants", "fit", "verify"):
        argv = [command, "-"]
        if command != "invariants":
            argv += ["--k", str(k)] + ([] if cap is None else ["--cap", str(cap)])
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            codes.append(run_command(argv, io.StringIO(), io.StringIO()))
        finally:
            sys.stdin = saved
    return codes


@st.composite
def _fuzz_input(draw, numbers, caps):
    level, n_min = draw(numbers), draw(numbers)
    n_max = draw(st.one_of(numbers, st.integers(0, 3).map(n_min.__add__)))
    golden = st.sampled_from([MIXED, SPECIAL, TRANSIENT]).map(lambda p: Path(p).read_text())
    text = draw(st.one_of(golden, _generated_run(level)))
    return _window(text, level, n_min, n_max), draw(numbers), draw(caps)


class TestFuzzedCommands:
    """Every command returns an exit code, never a traceback or a hang.

    The caps bound what a window may ask for.  A cap raised far above the
    default admits work it does not bound (a level-e presentation of l^e
    rows, a precision of l^N with N up to the cap), so extreme caps are drawn
    with small levels and shifts, and extreme levels and shifts with caps up
    to the default.
    """

    @given(_fuzz_input(_EXTREME, st.sampled_from([None, -(10**12), -1, 0, 1, 4096])))
    @settings(max_examples=100, deadline=2000)
    def test_extreme_levels_and_shifts(self, drawn):
        text, k, cap = drawn
        assert set(_every_command(text, k, cap)) <= {0, 1, 2, 3}

    @given(_fuzz_input(_SMALL, _EXTREME))
    @settings(max_examples=100, deadline=2000)
    def test_extreme_caps(self, drawn):
        text, k, cap = drawn
        assert set(_every_command(text, k, cap)) <= {0, 1, 2, 3}
