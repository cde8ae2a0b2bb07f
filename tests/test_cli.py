"""Command line interface: golden outputs, exit codes, stdin handling.

Golden files were generated by the CLI itself and then checked by hand
against the closed forms (see the sibling unit tests for the same numbers),
so they pin both the math and the output format.
"""

import io
import json
import time
from pathlib import Path

import pytest

from towergrowth import invariants, modules, order_valuation, parse_run
from towergrowth.cli import run_command

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


class TestGoldenText:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (("orders", MIXED), "orders_mixed.txt"),
            (("invariants", MIXED), "invariants_mixed.txt"),
            (("fit", SPECIAL), "fit_special.txt"),
            (("verify", SPECIAL), "verify_special.txt"),
            (("scenario", "prop14:e=1"), "scenario_prop14.txt"),
            (("mirror", "--level", "2"), "mirror_level2.txt"),
        ],
    )
    def test_matches_golden(self, argv, name):
        code, out, err = run(*argv)
        assert code == 0
        assert err == ""
        assert out == golden(name)


class TestGoldenJson:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (("orders", "--json", MIXED), "orders_mixed.json"),
            (("invariants", "--json", MIXED), "invariants_mixed.json"),
            (("fit", "--json", SPECIAL), "fit_special.json"),
            (("verify", "--json", SPECIAL), "verify_special.json"),
            (("scenario", "--json", "prop14:e=1"), "scenario_prop14.json"),
            (("mirror", "--json", "--level", "2"), "mirror_level2.json"),
        ],
    )
    def test_matches_golden(self, argv, name):
        code, out, err = run(*argv)
        assert code == 0
        assert out == golden(name)
        doc = json.loads(out)
        assert doc["schema"] == "towergrowth/1"
        assert doc["command"] == argv[0]


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

    def test_usage_error_is_two(self):
        code, _, _ = run("orders")
        assert code == 2
        code, _, _ = run("mirror", "--left", "rho=1,mu=0,lam_tilde=0,defect=0,stable=1")
        assert code == 2


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
