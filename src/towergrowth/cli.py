"""Command line interface.

Subcommands:

    orders      print the order valuations x(n, k) over the run window
    invariants  structural invariants, defect, and predicted parameters
    fit         fit asymptotic parameters to the computed sequence
    verify      compare the fitted parameters against the prediction
    scenario    run a named built-in scenario end to end
    mirror      check the mirror identities for a pair of parameter sides

Run descriptions come from files in the format of ``scenario_io`` (pass - to
read stdin).  Every subcommand accepts ``--json`` for a machine-readable
document with schema tag "towergrowth/1".  Exit codes: 0 success or PASS,
1 a check ran and failed, 2 bad input, 3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import TextIO

from .fitting import (
    AmbiguousFitError,
    BoundedSpread,
    Classification,
    FitResult,
    UltimatelyConstant,
    Unbounded,
    fit_parameters,
    verify_prediction,
)
from .invariants import (
    Grade,
    ParamTriple,
    defect_bound,
    predict_parameters,
    structural_invariants,
)
from .modules import CaseTag, classify_case, require_valid
from .quotients import DEFAULT_DIMENSION_CAP, CapExceeded, OrderSequence, order_sequence
from .quotients import check_caps, check_presentation
from .scenario_io import RunSpec, ScenarioParseError, parse_run
from .scenarios import (
    MirrorSide,
    Scenario,
    builtin_scenario,
    mirror_check,
    mirror_context_for_full_span,
    scenario_names,
)

SCHEMA = "towergrowth/1"


def _read_spec(path: str) -> RunSpec:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_run(text)


def _triple_text(t: ParamTriple) -> str:
    body = f"rho={t.rho} mu={t.mu} lam_tilde={t.lam_tilde} grade={t.grade.value}"
    if t.nu is not None:
        body += f" nu={t.nu}"
    return body


def _triple_json(t: ParamTriple) -> dict:
    return {
        "rho": t.rho,
        "mu": t.mu,
        "lam_tilde": t.lam_tilde,
        "grade": t.grade.value,
        "nu": t.nu,
    }


def _classification_text(c: Classification) -> str:
    if isinstance(c, UltimatelyConstant):
        return f"ultimately-constant from_n={c.from_n} constant={c.constant}"
    if isinstance(c, BoundedSpread):
        return f"bounded-spread low={c.low} high={c.high}"
    return f"unbounded trend={c.trend}"


def _classification_json(c: Classification) -> dict:
    if isinstance(c, UltimatelyConstant):
        return {"kind": "ultimately-constant", "from_n": c.from_n, "constant": c.constant}
    if isinstance(c, BoundedSpread):
        return {"kind": "bounded-spread", "low": c.low, "high": c.high}
    return {"kind": "unbounded", "trend": c.trend}


def _sequence_rows(seq: OrderSequence) -> list[str]:
    rows = ["n\tx"]
    rows.extend(f"{n}\t{x}" for n, x in seq.entries)
    return rows


def _sequence_json(seq: OrderSequence) -> dict:
    return {
        "prime": seq.prime,
        "k": seq.shift,
        "level": seq.level,
        "n_min": seq.n_min,
        "entries": [[n, x] for n, x in seq.entries],
    }


def _fit_rows(fit: FitResult) -> list[str]:
    rows = [
        f"fitted\t{_triple_text(fit.params)}",
        f"classification\t{_classification_text(fit.classification)}",
        f"residuals\t{','.join(str(r) for r in fit.residuals)}",
        f"spread\t{fit.spread}",
        f"spread_bound\t{fit.spread_bound}",
    ]
    return rows


def _fit_json(fit: FitResult) -> dict:
    return {
        "fitted": _triple_json(fit.params),
        "classification": _classification_json(fit.classification),
        "n_min": fit.n_min,
        "residuals": list(fit.residuals),
        "spread": fit.spread,
        "spread_bound": fit.spread_bound,
    }


def _emit_json(out: TextIO, command: str, payload: dict) -> None:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    json.dump(doc, out, indent=2, sort_keys=False)
    out.write("\n")


def _compute_sequence(spec: RunSpec, k_override: int | None, cap: int) -> OrderSequence:
    shift = spec.shift if k_override is None else k_override
    return order_sequence(
        spec.module,
        spec.descent,
        spec.n_min,
        spec.n_max,
        k=shift,
        dimension_cap=cap,
    )


def _cmd_orders(args: argparse.Namespace, out: TextIO) -> int:
    spec = _read_spec(args.file)
    seq = _compute_sequence(spec, args.k, args.cap)
    if args.json:
        _emit_json(out, "orders", _sequence_json(seq))
    else:
        out.write("\n".join(_sequence_rows(seq)) + "\n")
    return 0


def _cmd_invariants(args: argparse.Namespace, out: TextIO) -> int:
    spec = _read_spec(args.file)
    # validation and the defect bound build l^e-sized objects with no cap of their own
    check_presentation(spec.module, spec.descent, DEFAULT_DIMENSION_CAP)
    require_valid(spec.module, spec.descent)
    inv = structural_invariants(spec.module)
    case = classify_case(spec.module, spec.descent)
    predicted = predict_parameters(spec.module, spec.descent)
    # the generic prediction is lam - defect; the other cases have no defect
    defect = inv.lam - predicted.lam_tilde if case is CaseTag.GENERIC else 0
    bound = defect_bound(spec.module, spec.descent)
    if args.json:
        _emit_json(
            out,
            "invariants",
            {
                "case": case.value,
                "free_rank": inv.free_rank,
                "mu": inv.mu,
                "lam": inv.lam,
                "defect": defect,
                "defect_bound": bound,
                "predicted": _triple_json(predicted),
            },
        )
    else:
        rows = [
            f"case\t{case.value}",
            f"free_rank\t{inv.free_rank}",
            f"mu\t{inv.mu}",
            f"lam\t{inv.lam}",
            f"defect\t{defect}",
            f"defect_bound\t{bound}",
            f"predicted\t{_triple_text(predicted)}",
        ]
        out.write("\n".join(rows) + "\n")
    return 0


def _cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    spec = _read_spec(args.file)
    seq = _compute_sequence(spec, args.k, args.cap)
    fit = fit_parameters(seq)
    if args.json:
        _emit_json(out, "fit", _fit_json(fit))
    else:
        out.write("\n".join(_fit_rows(fit)) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    spec = _read_spec(args.file)
    # the sequence checks the cap and validates before the defect is ranked
    seq = _compute_sequence(spec, args.k, args.cap)
    predicted = predict_parameters(spec.module, spec.descent)
    fit = fit_parameters(seq)
    report = verify_prediction(predicted, fit)
    if args.json:
        _emit_json(
            out,
            "verify",
            {
                "predicted": _triple_json(report.predicted),
                "fitted": _triple_json(report.fitted),
                "classification": _classification_json(report.classification),
                "detail": report.detail,
                "passed": report.passed,
            },
        )
    else:
        rows = [
            f"predicted\t{_triple_text(report.predicted)}",
            f"fitted\t{_triple_text(report.fitted)}",
            f"classification\t{_classification_text(report.classification)}",
            f"detail\t{report.detail}",
            f"verdict\t{report.verdict}",
        ]
        out.write("\n".join(rows) + "\n")
    return 0 if report.passed else 1


def _cmd_scenario(args: argparse.Namespace, out: TextIO) -> int:
    scenario: Scenario = builtin_scenario(args.name)
    n_min = scenario.n_min if args.n_min is None else args.n_min
    n_max = scenario.n_max if args.n_max is None else args.n_max
    shift = scenario.shift if args.k is None else args.k
    # the full-span descent (l^e generators) is built once the window passes
    check_caps(scenario.module, n_min, n_max, shift, args.cap)
    seq = order_sequence(
        scenario.module,
        scenario.descent,
        n_min,
        n_max,
        k=shift,
        dimension_cap=args.cap,
    )
    # after the sequence, which checks the cap and validates before any defect
    predicted = predict_parameters(scenario.module, scenario.descent)
    if not (
        predicted.same_triple(scenario.expected)
        and predicted.grade is scenario.expected.grade
    ):
        raise ValueError(
            f"scenario {scenario.name!r} expectation {scenario.expected} disagrees "
            f"with the predicted parameters {predicted}"
        )
    fit = fit_parameters(seq)
    report = verify_prediction(scenario.expected, fit)
    if args.json:
        _emit_json(
            out,
            "scenario",
            {
                "name": scenario.name,
                "description": scenario.description,
                "sequence": _sequence_json(seq),
                "expected": _triple_json(scenario.expected),
                "fitted": _triple_json(report.fitted),
                "classification": _classification_json(report.classification),
                "detail": report.detail,
                "passed": report.passed,
            },
        )
    else:
        rows = [
            f"name\t{scenario.name}",
            f"description\t{scenario.description}",
            *_sequence_rows(seq),
            f"expected\t{_triple_text(scenario.expected)}",
            f"fitted\t{_triple_text(report.fitted)}",
            f"classification\t{_classification_text(report.classification)}",
            f"verdict\t{report.verdict}",
        ]
        out.write("\n".join(rows) + "\n")
    return 0 if report.passed else 1


def _parse_side(text: str) -> MirrorSide:
    """Parse rho=..,mu=..,lam_tilde=..,defect=..,stable=.. into a side."""
    fields = {}
    for piece in text.split(","):
        key, sep, value = piece.partition("=")
        if not sep:
            raise ValueError(f"malformed mirror side field {piece!r}")
        try:
            fields[key.strip()] = int(value.strip())
        except ValueError:
            raise ValueError(f"mirror side field {key.strip()!r} needs an integer") from None
    required = {"rho", "mu", "lam_tilde", "defect", "stable"}
    missing = required - fields.keys()
    if missing:
        raise ValueError(f"mirror side is missing: {', '.join(sorted(missing))}")
    extra = fields.keys() - required
    if extra:
        raise ValueError(f"mirror side has unknown fields: {', '.join(sorted(extra))}")
    params = ParamTriple(
        fields["rho"], fields["mu"], fields["lam_tilde"], Grade.BOUNDED
    )
    return MirrorSide(
        params=params, finite_defect=fields["defect"], stable_rank=fields["stable"]
    )


def _cmd_mirror(args: argparse.Namespace, out: TextIO) -> int:
    if (args.left is None) != (args.right is None):
        raise ValueError("mirror needs either --level or both --left and --right")
    if args.left is not None:
        if args.level is not None:
            raise ValueError("pass either --level or explicit sides, not both")
        left = _parse_side(args.left)
        right = _parse_side(args.right)
    else:
        if args.level is None:
            raise ValueError("mirror needs either --level or both --left and --right")
        left, right = mirror_context_for_full_span(args.level)
    report = mirror_check(left, right)
    if args.json:
        _emit_json(
            out,
            "mirror",
            {
                "checks": [
                    {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok}
                    for c in report.checks
                ],
                "warnings": list(report.warnings),
                "passed": report.passed,
            },
        )
    else:
        rows = [f"{c.name}\t{c.lhs}\t{c.rhs}\t{'ok' if c.ok else 'MISMATCH'}" for c in report.checks]
        rows.extend(f"warning\t{w}" for w in report.warnings)
        rows.append(f"verdict\t{report.verdict}")
        out.write("\n".join(rows) + "\n")
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for every call in this process, built on the first one.

    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    sharing it carries no option value from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="towergrowth",
        description="Exact order growth along towers for elementary modules "
        "with descent data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_run: bool = True) -> None:
        if with_run:
            p.add_argument(
                "--k", type=int, default=None, help="override the exponent shift"
            )
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_DIMENSION_CAP,
                help="cap on the ambient dimension and on the precision n + k "
                "(default %(default)s)",
            )
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("orders", help="order valuations over the run window")
    p.add_argument("file", help="run description file, or - for stdin")
    add_common(p)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("invariants", help="structural invariants and prediction")
    p.add_argument("file", help="run description file, or - for stdin")
    add_common(p, with_run=False)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("fit", help="fit asymptotic parameters to the sequence")
    p.add_argument("file", help="run description file, or - for stdin")
    add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="check the prediction against the fit")
    p.add_argument("file", help="run description file, or - for stdin")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument(
        "name",
        help="scenario name, optionally with arguments, e.g. prop14:e=1 "
        f"(known: {', '.join(scenario_names())})",
    )
    p.add_argument("--n-min", type=int, default=None, help="override window start")
    p.add_argument("--n-max", type=int, default=None, help="override window end")
    add_common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("mirror", help="check mirror identities")
    p.add_argument(
        "--level", type=int, default=None, help="use the reference pair at this level"
    )
    p.add_argument("--left", default=None, help="rho=..,mu=..,lam_tilde=..,defect=..,stable=..")
    p.add_argument("--right", default=None, help="same format as --left")
    add_common(p, with_run=False)
    p.set_defaults(func=_cmd_mirror)

    return parser


def run_command(argv: list[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Run one CLI invocation; returns the exit code without exiting.

    Everything the call prints, argparse's usage errors and --help included,
    goes to ``out`` and ``err`` (the process's streams when not given).
    """
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        # argparse prints usage errors and --help to sys.stderr and sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args, out)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=err)
        return 3
    except AmbiguousFitError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
