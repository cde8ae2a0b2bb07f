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
document with schema tag "towergrowth/1".  Each subcommand's handler computes
and returns its exit code and JSON payload; ``run_command`` alone writes, the
document or the text rows that ``_rows`` reads from it, in one write.  The
window fields of a sequence or a fit, and the fields a command's table entry
marks, are JSON-only.  Exit codes: 0 success or PASS,
1 a check ran and failed, 2 bad input, 3 a resource cap was exceeded, 141
the output pipe was closed (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from collections.abc import Callable, Collection
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, TextIO

from .fitting import (
    BoundedSpread,
    Classification,
    FitResult,
    UltimatelyConstant,
    VerificationReport,
    check_fit_window,
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
from .quotients import _order_sequence, check_presentation, check_window
from .scenario_io import RunSpec, parse_run
from .scenarios import (
    MirrorSide,
    Scenario,
    _int_fields,
    builtin_scenario,
    mirror_check,
    mirror_context_for_full_span,
    scenario_names,
)

SCHEMA = "towergrowth/1"


def _read_spec(path: str) -> RunSpec:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_run(text)


def _triple_json(t: ParamTriple) -> dict:
    return {
        "rho": t.rho,
        "mu": t.mu,
        "lam_tilde": t.lam_tilde,
        "grade": t.grade.value,
        "nu": t.nu,
    }


def _classification_json(c: Classification) -> dict:
    if isinstance(c, UltimatelyConstant):
        return {"kind": "ultimately-constant", "from_n": c.from_n, "constant": c.constant}
    if isinstance(c, BoundedSpread):
        return {"kind": "bounded-spread", "low": c.low, "high": c.high}
    return {"kind": "unbounded", "trend": c.trend}


def _sequence_json(seq: OrderSequence) -> dict:
    return {
        "prime": seq.prime,
        "k": seq.shift,
        "level": seq.level,
        "n_min": seq.n_min,
        "entries": [[n, x] for n, x in seq.entries],
    }


def _fit_json(fit: FitResult) -> dict:
    return {
        "fitted": _triple_json(fit.params),
        "classification": _classification_json(fit.classification),
        "n_min": fit.n_min,
        "residuals": list(fit.residuals),
        "spread": fit.spread,
        "spread_bound": fit.spread_bound,
    }


def _window(source: RunSpec | Scenario, args: argparse.Namespace) -> tuple[int, int, int]:
    """(n_min, n_max, k) of a run or a scenario, each replaced by its option when given."""

    def pick(field: str, dest: str) -> int:
        given = getattr(args, dest, None)
        return getattr(source, field) if given is None else given

    return pick("n_min", "n_min"), pick("n_max", "n_max"), pick("shift", "k")


def _fitted_sequence(source: RunSpec | Scenario, args: argparse.Namespace) -> OrderSequence:
    """x(n, k) over the window of a run or a scenario, to be fitted.  The
    window passes ``check_window`` and then the fitter's four levels before
    the descent is read (a scenario may build it on that read), and only
    then is it refused at or below e and validated."""
    n_min, n_max, shift = _window(source, args)
    check_window(source.module, n_min, n_max, shift, args.cap)
    check_fit_window(n_min, n_max)
    return _order_sequence(source.module, source.descent, n_min, n_max, shift)


# what a handler returns: the exit code and the JSON payload
_Result = tuple[int, dict]


def _verdict(report: VerificationReport, head: dict) -> _Result:
    """The result of ``verify`` and ``scenario``: ``head``, then the report."""
    return 0 if report.passed else 1, {
        **head,
        "fitted": _triple_json(report.fitted),
        "classification": _classification_json(report.classification),
        "detail": report.detail,
        "passed": report.passed,
    }


def _cmd_orders(args: argparse.Namespace) -> _Result:
    spec = _read_spec(args.file)
    n_min, n_max, shift = _window(spec, args)
    seq = order_sequence(spec.module, spec.descent, n_min, n_max, k=shift, dimension_cap=args.cap)
    return 0, _sequence_json(seq)


def _cmd_invariants(args: argparse.Namespace) -> _Result:
    spec = _read_spec(args.file)
    # validation and the defect bound build l^e-sized objects with no cap of their own
    check_presentation(spec.module, spec.descent, DEFAULT_DIMENSION_CAP)
    require_valid(spec.module, spec.descent)
    inv = structural_invariants(spec.module)
    case = classify_case(spec.module, spec.descent)
    predicted = predict_parameters(spec.module, spec.descent)
    # the generic prediction is lam - defect; the other cases have no defect
    defect = inv.lam - predicted.lam_tilde if case is CaseTag.GENERIC else 0
    return 0, {
        "case": case.value,
        "free_rank": inv.free_rank,
        "mu": inv.mu,
        "lam": inv.lam,
        "defect": defect,
        "defect_bound": defect_bound(spec.module, spec.descent),
        "predicted": _triple_json(predicted),
    }


def _cmd_fit(args: argparse.Namespace) -> _Result:
    spec = _read_spec(args.file)
    return 0, _fit_json(fit_parameters(_fitted_sequence(spec, args)))


def _cmd_verify(args: argparse.Namespace) -> _Result:
    spec = _read_spec(args.file)
    # the sequence checks the cap and validates before the defect is ranked
    seq = _fitted_sequence(spec, args)
    predicted = predict_parameters(spec.module, spec.descent)
    report = verify_prediction(predicted, fit_parameters(seq))
    return _verdict(report, {"predicted": _triple_json(predicted)})


def _cmd_scenario(args: argparse.Namespace) -> _Result:
    scenario: Scenario = builtin_scenario(args.name)
    # the full-span descent (l^e generators) is built once the window passes
    seq = _fitted_sequence(scenario, args)
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
    report = verify_prediction(scenario.expected, fit_parameters(seq))
    return _verdict(report, {
        "name": scenario.name,
        "description": scenario.description,
        "sequence": _sequence_json(seq),
        "expected": _triple_json(scenario.expected),
    })


def _parse_side(text: str) -> MirrorSide:
    """Parse rho=..,mu=..,lam_tilde=..,defect=..,stable=.. into a side."""
    fields = _int_fields(text, "mirror side field")
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


def _cmd_mirror(args: argparse.Namespace) -> _Result:
    if args.left is None and args.right is None and args.level is not None:
        left, right = mirror_context_for_full_span(args.level)
    elif args.left is None or args.right is None:
        raise ValueError("mirror needs either --level or both --left and --right")
    elif args.level is not None:
        raise ValueError("pass either --level or explicit sides, not both")
    else:
        left, right = _parse_side(args.left), _parse_side(args.right)
    report = mirror_check(left, right)
    return 0 if report.passed else 1, {
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "ok": c.ok} for c in report.checks
        ],
        "warnings": list(report.warnings),
        "passed": report.passed,
    }


# the window of a sequence or a fit, which only the JSON document carries
_WINDOW = frozenset({"prime", "k", "level", "n_min"})


def _rows(payload: dict, json_only: Collection[str] = ()) -> list[str]:
    """The text view of a payload, field by field: ``key<TAB>value`` for a
    scalar, one row for a nested object (its ``kind`` bare, then ``key=value``
    for each field that is not None), a list comma-joined, the ``n<TAB>x``
    table for ``entries`` (a nested sequence in place), a row per check and
    warning, and the verdict for ``passed``.  The window fields and
    ``json_only`` are left out."""
    rows = []
    for key, value in payload.items():
        if key in _WINDOW or key in json_only:
            continue
        if key == "passed":
            rows.append(f"verdict\t{'PASS' if value else 'FAIL'}")
        elif key == "entries":
            rows += ["n\tx", *(f"{n}\t{x}" for n, x in value)]
        elif key == "checks":
            rows += [
                f"{c['name']}\t{c['lhs']}\t{c['rhs']}\t{'ok' if c['ok'] else 'MISMATCH'}"
                for c in value
            ]
        elif key == "warnings":
            rows += [f"warning\t{w}" for w in value]
        elif isinstance(value, dict) and "entries" in value:
            rows += _rows(value)
        elif isinstance(value, dict):
            fields = (
                str(v) if k == "kind" else f"{k}={v}" for k, v in value.items() if v is not None
            )
            rows.append(f"{key}\t{' '.join(fields)}")
        elif isinstance(value, list):
            rows.append(f"{key}\t{','.join(map(str, value))}")
        else:
            rows.append(f"{key}\t{value}")
    return rows


class _Option(NamedTuple):
    """One ``--flag`` of a subcommand; ``type`` bool marks a flag that takes no value."""

    dest: str
    type: Callable[[str], object]
    default: object
    help: str


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], _Result]
    help: str
    positional: tuple[str, str] | None  # (dest, help)
    options: dict[str, _Option]  # keyed by the flag, in --help order
    json_only: frozenset[str] = frozenset()  # payload fields the text leaves out


def _options(*options: _Option) -> dict[str, _Option]:
    # the flag argparse derives the same dest from
    return {"--" + o.dest.replace("_", "-"): o for o in options}


_FILE = ("file", "run description file, or - for stdin")
_K = _Option("k", int, None, "override the exponent shift")
_CAP = _Option(
    "cap", int, DEFAULT_DIMENSION_CAP,
    "cap on the ambient dimension and on the precision n + k (default %(default)s)",
)
_JSON = _Option("json", bool, False, "emit JSON")
_RUN = _options(_K, _CAP, _JSON)

# every subcommand, read by both _read_argv and _build_parser
_COMMANDS = {
    "orders": _Command(_cmd_orders, "order valuations over the run window", _FILE, _RUN),
    "invariants": _Command(
        _cmd_invariants, "structural invariants and prediction", _FILE, _options(_JSON)
    ),
    "fit": _Command(_cmd_fit, "fit asymptotic parameters to the sequence", _FILE, _RUN),
    "verify": _Command(_cmd_verify, "check the prediction against the fit", _FILE, _RUN),
    "scenario": _Command(
        _cmd_scenario,
        "run a built-in scenario",
        ("name", "scenario name, optionally with arguments, e.g. prop14:e=1 "
                 f"(known: {', '.join(scenario_names())})"),
        _options(
            _Option("n_min", int, None, "override window start"),
            _Option("n_max", int, None, "override window end"),
            _K, _CAP, _JSON,
        ),
        json_only=frozenset({"detail"}),
    ),
    "mirror": _Command(
        _cmd_mirror,
        "check mirror identities",
        None,
        _options(
            _Option("level", int, None, "use the reference pair at this level"),
            _Option("left", str, None, "rho=..,mu=..,lam_tilde=..,defect=..,stable=.."),
            _Option("right", str, None, "same format as --left"),
            _JSON,
        ),
    ),
}

# argparse reads a token that starts with "-" as a value only when it is "-"
# or matches this (its own pattern, for a parser with no option like -1)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_value(token: str) -> bool:
    return not token.startswith("-") or token == "-" or bool(_NEGATIVE_NUMBER.match(token))


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would return for well-formed ``argv``, else None.

    Reads a subcommand name followed by any mix of its exact option names,
    each with one value, ``--json`` and at most one positional.  Anything
    else (help, abbreviations, ``--opt=value``, ``--``, a repeated option, a
    value argparse would read as an option or its type rejects, and every
    usage error) returns None and is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _COMMANDS[argv[0]]
    positional = command.positional[0] if command.positional else None
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = command.options.get(token)
        if option is None:
            if positional is None or positional in given or not _is_value(token):
                return None
            given[positional] = token
        elif option.dest in given:
            return None
        elif option.type is bool:
            given[option.dest] = True
        else:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                return None
            try:
                given[option.dest] = option.type(value)
            except ValueError:
                return None
    if positional is not None and positional not in given:
        return None
    defaults = {option.dest: option.default for option in command.options.values()}
    return argparse.Namespace(command=argv[0], func=command.handler, **(defaults | given))


def _json_text(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a document of dicts with str keys,
    lists, tuples and scalars.  With an indent json.dumps runs its
    pure-Python encoder; this writes the same bytes with the C string
    encoder, int.__repr__, json's constants and json.dumps of a float."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [inner + _json_text(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)  # a float, or the TypeError json.dumps raises


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser built from ``_COMMANDS``, kept for the process.

    Only argv that ``_read_argv`` leaves alone reaches it: ``--help`` and every
    usage error, so it is built on the first call that needs one of those.
    parse_args leaves the parser unchanged and returns a fresh Namespace, so
    sharing it carries no option value from one call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="towergrowth",
        description="Exact order growth along towers for elementary modules "
        "with descent data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.positional is not None:
            dest, help_text = command.positional
            p.add_argument(dest, help=help_text)
        for flag, option in command.options.items():
            if option.type is bool:
                p.add_argument(flag, action="store_true", help=option.help)
            else:
                p.add_argument(flag, type=option.type, default=option.default, help=option.help)
        p.set_defaults(func=command.handler)
    return parser


def run_command(argv: list[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Run one CLI invocation; returns the exit code without exiting.

    Everything the call prints, argparse's usage errors and --help included,
    goes to ``out`` and ``err`` (the process's streams when not given): the
    handler's result is written here, as JSON with ``--json``, else as text.  A
    closed ``out`` returns 141, as a shell reports for a pipeline writer.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    args = _read_argv(argv)
    if args is None:
        try:
            # argparse prints usage errors and --help to sys.stderr and sys.stdout
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code or 0
            return code if isinstance(code, int) else 2
    try:
        code, payload = args.func(args)
        if args.json:
            doc = {"schema": SCHEMA, "command": args.command, **payload}
            out.write(_json_text(doc) + "\n")
        else:
            rows = _rows(payload, _COMMANDS[args.command].json_only)
            out.write("\n".join(rows) + "\n")
        return code
    except BrokenPipeError:
        return 141
    except CapExceeded as exc:
        print(f"error: {exc}", file=err)
        return 3
    except (ValueError, OSError) as exc:  # ScenarioParseError and AmbiguousFitError too
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        # a closed pipe shows here, while stdout's last block is written
        sys.stdout.flush()
    except BrokenPipeError:
        # so that the interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
