"""The four workloads: the operations of one round and the check of each result.

A round is a fixed list of operations, each one call into towergrowth through
``towergrowth.cli.run_command`` with ``--json`` or through the library
functions that command calls.  Inputs come from ``oracle`` and the seed;
every result is compared with a value computed there, apart from the
program.  Check functions return ``None`` when the result is right and a
one-line reason otherwise, so a wrong value shows up as a failed operation.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import random
import sys
from pathlib import Path
from typing import Callable

import oracle


@dataclasses.dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # set on the one operation that fails every time because of a known fault
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# checks


def _document(result: CliResult, command: str) -> tuple[dict | None, str | None]:
    if result.code != 0:
        return None, f"exit {result.code}: {result.err.strip()[:200]}"
    try:
        doc = json.loads(result.out)
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
    if doc.get("command") != command:
        return None, f"expected a {command!r} document, got {doc.get('command')!r}"
    return doc, None


def _triple(doc: dict) -> tuple:
    return (doc.get("rho"), doc.get("mu"), doc.get("lam_tilde"))


def check_orders(result: CliResult, expected: dict[int, int], k: int) -> str | None:
    doc, reason = _document(result, "orders")
    if reason:
        return reason
    if doc.get("k") != k:
        return f"k={doc.get('k')}, expected {k}"
    got = {n: x for n, x in doc.get("entries", [])}
    if got != expected:
        return f"x(n, {k}) = {got}, expected {expected}"
    return None


def check_verify(result: CliResult, triple: tuple[int, int, int]) -> str | None:
    doc, reason = _document(result, "verify")
    if reason:
        return reason
    for key in ("predicted", "fitted"):
        if _triple(doc[key]) != triple:
            return f"{key} {_triple(doc[key])}, expected {triple}"
    if doc.get("passed") is not True:
        return f"verify did not pass: {doc.get('detail')}"
    return None


def check_scenario(
    result: CliResult, expected: dict[int, int], triple: tuple[int, int, int]
) -> str | None:
    doc, reason = _document(result, "scenario")
    if reason:
        return reason
    got = {n: x for n, x in doc["sequence"]["entries"]}
    if got != expected:
        return f"sequence {got}, expected {expected}"
    for key in ("expected", "fitted"):
        if _triple(doc[key]) != triple:
            return f"{key} {_triple(doc[key])}, expected {triple}"
    if doc.get("passed") is not True:
        return f"scenario did not pass: {doc.get('detail')}"
    return None


def check_invariants(result: CliResult, case: oracle.DescentCase) -> str | None:
    if not case.valid:
        if result.code == 2 and "invalid descent datum" in result.err:
            return None
        return f"invalid datum accepted: exit {result.code}, {result.err.strip()[:200]}"
    doc, reason = _document(result, "invariants")
    if reason:
        return reason
    got = (doc.get("case"), doc.get("free_rank"), doc.get("mu"), doc.get("lam"), doc.get("defect"))
    want = ("generic", case.free_rank, case.mu, case.lam, case.kappa)
    if got != want:
        return f"(case, free_rank, mu, lam, defect) = {got}, expected {want}"
    if _triple(doc["predicted"]) != case.predicted or doc["predicted"].get("grade") != "bounded":
        return f"predicted {doc['predicted']}, expected {case.predicted} bounded"
    return None


def check_fit(outcome: tuple, triple: tuple[int, int, int]) -> str | None:
    """``outcome`` is ("fit", triple) or ("ambiguous", candidate triples).

    Only the triple is compared, never the grade.
    """
    kind, value = outcome
    if kind == "fit":
        return None if tuple(value) == triple else f"fitted {tuple(value)}, expected {triple}"
    if kind == "ambiguous":
        if triple in {tuple(c) for c in value}:
            return None
        return f"{len(value)} ambiguous candidates, none of them {triple}"
    return f"unexpected outcome {kind!r}"


def check_descent_verify(outcome: tuple, case: oracle.DescentCase) -> str | None:
    predicted, fit_outcome = outcome
    if tuple(predicted) != case.predicted:
        return f"predicted {tuple(predicted)}, expected {case.predicted}"
    return check_fit(fit_outcome, case.predicted)


# ---------------------------------------------------------------------------
# calls into the program


class Program:
    """Late-bound access to towergrowth, so that tracing wrappers are seen."""

    def __init__(self) -> None:
        import towergrowth
        import towergrowth.cli

        self.tg = towergrowth
        self.cli = towergrowth.cli

    def run(self, argv: list[str], stdin_text: str | None = None) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            code = self.cli.run_command(argv, out, err)
        finally:
            sys.stdin = saved
        return CliResult(code, out.getvalue(), err.getvalue())

    def fit(self, ell: int, n_min: int, values: tuple[int, ...]) -> tuple:
        tg = self.tg
        seq = tg.OrderSequence(ell, 0, 0, n_min, values)
        try:
            p = tg.fit_parameters(seq).params
        except tg.AmbiguousFitError as exc:
            return ("ambiguous", [c[:3] for c in exc.candidates])
        return ("fit", (p.rho, p.mu, p.lam_tilde))

    def verify(self, text: str) -> tuple:
        """What ``towergrowth verify`` does, with the fit outcome kept whole."""
        tg = self.tg
        spec = tg.parse_run(text)
        predicted = tg.predict_parameters(spec.module, spec.descent)
        seq = tg.order_sequence(spec.module, spec.descent, spec.n_min, spec.n_max, k=spec.shift)
        try:
            fit = tg.fit_parameters(seq)
        except tg.AmbiguousFitError as exc:
            outcome = ("ambiguous", [c[:3] for c in exc.candidates])
        else:
            tg.verify_prediction(predicted, fit)
            p = fit.params
            outcome = ("fit", (p.rho, p.mu, p.lam_tilde))
        return ((predicted.rho, predicted.mu, predicted.lam_tilde), outcome)


# ---------------------------------------------------------------------------
# workloads


def _orders_op(program: Program, label: str, text: str, n: int, k: int, x: int) -> Op:
    run_text = oracle.with_window(text, n, n)
    return Op(
        f"orders {label} n={n} k={k}",
        lambda: program.run(["orders", "-", "--json", "--k", str(k)], run_text),
        lambda r: check_orders(r, {n: x}, k),
    )


def coupled_ladder(program: Program, root: Path, rng: random.Random) -> list[Op]:
    """One ``orders`` call per level up the ladder, then ``verify`` (or
    ``scenario``) over the input's default window.  Each level is computed
    once, so the top rung is the slowest operation."""
    mixed_path = root / "tests" / "golden" / "mixed.run"
    special2 = oracle.special_module_text(2)
    special3 = oracle.special_module_text(3)

    def x_special2(n: int) -> int:
        return oracle.x_special(2, n, 0)

    inputs = [
        ("mixed.run", mixed_path.read_text(encoding="utf-8"), 8,
         lambda n: oracle.x_mixed(n, 0),
         ["verify", str(mixed_path), "--json"], None,
         functools.partial(check_verify, triple=oracle.TRIPLE_MIXED)),
        ("special-demo", special2, 8, x_special2,
         ["scenario", "special-demo", "--n-min", "1", "--n-max", "6", "--json"], None,
         functools.partial(check_scenario, expected={n: x_special2(n) for n in range(1, 7)},
                           triple=oracle.TRIPLE_SPECIAL)),
        ("special l=3", special3, 5, lambda n: oracle.x_special(3, n, 0),
         ["verify", "-", "--json"], special3,
         functools.partial(check_verify, triple=oracle.TRIPLE_SPECIAL)),
    ]
    rng.shuffle(inputs)
    ops = []
    for label, text, top, x, argv, stdin_text, check in inputs:
        ops += [_orders_op(program, label, text, n, 0, x(n)) for n in range(1, top + 1)]
        ops.append(Op(
            f"{argv[0]} {label} default window",
            lambda a=argv, t=stdin_text: program.run(a, t),
            check,
        ))
    return ops


FULL_SPAN_FAMILIES = (
    # scenario name, l, free rank, e, top level
    ("prop14:e=0", 2, 1, 0, 11),
    ("prop14:e=2", 2, 1, 2, 11),
    ("prop14:e=4", 2, 1, 4, 11),
    ("prop15:l=3,e=0", 3, 1, 0, 7),
    ("prop15:l=5,e=0", 5, 2, 0, 4),
)


def free_ladder(program: Program, root: Path, rng: random.Random) -> list[Op]:
    families = list(FULL_SPAN_FAMILIES)
    rng.shuffle(families)
    ops = []
    for name, ell, rank, e, top in families:
        text = oracle.full_span_text(ell, rank, e)
        levels = range(e + 1, top + 1)
        ops += [
            _orders_op(program, name, text, n, 0, oracle.x_full_span(ell, rank, e, n, 0))
            for n in levels
        ]
        expected = {n: oracle.x_full_span(ell, rank, e, n, 0) for n in levels}
        triple = oracle.full_span_triple(ell, rank, e)
        ops.append(Op(
            f"scenario {name} n={e + 1}..{top}",
            lambda s=name, t=top: program.run(["scenario", s, "--n-max", str(t), "--json"]),
            lambda r, ex=expected, tr=triple: check_scenario(r, ex, tr),
        ))
    return ops


def k_sweep(program: Program, root: Path, rng: random.Random) -> list[Op]:
    mixed = (root / "tests" / "golden" / "mixed.run").read_text(encoding="utf-8")
    special3 = oracle.special_module_text(3)
    # k runs from 0 to twice the first k with l^(n+k) >= 2^31 (24 and 16)
    ops = [_orders_op(program, "mixed.run", mixed, 7, k, oracle.x_mixed(7, k))
           for k in range(0, 49, 4)]
    ops += [_orders_op(program, "special l=3", special3, 4, k, oracle.x_special(3, 4, k))
            for k in range(0, 33, 2)]
    rng.shuffle(ops)
    # one verify per input over its default window at k = 0, so that the
    # invariants and fitting layers are timed here too; at k > 0 verify
    # reports FAIL on correct data, because the fit reads mu + rho * k
    for label, text, top, triple in (
        ("mixed.run", mixed, 5, oracle.TRIPLE_MIXED),
        ("special l=3", special3, 4, oracle.TRIPLE_SPECIAL),
    ):
        window = oracle.with_window(text, 1, top)
        ops.append(Op(
            f"verify {label} n=1..{top}",
            lambda w=window: program.run(["verify", "-", "--json"], w),
            lambda r, tr=triple: check_verify(r, tr),
        ))
    return ops


# (l, e, free rank, span degree per coordinate, padding probability) of the
# cases run through ``invariants``; the e=5 case is left unpadded because
# padded data there make the integer diagonalization's cost vary >10x by seed
INVARIANT_SLOTS = (
    (2, 3, 2, (6, 7, 2, 0), 0.3),
    (2, 4, 2, (12, 14, 4, 0), 0.3),
    (2, 5, 2, (24, 30, 4, 0), 0.0),
    (3, 2, 2, (7, 8, 2, 0), 0.3),
    (3, 3, 1, (26, 8, 0), 0.3),
)
INVALID_SLOT = (2, 2, 2, (3, 4, 0, 0), 0.3)
# cases run through verify over the default window
VERIFY_SLOTS = (
    (2, 0, 2, (1, 1, 1, 0), 0.3),
    (2, 1, 2, (2, 1, 1, 0), 0.3),
    (2, 2, 2, (3, 4, 2, 0), 0.3),
    (2, 3, 2, (6, 5, 2, 1), 0.3),
    (3, 0, 1, (1, 1, 0), 0.3),
    (3, 1, 1, (3, 2, 1), 0.3),
)
PLANTED_FITS = 8
# the planted triple lies outside the fitter's search: rho_cap and mu_cap are
# clamped at 64, so it raises AmbiguousFitError without the true triple
KNOWN_FAULT = oracle.planted(2, 70, 0, 0, "n mod 2", 1, 6)


def _case(rng: random.Random, slot: tuple, truncate: bool = False) -> oracle.DescentCase:
    ell, e, free_rank, spans, pad = slot
    return oracle.descent_case(rng, ell, e, free_rank, spans, truncate=truncate, pad=pad)


def descent_fit(program: Program, root: Path, rng: random.Random) -> list[Op]:
    ops = []
    for slot in INVARIANT_SLOTS:
        case = _case(rng, slot)
        ops.append(Op(
            f"invariants l={case.ell} e={case.e} gens={case.generator_count}",
            lambda c=case: program.run(["invariants", "-", "--json"], c.text),
            lambda r, c=case: check_invariants(r, c),
        ))
    case = _case(rng, INVALID_SLOT, truncate=True)
    ops.append(Op(
        f"invariants l={case.ell} e={case.e} invalid",
        lambda c=case: program.run(["invariants", "-", "--json"], c.text),
        lambda r, c=case: check_invariants(r, c),
    ))
    for slot in VERIFY_SLOTS:
        case = _case(rng, slot)
        ops.append(Op(
            f"verify l={case.ell} e={case.e} gens={case.generator_count}",
            lambda c=case: program.verify(c.text),
            lambda r, c=case: check_descent_verify(r, c),
        ))
    for i in range(PLANTED_FITS):
        ell = 2 if i % 2 == 0 else 3
        seq = oracle.planted(
            ell,
            rng.randint(0, 60),
            rng.randint(0, 60),
            rng.randint(-30, 30),
            rng.choice(sorted(oracle.RESIDUALS)),
            1,
            8 if ell == 2 else 6,
        )
        ops.append(Op(
            f"fit l={ell} planted {seq.triple}",
            lambda s=seq: program.fit(s.ell, s.n_min, s.values),
            lambda r, s=seq: check_fit(r, s.triple),
        ))
    ops.append(Op(
        f"fit l=2 planted {KNOWN_FAULT.triple} n mod 2, n=1..6",
        lambda: program.fit(KNOWN_FAULT.ell, KNOWN_FAULT.n_min, KNOWN_FAULT.values),
        lambda r: check_fit(r, KNOWN_FAULT.triple),
        known_fault="fitting.fit_parameters clamps rho_cap and mu_cap at 64",
    ))
    return ops


ROUND_OPS = {
    "coupled-ladder": coupled_ladder,
    "free-ladder": free_ladder,
    "k-sweep": k_sweep,
    "descent-fit": descent_fit,
}
WORKLOADS = tuple(ROUND_OPS)


def build(workload: str, program: Program, root: Path, seed: int) -> list[Op]:
    return ROUND_OPS[workload](program, root, random.Random(f"{workload}:{seed}"))
