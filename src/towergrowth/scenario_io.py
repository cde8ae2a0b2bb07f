"""Plain-text run descriptions: parsing and canonical serialization.

A run file has up to four sections.  Blank lines and ``#`` comments are
ignored; keys take ``key = value`` form.

    [prime]
    l = 2

    [module]
    free_rank = 1
    lpower = 1          # Z_l-torsion factor l^1, repeatable
    poly = [0, 2, 1]    # distinguished factor, ascending coefficients

    [descent]
    kind = generic      # or: special
    e = 1
    generator = [[0, 1], [0], [0]]   # one coefficient list per coordinate

    [run]
    n_min = 2
    n_max = 6
    k = 0

Torsion factors keep their file order, which fixes the coordinate layout the
generators refer to: free coordinates first, then one coordinate per torsion
factor.  The [run] section may be omitted; the default window then starts
just above the descent level and is wide enough for parameter fitting.
The reader fills in those defaults and keeps the window as written: the
window commands refuse an empty one through ``quotients.check_window``.
Parse errors carry the offending line number.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re

from .modules import (
    DescentDatum,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    ModuleElement,
    SpecialDescent,
    TorsionFactor,
)
from .polynomials import IntPoly, as_prime, is_distinguished
from .scenarios import default_level_range


class ScenarioParseError(ValueError):
    """Malformed or semantically invalid run file."""

    def __init__(self, line: int | None, message: str) -> None:
        self.line = line
        self.problem = message
        where = "input" if line is None else f"line {line}"
        super().__init__(f"{where}: {message}")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything needed to compute and fit one order sequence."""

    module: ElementaryModule
    descent: DescentDatum
    n_min: int
    n_max: int
    shift: int = 0


_SECTIONS = ("prime", "module", "descent", "run")
_SCALAR_KEYS = {
    ("prime", "l"),
    ("module", "free_rank"),
    ("descent", "kind"),
    ("descent", "e"),
    ("run", "n_min"),
    ("run", "n_max"),
    ("run", "k"),
}


def _parse_int(value: str, line: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ScenarioParseError(line, f"{key} needs an integer, got {value!r}") from None


# values json.loads reads exactly as literal_eval does: a bracketed list of
# integers, or of integer lists, in JSON's integer spelling with spaces and
# tabs only, and at most 600 digits an integer, below the least
# int_max_str_digits (640) json may be held to.  json reads true, NaN and
# 1e3, which literal_eval rejects or types differently.
_INT = r"-?(?:0|[1-9][0-9]{0,599})"
_INT_LIST = rf"\[[ \t]*(?:{_INT}(?:[ \t]*,[ \t]*{_INT})*[ \t]*)?\]"
_POLY = re.compile(_INT_LIST)
_GENERATOR = re.compile(rf"\[[ \t]*(?:{_INT_LIST}(?:[ \t]*,[ \t]*{_INT_LIST})*[ \t]*)?\]")


def _literal(value: str, line: int, message: str) -> object:
    # A generator matching _GENERATOR does not come here: parse_run decodes
    # all of them in one json.loads of their comma-joined values after its
    # loop.  Each is valid JSON of that shape on its own, so the decode cannot
    # fail, and brackets that balance only across two lines, [[1]],[[2] then
    # [3]], match neither.  literal_eval decides every other value.
    if _POLY.fullmatch(value):
        return json.loads(value)
    try:
        return ast.literal_eval(value)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        # malformed, unhashable set or dict members, or nested too deeply
        raise ScenarioParseError(line, message) from None


def _parse_int_list(value: str, line: int, key: str) -> list[int]:
    parsed = _literal(value, line, f"{key} needs a list like [0, 1]")
    if not isinstance(parsed, list) or not all(isinstance(x, int) for x in parsed):
        raise ScenarioParseError(line, f"{key} needs a list of integers")
    return parsed


def _parse_nested_list(value: str, line: int, key: str) -> list[list[int]]:
    parsed = _literal(value, line, f"{key} needs a list of coefficient lists")
    # an empty outer list is a generator for the zero module
    if not isinstance(parsed, list) or not all(
        isinstance(c, list) and all(isinstance(x, int) for x in c) for c in parsed
    ):
        raise ScenarioParseError(
            line, f"{key} needs one integer coefficient list per coordinate"
        )
    return parsed


def parse_run(text: str) -> RunSpec:
    """Parse a run file into validated objects.

    Raises ``ScenarioParseError`` with a line number on malformed input.
    Descent validity (stability of the generator span) is a deeper semantic
    property and is checked by the computations, not here.
    """
    section: str | None = None
    scalars: dict[tuple[str, str], tuple[str, int]] = {}
    torsion: list[tuple[str, object, int]] = []
    # a generator matching _GENERATOR waits as None for the one batch decode
    generators: list[tuple[list[list[int]] | None, int]] = []
    batch: list[str] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(line_no, "unterminated section header")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                known = ", ".join(f"[{s}]" for s in _SECTIONS)
                raise ScenarioParseError(
                    line_no, f"unknown section [{name}]; known sections: {known}"
                )
            section = name
            continue
        if section is None:
            raise ScenarioParseError(line_no, "key outside any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ScenarioParseError(line_no, "expected key = value")
        key = key.strip()
        value = value.strip()
        if section == "module" and key == "lpower":
            torsion.append(("lpower", _parse_int(value, line_no, key), line_no))
        elif section == "module" and key == "poly":
            torsion.append(("poly", _parse_int_list(value, line_no, key), line_no))
        elif section == "descent" and key == "generator":
            if _GENERATOR.fullmatch(value):
                batch.append(value)
                generators.append((None, line_no))
            else:
                generators.append((_parse_nested_list(value, line_no, key), line_no))
        elif (section, key) in _SCALAR_KEYS:
            if (section, key) in scalars:
                raise ScenarioParseError(line_no, f"duplicate key {key!r}")
            scalars[(section, key)] = (value, line_no)
        else:
            raise ScenarioParseError(line_no, f"unknown key {key!r} in [{section}]")
    if batch:
        decoded = iter(json.loads("[" + ",".join(batch) + "]"))
        generators = [
            (next(decoded) if parsed is None else parsed, line_no)
            for parsed, line_no in generators
        ]

    def integer(section: str, key: str, default: int = 0) -> tuple[int, int | None]:
        # (value, line) of a scalar key, or (default, None) when it is absent
        if (section, key) not in scalars:
            return default, None
        value, line_no = scalars[(section, key)]
        return _parse_int(value, line_no, key), line_no

    # prime
    if ("prime", "l") not in scalars:
        raise ScenarioParseError(None, "missing [prime] section with l = <prime>")
    ell, line_no = integer("prime", "l")
    try:
        prime = as_prime(ell)
    except ValueError as exc:
        raise ScenarioParseError(line_no, str(exc)) from None

    # module
    free_rank, line_no = integer("module", "free_rank")
    if free_rank < 0:
        raise ScenarioParseError(line_no, "free_rank must be nonnegative")
    factors: list[TorsionFactor] = []
    for kind, payload, line_no in torsion:
        if kind == "lpower":
            if payload < 1:
                raise ScenarioParseError(line_no, "lpower needs a positive exponent")
            factors.append(LPower(exponent=payload))
        else:
            poly = IntPoly(tuple(payload))
            if poly.degree < 1:
                raise ScenarioParseError(line_no, "poly needs degree at least one")
            if not is_distinguished(poly, prime):
                raise ScenarioParseError(
                    line_no,
                    "poly must be monic with all lower coefficients divisible "
                    f"by {ell}",
                )
            factors.append(DistinguishedFactor(poly=poly))
    module = ElementaryModule(
        prime=prime, free_rank=free_rank, torsion_factors=tuple(factors)
    )

    # descent
    if ("descent", "kind") not in scalars:
        raise ScenarioParseError(
            None, "missing [descent] section with kind = special or generic"
        )
    value, kind_line = scalars[("descent", "kind")]
    if value not in ("special", "generic"):
        raise ScenarioParseError(
            kind_line, f"kind must be special or generic, got {value!r}"
        )
    special = value == "special"
    if special and ("descent", "e") in scalars:
        raise ScenarioParseError(
            scalars[("descent", "e")][1], "special descent takes no level e"
        )
    if special and generators:
        raise ScenarioParseError(
            generators[0][1], "special descent takes no generators"
        )
    if not special and ("descent", "e") not in scalars:
        raise ScenarioParseError(kind_line, "generic descent needs a level e")
    level, line_no = integer("descent", "e")
    if level < 0:
        raise ScenarioParseError(line_no, "level e must be nonnegative")
    elements = []
    for coeff_lists, line_no in generators:
        if len(coeff_lists) != module.coordinate_count:
            raise ScenarioParseError(
                line_no,
                f"generator has {len(coeff_lists)} coordinate lists, the "
                f"module has {module.coordinate_count} coordinates",
            )
        coords = tuple(IntPoly(tuple(c)) for c in coeff_lists)
        elements.append(
            ModuleElement(
                free_coords=coords[:free_rank],
                torsion_coords=coords[free_rank:],
            )
        )
    descent: DescentDatum = (
        SpecialDescent() if special else GenericDescent(level=level, generators=tuple(elements))
    )

    # run window: check_window refuses an empty one
    default_min, default_max = default_level_range(ell, level)
    n_min, _ = integer("run", "n_min", default_min)
    n_max, _ = integer("run", "n_max", default_max)
    shift, _ = integer("run", "k")

    return RunSpec(
        module=module, descent=descent, n_min=n_min, n_max=n_max, shift=shift
    )


def serialize_run(run: RunSpec) -> str:
    """Canonical text form, a zero polynomial as ``[0]``; ``parse_run`` inverts it exactly."""
    lines = ["[prime]", f"l = {run.module.prime.value}", "", "[module]"]
    lines.append(f"free_rank = {run.module.free_rank}")
    for factor in run.module.torsion_factors:
        if isinstance(factor, LPower):
            lines.append(f"lpower = {factor.exponent}")
        else:
            lines.append(f"poly = {json.dumps(factor.poly.coeffs)}")
    lines.extend(["", "[descent]"])
    if isinstance(run.descent, SpecialDescent):
        lines.append("kind = special")
    else:
        lines.append("kind = generic")
        lines.append(f"e = {run.descent.level}")
        for gen in run.descent.generators:
            coords = [c.coeffs or [0] for c in gen.coords]
            lines.append(f"generator = {json.dumps(coords)}")
    lines.extend(
        [
            "",
            "[run]",
            f"n_min = {run.n_min}",
            f"n_max = {run.n_max}",
            f"k = {run.shift}",
            "",
        ]
    )
    return "\n".join(lines)
