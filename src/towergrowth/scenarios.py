"""Built-in scenarios and the mirror-identity checker.

A scenario packages a module, descent data, the expected asymptotic
parameters, and a default level window over which the expectation should be
visible.  Building one checks nothing.  The descent may be given as a
function that builds it on the first read of ``Scenario.descent``, as the
full-span scenarios do, so the ``scenario`` command checks the window
against the cap before their l^e generators per free coordinate exist; it
compares the expectation with the prediction after the sequence.  The
registry keys
(``prop14``, ``prop15``, ``special-demo``, ``trivial-demo``) are stable tokens
used by the command line interface.

The mirror checker operates on a pair of parameter triples augmented with a
finite defect and a stable rank per side.  For a mirror pair the doubled free
ranks corrected by the finite defects agree, the mu parameters agree, and the
lam_tilde parameters agree after the cross correction by the opposite side's
stable rank.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from .invariants import Grade, ParamTriple
from .modules import (
    DescentDatum,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    ModuleElement,
    SpecialDescent,
)
from .polynomials import IntPoly, ZERO, as_prime, monomial

# largest level worth computing by default, by prime
_DEFAULT_TOP_LEVEL = {2: 6, 3: 4, 5: 3}


def default_level_range(ell: int, level: int) -> tuple[int, int]:
    """Default [n_min, n_max] window: starts above the descent level and is
    always wide enough to pin down all four model parameters."""
    top = _DEFAULT_TOP_LEVEL.get(int(ell), 3)
    return level + 1, max(top, level + 4)


class _BuiltOnRead:
    """A dataclass field given as a value or as a zero-argument function that
    builds the value on the first read of the field."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj: object, owner: type | None = None) -> Any:
        if obj is None:
            raise AttributeError(self.slot)  # no class-level default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj: object, value: Any) -> None:
        obj.__dict__[self.slot] = value


@dataclasses.dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    module: ElementaryModule
    descent: DescentDatum = _BuiltOnRead()  # or a function that builds it
    expected: ParamTriple
    n_min: int
    n_max: int
    shift: int = 0


def _full_span_generators(
    module: ElementaryModule, level: int
) -> tuple[ModuleElement, ...]:
    """One generator per monomial per free coordinate; torsion parts zero."""
    ell = module.prime.value
    gens = []
    for coord in range(module.free_rank):
        for j in range(ell**level):
            free = tuple(
                monomial(j) if c == coord else ZERO for c in range(module.free_rank)
            )
            torsion = (ZERO,) * len(module.torsion_factors)
            gens.append(ModuleElement(free_coords=free, torsion_coords=torsion))
    return tuple(gens)


def _full_span_scenario(
    ell: int, rank: int, level: int, name: str, description: str
) -> Scenario:
    """Free module of the given rank whose generators span everything at
    level e; the defect removes rank * l^e from lam_tilde."""
    if level < 0:
        raise ValueError("descent level must be nonnegative")
    module = ElementaryModule(prime=ell, free_rank=rank)
    n_min, n_max = default_level_range(ell, level)
    return Scenario(
        name=name,
        description=description,
        module=module,
        descent=lambda: GenericDescent(level, _full_span_generators(module, level)),
        expected=ParamTriple(rank, 0, -rank * ell**level, Grade.BOUNDED),
        n_min=n_min,
        n_max=n_max,
    )


def full_span_scenario(level: int = 0) -> Scenario:
    """Rank-one module at l=2 whose generators span everything at level e."""
    return _full_span_scenario(
        2,
        1,
        level,
        f"prop14:e={level}",
        "free rank one at l=2 with a full span of generators at level "
        f"{level}; the defect removes 2^{level} from lam_tilde",
    )


def replicated_full_span_scenario(ell: int = 3, level: int = 0) -> Scenario:
    """Free module of rank (l-1)/2 at an odd prime, full span per coordinate."""
    ell = as_prime(ell).value
    if ell == 2:
        raise ValueError("this scenario needs an odd prime")
    rank = (ell - 1) // 2
    return _full_span_scenario(
        ell,
        rank,
        level,
        f"prop15:l={ell},e={level}",
        f"free rank {rank} at l={ell} with full spans at level "
        f"{level}; the defect removes {rank}*{ell}^{level}",
    )


def _demo_module() -> ElementaryModule:
    return ElementaryModule(
        prime=2,
        free_rank=1,
        torsion_factors=(
            LPower(exponent=1),
            DistinguishedFactor(poly=IntPoly((0, 1))),
        ),
    )


def special_demo_scenario() -> Scenario:
    module = _demo_module()
    return Scenario(
        name="special-demo",
        description=(
            "mixed module at l=2 under special descent; lam_tilde gains one"
        ),
        module=module,
        descent=SpecialDescent(),
        expected=ParamTriple(1, 1, 2, Grade.STRICT),
        n_min=1,
        n_max=6,
    )


def trivial_demo_scenario() -> Scenario:
    module = _demo_module()
    return Scenario(
        name="trivial-demo",
        description=(
            "mixed module at l=2 with no generators; parameters match the "
            "structural invariants exactly"
        ),
        module=module,
        descent=GenericDescent(level=0, generators=()),
        expected=ParamTriple(1, 1, 1, Grade.STRICT),
        n_min=1,
        n_max=6,
    )


def _build_prop14(params: dict[str, int]) -> Scenario:
    return full_span_scenario(level=params.pop("e", 0))


def _build_prop15(params: dict[str, int]) -> Scenario:
    return replicated_full_span_scenario(
        ell=params.pop("l", 3), level=params.pop("e", 0)
    )


_REGISTRY = {
    "prop14": _build_prop14,
    "prop15": _build_prop15,
    "special-demo": lambda params: special_demo_scenario(),
    "trivial-demo": lambda params: trivial_demo_scenario(),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _int_fields(text: str, what: str) -> dict[str, int]:
    """The fields of ``key=value,key=value``, each value an integer; a piece
    without ``=`` or a key, a repeated key and a value that is not an integer
    are refused, ``what`` naming a field in the message."""
    fields: dict[str, int] = {}
    for piece in text.split(","):
        key, sep, value = piece.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"malformed {what} {piece!r}")
        if key in fields:
            raise ValueError(f"duplicate {what} {key!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise ValueError(f"{what} {key!r} needs an integer, got {value!r}") from None
    return fields


def builtin_scenario(spec: str) -> Scenario:
    """Build a registry scenario from ``name`` or ``name:key=val,key=val``.

    >>> builtin_scenario("prop14:e=1").expected.lam_tilde
    -2
    """
    name, _, arg_part = spec.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        known = ", ".join(scenario_names())
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}")
    params = _int_fields(arg_part, "scenario argument") if arg_part.strip() else {}
    scenario = _REGISTRY[name](params)
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(f"scenario {name!r} does not accept: {extra}")
    return scenario


# ---------------------------------------------------------------------------
# Mirror identities


@dataclasses.dataclass(frozen=True)
class MirrorSide:
    """One side of a mirror pair: parameters plus the side's finite defect
    and stable rank."""

    params: ParamTriple
    finite_defect: int
    stable_rank: int


@dataclasses.dataclass(frozen=True)
class MirrorCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclasses.dataclass(frozen=True)
class MirrorReport:
    checks: tuple[MirrorCheck, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def mirror_check(left: MirrorSide, right: MirrorSide) -> MirrorReport:
    """Check the three mirror identities between two sides.

    Doubled free ranks are compared after adding each side's own finite
    defect, mu parameters are compared directly, and lam_tilde parameters
    are compared after adding the opposite side's stable rank.
    """
    checks = (
        MirrorCheck(
            "rank",
            2 * left.params.rho + left.finite_defect,
            2 * right.params.rho + right.finite_defect,
        ),
        MirrorCheck("mu", left.params.mu, right.params.mu),
        MirrorCheck(
            "lambda",
            left.params.lam_tilde + right.stable_rank,
            right.params.lam_tilde + left.stable_rank,
        ),
    )
    warnings = []
    if (left.finite_defect - right.finite_defect) % 2 != 0:
        warnings.append(
            "finite defects have opposite parity; the rank identity cannot "
            "hold for any free ranks"
        )
    return MirrorReport(checks=checks, warnings=tuple(warnings))


def mirror_context_for_full_span(level: int) -> tuple[MirrorSide, MirrorSide]:
    """Reference mirror pair attached to the full-span scenario at l=2.

    The left side carries the full-span parameters (1, 0, -2^e); the right
    side carries (0, 0, 2^e - 1) with finite defect 2 and stable rank
    2^(e+1).  These satisfy all three identities at every level e.
    """
    if level < 0:
        raise ValueError("descent level must be nonnegative")
    left = MirrorSide(
        params=ParamTriple(1, 0, -(2**level), Grade.BOUNDED),
        finite_defect=0,
        stable_rank=1,
    )
    right = MirrorSide(
        params=ParamTriple(0, 0, 2**level - 1, Grade.BOUNDED),
        finite_defect=2,
        stable_rank=2 ** (level + 1),
    )
    return left, right


def lambda_floor_holds(lam: int, stable_rank: int) -> bool:
    """Lower bound on a distinguished degree forced by a stable rank."""
    return lam >= stable_rank - 1
