"""Reference values and seeded inputs for the benchmark, made apart from towergrowth.

Nothing here imports the package under test.  Polynomials are plain lists of
ints, low degree first.  The module supplies three things:

* closed forms for x(n, k) of the fixed ladder inputs (derivations in
  README.md);
* run-file text for those inputs and for seeded generic descent data built
  constructively, so that validity and the codescent defect kappa are known
  by design;
* planted growth sequences rho*n*l^n + mu*l^n + lam*n + r(n) with a bounded
  residual r, so that the triple a fit must recover is known by design.
"""

from __future__ import annotations

import dataclasses
import random
from math import comb

# ---------------------------------------------------------------------------
# polynomial helpers over Z


def poly_trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def one_plus_t_power(m: int) -> list[int]:
    """(1 + T)^m by the binomial theorem."""
    return [comb(m, i) for i in range(m + 1)]


def tower_polynomial(ell: int, n: int) -> list[int]:
    """omega_n = (1 + T)^(l^n) - 1."""
    p = one_plus_t_power(ell**n)
    p[0] -= 1
    return p


def tower_pieces(ell: int, e: int) -> list[list[int]]:
    """The e+1 irreducible factors of omega_e: T and omega_i / omega_(i-1).

    omega_i / omega_(i-1) = sum_{j<l} u^j with u = (1 + T)^(l^(i-1)).
    """
    pieces = [[0, 1]]
    for i in range(1, e + 1):
        ratio: list[int] = []
        for j in range(ell):
            ratio = poly_add(ratio, one_plus_t_power(j * ell ** (i - 1)))
        pieces.append(ratio)
    return pieces


# ---------------------------------------------------------------------------
# closed forms (README.md derives each one)


def x_mixed(n: int, k: int) -> int:
    """tests/golden/mixed.run (Lambda + Lambda/(4) + Lambda/(T+2), one generator
    at e=0), for n >= 1."""
    big_n = n + k
    return big_n * (2**n - 1) + min(2, big_n) * 2**n + big_n


def x_special(ell: int, n: int, k: int) -> int:
    """Lambda + Lambda/(l) + Lambda/(T) under special descent."""
    big_n = n + k
    return big_n * ell**n + min(1, big_n) * ell**n + 2 * big_n


def x_full_span(ell: int, rank: int, e: int, n: int, k: int) -> int:
    """Free rank r with every monomial below l^e of every coordinate a generator."""
    return rank * (n + k) * (ell**n - ell**e)


# (rho, mu, lam_tilde) read off the closed forms at k = 0: x_mixed is
# n*2^n + 2*2^n from n = 2 on, x_special is n*l^n + l^n + 2n from n = 1 on
TRIPLE_MIXED = (1, 2, 0)
TRIPLE_SPECIAL = (1, 1, 2)


def full_span_triple(ell: int, rank: int, e: int) -> tuple[int, int, int]:
    """x_full_span at k = 0 is r*n*l^n - r*l^e*n."""
    return (rank, 0, -rank * ell**e)


# ---------------------------------------------------------------------------
# run-file text


def _int_list(p: list[int]) -> str:
    p = poly_trim(p) or [0]
    return "[" + ", ".join(str(c) for c in p) + "]"


def run_text(
    ell: int,
    free_rank: int,
    torsion: list[tuple[str, object]],
    descent: str,
    e: int | None = None,
    generators: list[list[list[int]]] = (),
) -> str:
    """Run-file text without a [run] section, so the program picks its default
    window; ``torsion`` holds ("lpower", m) and ("poly", coeffs) pairs."""
    lines = ["[prime]", f"l = {ell}", "", "[module]", f"free_rank = {free_rank}"]
    for kind, value in torsion:
        lines.append(f"{kind} = {value if kind == 'lpower' else _int_list(value)}")
    lines += ["", "[descent]", f"kind = {descent}"]
    if descent == "generic":
        lines.append(f"e = {e}")
        for gen in generators:
            lines.append("generator = [" + ", ".join(_int_list(c) for c in gen) + "]")
    return "\n".join(lines) + "\n"


def with_window(text: str, n_min: int, n_max: int, k: int = 0) -> str:
    """Replace the [run] section of a run file (or append one)."""
    head = text.split("[run]", 1)[0].rstrip("\n")
    return f"{head}\n\n[run]\nn_min = {n_min}\nn_max = {n_max}\nk = {k}\n"


def special_module_text(ell: int) -> str:
    """Lambda + Lambda/(l) + Lambda/(T), special descent."""
    return run_text(ell, 1, [("lpower", 1), ("poly", [0, 1])], "special")


def full_span_text(ell: int, rank: int, e: int) -> str:
    """The prop14 / prop15 families written out as run files."""
    gens = []
    for coord in range(rank):
        for j in range(ell**e):
            gens.append([[0] * j + [1] if c == coord else [0] for c in range(rank)])
    return run_text(ell, rank, [], "generic", e=e, generators=gens)


# ---------------------------------------------------------------------------
# seeded generic descent data, valid (or invalid) by construction


@dataclasses.dataclass(frozen=True)
class DescentCase:
    """A generic descent datum with everything the checks need to know."""

    ell: int
    e: int
    text: str
    valid: bool
    free_rank: int
    mu: int
    lam: int
    kappa: int
    generator_count: int

    @property
    def predicted(self) -> tuple[int, int, int]:
        return (self.free_rank, self.mu, self.lam - self.kappa)


def _random_poly(rng: random.Random, deg: int, lo: int = -3, hi: int = 3) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(deg + 1)]


def _random_distinguished(rng: random.Random, ell: int, deg: int) -> list[int]:
    coeffs = [ell * rng.randint(0, 2) for _ in range(deg)] + [1]
    if not any(coeffs[:-1]):
        coeffs[0] = ell
    return coeffs


def descent_case(
    rng: random.Random,
    ell: int,
    e: int,
    free_rank: int,
    spans: tuple[int, ...],
    *,
    truncate: bool = False,
    pad: float = 0.3,
) -> DescentCase:
    """Generic data at level e with a span of degree ``spans[c]`` in coordinate c.

    The module is Lambda^free_rank + Lambda/(l^m) + Lambda/(P) with m in {1, 2}
    and P distinguished of degree 1 or 2, so ``spans`` has free_rank + 2
    entries.  For a set S of irreducible factors of omega_e with product h and
    cofactor h' = omega_e / h, the elements T^j * h' (j < deg h) span an ideal
    of Lambda/(omega_e) that T carries into itself, so a copy of such a span
    in one coordinate is a valid set of generators.  Each coordinate gets a
    random S of the requested degree.  Each free-coordinate copy adds deg h to
    kappa; torsion copies add nothing.  With probability ``pad`` a generator
    coordinate is padded with a multiple of omega_e (free) or of the
    annihilator (torsion), which changes neither validity nor kappa.

    ``truncate`` drops the top generator T^(d-1) * h' of one free-coordinate
    span with d >= 2.  T * T^(d-2) * h' then lies outside the span already
    over Q, so the datum is invalid by construction.
    """
    pieces = tower_pieces(ell, e)
    omega = tower_polynomial(ell, e)
    m = rng.randint(1, 2)
    dist = _random_distinguished(rng, ell, rng.randint(1, 2))
    torsion = [("lpower", m), ("poly", dist)]
    annihilators = [[ell**m], dist]
    coords = free_rank + len(torsion)
    if len(spans) != coords:
        raise ValueError(f"need {coords} span degrees, got {len(spans)}")
    by_degree: dict[int, list[list[list[int]]]] = {}
    for mask in range(2 ** len(pieces)):
        subset = [p for i, p in enumerate(pieces) if mask >> i & 1]
        by_degree.setdefault(sum(len(p) - 1 for p in subset), []).append(subset)

    cut = None
    if truncate:
        cut = rng.choice([c for c in range(free_rank) if spans[c] >= 2])
    gens: list[list[list[int]]] = []
    kappa = 0
    for coord, d in enumerate(spans):
        if d == 0:
            continue
        if d not in by_degree:
            raise ValueError(f"no factors of omega_{e} at l={ell} have total degree {d}")
        subset = rng.choice(by_degree[d])
        cofactor = [1]
        for p in pieces:
            if p not in subset:
                cofactor = poly_mul(cofactor, p)
        for j in range(d - 1 if coord == cut else d):
            gen = [[] for _ in range(coords)]
            gen[coord] = poly_mul([0] * j + [1], cofactor)
            for c in range(coords):
                if rng.random() < pad:
                    if c < free_rank:
                        extra = poly_mul(omega, _random_poly(rng, 0))
                    else:
                        extra = poly_mul(annihilators[c - free_rank], _random_poly(rng, 1))
                    gen[c] = poly_add(gen[c], extra)
            gens.append(gen)
        if coord < free_rank:
            kappa += d
    rng.shuffle(gens)
    text = run_text(ell, free_rank, torsion, "generic", e=e, generators=gens)
    return DescentCase(
        ell=ell,
        e=e,
        text=text,
        valid=not truncate,
        free_rank=free_rank,
        mu=m,
        lam=len(dist) - 1,
        kappa=kappa,
        generator_count=len(gens),
    )


# ---------------------------------------------------------------------------
# planted growth sequences


@dataclasses.dataclass(frozen=True)
class PlantedSequence:
    ell: int
    n_min: int
    values: tuple[int, ...]
    triple: tuple[int, int, int]


RESIDUALS = {
    "n mod 2": lambda n: n % 2,
    "n mod 3": lambda n: n % 3,
    "constant 5": lambda n: 5,
    "3 - (n mod 2)": lambda n: 3 - n % 2,
}


def planted(
    ell: int, rho: int, mu: int, lam: int, residual: str, n_min: int, n_max: int
) -> PlantedSequence:
    r = RESIDUALS[residual]
    values = tuple(
        rho * n * ell**n + mu * ell**n + lam * n + r(n) for n in range(n_min, n_max + 1)
    )
    return PlantedSequence(ell, n_min, values, (rho, mu, lam))
