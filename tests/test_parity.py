"""Frozen digests of engine outputs: a guard for refactors of the presentation,
the elimination kernel and the quotients.

Each datum is the 110-case corpus or one of 30 ``build_generic_case`` draws
from each of the seeds 7001, 7003 and 7005 (l = 2, 3, 5), taken as drawn and
with its first or its last generator dropped; dropping a generator often
leaves data that fail validation, with a witness.  For every datum three
outputs are hashed: the ``ValidationReport`` (all fields, witness included),
``codescent_defect`` and the ``quotient_group`` valuations at n = e..e+2,
k in {0, 1, 3}.  Errors are part of the output, by type and message.  The
digests were frozen from the engine as it stood before the level-e
presentation was memoised and reduced by ``residue``; any change to an
output changes the digest of the group of ten draws that holds it.

A fourth output, ``windows``, hashes ``order_sequence`` over the window
e+1..e+4 at k in {-1, 0, 2}, with the dimension cap raised to 10^6 so that
the l = 5 windows are computed rather than capped.  Its digests were frozen
from the engine as it stood when every level of a window was reduced on its
own, so they guard the one reduction per window against the level-by-level
answers.
"""

import functools
import hashlib
import random

import pytest

from towergrowth import (
    CapExceeded,
    GenericDescent,
    codescent_defect,
    order_sequence,
    quotient_group,
    validate_descent,
)

from conftest import CORPUS_SEED, CORPUS_SIZE, build_generic_case

GROUP = 10
SOURCES = {  # name: (seed, l, draws)
    "corpus": (CORPUS_SEED, 2, CORPUS_SIZE),
    7001: (7001, 2, 30),
    7003: (7003, 3, 30),
    7005: (7005, 5, 30),
}


@functools.cache
def _draws(source):
    seed, ell, count = SOURCES[source]
    rng = random.Random(seed)
    return [build_generic_case(rng, ell) for _ in range(count)]


def _variants(case):
    gens = case.descent.generators
    level = case.descent.level
    for kept in (gens, gens[1:], gens[:-1]):
        yield case.module, GenericDescent(level, kept)


def _outcome(call, *args, **kwargs):
    try:
        return repr(call(*args, **kwargs))
    except (ValueError, CapExceeded) as exc:  # rejected input is an output too
        return f"{type(exc).__name__}: {exc}"


def _outputs(kind, cases):
    for case in cases:
        for module, descent in _variants(case):
            if kind == "validation":
                yield _outcome(validate_descent, module, descent)
            elif kind == "defect":
                yield _outcome(codescent_defect, module, descent)
            elif kind == "windows":
                e = descent.level
                for k in (-1, 0, 2):
                    seq = _outcome(
                        order_sequence, module, descent, e + 1, e + 4, k, dimension_cap=10**6
                    )
                    yield f"{k} {seq}"
            else:
                for n in range(descent.level, descent.level + 3):
                    for k in (0, 1, 3):
                        group = _outcome(quotient_group, module, descent, n, k)
                        yield f"{n} {k} {group}"


def _digest(kind, source, index):
    cases = _draws(source)[index * GROUP : (index + 1) * GROUP]
    text = "\n".join(_outputs(kind, cases))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _groups():
    for source, (_, _, count) in SOURCES.items():
        for index in range(-(-count // GROUP)):
            for kind in ("validation", "defect", "quotients", "windows"):
                yield kind, source, index


FROZEN = {
    ("validation", "corpus", 0): "afabdf13f1cdceb9",
    ("defect", "corpus", 0): "c5c2b89b08e1da11",
    ("quotients", "corpus", 0): "72ac8f81d48ab39d",
    ("validation", "corpus", 1): "a463940cfb58cd92",
    ("defect", "corpus", 1): "b0f3f08e82c6392c",
    ("quotients", "corpus", 1): "968cee77540c9390",
    ("validation", "corpus", 2): "4a047eb119510d3a",
    ("defect", "corpus", 2): "ccf7d7625342f445",
    ("quotients", "corpus", 2): "5614e4d79f8ae519",
    ("validation", "corpus", 3): "b50fdcff4c685b99",
    ("defect", "corpus", 3): "f6545ab7e3fa6d64",
    ("quotients", "corpus", 3): "8718930cae407bc3",
    ("validation", "corpus", 4): "d0e555c1558e8b53",
    ("defect", "corpus", 4): "75028196981074ea",
    ("quotients", "corpus", 4): "abe880e6434fb06d",
    ("validation", "corpus", 5): "51b87defe439c56a",
    ("defect", "corpus", 5): "d12c6aa5878a66a5",
    ("quotients", "corpus", 5): "8bafbe8b3aa9d15a",
    ("validation", "corpus", 6): "afb2da6e5e7bc02c",
    ("defect", "corpus", 6): "f6a0474d3eaaf5cb",
    ("quotients", "corpus", 6): "b329e95f172ed485",
    ("validation", "corpus", 7): "bc08c5657f88e3e7",
    ("defect", "corpus", 7): "fc4642e384593fb2",
    ("quotients", "corpus", 7): "c6630043b66e04b5",
    ("validation", "corpus", 8): "c8b6e261456f3f50",
    ("defect", "corpus", 8): "f550f3cca71219fe",
    ("quotients", "corpus", 8): "0adde94cf0edf9d0",
    ("validation", "corpus", 9): "6de2ea2529f22694",
    ("defect", "corpus", 9): "4ccee099a0f8006b",
    ("quotients", "corpus", 9): "aae407d9b7a3ff26",
    ("validation", "corpus", 10): "9d412eb61214abc4",
    ("defect", "corpus", 10): "76f54c9efcdacd82",
    ("quotients", "corpus", 10): "d6835d0075c4b2f8",
    ("validation", 7001, 0): "2332adacf86e223e",
    ("defect", 7001, 0): "2751ef8c47ba18f4",
    ("quotients", 7001, 0): "91a324ead9f23f00",
    ("validation", 7001, 1): "1cd421187fa1c0f6",
    ("defect", 7001, 1): "13e683692db5e20a",
    ("quotients", 7001, 1): "efd18df8d38c4e37",
    ("validation", 7001, 2): "0c3f9a17c72795bb",
    ("defect", 7001, 2): "128ed69b82b7b4e1",
    ("quotients", 7001, 2): "04c8789ce59d108d",
    ("validation", 7003, 0): "0c95e9bf1f5bb9d0",
    ("defect", 7003, 0): "52aa92935e44166e",
    ("quotients", 7003, 0): "6765f850dd571666",
    ("validation", 7003, 1): "55a883ebbb5552a8",
    ("defect", 7003, 1): "6fc3d1a81947ee23",
    ("quotients", 7003, 1): "d7b9c3aa38aed47d",
    ("validation", 7003, 2): "cc0c46e63bb503c5",
    ("defect", 7003, 2): "6ef7a714f8301748",
    ("quotients", 7003, 2): "1f04388bf3a7b933",
    ("validation", 7005, 0): "0a292b68aa6fef8b",
    ("defect", 7005, 0): "c02ed42c43454abc",
    ("quotients", 7005, 0): "5114ba410208fd7d",
    ("validation", 7005, 1): "20cfe34ed2fcd767",
    ("defect", 7005, 1): "4e851ed2b12821cc",
    ("quotients", 7005, 1): "215c2f5a21036001",
    ("validation", 7005, 2): "55c4154f9f17174e",
    ("defect", 7005, 2): "bc4e37e69fd93a26",
    ("quotients", 7005, 2): "13554ae664a5d4c6",
    ("windows", "corpus", 0): "ad4794f67c0e5761",
    ("windows", "corpus", 1): "04d17a070d449a07",
    ("windows", "corpus", 2): "420e2848aa497aaf",
    ("windows", "corpus", 3): "4fffdadbcc4100ed",
    ("windows", "corpus", 4): "346b90b54cfd6e65",
    ("windows", "corpus", 5): "e53b9a84723d52fb",
    ("windows", "corpus", 6): "a8646767c5d54119",
    ("windows", "corpus", 7): "c54e25d783978da4",
    ("windows", "corpus", 8): "17428209b2fda929",
    ("windows", "corpus", 9): "466c112d1969b2ea",
    ("windows", "corpus", 10): "c61f8804fb917753",
    ("windows", 7001, 0): "57ee47d4789bbe36",
    ("windows", 7001, 1): "b8d837ca6bbffa87",
    ("windows", 7001, 2): "bcbf6b4509599327",
    ("windows", 7003, 0): "21a81724aa2590f8",
    ("windows", 7003, 1): "b48ed754393678b2",
    ("windows", 7003, 2): "959fc18f6629ff26",
    ("windows", 7005, 0): "33cbcac2328a5995",
    ("windows", 7005, 1): "4c3da0a41e6c34cd",
    ("windows", 7005, 2): "386a98659bb51d67",
}


@pytest.mark.parametrize("kind,source,index", list(_groups()))
def test_outputs_match_frozen_digest(kind, source, index):
    assert _digest(kind, source, index) == FROZEN[kind, source, index]
