"""Module model and descent validation.

The validation oracles were worked out by hand in the level-e quotient: a
generator set is stable exactly when each T-image lands in the l-local span
of the generators and the torsion relations there.  ``_first_unstable``
restates that definition in the monomial basis, l^e rows per coordinate,
apart from the engine's per-coordinate blocks.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth import (
    CaseTag,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    IntPoly,
    LPower,
    ModuleElement,
    SpecialDescent,
    builtin_scenario,
    classify_case,
    codescent_defect,
    modules,
    order_sequence,
    tower_poly,
    validate_descent,
    zero_element,
)
from towergrowth.modules import canonicalize, require_valid
from towergrowth.polynomials import T, ZERO, monomial

from conftest import build_generic_case, in_local_span


def _gen(*coeff_lists):
    coords = tuple(IntPoly(tuple(c)) for c in coeff_lists)
    return coords


def _rank_one_gen(*coeffs):
    return ModuleElement(free_coords=(IntPoly(tuple(coeffs)),), torsion_coords=())


def _pair_gen(a, b):
    return ModuleElement(free_coords=(IntPoly(tuple(a)), IntPoly(tuple(b))), torsion_coords=())


def _residue_vector(module, element, level):
    """Coordinates of the element in E / tower_poly(l, e)·E: the monomials
    T^0..T^(l^e - 1) in every coordinate, free coordinates first."""
    w = tower_poly(module.prime, level)
    block = module.prime.value**level
    return [(coord % w).coeff(i) for coord in element.coords for i in range(block)]


def _torsion_relation_columns(module, level):
    """The columns T^j·ann mod tower_poly(l, e), j < l^e, of each torsion
    factor's annihilator ann, in the same monomial basis."""
    ell = module.prime.value
    w = tower_poly(module.prime, level)
    block = ell**level
    columns = []
    for idx, factor in enumerate(module.torsion_factors):
        ann = IntPoly((ell**factor.exponent,)) if isinstance(factor, LPower) else factor.poly
        offset = (module.free_rank + idx) * block
        for j in range(block):
            part = (monomial(j) * ann) % w
            col = [0] * (module.coordinate_count * block)
            col[offset : offset + block] = [part.coeff(i) for i in range(block)]
            columns.append(col)
    return columns


def _first_unstable(module, descent):
    """The per-generator definition: the first y whose T*y leaves the l-local
    span of the generators and the torsion relations at level e."""
    level = descent.level
    span = [_residue_vector(module, g, level) for g in descent.generators]
    span += _torsion_relation_columns(module, level)
    for idx, gen in enumerate(descent.generators):
        image = _residue_vector(module, gen.times_t(), level)
        if not in_local_span(span, image, module.prime.value):
            return idx
    return None


def _assert_report_matches_definition(module, descent):
    report = validate_descent(module, descent)
    idx = _first_unstable(module, descent)
    assert report.valid is (idx is None)
    assert report.failing_generator == idx
    if idx is not None:
        assert report.witness == canonicalize(module, descent.generators[idx].times_t())
        assert report.detail == (
            f"T * generator {idx} is not an l-local combination of the "
            f"generators at level {descent.level}"
        )
    return report


FREE = ElementaryModule(prime=2, free_rank=1)
RANK_TWO = ElementaryModule(prime=2, free_rank=2)
MIXED = ElementaryModule(
    prime=2,
    free_rank=1,
    torsion_factors=(LPower(1), DistinguishedFactor(IntPoly((0, 1)))),
)


class TestModel:
    def test_module_validation(self):
        with pytest.raises(ValueError):
            ElementaryModule(prime=2, free_rank=-1)
        with pytest.raises(ValueError):
            # constant term 1 is a unit, not distinguished
            ElementaryModule(
                prime=2,
                free_rank=0,
                torsion_factors=(DistinguishedFactor(IntPoly((1, 1))),),
            )
        with pytest.raises(ValueError):
            ElementaryModule(prime=2, free_rank=0, torsion_factors=(LPower(0),))

    def test_coordinate_count(self):
        assert FREE.coordinate_count == 1
        assert MIXED.coordinate_count == 3
        assert ElementaryModule(prime=3, free_rank=0).is_zero

    def test_element_shift_and_add(self):
        a = _rank_one_gen(1)
        assert a.times_t().free_coords[0] == T
        assert (a + a).free_coords[0] == IntPoly((2,))

    def test_zero_element(self):
        z = zero_element(MIXED)
        assert all(c.is_zero for c in z.coords)
        assert len(z.coords) == 3

    def test_classify(self):
        assert classify_case(FREE, SpecialDescent()) is CaseTag.SPECIAL
        assert classify_case(FREE, GenericDescent(0, ())) is CaseTag.TRIVIAL
        assert (
            classify_case(FREE, GenericDescent(0, (_rank_one_gen(1),)))
            is CaseTag.GENERIC
        )


class TestCanonicalize:
    def test_lpower_coordinate_reduced_mod_prime_power(self):
        mod = ElementaryModule(prime=2, free_rank=0, torsion_factors=(LPower(1),))
        el = ModuleElement(free_coords=(), torsion_coords=(IntPoly((5, 3)),))
        assert canonicalize(mod, el).torsion_coords[0] == IntPoly((1, 1))

    def test_distinguished_coordinate_reduced_mod_poly(self):
        mod = ElementaryModule(
            prime=2, free_rank=0, torsion_factors=(DistinguishedFactor(IntPoly((2, 1))),)
        )
        el = ModuleElement(free_coords=(), torsion_coords=(T,))
        # T = (T + 2) - 2
        assert canonicalize(mod, el).torsion_coords[0] == IntPoly((-2,))

    def test_free_coordinates_untouched(self):
        el = _rank_one_gen(7, -5)
        assert canonicalize(FREE, el) == el


class TestValidation:
    def test_special_always_valid(self):
        assert validate_descent(MIXED, SpecialDescent()).valid

    def test_empty_generators_valid(self):
        report = validate_descent(MIXED, GenericDescent(2, ()))
        assert report.valid

    def test_full_span_valid(self):
        d = GenericDescent(1, (_rank_one_gen(1), _rank_one_gen(0, 1)))
        assert validate_descent(FREE, d).valid

    def test_single_constant_invalid_at_level_one(self):
        # T * 1 = T is not a 2-local multiple of 1 in the level-1 quotient
        d = GenericDescent(1, (_rank_one_gen(1),))
        report = validate_descent(FREE, d)
        assert not report.valid
        assert report.failing_generator == 0
        assert report.witness is not None
        assert report.detail

    def test_monomial_span_valid_at_level_one(self):
        # T * T = T^2 = -2T modulo the level-1 tower polynomial
        d = GenericDescent(1, (_rank_one_gen(0, 1),))
        assert validate_descent(FREE, d).valid

    def test_cofactor_span_valid_at_level_two(self):
        # h = T^2+2T+2, h' = omega_2/h: the pair (h', T h') is stable
        d = GenericDescent(2, (_rank_one_gen(0, 2, 1), _rank_one_gen(0, 0, 2, 1)))
        assert validate_descent(FREE, d).valid

    def test_single_monomial_invalid_at_level_two(self):
        d = GenericDescent(2, (_rank_one_gen(0, 0, 1),))
        assert not validate_descent(FREE, d).valid

    def test_anything_valid_at_level_zero(self):
        d = GenericDescent(0, (_rank_one_gen(3, -7, 5), _rank_one_gen(2, 2)))
        assert validate_descent(FREE, d).valid

    def test_torsion_relations_absorb_images(self):
        # generator 1 in the l-power coordinate: T*1 = T needs the relation
        # columns of l^m at level 1 -- not available, so only the span of
        # {1, T} works there
        mod = ElementaryModule(prime=2, free_rank=0, torsion_factors=(LPower(1),))
        one = ModuleElement(free_coords=(), torsion_coords=(IntPoly((1,)),))
        t = ModuleElement(free_coords=(), torsion_coords=(T,))
        assert not validate_descent(mod, GenericDescent(1, (one,))).valid
        assert validate_descent(mod, GenericDescent(1, (one, t))).valid

    @pytest.mark.parametrize(
        "gens, first_bad",
        [
            # (T, 0) is stable; T * (0, 1) = (0, T) is outside the span
            ([((0, 1), ()), ((), (1,))], 1),
            # T * (1, 1) = (T, 0) + (0, T) fails first, then (0, 1) fails too
            ([((0, 1), ()), ((1,), ()), ((1,), (1,)), ((), (1,))], 2),
        ],
    )
    def test_first_failure_past_index_zero(self, gens, first_bad):
        d = GenericDescent(1, tuple(_pair_gen(a, b) for a, b in gens))
        report = _assert_report_matches_definition(RANK_TWO, d)
        assert report.failing_generator == first_bad
        assert report.witness.free_coords[1] == T

    def test_adding_the_missing_image_makes_it_stable(self):
        gens = (((0, 1), ()), ((1,), ()), ((1,), (1,)), ((), (1,)), ((), (0, 1)))
        d = GenericDescent(1, tuple(_pair_gen(a, b) for a, b in gens))
        assert validate_descent(RANK_TWO, d).valid

    def test_presentation_rows(self, eliminations):
        # Lambda + Lambda/(2) + Lambda/(T^2+2) at l=2, e=3, the free
        # coordinate spanned: 8 rows for the touched free coordinate, 2 for
        # the distinguished one, none for the untouched Lambda/(2)
        module = ElementaryModule(
            prime=2,
            free_rank=1,
            torsion_factors=(LPower(1), DistinguishedFactor(IntPoly((2, 0, 1)))),
        )
        gens = tuple(
            ModuleElement((monomial(j),), (ZERO, ZERO)) for j in range(8)
        )
        descent = GenericDescent(3, gens)
        # one elimination: the 8 generators and 2 relation columns, carrying
        # the 8 images T·y; its first pass takes the 8 unit pivots of the
        # free rows, so the defect runs none of its own
        assert validate_descent(module, descent).valid
        assert eliminations == [("span_elimination", 10, 10, 8)]
        assert codescent_defect(module, descent) == 8
        assert eliminations == [("span_elimination", 10, 10, 8)]

    def test_failing_generator_last_of_many(self, eliminations):
        # 16 stable generators T^j in the first coordinate at l=2, e=4, then
        # (0, 1), whose T·y = (0, T) is outside: one elimination of the 32
        # rows and 17 generator columns, carrying the 17 images, finds it,
        # and the defect of the (invalid) datum, 17, is read off it
        gens = tuple(_pair_gen((0,) * j + (1,), ()) for j in range(16)) + (_pair_gen((), (1,)),)
        descent = GenericDescent(4, gens)
        report = validate_descent(RANK_TWO, descent)
        assert codescent_defect(RANK_TWO, descent) == 17
        assert eliminations == [("span_elimination", 32, 17, 17)]
        assert report.failing_generator == 16
        assert report.witness == ModuleElement((ZERO, T), ())
        assert _assert_report_matches_definition(RANK_TWO, descent) == report

    def test_presentation_stores_only_nonzero_entries(self, generic_corpus):
        # prop14 at e = 6: each generator T^j is one entry of the free block
        scenario = builtin_scenario("prop14:e=6")
        reduction = modules._reduction(scenario.module, scenario.descent)
        assert reduction.relations == []
        assert sum(map(len, reduction.columns)) == 2**6
        for case in generic_corpus[:40]:
            reduction = modules._reduction(case.module, case.descent)
            assert all(x for col in [*reduction.relations, *reduction.columns] for x in col.values())

    def test_presentation_unchanged_by_its_callers(self, generic_corpus):
        # validation's elimination, the defect and the quotients share the
        # memoised matrix and hand it to the elimination kernel; none may
        # change it in place, so it stays the presentation as built
        for case in generic_corpus[:40]:
            module, descent = case.module, case.descent
            modules._reduction.cache_clear()
            built = modules._reduction(module, descent)
            if validate_descent(module, descent).valid:
                codescent_defect(module, descent)
                order_sequence(module, descent, descent.level + 1, descent.level + 2)
            assert modules._reduction(module, descent) is built
            assert built[:3] == modules._presentation(module, descent)

    def test_shape_mismatch_raises(self):
        bad = ModuleElement(free_coords=(T, T), torsion_coords=())
        with pytest.raises(ValueError):
            validate_descent(FREE, GenericDescent(0, (bad,)))

    def test_require_valid_raises_with_generator_index(self):
        d = GenericDescent(1, (_rank_one_gen(1),))
        with pytest.raises(ValueError):
            require_valid(FREE, d)


class TestValidityProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_level_zero_random_generators_always_valid(self, data):
        coeffs = data.draw(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                min_size=1,
                max_size=3,
            )
        )
        gens = tuple(_rank_one_gen(*c) for c in coeffs)
        assert validate_descent(FREE, GenericDescent(0, gens)).valid

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_constructed_corpus_cases_are_valid(self, seed):
        case = build_generic_case(random.Random(seed))
        assert validate_descent(case.module, case.descent).valid

    @given(
        seed=st.integers(0, 10_000),
        ell=st.sampled_from([2, 3, 5]),
        extra=st.lists(
            st.tuples(st.integers(0, 8), st.lists(st.integers(-3, 3), min_size=1, max_size=3)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_report_matches_per_generator_definition(self, seed, ell, extra):
        # random elements inserted into a valid datum usually break it, at
        # whatever index they land
        case = build_generic_case(random.Random(seed), ell)
        mod, des = case.module, case.descent
        if mod.is_zero:
            return
        gens = list(des.generators)
        for pos, coeffs in extra:
            poly = IntPoly(tuple(coeffs))
            coords = [poly.shift(i) for i in range(mod.coordinate_count)]
            gens.insert(
                pos % (len(gens) + 1),
                ModuleElement(
                    free_coords=tuple(coords[: mod.free_rank]),
                    torsion_coords=tuple(coords[mod.free_rank :]),
                ),
            )
        _assert_report_matches_definition(mod, GenericDescent(des.level, tuple(gens)))

    @given(seed=st.integers(0, 10_000), ell=st.sampled_from([2, 3, 5]), drop=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_dropped_generator_matches_per_generator_definition(self, seed, ell, drop):
        # a valid datum with one generator dropped is often invalid, and the
        # witness is the first T·y outside the span of what is left
        case = build_generic_case(random.Random(seed), ell)
        gens = case.descent.generators
        if not gens:
            return
        drop %= len(gens)
        kept = gens[:drop] + gens[drop + 1 :]
        _assert_report_matches_definition(case.module, GenericDescent(case.descent.level, kept))

    def test_datum_with_two_distinguished_factors_at_l5(self):
        # l=5, e=2, four generators in Λ/(T^2+5) ⊕ Λ/(T+5): elimination
        # over Z without a coefficient bound runs for minutes on its spans
        rng = random.Random(7005)
        for _ in range(40):
            case = build_generic_case(rng, 5)
        assert validate_descent(case.module, case.descent).valid
        assert codescent_defect(case.module, case.descent) == case.expected_defect

    @given(seed=st.integers(0, 10_000), pad=st.lists(st.integers(-3, 3), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_tower_multiple_padding_preserves_validity_and_defect(self, seed, pad):
        case = build_generic_case(random.Random(seed))
        mod, des = case.module, case.descent
        if not des.generators or mod.free_rank == 0:
            return
        omega = tower_poly(mod.prime, des.level)
        first = des.generators[0]
        padded = ModuleElement(
            free_coords=(first.free_coords[0] + omega * IntPoly(tuple(pad)),)
            + first.free_coords[1:],
            torsion_coords=first.torsion_coords,
        )
        changed = GenericDescent(des.level, (padded,) + des.generators[1:])
        assert validate_descent(mod, changed).valid
        assert codescent_defect(mod, changed) == codescent_defect(mod, des)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_l_power_padding_leaves_the_reduction_unchanged(self, ell):
        # each generator's Lambda/(l^m) coordinate moved by l^m times a random
        # polynomial: the presentation reduces it mod l^m and gives no block
        # to a coordinate that only padding touches, so its generator columns,
        # the report (witness included), the defect and the orders are the
        # same; each datum is also taken with its first generator dropped
        rng = random.Random(6100 + ell)
        padded_cases = changed = 0
        while padded_cases < 25:
            case = build_generic_case(rng, ell)
            module, gens = case.module, case.descent.generators
            if not gens or not any(isinstance(f, LPower) for f in module.torsion_factors):
                continue
            padded_cases += 1
            cuts = [
                ell**f.exponent if isinstance(f, LPower) else 0 for f in module.torsion_factors
            ]

            def pad(g):
                noise = [
                    IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
                    for _ in cuts
                ]
                return ModuleElement(
                    g.free_coords,
                    tuple(c + x * q for c, x, q in zip(g.torsion_coords, noise, cuts)),
                )

            e = case.descent.level
            for kept in (gens, gens[1:]):
                if not kept:
                    continue
                plain = GenericDescent(e, kept)
                moved = GenericDescent(e, tuple(pad(g) for g in kept))
                changed += moved != plain
                ours, theirs = (modules._reduction(module, d) for d in (plain, moved))
                assert (theirs.layout, theirs.columns) == (ours.layout, ours.columns)
                assert theirs.report == ours.report
                assert codescent_defect(module, moved) == codescent_defect(module, plain)
                if ours.report.valid:
                    for k in (-1, 0, 2):
                        n_min = max(e + 1, 1 - k)
                        window = (n_min, n_min + 1, k)
                        expected = order_sequence(module, plain, *window, dimension_cap=10**6)
                        assert order_sequence(module, moved, *window, dimension_cap=10**6) == expected
        assert changed >= 25
