"""Unit and property tests for covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from tests.conftest import cover_st, cube_st

NAMES = list("abcde")


def parse(text: str) -> Cover:
    return Cover.parse(text, NAMES)


class TestConstruction:
    def test_zero_and_one(self):
        assert Cover.zero(3).is_zero()
        assert Cover.one(3).is_one_cube()

    def test_parse_zero(self):
        assert parse("0").is_zero()
        assert Cover.parse("", NAMES).is_zero()

    def test_rejects_out_of_range_cubes(self):
        with pytest.raises(ValueError):
            Cover(1, [Cube.literal(3, True)])

    def test_from_minterms(self):
        cover = Cover.from_minterms([0, 3], 2)
        assert cover.evaluate(0)
        assert cover.evaluate(3)
        assert not cover.evaluate(1)

    def test_to_str_roundtrip(self):
        text = "ab' + cd + e"
        assert parse(text).to_str(NAMES) == text


class TestQueries:
    def test_counts(self):
        cover = parse("ab + c")
        assert cover.num_cubes() == 2
        assert cover.num_literals() == 3

    def test_support(self):
        cover = parse("ab + d'")
        assert cover.support_vars() == [0, 1, 3]

    def test_phase_counts(self):
        cover = parse("ab + a'c + a")
        assert cover.var_phase_counts(0) == (2, 1)

    def test_unate_detection(self):
        assert parse("ab + ac").is_unate()
        assert not parse("ab + a'c").is_unate()
        assert parse("ab + ac").is_unate_in(0)

    def test_most_binate_var(self):
        cover = parse("ab + a'c + ad")
        assert cover.most_binate_var() == 0
        assert Cover.zero(3).most_binate_var() is None


class TestAlgebra:
    def test_union(self):
        assert parse("a").union(parse("b")).num_cubes() == 2

    def test_union_checks_compat(self):
        with pytest.raises(ValueError):
            parse("a").union(Cover.zero(2))

    def test_intersect_semantics(self):
        left, right = parse("a + b"), parse("c")
        product = left.intersect(right)
        assert product.truth_mask() == left.truth_mask() & right.truth_mask()

    def test_cofactor(self):
        cover = parse("ab + a'c")
        assert cover.cofactor(0, True).to_str(NAMES) == "b"
        assert cover.cofactor(0, False).to_str(NAMES) == "c"

    def test_cofactor_cube(self):
        cover = parse("ab + cd")
        cofactored = cover.cofactor_cube(Cube.parse("a", NAMES))
        assert cofactored.to_str(NAMES) == "b + cd"

    def test_sharp_cube_semantics(self):
        cover = parse("ab + cd + a'e")
        cube = Cube.parse("a", NAMES)
        sharp = cover.sharp_cube(cube)
        expected = cover.truth_mask() & ~Cover(
            5, [cube]
        ).truth_mask()
        assert sharp.truth_mask() == expected

    def test_single_cube_containment(self):
        cover = parse("ab + a + abc")
        trimmed = cover.single_cube_containment()
        assert trimmed.num_cubes() == 1
        assert trimmed.cubes[0] == Cube.parse("a", NAMES)

    def test_with_cube_without_index(self):
        cover = parse("a + b")
        assert cover.with_cube(Cube.parse("c", NAMES)).num_cubes() == 3
        assert cover.without_index(0).to_str(NAMES) == "b"


class TestEvaluation:
    def test_evaluate(self):
        cover = parse("ab + c'")
        assert cover.evaluate(0b011)  # a=1 b=1 c=0
        assert cover.evaluate(0b000)  # c=0
        assert not cover.evaluate(0b100)  # only c=1

    def test_minterms_deduplicated(self):
        cover = parse("a + a")
        assert len(list(cover.minterms())) == 16

    def test_equivalent(self):
        assert parse("a + a'b").equivalent(parse("a + b"))
        assert not parse("a").equivalent(parse("b"))

    def test_truth_mask_guard(self):
        with pytest.raises(ValueError):
            Cover.zero(21).truth_mask()


class TestRemap:
    def test_remap_renames_variables(self):
        cover = parse("ab")
        swapped = cover.remap([1, 0, 2, 3, 4], 5)
        assert swapped.cubes[0] == Cube.parse("ab", NAMES)  # symmetric

        moved = parse("a").remap([2, 1, 0, 3, 4], 5)
        assert moved.cubes[0] == Cube.parse("c", NAMES)

    def test_extended(self):
        cover = parse("ab")
        wider = cover.extended(7)
        assert wider.num_vars == 7
        with pytest.raises(ValueError):
            wider.extended(3)


class TestProperties:
    @given(cover_st(4), cube_st(4))
    def test_sharp_cube_property(self, cover, cube):
        sharp = cover.sharp_cube(cube)
        on = cover.truth_mask()
        cube_mask = cube.truth_mask(4)
        assert sharp.truth_mask() == on & ~cube_mask

    @given(cover_st(4))
    def test_scc_preserves_function(self, cover):
        assert cover.single_cube_containment().truth_mask() == cover.truth_mask()

    @given(cover_st(4), cover_st(4))
    def test_intersect_property(self, a, b):
        assert a.intersect(b).truth_mask() == (a.truth_mask() & b.truth_mask())

    @given(cover_st(4))
    def test_cofactor_shannon(self, cover):
        # f = x·f_x + x'·f_x'
        pos = cover.cofactor(0, True)
        neg = cover.cofactor(0, False)
        x = Cover(4, [Cube.literal(0, True)])
        nx = Cover(4, [Cube.literal(0, False)])
        rebuilt = x.intersect(pos).union(nx.intersect(neg))
        assert rebuilt.truth_mask() == cover.truth_mask()


def pairwise_single_cube_containment(cover: Cover) -> Cover:
    """The quadratic containment pass the bitset one replaced (oracle)."""
    order = sorted(
        range(len(cover.cubes)), key=lambda i: cover.cubes[i].num_literals()
    )
    chosen = []
    for i in order:
        cube = cover.cubes[i]
        if any(other.contains(cube) for other in chosen):
            continue
        chosen.append(cube)
    chosen_set = set(chosen)
    kept = []
    for cube in cover.cubes:
        if cube in chosen_set:
            kept.append(cube)
            chosen_set.discard(cube)
    return Cover(cover.num_vars, kept)


@st.composite
def nested_cover_st(draw, num_vars: int = 6, max_cubes: int = 8):
    """A cover salted with repeated cubes and cubes nested in others."""
    cubes = list(draw(cover_st(num_vars, max_cubes)).cubes)
    for _ in range(draw(st.integers(0, 4))):
        if not cubes:
            break
        base = cubes[draw(st.integers(0, len(cubes) - 1))]
        grown = base.intersect(draw(cube_st(num_vars)))
        if draw(st.booleans()) or grown is None:
            grown = base  # a duplicate
        cubes.insert(draw(st.integers(0, len(cubes))), grown)
    return Cover(num_vars, cubes)


class TestSingleCubeContainment:
    def test_keeps_first_of_duplicates_in_order(self):
        cover = parse("bc + ab + bc + a'd + ab")
        assert cover.single_cube_containment().to_str(NAMES) == "bc + ab + a'd"

    def test_drops_every_cube_under_a_full_cube(self):
        cover = Cover(3, [Cube.parse("ab", NAMES), Cube.full(), Cube.full()])
        assert cover.single_cube_containment() == Cover.one(3)

    def test_nested_chain_keeps_only_the_largest(self):
        cover = parse("abcd + abc + ab + a'b + abd")
        assert cover.single_cube_containment().to_str(NAMES) == "ab + a'b"

    def test_trivial_covers(self):
        assert Cover.zero(2).single_cube_containment() == Cover.zero(2)
        one = parse("ab'")
        assert one.single_cube_containment() == one

    @given(nested_cover_st())
    @settings(max_examples=300)
    def test_matches_pairwise_oracle(self, cover):
        assert cover.single_cube_containment() == (
            pairwise_single_cube_containment(cover)
        )

    @given(nested_cover_st(14, 30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_oracle_wide(self, cover):
        assert cover.single_cube_containment() == (
            pairwise_single_cube_containment(cover)
        )
