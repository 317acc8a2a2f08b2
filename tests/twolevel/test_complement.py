"""Tests for URP complementation."""

from typing import Optional

from hypothesis import given, settings

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import (
    complement,
    complement_cube,
    complement_supercube,
)
from repro.twolevel.tautology import is_tautology
from tests.conftest import cover_st, cube_st

NAMES = list("abcde")


def parse(text: str) -> Cover:
    return Cover.parse(text, NAMES)


class TestComplementCube:
    def test_de_morgan(self):
        comp = complement_cube(Cube.parse("ab'", NAMES), 5)
        assert comp.truth_mask() == ((1 << 32) - 1) & ~Cover(
            5, [Cube.parse("ab'", NAMES)]
        ).truth_mask()

    def test_full_cube_complement_is_empty(self):
        assert complement_cube(Cube.full(), 3).is_zero()


class TestComplement:
    def test_zero_complement(self):
        assert complement(Cover.zero(3)).is_one_cube()

    def test_one_complement(self):
        assert complement(Cover.one(3)).is_zero()

    def test_known_complement(self):
        comp = complement(parse("a + b"))
        assert comp.equivalent(parse("a'b'"))

    def test_tautology_complement_is_empty(self):
        assert complement(parse("a + a'")).is_zero()

    def test_wide_support_uses_recursion(self):
        names = [f"v{i}" for i in range(12)]
        cover = Cover.parse(" + ".join(names), names)
        comp = complement(cover)
        # Complement of an OR of all variables is the all-zero minterm.
        assert comp.num_cubes() == 1
        assert comp.cubes[0].num_literals() == 12

    def test_result_has_no_single_cube_redundancy(self):
        comp = complement(parse("ab + cd"))
        for i, cube in enumerate(comp.cubes):
            others = [c for j, c in enumerate(comp.cubes) if j != i]
            assert not any(o.contains(cube) for o in others)


class TestProperties:
    @given(cover_st(4))
    def test_complement_is_exact(self, cover):
        comp = complement(cover)
        full = (1 << 16) - 1
        assert comp.truth_mask() == full & ~cover.truth_mask()

    @given(cover_st(4))
    def test_double_complement(self, cover):
        assert complement(complement(cover)).truth_mask() == cover.truth_mask()

    @given(cube_st(4))
    def test_cube_complement_is_exact(self, cube):
        comp = complement_cube(cube, 4)
        full = (1 << 16) - 1
        assert comp.truth_mask() == full & ~cube.truth_mask(4)


def supercube_of_complement(cover: Cover) -> Optional[Cube]:
    """The SCCC the slow way: build the complement, then fold it."""
    comp = complement(cover)
    if comp.is_zero():
        return None
    result = comp.cubes[0]
    for cube in comp.cubes[1:]:
        result = result.supercube(cube)
    return result


WIDE = [f"v{i}" for i in range(12)]


def wide(text: str) -> Cover:
    return Cover.parse(text, WIDE)


class TestComplementSupercube:
    def test_zero_gives_the_full_cube(self):
        assert complement_supercube(Cover.zero(3)) == Cube.full()

    def test_tautologies_give_none(self):
        assert complement_supercube(Cover.one(3)) is None
        assert complement_supercube(parse("a + a'")) is None
        assert complement_supercube(wide("v0 + v0'v1 + v0'v1'")) is None
        # Support 12: both halves of every split are tautologies.
        wide_tautology = "v0v1 + v0v1' + v0' + " + "".join(WIDE[2:])
        assert complement_supercube(wide(wide_tautology)) is None

    def test_single_cube(self):
        assert complement_supercube(parse("ab'")) == Cube.full()
        assert complement_supercube(parse("b'")) == Cube.parse("b", NAMES)

    def test_truth_table_case(self):
        assert complement_supercube(parse("a + b")) == Cube.parse("a'b'", NAMES)
        assert complement_supercube(parse("a + bc")) == Cube.parse("a'", NAMES)

    def test_recursion_over_wide_support(self):
        cover = wide(" + ".join(WIDE))
        assert complement_supercube(cover) == Cube(0, (1 << 12) - 1)

    def test_full_half_against_tautological_half(self):
        # Split on v0: NOT F_v0 has no implied literal (SCCC full) and
        # F_v0' is a tautology, so NOT F = v0 NOT F_v0 and the SCCC is v0.
        pairs = " + ".join(f"v0v{i}v{i + 1}" for i in range(1, 11, 2))
        cover = wide(f"v0' + {pairs}")
        assert complement_supercube(cover) == Cube.parse("v0", WIDE)
        assert supercube_of_complement(cover) == Cube.parse("v0", WIDE)

    def test_full_half_against_nonempty_half(self):
        pairs = " + ".join(f"v0v{i}v{i + 1}" for i in range(1, 11, 2))
        cover = wide(f"v0'v11 + {pairs}")
        assert complement_supercube(cover) == Cube.full()
        assert supercube_of_complement(cover) == Cube.full()

    def test_one_tautological_half_pins_the_split_literal(self):
        pairs = " + ".join(f"v{i}v{i + 1}" for i in range(1, 11, 2))
        # F_v0 is a tautology: NOT F = v0' NOT F_v0', SCCC v0' v11'.
        cover = wide(f"v0 + v11 + {pairs}")
        expected = Cube.parse("v0'v11'", WIDE)
        assert complement_supercube(cover) == expected
        # Mirrored: F_v0' is a tautology and NOT F_v0 implies v11'.
        cover = wide(f"v0' + v0v11 + {pairs.replace('v', 'v0v', 1)}")
        assert complement_supercube(cover) == supercube_of_complement(cover)

    @given(cover_st(4))
    def test_matches_complement_small(self, cover):
        result = complement_supercube(cover)
        assert result == supercube_of_complement(cover)
        assert (result is None) == is_tautology(cover)

    @given(cover_st(13, 14))
    @settings(max_examples=150, deadline=None)
    def test_matches_complement_wide(self, cover):
        result = complement_supercube(cover)
        assert result == supercube_of_complement(cover)
        assert (result is None) == is_tautology(cover)
