"""Tests for the espresso-lite two-level minimizer."""

from typing import Optional
from unittest import mock

from hypothesis import given, settings

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import complement
from repro.twolevel import minimize
from repro.twolevel.minimize import (
    espresso,
    expand,
    irredundant,
    minimize_exact_small,
    reduce_cover,
)
from tests.conftest import cover_st

NAMES = list("abcde")


def parse(text: str) -> Cover:
    return Cover.parse(text, NAMES)


class TestExpand:
    def test_expand_to_primes(self):
        on = parse("ab + ab'")
        off = complement(on)
        expanded = expand(on, off)
        assert expanded.equivalent(parse("a"))
        assert expanded.num_cubes() == 1

    def test_expand_absorbs_covered_cubes(self):
        on = parse("a + ab")
        off = complement(parse("a"))
        assert expand(on, off).num_cubes() == 1

    def test_expand_keeps_disjoint_cubes(self):
        on = parse("ab + a'c")
        off = complement(on)
        assert expand(on, off).num_cubes() == 2


class TestIrredundant:
    def test_removes_consensus_cube(self):
        # bc is the consensus of ab and a'c; it is redundant.
        cover = parse("ab + a'c + bc")
        result = irredundant(cover)
        assert result.num_cubes() == 2
        assert result.equivalent(cover)

    def test_respects_dc_set(self):
        cover = parse("ab")
        dc = parse("ab")  # entire cube is don't care
        assert irredundant(cover, dc).is_zero()

    def test_keeps_essential_cubes(self):
        cover = parse("ab + cd")
        assert irredundant(cover).num_cubes() == 2


class TestReduce:
    def test_reduce_shrinks_overlapping_cube(self):
        # a + a'b: the second cube can't shrink further, the first can't
        # either, but a + b reduces b to a'b.
        cover = parse("a + b")
        reduced = reduce_cover(cover)
        assert reduced.equivalent(cover)

    def test_reduce_preserves_function(self):
        cover = parse("ab + b'c + ac")
        assert reduce_cover(cover).equivalent(cover)


def complement_reduce_cover(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """REDUCE as it was before SCCC: fold the built complement (oracle)."""
    cubes = list(cover.cubes)
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].num_literals())
    for i in order:
        cube = cubes[i]
        rest = [c for j, c in enumerate(cubes) if j != i]
        if dc_set is not None:
            rest.extend(dc_set.cubes)
        rest_cof = Cover(cover.num_vars, rest).cofactor_cube(cube)
        uncovered = complement(rest_cof)
        if uncovered.is_zero():
            continue
        super_cube = uncovered.cubes[0]
        for extra in uncovered.cubes[1:]:
            super_cube = super_cube.supercube(extra)
        reduced = cube.intersect(super_cube)
        if reduced is not None:
            cubes[i] = reduced
    return Cover(cover.num_vars, cubes)


class TestReduceMatchesComplementOracle:
    @given(cover_st(4), cover_st(4, max_cubes=2))
    @settings(max_examples=100, deadline=None)
    def test_reduce_small(self, cover, dc):
        assert reduce_cover(cover, dc) == complement_reduce_cover(cover, dc)

    @given(cover_st(12, 10), cover_st(12, max_cubes=3))
    @settings(max_examples=60, deadline=None)
    def test_reduce_wide(self, cover, dc):
        assert reduce_cover(cover) == complement_reduce_cover(cover)
        assert reduce_cover(cover, dc) == complement_reduce_cover(cover, dc)

    @given(cover_st(12, 8), cover_st(12, max_cubes=2))
    @settings(max_examples=30, deadline=None)
    def test_espresso_unchanged(self, on, dc):
        result = espresso(on, dc)
        with mock.patch.object(minimize, "reduce_cover", complement_reduce_cover):
            assert espresso(on, dc) == result


class TestEspresso:
    def test_simple_merge(self):
        result = espresso(parse("ab + ab'"))
        assert result.equivalent(parse("a"))
        assert result.num_literals() == 1

    def test_classic_example(self):
        # f = a'b' + ab + a'b = a' + b
        result = espresso(parse("a'b' + ab + a'b"))
        assert result.num_cubes() == 2
        assert result.num_literals() == 2

    def test_constant_one_detection(self):
        assert espresso(parse("a + a'")).is_one_cube()

    def test_zero_passthrough(self):
        assert espresso(Cover.zero(3)).is_zero()

    def test_dc_enables_expansion(self):
        on = parse("ab")
        dc = parse("ab'")
        result = espresso(on, dc)
        assert result.equivalent(parse("a")) or result.num_literals() == 1

    def test_dc_makes_constant(self):
        on = parse("ab + ab'")
        dc = parse("a'")
        assert espresso(on, dc).is_one_cube()

    def test_result_within_bounds(self):
        on = parse("ab'c + abc + a'bc")
        result = espresso(on)
        # Result must cover ON and stay inside ON (no DC given).
        assert result.equivalent(on)

    @given(cover_st(4), cover_st(4, max_cubes=2))
    @settings(max_examples=60, deadline=None)
    def test_espresso_respects_bounds(self, on, dc):
        result = espresso(on, dc)
        on_mask, dc_mask, res_mask = (
            on.truth_mask(),
            dc.truth_mask(),
            result.truth_mask(),
        )
        # ON \ DC must be covered; nothing outside ON ∪ DC may be.
        assert (on_mask & ~dc_mask) & ~res_mask == 0
        assert res_mask & ~(on_mask | dc_mask) == 0

    @given(cover_st(4))
    @settings(max_examples=60, deadline=None)
    def test_espresso_never_worse(self, on):
        result = espresso(on)
        assert result.num_cubes() <= max(on.num_cubes(), 1)

    @given(cover_st(4))
    @settings(max_examples=40, deadline=None)
    def test_espresso_close_to_exact(self, on):
        heuristic = espresso(on)
        exact = minimize_exact_small(on)
        # Heuristic may be worse, but never better than a valid cover
        # can be, and should stay within 2x cubes of the greedy exact.
        assert exact.truth_mask() == on.truth_mask()
        if exact.num_cubes():
            assert heuristic.num_cubes() <= 2 * exact.num_cubes() + 1


class TestExactOracle:
    def test_exact_known_minimum(self):
        exact = minimize_exact_small(parse("ab + ab' + a'b"))
        assert exact.num_cubes() == 2
        assert exact.equivalent(parse("a + b"))

    def test_exact_with_dc(self):
        on = parse("ab + ab'")
        dc = parse("a'")
        exact = minimize_exact_small(on, dc)
        on_mask = on.truth_mask()
        assert on_mask & ~exact.truth_mask() & ~dc.truth_mask() == 0

    def test_exact_zero(self):
        assert minimize_exact_small(Cover.zero(3)).is_zero()


class TestExactMinimality:
    def test_exact_is_truly_minimum(self):
        """Brute-force check that no smaller prime cover exists."""
        import itertools

        from repro.twolevel.minimize import _all_primes

        cases = [
            "ab + ab' + a'b",
            "ab + a'c + bc",
            "abc + ab'c + a'bc + abc'",
            "a + b + c",
        ]
        for text in cases:
            cover = parse(text)
            exact = minimize_exact_small(cover)
            assert exact.truth_mask() == cover.truth_mask()
            support = cover.support_vars()
            n = len(support)
            index = {v: i for i, v in enumerate(support)}
            compact_mask = 0
            for cube in cover.cubes:
                compact = Cube.from_literals(
                    [(index[v], p) for v, p in cube.literals()]
                )
                compact_mask |= compact.truth_mask(n)
            primes = _all_primes(compact_mask, n)
            for size in range(exact.num_cubes()):
                for combo in itertools.combinations(primes, size):
                    mask = 0
                    for cube in combo:
                        mask |= cube.truth_mask(n)
                    assert mask != compact_mask, (text, size)

    def test_espresso_never_beats_exact(self):
        for text in ("ab + a'c + bc", "ab' + a'b + ab"):
            cover = parse(text)
            assert (
                espresso(cover).num_cubes()
                >= minimize_exact_small(cover).num_cubes()
            )
