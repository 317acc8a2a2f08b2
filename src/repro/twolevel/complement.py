"""Cover complementation via the unate recursive paradigm.

``complement(F)`` returns a cover of NOT F.  The recursion splits on
the most binate variable and merges the two half-space complements;
tiny supports fall back to a truth table.

``complement_supercube(F)`` returns the smallest cube containing NOT F
(Espresso's SCCC) by the same recursion, without building the
complement: REDUCE reads nothing else of it.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from repro.twolevel.cube import Cube, _var_truth_mask
from repro.twolevel.cover import Cover
from repro.twolevel.tautology import is_tautology

_TRUTH_TABLE_LIMIT = 10


def complement_cube(cube: Cube, num_vars: int) -> Cover:
    """De Morgan complement of a single cube (one cube per literal)."""
    cubes = [Cube.literal(var, not phase) for var, phase in cube.literals()]
    return Cover(num_vars, cubes)


@functools.lru_cache(maxsize=8192)
def _complement_cached(cover: Cover) -> Cover:
    return _complement(cover).single_cube_containment()


def complement(cover: Cover) -> Cover:
    """A cover of the complement of *cover* (same variable space).

    Memoized: covers are immutable and the division/substitution
    machinery re-complements the same node covers constantly.
    """
    return _complement_cached(cover)


def _complement(cover: Cover) -> Cover:
    if cover.is_zero():
        return Cover.one(cover.num_vars)
    if cover.is_one_cube():
        return Cover.zero(cover.num_vars)
    if len(cover.cubes) == 1:
        return complement_cube(cover.cubes[0], cover.num_vars)

    support = cover.support_vars()
    if len(support) <= _TRUTH_TABLE_LIMIT:
        return _truth_table_complement(cover, support)

    var = cover.most_binate_var()
    assert var is not None  # constants were handled above
    pos_comp = _complement(cover.cofactor(var, True))
    neg_comp = _complement(cover.cofactor(var, False))
    cubes: List[Cube] = []
    pos_lit = Cube.literal(var, True)
    neg_lit = Cube.literal(var, False)
    for cube in pos_comp.cubes:
        merged = cube.intersect(pos_lit)
        if merged is not None:
            cubes.append(merged)
    for cube in neg_comp.cubes:
        merged = cube.intersect(neg_lit)
        if merged is not None:
            cubes.append(merged)
    return Cover(cover.num_vars, cubes)


def complement_supercube(cover: Cover) -> Optional[Cube]:
    """The smallest cube containing NOT *cover*; ``None`` if that is empty.

    Equals the supercube of ``complement(cover)``, and of every other
    exact cover of NOT *cover*: its literals are exactly the literals
    NOT *cover* implies.
    """
    if cover.is_zero():
        return Cube.full()
    if cover.is_one_cube():
        return None
    if len(cover.cubes) == 1:
        # NOT (l1 l2 ...) = l1' + l2' + ...: one literal or none shared.
        literals = list(cover.cubes[0].literals())
        if len(literals) == 1:
            var, phase = literals[0]
            return Cube.literal(var, not phase)
        return Cube.full()

    support = cover.support_vars()
    if len(support) <= _TRUTH_TABLE_LIMIT:
        return _truth_table_supercube(cover, support)

    var = cover.most_binate_var()
    assert var is not None  # constants were handled above
    pos_cof = cover.cofactor(var, True)
    neg_cof = cover.cofactor(var, False)
    # NOT F = x NOT F_x + x' NOT F_x'; neither half mentions x.
    pos_sc = complement_supercube(pos_cof)
    if pos_sc is not None and pos_sc.is_full():
        # Full whatever the other half is, unless that half is empty.
        return Cube.literal(var, True) if is_tautology(neg_cof) else pos_sc
    neg_sc = complement_supercube(neg_cof)
    if neg_sc is None:
        if pos_sc is None:
            return None
        return pos_sc.intersect(Cube.literal(var, True))
    if pos_sc is None:
        return neg_sc.intersect(Cube.literal(var, False))
    return pos_sc.supercube(neg_sc)


def _truth_table_supercube(cover: Cover, support) -> Optional[Cube]:
    """SCCC over a small support: test each literal against the off mask."""
    n = len(support)
    full = (1 << (1 << n)) - 1
    off = full & ~_compact_mask(cover, support)
    if not off:
        return None
    pos = neg = 0
    for i, var in enumerate(support):
        var_mask = _var_truth_mask(n, i)
        if not off & ~var_mask:
            pos |= 1 << var
        elif not off & var_mask:
            neg |= 1 << var
    return Cube(pos, neg)


def _compact_mask(cover: Cover, support) -> int:
    """Truth-table mask of *cover* over its *support*, renumbered from 0."""
    index = {var: i for i, var in enumerate(support)}
    n = len(support)
    mask = 0
    for cube in cover.cubes:
        compact = Cube.from_literals(
            [(index[v], phase) for v, phase in cube.literals()]
        )
        mask |= compact.truth_mask(n)
    return mask


def _truth_table_complement(cover: Cover, support) -> Cover:
    """Exact complement over a small support, then a greedy cube cover."""
    n = len(support)
    full = (1 << (1 << n)) - 1
    full_off = full & ~_compact_mask(cover, support)
    off = full_off
    cubes: List[Cube] = []
    while off:
        minterm = (off & -off).bit_length() - 1
        cube = _expand_minterm(minterm, full_off, n)
        cubes.append(_lift(cube, support))
        off &= ~cube.truth_mask(n)
    return Cover(cover.num_vars, cubes)


def _expand_minterm(minterm: int, off: int, n: int) -> Cube:
    """Grow a minterm into a prime of the off-set mask (greedy)."""
    cube = Cube.from_minterm(minterm, n)
    for var in range(n):
        candidate = cube.without_var(var)
        if candidate.truth_mask(n) & ~off == 0:
            cube = candidate
    return cube


def _lift(cube: Cube, support) -> Cube:
    return Cube.from_literals(
        [(support[v], phase) for v, phase in cube.literals()]
    )
