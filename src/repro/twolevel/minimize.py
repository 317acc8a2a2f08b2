"""Espresso-lite: heuristic two-level minimization with don't cares.

Implements the classical EXPAND / IRREDUNDANT / REDUCE loop over the
positional-cube representation:

* :func:`expand` grows each cube into a prime against the off-set and
  drops cubes the grown prime covers,
* :func:`irredundant` removes cubes covered by the rest of the cover
  plus the don't-care set,
* :func:`reduce_cover` shrinks each cube to the smallest cube still
  covering its essential part, unlocking further expansion,
* :func:`espresso` iterates the three until the cost stops improving.

This is the minimizer behind the SIS-style ``simplify`` pass and the
"force a literal through a two-level optimizer" Boolean-division
baseline the paper's introduction describes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import complement, complement_supercube
from repro.twolevel.tautology import cover_contains_cube


def _cost(cover: Cover) -> Tuple[int, int]:
    return cover.num_cubes(), cover.num_literals()


def expand(cover: Cover, off_set: Cover) -> Cover:
    """Grow every cube into a prime of ON+DC and drop covered cubes.

    A literal may be dropped from a cube iff the grown cube still does
    not intersect any off-set cube (i.e. stays inside ON+DC).
    """
    # Process large cubes first so small cubes get absorbed by them.
    order = sorted(
        range(len(cover.cubes)), key=lambda i: cover.cubes[i].num_literals()
    )
    cubes = list(cover.cubes)
    alive = [True] * len(cubes)
    for i in order:
        if not alive[i]:
            continue
        cube = cubes[i]
        cube = _expand_one(cube, off_set)
        cubes[i] = cube
        for j in range(len(cubes)):
            if j != i and alive[j] and cube.contains(cubes[j]):
                alive[j] = False
    return Cover(
        cover.num_vars, [c for c, keep in zip(cubes, alive) if keep]
    )


def _expand_one(cube: Cube, off_set: Cover) -> Cube:
    """Greedy single-cube expansion against the off-set.

    Literal remove order: try the literal whose removal conflicts with
    the fewest off-set cubes first (a cheap stand-in for Espresso's
    blocking-matrix heuristics).
    """
    literals = list(cube.literals())
    scored = []
    for var, phase in literals:
        candidate = cube.without_var(var)
        blockers = sum(
            1 for off in off_set.cubes if candidate.distance(off) == 0
        )
        scored.append((blockers, var, phase))
    scored.sort()
    current = cube
    for _, var, _ in scored:
        candidate = current.without_var(var)
        if all(candidate.distance(off) > 0 for off in off_set.cubes):
            current = candidate
    return current


def irredundant(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Remove cubes covered by the remaining cover plus the DC set."""
    cubes = list(cover.cubes)
    # Try to drop big-literal (small) cubes first.
    order = sorted(
        range(len(cubes)), key=lambda i: -cubes[i].num_literals()
    )
    alive = [True] * len(cubes)
    for i in order:
        rest = [c for j, c in enumerate(cubes) if alive[j] and j != i]
        if dc_set is not None:
            rest.extend(dc_set.cubes)
        if cover_contains_cube(Cover(cover.num_vars, rest), cubes[i]):
            alive[i] = False
    return Cover(
        cover.num_vars, [c for c, keep in zip(cubes, alive) if keep]
    )


def reduce_cover(cover: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Shrink every cube to its essential part (maximally reduced).

    The classical rule: replace cube ``c`` with
    ``c AND supercube(complement((F \\ {c} + DC) cofactor c))`` — the
    smallest cube covering the minterms of ``c`` that no other cube
    (or don't care) covers.  The supercube comes straight from
    :func:`complement_supercube`; the complement is never built.
    """
    cubes = list(cover.cubes)
    order = sorted(range(len(cubes)), key=lambda i: cubes[i].num_literals())
    for i in order:
        cube = cubes[i]
        rest = [c for j, c in enumerate(cubes) if j != i]
        if dc_set is not None:
            rest.extend(dc_set.cubes)
        rest_cof = Cover(cover.num_vars, rest).cofactor_cube(cube)
        super_cube = complement_supercube(rest_cof)
        if super_cube is None:
            # Fully covered elsewhere; keep as-is, irredundant removes it.
            continue
        reduced = cube.intersect(super_cube)
        if reduced is not None:
            cubes[i] = reduced
    return Cover(cover.num_vars, cubes)


def espresso(
    on_set: Cover,
    dc_set: Optional[Cover] = None,
    max_iterations: int = 10,
) -> Cover:
    """Heuristic minimization of *on_set* given an optional DC set.

    Returns a cover F with ``on_set <= F <= on_set + dc_set`` that is
    prime and irredundant with (usually) fewer cubes/literals.
    """
    if dc_set is None:
        dc_set = Cover.zero(on_set.num_vars)
    on_set._check_compatible(dc_set)
    if on_set.is_zero():
        return on_set
    off_set = complement(on_set.union(dc_set))
    if off_set.is_zero():
        return Cover.one(on_set.num_vars)

    current = on_set.single_cube_containment()
    current = expand(current, off_set)
    current = irredundant(current, dc_set)
    best = current
    best_cost = _cost(best)
    for _ in range(max_iterations):
        current = reduce_cover(current, dc_set)
        current = expand(current, off_set)
        current = irredundant(current, dc_set)
        cost = _cost(current)
        if cost < best_cost:
            best, best_cost = current, cost
        else:
            break
    return best


def minimize_exact_small(on_set: Cover, dc_set: Optional[Cover] = None) -> Cover:
    """Exact minimum-cube cover for tiny supports (Quine–McCluskey).

    Used by tests as an oracle; limited to supports of ~8 variables.
    """
    support = sorted(
        set(on_set.support_vars())
        | (set(dc_set.support_vars()) if dc_set else set())
    )
    n = len(support)
    if n > 8:
        raise ValueError("exact minimization limited to 8 support variables")
    index = {var: i for i, var in enumerate(support)}

    def compact_mask(cover: Cover) -> int:
        mask = 0
        for cube in cover.cubes:
            c = Cube.from_literals(
                [(index[v], p) for v, p in cube.literals()]
            )
            mask |= c.truth_mask(n)
        return mask

    on_mask = compact_mask(on_set)
    dc_mask = compact_mask(dc_set) if dc_set else 0
    care_on = on_mask & ~dc_mask
    if on_mask == 0:
        return Cover.zero(on_set.num_vars)
    target = care_on if care_on else on_mask

    primes = _all_primes(on_mask | dc_mask, n)
    prime_masks = [(p, p.truth_mask(n)) for p in primes]
    chosen = _exact_cover(target, prime_masks)
    lifted = [
        Cube.from_literals([(support[v], p) for v, p in cube.literals()])
        for cube in chosen
    ]
    return Cover(on_set.num_vars, lifted)


def _exact_cover(
    target: int, prime_masks: List[Tuple[Cube, int]]
) -> List[Cube]:
    """Minimum-cardinality prime cover of *target*, by branch & bound.

    Branches on the uncovered minterm with the fewest covering primes
    (the most constrained point), which makes essential primes free.
    """
    best: List[List[Cube]] = [[pm[0] for pm in prime_masks]]

    def covering(minterm_bit: int) -> List[Tuple[Cube, int]]:
        return [pm for pm in prime_masks if pm[1] & minterm_bit]

    def search(remaining: int, chosen: List[Cube]) -> None:
        if len(chosen) >= len(best[0]):
            return  # cannot beat the incumbent
        if not remaining:
            best[0] = list(chosen)
            return
        # Most-constrained uncovered minterm.
        pivot_bit = 0
        pivot_options: Optional[List[Tuple[Cube, int]]] = None
        probe = remaining
        while probe:
            bit = probe & -probe
            probe &= probe - 1
            options = covering(bit)
            if pivot_options is None or len(options) < len(pivot_options):
                pivot_bit, pivot_options = bit, options
                if len(options) <= 1:
                    break
        if not pivot_options:
            return  # uncoverable (cannot happen for true primes)
        for cube, mask in pivot_options:
            chosen.append(cube)
            search(remaining & ~mask, chosen)
            chosen.pop()

    search(target, [])
    return best[0]


def _all_primes(care_mask: int, n: int) -> List[Cube]:
    """All prime implicants of the mask over *n* variables."""
    implicants = set()
    for m in range(1 << n):
        if care_mask >> m & 1:
            implicants.add(Cube.from_minterm(m, n))
    primes: List[Cube] = []
    current = implicants
    while current:
        merged = set()
        used = set()
        items = list(current)
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                c = a.consensus(b)
                if c is not None and a.supercube(b) == c:
                    merged.add(c)
                    used.add(a)
                    used.add(b)
        for cube in current:
            if cube not in used:
                primes.append(cube)
        current = merged
    # Deduplicate while keeping only maximal cubes.
    unique = []
    for cube in primes:
        if not any(o.contains(cube) and o != cube for o in primes):
            if cube not in unique:
                unique.append(cube)
    return unique
