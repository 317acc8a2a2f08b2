"""Recursive learning on top of direct implications.

The paper points out (Section III-B) that the implication method is a
dial: direct implications are fast, "quite exhaustive" techniques like
recursive learning [Kunz & Pradhan] find more conflicts — i.e. expose
more internal don't cares — for more run time.  This module implements
bounded-depth recursive learning:

for every unjustified gate, try each justification option in a forked
state; if *all* options conflict the current state is inconsistent;
otherwise assignments common to every surviving option are learned and
asserted, and the loop repeats until nothing new is learned.

Options are tried in place: the engine is marked, the option assigned
and propagated, and the new trail entries read before the mark is
undone — a fork without copying the value list.  Only those *new*
entries are intersected, in the first surviving option's assignment
order, so once the intersection is empty the remaining options are
skipped: they can neither learn anything nor, with one option already
consistent, prove a conflict.  (Intersecting whole value maps instead
never empties, because every option keeps the assignments made before
the split, so that variant tried every option for the same result.)
"""

from __future__ import annotations

from repro.atpg.implication import Conflict, ImplicationEngine


def learn_implications(
    engine: ImplicationEngine, depth: int = 1, max_gates: int = 200
) -> None:
    """Strengthen the engine's state by recursive learning.

    Raises :class:`Conflict` when learning proves the current
    assignments inconsistent.  *depth* bounds the nesting; *max_gates*
    bounds how many unjustified gates are examined per round (a run
    time guard for the GDC configuration on large circuits).
    """
    if depth <= 0:
        return
    kernel = engine.kernel
    ctrl, edges = kernel.ctrl, kernel.edges
    vals, trail = engine._vals, engine._trail
    changed = True
    while changed:
        changed = False
        for g in engine.unjustified_ids()[:max_gates]:
            # The gate may have become justified by earlier learning.
            out = vals[g]
            if out is not ctrl[g]:
                continue
            options = []
            for sid, cv in edges[g]:
                v = vals[sid]
                if v is None:
                    options.append((sid, cv))
                elif v is cv:
                    break  # justified
            else:
                if not options:
                    raise Conflict(kernel.names[g])
                common = None
                mark = engine.mark()
                start = mark[0]
                for sid, cv in options:
                    try:
                        engine.assign_id(sid, cv)
                        engine.propagate()
                        if depth > 1:
                            learn_implications(engine, depth - 1, max_gates)
                    except Conflict:
                        engine.undo(mark)
                        continue
                    if common is None:
                        common = [(s, vals[s]) for s in trail[start:]]
                    else:
                        common = [(s, v) for s, v in common if vals[s] is v]
                    engine.undo(mark)
                    if not common:
                        break

                if common is None:
                    # Every justification option conflicts.
                    raise Conflict(kernel.names[g])
                for sid, value in common:
                    if vals[sid] is None:
                        engine.assign_id(sid, value)
                        changed = True
                engine.propagate()
