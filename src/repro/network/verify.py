"""Functional verification of networks.

Three independent mechanisms:

* :func:`simulate_equivalent` — fast bit-parallel random simulation;
  used inside optimization passes as a cheap sanity screen.
* :func:`networks_equivalent` — exact equivalence by building ROBDDs of
  every primary-output cone over the primary inputs; used by the test
  suite as the oracle for every rewrite.
* :func:`exact_equivalent` — the backend dispatcher: BDDs for small
  input counts, the SAT miter (:mod:`repro.sat`) above
  :data:`SAT_PI_THRESHOLD`, selectable through
  ``DivisionConfig.verify_backend``.  This is what lifts the ~16-input
  wall on ``--verify-commits`` spot checks and final verification.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.bdd import BddManager
from repro.network.network import Network


def network_output_bdds(
    network: Network,
    pi_order: Optional[List[str]] = None,
    manager: Optional[BddManager] = None,
) -> Dict[str, int]:
    """BDDs of each primary output over the primary inputs.

    *pi_order* fixes the manager's variable ordering; it must cover all
    PIs of the network (extra names are allowed so two networks with
    different PI sets can share an ordering).  Pass the same *manager*
    for two networks to make the returned node ids comparable —
    hash-consing only canonicalizes within one manager.
    """
    if pi_order is None:
        pi_order = sorted(network.pis)
    index = {name: i for i, name in enumerate(pi_order)}
    missing = [pi for pi in network.pis if pi not in index]
    if missing:
        raise ValueError(f"pi_order is missing inputs: {missing}")
    if manager is None:
        manager = BddManager(len(pi_order))
    elif manager.num_vars < len(pi_order):
        raise ValueError("shared manager has too few variables")

    values: Dict[str, int] = {}
    for name in network.topo_order():
        node = network.nodes[name]
        if node.is_pi:
            values[name] = manager.var(index[name])
            continue
        fanin_bdds = [values[f] for f in node.fanins]
        cube_bdds = []
        for cube in node.cover.cubes:
            term = 1  # BDD_ONE
            for var, phase in cube.literals():
                operand = fanin_bdds[var]
                if not phase:
                    operand = manager.not_(operand)
                term = manager.and_(term, operand)
                if term == 0:
                    break
            cube_bdds.append(term)
        values[name] = manager.or_many(cube_bdds)
    return {po: values[po] for po in network.pos}


def networks_equivalent(a: Network, b: Network) -> bool:
    """Exact combinational equivalence (same PO names, same PI names)."""
    if sorted(a.pos) != sorted(b.pos):
        return False
    pi_order = sorted(set(a.pis) | set(b.pis))
    manager = BddManager(len(pi_order))
    bdds_a = network_output_bdds(a, pi_order, manager)
    bdds_b = network_output_bdds(b, pi_order, manager)
    return all(bdds_a[po] == bdds_b[po] for po in a.pos)


#: PI count above which ``backend="auto"`` stops building BDD cones
#: and hands the miter to the SAT engine instead.
SAT_PI_THRESHOLD = 16


def uses_sat(backend: str, n_pis: int) -> bool:
    """True iff an exact check over *n_pis* primary inputs goes to the
    SAT miter: ``backend="sat"``, or ``"auto"`` above
    :data:`SAT_PI_THRESHOLD` inputs.  Every BDD-or-SAT choice in the
    package goes through here."""
    return backend == "sat" or (
        backend == "auto" and n_pis > SAT_PI_THRESHOLD
    )


def exact_equivalent(
    a: Network,
    b: Network,
    backend: str = "auto",
    tracer=None,
) -> bool:
    """Exact combinational equivalence through the selected backend.

    ``backend="bdd"`` forces :func:`networks_equivalent`;
    ``backend="sat"`` forces the CNF miter; ``"auto"`` uses BDDs up to
    :data:`SAT_PI_THRESHOLD` primary inputs (where cones are cheap and
    the answer is instant) and SAT above (:func:`uses_sat`).  A SAT
    solve that exhausts its conflict budget
    (:data:`~repro.sat.check.DEFAULT_CONFLICT_BUDGET`, reported as
    ``complete=False``) falls back to a wide random
    screen — the same degradation the pre-SAT code applied beyond 24
    inputs — so this function always terminates with a verdict; only
    an exhausted-budget path is probabilistic, and the span/counters
    record when that happened.
    """
    if backend not in ("auto", "bdd", "sat"):
        raise ValueError(f"unknown verify backend {backend!r}")
    if not uses_sat(backend, len(set(a.pis) | set(b.pis))):
        return networks_equivalent(a, b)
    from repro.sat.check import sat_equivalent

    verdict = sat_equivalent(a, b, tracer=tracer)
    if verdict.complete:
        return bool(verdict.verdict)
    return simulate_equivalent(a, b, patterns=2048)


def simulate_equivalent(
    a: Network,
    b: Network,
    patterns: int = 256,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> bool:
    """Random-pattern screen: False proves inequivalence; True is only
    probabilistic evidence of equivalence."""
    if sorted(a.pos) != sorted(b.pos):
        return False
    if sorted(a.pis) != sorted(b.pis):
        return False
    if rng is None:
        rng = random.Random(seed)
    stimulus = {
        pi: rng.getrandbits(patterns) for pi in a.pis
    }
    values_a = a.simulate(stimulus, width=patterns)
    values_b = b.simulate(stimulus, width=patterns)
    return all(values_a[po] == values_b[po] for po in a.pos)


def simulate_equivalent_prescreened(
    reference: Network,
    network: Network,
    sim=None,
    patterns: int = 256,
    seed: int = 0,
) -> bool:
    """:func:`simulate_equivalent` with a maintained-signature pre-pass.

    *sim* is an up-to-date
    :class:`~repro.sim.signature.SignatureSimulator` over *network*
    (or ``None``).  Its primary-output signatures were baselined before
    optimization started, so a mismatch now is a *proof* that some
    rewrite changed the network's function on a sampled pattern — the
    expensive two-network re-simulation can be skipped.  Agreement
    proves nothing and falls through to the full screen.
    """
    if sim is not None and not sim.po_signatures_clean():
        return False
    return simulate_equivalent(
        reference, network, patterns=patterns, seed=seed
    )
