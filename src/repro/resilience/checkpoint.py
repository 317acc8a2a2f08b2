"""Verified checkpoints: transactional commits with rollback.

With ``DivisionConfig.verify_commits`` the substitution loop treats
every accepted rewrite as a transaction: the touched nodes are
snapshotted (the loop's existing undo buffer), the rewrite is applied,
and the :class:`CommitLedger` spot-checks the whole network against the
pre-optimization reference before the commit is kept.  The spot check
is the cheap maintained-signature / random-simulation screen
(:func:`~repro.network.verify.simulate_equivalent_prescreened`); every
``verify_full_every``-th commit is instead checked *exactly*: the SAT
miter where :func:`~repro.network.verify.uses_sat` picks it, BDD
equivalence otherwise, and a much wider random screen for BDD checks
beyond ``_EXACT_PI_LIMIT`` inputs or an exhausted SAT budget.

A miscompare rolls the commit back, quarantines the (dividend,
divisor) pair for the rest of the run — the pair is never evaluated or
served from the speculative store again — and appends a structured
incident record (a JSON-ready dict) that surfaces through
``SubstitutionStats.incidents`` and the CLI's ``--stats-json``.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set, Tuple

from repro.network.network import Network
from repro.network.verify import (
    networks_equivalent,
    simulate_equivalent,
    simulate_equivalent_prescreened,
    uses_sat,
)

logger = logging.getLogger("repro.resilience")

Pair = Tuple[str, str]

#: With ``verify_backend="bdd"``: PI count up to which the periodic
#: full check builds exact BDDs; wider networks fall back to a
#: high-pattern random screen.  The "auto"/"sat" backends stay exact
#: at any width through the CNF miter instead (see
#: :func:`~repro.network.verify.exact_equivalent`).
_EXACT_PI_LIMIT = 24


class CommitLedger:
    """Commit verification, rollback bookkeeping, and quarantine.

    The ledger never mutates the network itself — the substitution
    loop owns the undo buffer and calls :meth:`quarantine` after it has
    restored the snapshot, so the ledger's counters always describe
    completed rollbacks.
    """

    def __init__(self, reference: Network, config, sim_filter=None):
        self.reference = reference
        self.config = config
        self.sim_filter = sim_filter
        self.quarantined: Set[Pair] = set()
        self.incidents: List[Dict[str, object]] = []
        #: Commits seen (drives the every-K full-check cadence).
        self.commits = 0
        #: Verification checks actually run.
        self.verified = 0
        #: Commits rolled back after a failed check.
        self.rolled_back = 0
        self._last_check = "none"
        #: SAT-backend work done by this ledger's full checks
        #: (absorbed into ``SubstitutionStats.sat_*`` at run end).
        self.sat_solves = 0
        self.sat_conflicts = 0
        self.sat_decisions = 0
        self.sat_propagations = 0
        self.sat_learned = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_quarantined(self, f_name: str, d_name: str) -> bool:
        return (f_name, d_name) in self.quarantined

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_commit(
        self, network: Network, f_name: str, d_name: str
    ) -> bool:
        """Check the just-applied commit; False means roll it back."""
        self.commits += 1
        self.verified += 1
        if self.commits % self.config.verify_full_every == 0:
            self._last_check = "exact"
            return self._full_check(network)
        self._last_check = "simulation"
        sim = self.sim_filter.sim if self.sim_filter is not None else None
        return simulate_equivalent_prescreened(
            self.reference, network, sim
        )

    def _full_check(self, network: Network) -> bool:
        n_pis = len(network.pis)
        if uses_sat(self.config.verify_backend, n_pis):
            from repro.sat.check import sat_equivalent

            verdict = sat_equivalent(self.reference, network)
            self.sat_solves += 1
            self.sat_conflicts += verdict.conflicts
            self.sat_decisions += verdict.decisions
            self.sat_propagations += verdict.propagations
            self.sat_learned += verdict.learned
            if verdict.complete:
                return bool(verdict.verdict)
            # Exhausted conflict budget: degrade to the wide random
            # screen rather than rolling back a commit on an unknown.
        elif n_pis <= _EXACT_PI_LIMIT:
            return networks_equivalent(self.reference, network)
        return simulate_equivalent(self.reference, network, patterns=2048)

    # ------------------------------------------------------------------
    # Rollback bookkeeping
    # ------------------------------------------------------------------
    def quarantine(
        self, f_name: str, d_name: str, detail: Optional[str] = None
    ) -> None:
        """Record a completed rollback and bar the pair for the run."""
        self.rolled_back += 1
        self.quarantined.add((f_name, d_name))
        incident: Dict[str, object] = {
            "kind": "rolled_back_commit",
            "dividend": f_name,
            "divisor": d_name,
            "commit_index": self.commits,
            "check": self._last_check,
        }
        if detail:
            incident["detail"] = detail
        self.incidents.append(incident)
        logger.error(
            "commit verification failed (%s check): rolled back and "
            "quarantined dividend=%s divisor=%s",
            self._last_check,
            f_name,
            d_name,
        )
