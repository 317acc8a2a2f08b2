"""The string-keyed implication engine and recursive learning, kept as a test oracle.

This is the dict-based engine the integer-indexed kernel in
:mod:`repro.atpg.implication` replaced, preserved verbatim (it raises the
kernel's own :class:`Conflict`) so the differential suite in
``tests/atpg/test_kernel_differential.py`` can check that the kernel
finds the same conflicts, the same values in the same order and the
same unjustified gates.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.atpg.implication import Conflict
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind


class ImplicationEngine:
    """Implication state over one circuit.

    The engine never mutates the circuit.  Use :meth:`assign` to add
    assignments and :meth:`propagate` to reach a fixpoint; both raise
    :class:`Conflict` on contradiction.  :meth:`fork` makes a cheap
    copy for case analysis (recursive learning).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.values: Dict[str, bool] = {}
        self._queue: deque = deque()
        self._fanouts = circuit.fanouts()
        # Constants are facts, not consequences: seed them up front so
        # forward implications through constant inputs always fire.
        for gate in circuit.gates.values():
            if gate.kind == GateKind.CONST0:
                self.values[gate.name] = False
                self._queue.append(gate.name)
            elif gate.kind == GateKind.CONST1:
                self.values[gate.name] = True
                self._queue.append(gate.name)

    # ------------------------------------------------------------------
    def value(self, signal: str) -> Optional[bool]:
        return self.values.get(signal)

    def assign(self, signal: str, value: bool) -> None:
        """Record an assignment (raises :class:`Conflict`)."""
        current = self.values.get(signal)
        if current is not None:
            if current != value:
                raise Conflict(signal)
            return
        self.values[signal] = value
        self._queue.append(signal)

    def assign_many(self, assignments: Iterable[Tuple[str, bool]]) -> None:
        for signal, value in assignments:
            self.assign(signal, value)

    def fork(self) -> "ImplicationEngine":
        copy = ImplicationEngine.__new__(ImplicationEngine)
        copy.circuit = self.circuit
        copy.values = dict(self.values)
        copy._queue = deque(self._queue)
        copy._fanouts = self._fanouts
        return copy

    # ------------------------------------------------------------------
    def propagate(self) -> None:
        """Run direct implications to a fixpoint."""
        while self._queue:
            signal = self._queue.popleft()
            gate = self.circuit.gates.get(signal)
            if gate is not None:
                self._process(gate)
            for fanout in self._fanouts.get(signal, ()):
                self._process(self.circuit.gates[fanout])

    def run(self, assignments: Iterable[Tuple[str, bool]]) -> bool:
        """Assign then propagate; returns False instead of raising."""
        try:
            self.assign_many(assignments)
            self.propagate()
        except Conflict:
            return False
        return True

    # ------------------------------------------------------------------
    def _literal_value(self, edge: Tuple[str, bool]) -> Optional[bool]:
        signal, phase = edge
        value = self.values.get(signal)
        if value is None:
            return None
        return value if phase else not value

    def _assign_literal(self, edge: Tuple[str, bool], value: bool) -> None:
        signal, phase = edge
        self.assign(signal, value if phase else not value)

    def _process(self, gate: Gate) -> None:
        kind = gate.kind
        if kind == GateKind.PI:
            return
        if kind == GateKind.CONST0:
            self.assign(gate.name, False)
            return
        if kind == GateKind.CONST1:
            self.assign(gate.name, True)
            return

        # AND and OR share the rule structure up to the controlling
        # value: AND is controlled by 0, OR by 1.
        controlling = gate.controlling_value()
        out = self.values.get(gate.name)
        unknown_edges: List[Tuple[str, bool]] = []
        saw_controlling = False
        for edge in gate.inputs:
            lit = self._literal_value(edge)
            if lit is None:
                unknown_edges.append(edge)
            elif lit == controlling:
                saw_controlling = True

        # Forward rules.
        if saw_controlling:
            self.assign(gate.name, controlling)
            out = controlling
        elif not unknown_edges:
            self.assign(gate.name, not controlling)
            out = not controlling

        # Backward rules.
        if out is None:
            return
        if out != controlling:
            # AND=1 / OR=0: every input is at the non-controlling value.
            for edge in gate.inputs:
                self._assign_literal(edge, not controlling)
        else:
            # AND=0 / OR=1: at least one input is controlling; if only
            # one candidate remains, it is forced.
            if not saw_controlling:
                if not unknown_edges:
                    raise Conflict(gate.name)
                if len(unknown_edges) == 1:
                    self._assign_literal(unknown_edges[0], controlling)

    # ------------------------------------------------------------------
    def unjustified_gates(self) -> List[Gate]:
        """Gates whose known output is not yet explained by any input.

        These are the case-split points recursive learning uses.
        """
        result = []
        for gate in self.circuit.gates.values():
            if gate.kind not in (GateKind.AND, GateKind.OR):
                continue
            out = self.values.get(gate.name)
            if out is None or out != gate.controlling_value():
                continue
            lits = [self._literal_value(edge) for edge in gate.inputs]
            if out in lits:
                continue  # justified
            if any(lit is None for lit in lits):
                result.append(gate)
        return result


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
    changed = True
    while changed:
        changed = False
        gates = engine.unjustified_gates()[:max_gates]
        for gate in gates:
            # The gate may have become justified by earlier learning.
            out = engine.value(gate.name)
            if out is None or out != gate.controlling_value():
                continue
            options = [
                edge
                for edge in gate.inputs
                if engine._literal_value(edge) is None
            ]
            if any(
                engine._literal_value(edge) == out for edge in gate.inputs
            ):
                continue
            if not options:
                raise Conflict(gate.name)

            common: Optional[Dict[str, bool]] = None
            for edge in options:
                fork = engine.fork()
                try:
                    fork._assign_literal(edge, out)
                    fork.propagate()
                    if depth > 1:
                        learn_implications(fork, depth - 1, max_gates)
                except Conflict:
                    continue
                if common is None:
                    common = dict(fork.values)
                else:
                    common = {
                        signal: value
                        for signal, value in common.items()
                        if fork.values.get(signal) == value
                    }
                if not common:
                    break

            if common is None:
                # Every justification option conflicts.
                raise Conflict(gate.name)
            for signal, value in common.items():
                if engine.value(signal) is None:
                    engine.assign(signal, value)
                    changed = True
            engine.propagate()
