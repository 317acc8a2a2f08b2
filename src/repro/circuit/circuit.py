"""The structural circuit: a DAG of :class:`Gate` objects."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.circuit.gate import Gate, GateKind


class Circuit:
    """A named collection of gates with fanout bookkeeping.

    Signals and gates are identified by the same names: the gate named
    ``s`` drives signal ``s``.  A signal some gate reads but no gate
    drives is *undriven*: it has no entry in :meth:`fanouts`, so the
    implication engine never revisits its readers when it is implied.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.gates: Dict[str, Gate] = {}
        self._fanouts: Optional[Dict[str, List[str]]] = None
        #: The implication kernel's compiled form
        #: (:class:`repro.atpg.implication.CompiledCircuit`), built and
        #: patched by that module; every structural edit here drops it.
        self._compiled = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_gate(self, gate: Gate) -> Gate:
        if gate.name in self.gates:
            raise ValueError(f"duplicate gate name {gate.name!r}")
        self.gates[gate.name] = gate
        self.invalidate()
        return gate

    def add_pi(self, name: str) -> Gate:
        return self.add_gate(Gate(name, GateKind.PI))

    def add_and(self, name: str, inputs: Iterable[Tuple[str, bool]]) -> Gate:
        return self.add_gate(Gate(name, GateKind.AND, list(inputs)))

    def add_or(self, name: str, inputs: Iterable[Tuple[str, bool]]) -> Gate:
        return self.add_gate(Gate(name, GateKind.OR, list(inputs)))

    def remove_gate(self, name: str) -> None:
        del self.gates[name]
        self.invalidate()

    def invalidate(self) -> None:
        """Call after mutating a gate's input list in place."""
        self._fanouts = None
        self._compiled = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def fanouts(self) -> Dict[str, List[str]]:
        """Gate name -> names of the gates reading it, in gate order.

        Only driven signals (gates) have entries; a gate appears once
        per input edge reading the signal.
        """
        if self._fanouts is None:
            table: Dict[str, List[str]] = {name: [] for name in self.gates}
            for gate in self.gates.values():
                for signal, _ in gate.inputs:
                    if signal in table:
                        table[signal].append(gate.name)
            self._fanouts = table
        return self._fanouts

    def pis(self) -> List[str]:
        return [
            g.name for g in self.gates.values() if g.kind == GateKind.PI
        ]

    def topo_order(self) -> List[str]:
        state: Dict[str, int] = {}
        order: List[str] = []
        for root in self.gates:
            if state.get(root, 0):
                continue
            stack = [(root, iter(self.gates[root].inputs))]
            state[root] = 1
            while stack:
                current, it = stack[-1]
                advanced = False
                for signal, _ in it:
                    mark = state.get(signal, 0)
                    if mark == 1:
                        raise ValueError(f"cycle through {signal!r}")
                    if mark == 0 and signal in self.gates:
                        state[signal] = 1
                        stack.append(
                            (signal, iter(self.gates[signal].inputs))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[current] = 2
                    order.append(current)
                    stack.pop()
        return order

    def transitive_fanin(self, name: str) -> Set[str]:
        result: Set[str] = set()
        stack = [s for s, _ in self.gates[name].inputs]
        while stack:
            current = stack.pop()
            if current in result or current not in self.gates:
                continue
            result.add(current)
            stack.extend(s for s, _ in self.gates[current].inputs)
        return result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all gates given PI values."""
        values: Dict[str, bool] = {}
        for name in self.topo_order():
            gate = self.gates[name]
            if gate.kind == GateKind.PI:
                values[name] = bool(assignment[name])
            elif gate.kind == GateKind.CONST0:
                values[name] = False
            elif gate.kind == GateKind.CONST1:
                values[name] = True
            else:
                literals = (
                    values[s] if phase else not values[s]
                    for s, phase in gate.inputs
                )
                if gate.kind == GateKind.AND:
                    values[name] = all(literals)
                else:
                    values[name] = any(literals)
        return values

    def count_wires(self) -> int:
        return sum(len(g.inputs) for g in self.gates.values())

    def copy(self, name: Optional[str] = None) -> "Circuit":
        duplicate = Circuit(name or self.name)
        for gate in self.gates.values():
            duplicate.gates[gate.name] = gate.copy()
        return duplicate

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, gates={len(self.gates)})"
