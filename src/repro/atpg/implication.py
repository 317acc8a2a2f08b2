"""Three-valued direct implication engine with conflict detection.

Signals take values in {0, 1, unknown}.  Assignments propagate both
forward (gate inputs determine the output) and backward (a known
output constrains the inputs) until a fixpoint; an attempt to assign a
signal both values is a :class:`Conflict`.

During the paper's division, a conflict among a fault's mandatory
assignments proves the fault untestable — which is what licenses
removing the wire.

The engine runs on a :class:`CompiledCircuit`: an integer-indexed form
of the circuit built once per :class:`~repro.circuit.circuit.Circuit`
(cached beside its fanout table and dropped by the same structural
edits).  Signals are interned to ids; each AND/OR gate keeps its
controlling value and a tuple of ``(input id, controlling input
value)`` edges; each signal keeps a *visit list* — its own AND/OR gate,
then the AND/OR gates reading it in gate-insertion order — so
:meth:`ImplicationEngine.propagate` is one loop over flat lists.  The
ordering rules are those of a dict-and-queue engine walking
``circuit.gates``: a FIFO queue of assigned signals, each popped signal
visiting its own gate and then its fanouts, constants seeded first in
gate order, and unjustified gates reported in gate order.  The visit
lists hold each reader once: visiting a gate twice in a row is a no-op.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind


class Conflict(Exception):
    """A signal was implied to both 0 and 1."""

    def __init__(self, signal: str):
        super().__init__(f"conflicting implication on signal {signal!r}")
        self.signal = signal


class CompiledCircuit:
    """The integer-indexed form of one circuit's current structure.

    Per signal id: ``names`` (the signal name), ``ctrl`` (controlling
    value of its AND/OR gate, ``None`` for PIs, constants and undriven
    signals), ``edges`` (the gate's ``(input id, cv)`` pairs, where
    ``cv`` is the input *signal* value that makes the literal
    controlling), ``rank`` (gate-insertion rank), ``readers`` (AND/OR
    gates reading the signal, each once, in rank order), ``driven``
    and ``visit`` (what popping the signal processes).

    An undriven signal — one some gate reads but no gate drives, such
    as an f-only fanin in a region-only analysis circuit — has an
    empty visit list, exactly as :meth:`Circuit.fanouts` has no entry
    for it: a gate reading it is *not* revisited when the signal is
    implied later (it still reads the value whenever something else
    queues it).  ``template``/``consts`` pre-seed every engine with the
    constant gates' values, in gate order.

    :meth:`install` and :meth:`drop` patch the form in place after one
    gate is added, replaced (it moves to the end of the gate order, as
    a dict re-insert does) or removed; every other edit recompiles.
    """

    __slots__ = (
        "ids", "names", "ctrl", "edges", "rank", "readers", "driven",
        "visit", "template", "consts", "_next_rank",
    )

    def __init__(self, circuit: Circuit):
        gates = list(circuit.gates.values())
        n_gates = len(gates)
        names = [gate.name for gate in gates]
        ids = {name: sid for sid, name in enumerate(names)}
        for gate in gates:
            for signal, _ in gate.inputs:
                if signal not in ids:
                    ids[signal] = len(names)
                    names.append(signal)
        n = len(names)
        ctrl: List[Optional[bool]] = [None] * n
        edges: List[Tuple[Tuple[int, bool], ...]] = [()] * n
        template: List[Optional[bool]] = [None] * n
        consts: List[int] = []
        readers: List[List[int]] = [[] for _ in range(n)]
        AND, OR = GateKind.AND, GateKind.OR
        for gid, gate in enumerate(gates):
            kind = gate.kind
            if kind is AND or kind is OR:
                c = kind is OR
                ctrl[gid] = c
                gate_edges = tuple(
                    (ids[signal], phase == c) for signal, phase in gate.inputs
                )
                edges[gid] = gate_edges
                for sid in dict.fromkeys(sid for sid, _ in gate_edges):
                    readers[sid].append(gid)
            elif kind is GateKind.CONST0 or kind is GateKind.CONST1:
                template[gid] = kind is GateKind.CONST1
                consts.append(gid)
        self.ids: Dict[str, int] = ids
        self.names: List[str] = names
        self.ctrl = ctrl
        self.edges = edges
        self.rank: List[int] = list(range(n_gates)) + [-1] * (n - n_gates)
        self.readers: List[Tuple[int, ...]] = [tuple(r) for r in readers]
        self.driven: List[bool] = [True] * n_gates + [False] * (n - n_gates)
        self.template = template
        self.consts = consts
        self._next_rank = n_gates
        # Only driven signals (the first n_gates ids) visit their readers.
        self.visit: List[Tuple[int, ...]] = [
            ((sid,) if ctrl[sid] is not None else ())
            + (self.readers[sid] if sid < n_gates else ())
            for sid in range(n)
        ]

    # -- interning -------------------------------------------------------
    def id(self, name: str) -> int:
        """The id of signal *name*, interning it as undriven if new."""
        sid = self.ids.get(name)
        if sid is None:
            sid = len(self.names)
            self.ids[name] = sid
            self.names.append(name)
            self.ctrl.append(None)
            self.edges.append(())
            self.rank.append(-1)
            self.readers.append(())
            self.driven.append(False)
            self.visit.append(())
            self.template.append(None)
        return sid

    def _input_ids(self, gate: Gate) -> List[int]:
        """Distinct input ids of *gate*, in first-occurrence order."""
        seen: List[int] = []
        for signal, _ in gate.inputs:
            sid = self.id(signal)
            if sid not in seen:
                seen.append(sid)
        return seen

    def _set_gate(self, gid: int, gate: Gate) -> None:
        kind = gate.kind
        self.driven[gid] = True
        self.rank[gid] = self._next_rank
        self._next_rank += 1
        if kind is GateKind.AND or kind is GateKind.OR:
            c = kind is GateKind.OR
            self.ctrl[gid] = c
            self.edges[gid] = tuple(
                (self.id(signal), phase == c) for signal, phase in gate.inputs
            )
        else:
            self.ctrl[gid] = None
            self.edges[gid] = ()
        if kind is GateKind.CONST0 or kind is GateKind.CONST1:
            self.template[gid] = kind is GateKind.CONST1
            self.consts.append(gid)
        else:
            self.template[gid] = None

    def _refresh_visit(self, sid: int) -> None:
        own = (sid,) if self.ctrl[sid] is not None else ()
        self.visit[sid] = own + self.readers[sid] if self.driven[sid] else own

    # -- patching --------------------------------------------------------
    def drop(self, name: str) -> None:
        """Forget gate *name*; its signal becomes undriven."""
        gid = self.ids.get(name)
        if gid is None or not self.driven[gid]:
            return
        for sid in set(sid for sid, _ in self.edges[gid]):
            self.readers[sid] = tuple(
                g for g in self.readers[sid] if g != gid
            )
            self._refresh_visit(sid)
        if self.template[gid] is not None:
            self.consts.remove(gid)
        self.driven[gid] = False
        self.ctrl[gid] = None
        self.edges[gid] = ()
        self.template[gid] = None
        self.rank[gid] = -1
        self._refresh_visit(gid)

    def install(self, gate: Gate) -> None:
        """Add *gate* as the last gate in gate order (after :meth:`drop`).

        ``readers`` are kept for undriven signals too, so a signal that
        gains a gate here visits the gates already reading it.
        """
        gid = self.id(gate.name)
        if self.driven[gid]:
            raise ValueError(f"gate {gate.name!r} is already compiled")
        self._set_gate(gid, gate)
        for sid in self._input_ids(gate):
            self.readers[sid] = self.readers[sid] + (gid,)
            self._refresh_visit(sid)
        self._refresh_visit(gid)


def compiled(circuit: Circuit) -> CompiledCircuit:
    """The circuit's compiled form, building it on first use."""
    kernel = circuit._compiled
    if kernel is None:
        kernel = circuit._compiled = CompiledCircuit(circuit)
    return kernel


def replace_gate(circuit: Circuit, gate: Gate) -> None:
    """Add *gate*, replacing any gate of that name, and patch the kernel.

    The result equals ``remove_gate`` + ``add_gate`` followed by a full
    recompile, without the recompile.
    """
    kernel = circuit._compiled
    if gate.name in circuit.gates:
        circuit.remove_gate(gate.name)
    circuit.add_gate(gate)
    if kernel is not None:
        kernel.drop(gate.name)
        kernel.install(gate)
        circuit._compiled = kernel


def drop_gate(circuit: Circuit, name: str) -> None:
    """Remove gate *name* if present and patch the kernel."""
    if name not in circuit.gates:
        return
    kernel = circuit._compiled
    circuit.remove_gate(name)
    if kernel is not None:
        kernel.drop(name)
        circuit._compiled = kernel


class ImplicationEngine:
    """Implication state over one circuit.

    The engine never mutates the circuit and is bound to its structure
    at construction: build a new engine after editing the circuit.  Use
    :meth:`assign` to add assignments and :meth:`propagate` to reach a
    fixpoint; both raise :class:`Conflict` on contradiction.
    :meth:`fork` makes a cheap copy for case analysis.  The ``*_id``
    methods take signal ids of :attr:`kernel` for callers that test
    many faults against one structure.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        kernel = self.kernel = compiled(circuit)
        self._vals: List[Optional[bool]] = list(kernel.template)
        self._trail: List[int] = list(kernel.consts)
        self._queue: deque = deque(kernel.consts)

    @property
    def values(self) -> Dict[str, bool]:
        """Known signal values, in assignment order."""
        names, vals = self.kernel.names, self._vals
        return {names[sid]: vals[sid] for sid in self._trail}

    # ------------------------------------------------------------------
    def value(self, signal: str) -> Optional[bool]:
        sid = self.kernel.ids.get(signal)
        if sid is None or sid >= len(self._vals):
            return None
        return self._vals[sid]

    def value_id(self, sid: int) -> Optional[bool]:
        return self._vals[sid]

    def assign(self, signal: str, value: bool) -> None:
        """Record an assignment (raises :class:`Conflict`)."""
        sid = self.kernel.id(signal)
        vals = self._vals
        if sid >= len(vals):
            vals.extend([None] * (len(self.kernel.names) - len(vals)))
        self.assign_id(sid, bool(value))

    def assign_id(self, sid: int, value: bool) -> None:
        current = self._vals[sid]
        if current is None:
            self._vals[sid] = value
            self._trail.append(sid)
            self._queue.append(sid)
        elif current is not value:
            raise Conflict(self.kernel.names[sid])

    def assign_many(self, assignments: Iterable[Tuple[str, bool]]) -> None:
        for signal, value in assignments:
            self.assign(signal, value)

    def assign_many_ids(self, assignments: Iterable[Tuple[int, bool]]) -> None:
        # assign_id inlined: every fault test starts with this loop.
        vals, record, push = self._vals, self._trail.append, self._queue.append
        for sid, value in assignments:
            current = vals[sid]
            if current is None:
                vals[sid] = value
                record(sid)
                push(sid)
            elif current is not value:
                raise Conflict(self.kernel.names[sid])

    def fork(self) -> "ImplicationEngine":
        copy = ImplicationEngine.__new__(ImplicationEngine)
        copy.circuit = self.circuit
        copy.kernel = self.kernel
        copy._vals = list(self._vals)
        copy._trail = list(self._trail)
        copy._queue = deque(self._queue)
        return copy

    # ------------------------------------------------------------------
    def propagate(self) -> None:
        """Run direct implications to a fixpoint.

        One loop over the compiled form.  For a gate with controlling
        value ``c``: a controlling input forces the output to ``c``;
        all inputs known and non-controlling force ``not c``; an output
        at ``not c`` forces every input non-controlling; an output at
        ``c`` with one unknown input left (and none controlling) forces
        that input controlling.
        """
        queue = self._queue
        if not queue:
            return
        vals = self._vals
        kernel = self.kernel
        visit, ctrl, edges = kernel.visit, kernel.ctrl, kernel.edges
        pop, push, record = queue.popleft, queue.append, self._trail.append
        while queue:
            for g in visit[pop()]:
                c = ctrl[g]
                gate_edges = edges[g]
                n_unknown = 0
                saw = False
                for sid, cv in gate_edges:
                    v = vals[sid]
                    if v is None:
                        n_unknown += 1
                        last_sid, last_cv = sid, cv
                    elif v is cv:
                        saw = True
                        break
                out = vals[g]
                if saw:
                    if out is None:
                        vals[g] = c
                        record(g)
                        push(g)
                    elif out is not c:
                        raise Conflict(kernel.names[g])
                elif not n_unknown:
                    if out is None:
                        vals[g] = not c
                        record(g)
                        push(g)
                    elif out is c:
                        raise Conflict(kernel.names[g])
                elif out is None:
                    continue
                elif out is not c:
                    for sid, cv in gate_edges:
                        v = vals[sid]
                        if v is None:
                            vals[sid] = not cv
                            record(sid)
                            push(sid)
                        elif v is cv:
                            raise Conflict(kernel.names[sid])
                elif n_unknown == 1:
                    vals[last_sid] = last_cv
                    record(last_sid)
                    push(last_sid)

    def run(self, assignments: Iterable[Tuple[str, bool]]) -> bool:
        """Assign then propagate; returns False instead of raising."""
        try:
            self.assign_many(assignments)
            self.propagate()
        except Conflict:
            return False
        return True

    # -- in-place case analysis (recursive learning) --------------------
    def mark(self) -> Tuple[int, Tuple[int, ...]]:
        """A restore point for :meth:`undo` (a fork without the copy)."""
        return len(self._trail), tuple(self._queue)

    def undo(self, mark: Tuple[int, Tuple[int, ...]]) -> None:
        """Forget every assignment made since *mark*."""
        size, queued = mark
        vals, trail = self._vals, self._trail
        for sid in trail[size:]:
            vals[sid] = None
        del trail[size:]
        self._queue.clear()
        self._queue.extend(queued)

    # ------------------------------------------------------------------
    def unjustified_ids(self) -> List[int]:
        """Ids of :meth:`unjustified_gates`, in gate order."""
        kernel = self.kernel
        ctrl, edges, vals = kernel.ctrl, kernel.edges, self._vals
        result = []
        for g in self._trail:
            c = ctrl[g]
            if c is None or vals[g] is not c:
                continue
            unknown = False
            for sid, cv in edges[g]:
                v = vals[sid]
                if v is None:
                    unknown = True
                elif v is cv:
                    break  # justified
            else:
                if unknown:
                    result.append(g)
        result.sort(key=kernel.rank.__getitem__)
        return result

    def unjustified_gates(self) -> List[Gate]:
        """Gates whose known output is not yet explained by any input.

        These are the case-split points recursive learning uses.
        """
        names, gates = self.kernel.names, self.circuit.gates
        return [gates[names[g]] for g in self.unjustified_ids()]
