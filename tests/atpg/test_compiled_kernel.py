"""The compiled form behind the implication engine: invalidation, patching, undriven signals."""

import random

from repro.atpg.implication import (
    ImplicationEngine,
    compiled,
    drop_gate,
    replace_gate,
)
from repro.atpg.redundancy import add_redundant_wire, remove_wire
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from tests.atpg import reference_implication as reference
from tests.atpg.test_kernel_differential import assert_same, wide_circuit


def chain() -> Circuit:
    c = Circuit()
    for pi in "ab":
        c.add_pi(pi)
    c.add_and("g", [("a", True), ("b", True)])
    return c


def named_structure(circuit: Circuit):
    """The compiled form by signal names (ids differ between compiles)."""
    kernel = compiled(circuit)
    names = kernel.names
    driven = [s for s in range(len(names)) if kernel.driven[s]]
    return {
        "order": [names[s] for s in sorted(driven, key=kernel.rank.__getitem__)],
        "consts": [names[s] for s in kernel.consts],
        "visit": {
            names[s]: [names[g] for g in kernel.visit[s]]
            for s in range(len(names))
            if kernel.visit[s]
        },
        "edges": {
            names[s]: [(names[i], cv) for i, cv in kernel.edges[s]]
            for s in driven
        },
        "template": {
            names[s]: kernel.template[s]
            for s in range(len(names))
            if kernel.template[s] is not None
        },
    }


class TestInvalidation:
    def test_add_gate_is_seen_by_a_new_engine(self):
        c = chain()
        assert ImplicationEngine(c).run([("g", True)])
        c.add_or("h", [("g", False), ("a", True)])
        e = ImplicationEngine(c)
        assert e.run([("g", True)])
        assert e.value("h") is True

    def test_remove_gate_is_seen_by_a_new_engine(self):
        c = chain()
        c.add_or("h", [("g", True)])
        assert ImplicationEngine(c).run([("h", True)])
        c.remove_gate("h")
        e = ImplicationEngine(c)
        assert e.run([("g", True)])
        assert e.value("h") is None

    def test_remove_wire_is_seen_by_a_new_engine(self):
        c = chain()
        assert not ImplicationEngine(c).run([("g", True), ("b", False)])
        remove_wire(c, "g", 1)  # g = a
        assert ImplicationEngine(c).run([("g", True), ("b", False)])

    def test_remove_last_wire_turns_the_gate_constant(self):
        c = Circuit()
        c.add_pi("a")
        c.add_and("g", [("a", True)])
        c.add_or("h", [("g", False)])
        ImplicationEngine(c)
        remove_wire(c, "g", 0)  # empty AND is constant 1
        e = ImplicationEngine(c)
        e.propagate()
        assert e.value("g") is True and e.value("h") is False

    def test_add_redundant_wire_is_seen_by_a_new_engine(self):
        # f = a + ab: the wire b into an AND already driven by a is
        # redundant, and the kernel must see the added edge.
        c = Circuit()
        for pi in "ab":
            c.add_pi(pi)
        c.add_and("g", [("a", True)])
        c.add_or("f", [("a", True), ("g", True)])
        ImplicationEngine(c)
        assert add_redundant_wire(c, "g", ("b", True))
        assert c.gates["g"].inputs == [("a", True), ("b", True)]
        e = ImplicationEngine(c)
        assert e.run([("g", True)])
        assert e.value("b") is True

    def test_rejected_redundant_wire_is_rolled_back(self):
        c = chain()
        ImplicationEngine(c)
        assert not add_redundant_wire(c, "g", ("a", False), observables={"g"})
        e = ImplicationEngine(c)
        assert e.run([("g", True)])
        assert e.value("a") is True

    def test_copy_never_shares_the_compiled_form(self):
        c = chain()
        kernel = compiled(c)
        duplicate = c.copy()
        assert duplicate._compiled is None
        replace_gate(duplicate, Gate("g", GateKind.OR, [("a", True)]))
        assert compiled(c) is kernel
        assert named_structure(c)["edges"]["g"] == [("a", False), ("b", False)]
        e = ImplicationEngine(c)
        assert e.run([("g", True)]) and e.value("b") is True

    def test_engine_after_wire_removal_matches_reference(self):
        c = wide_circuit(7)
        gate = next(g for g in c.gates.values() if len(g.inputs) > 1)
        ImplicationEngine(c)
        remove_wire(c, gate.name, 0)
        assert_same(c, [(gate.name, True)])
        assert_same(c, [(gate.name, False)])


class TestPatching:
    def test_replace_moves_the_gate_last_like_a_dict_reinsert(self):
        c = chain()
        c.add_or("h", [("a", True), ("b", False)])
        compiled(c)
        replace_gate(c, Gate("g", GateKind.AND, [("b", True)]))
        assert list(c.gates) == ["a", "b", "h", "g"]
        assert named_structure(c)["order"] == ["a", "b", "h", "g"]
        assert named_structure(c)["visit"]["b"] == ["h", "g"]

    def test_drop_makes_the_signal_undriven(self):
        c = chain()
        c.add_or("h", [("g", True)])
        compiled(c)
        drop_gate(c, "g")
        drop_gate(c, "missing")  # no-op
        structure = named_structure(c)
        assert "g" not in structure["visit"]  # undriven: nothing to visit
        assert "a" not in structure["visit"]  # its only reader is gone
        assert structure["edges"]["h"] == [("g", True)]
        assert structure == named_structure(c.copy())

    def test_random_patch_sequences_match_a_full_recompile(self):
        rng = random.Random(4)
        for seed in range(60):
            live = wide_circuit(seed)
            compiled(live)
            dropped = []
            for step in range(8):
                gates = [g.name for g in live.gates.values() if not g.is_source()]
                roll = rng.random()
                if dropped and (roll < 0.2 or not gates):
                    target = dropped.pop()  # an undriven signal gets a gate again
                elif not gates:
                    break
                elif roll < 0.4:
                    target = rng.choice(gates)
                    drop_gate(live, target)
                    dropped.append(target)
                    target = None
                else:
                    target = rng.choice(gates)
                if target is not None:
                    if rng.random() < 0.15:
                        replace_gate(live, Gate(target, GateKind.CONST1))
                    else:
                        # Inputs that do not depend on the target keep
                        # the circuit acyclic.
                        pool = [
                            s for s in live.gates
                            if s != target and not _depends_on(live, s, target)
                        ]
                        width = rng.randint(1, min(3, len(pool)))
                        inputs = [
                            (s, rng.random() < 0.5)
                            for s in rng.sample(pool, width)
                        ]
                        kind = rng.choice([GateKind.AND, GateKind.OR])
                        replace_gate(live, Gate(target, kind, inputs))
                patched = named_structure(live)
                fresh = live.copy()
                assert named_structure(fresh) == patched, (seed, step)
                assignments = [
                    (s, rng.random() < 0.5)
                    for s in rng.sample(list(live.gates), 2)
                ]
                for circuit in (live, fresh):
                    assert_same(circuit, assignments)


def _depends_on(circuit, signal, name):
    """True when *signal*'s fanin cone reads *name* (driven or not)."""
    stack, seen = [signal], set()
    while stack:
        current = stack.pop()
        if current == name:
            return True
        if current in seen or current not in circuit.gates:
            continue
        seen.add(current)
        stack.extend(s for s, _ in circuit.gates[current].inputs)
    return False


class TestUndrivenSignals:
    """A gate reading an undriven signal is not revisited when it is implied.

    ``Circuit.fanouts()`` has entries only for driven signals, and the
    kernel keeps that rule: here ``u`` (an f-only fanin of a region-only
    analysis circuit, say) is implied to 1 through ``h``, but ``g =
    u + a`` is never queued by it, so ``g`` stays unknown.  Driving
    ``u`` (as a PI) makes ``g`` implied.
    """

    def build(self, driven: bool) -> Circuit:
        c = Circuit()
        for pi in "ab":
            c.add_pi(pi)
        if driven:
            c.add_pi("u")
        c.add_or("g", [("u", True), ("a", True)])
        c.add_and("h", [("u", True), ("b", True)])
        return c

    def test_undriven_signal_does_not_requeue_its_readers(self):
        for engine_cls in (ImplicationEngine, reference.ImplicationEngine):
            e = engine_cls(self.build(driven=False))
            assert e.run([("h", True)])
            assert e.value("u") is True
            assert e.value("g") is None

    def test_driven_signal_requeues_its_readers(self):
        for engine_cls in (ImplicationEngine, reference.ImplicationEngine):
            e = engine_cls(self.build(driven=True))
            assert e.run([("h", True)])
            assert e.value("g") is True

    def test_undriven_value_is_still_read_when_a_reader_is_queued(self):
        c = self.build(driven=False)
        e = ImplicationEngine(c)
        assert e.run([("h", True), ("a", False)])
        assert e.value("g") is True  # a=0 queues g, which reads u=1
        assert compiled(c).visit[compiled(c).ids["u"]] == ()
