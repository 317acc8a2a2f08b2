"""Differential suite: the compiled implication kernel against the old engine.

The reference is the string-keyed engine and learning the kernel
replaced (``tests/atpg/reference_implication.py``).  For the same
circuit and assignments both must agree on conflict or no conflict (and
the conflicting signal), on ``values`` including insertion order, on
``unjustified_gates()`` including order, and on the state recursive
learning leaves at depths 1 and 2 under ``max_gates`` caps of 0, 1 and
200.  Circuits come from the seeded ``random_circuit`` family, a wider
seeded family with constants, repeated inputs and undriven signals,
and analysis circuits captured from real ``boolean_divide`` and
``build_vote_table`` calls.
"""

import random

import pytest

from repro.atpg.implication import Conflict, ImplicationEngine
from repro.atpg.learning import learn_implications
from repro.bench.generators import planted_network, planted_pos_network
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from repro.core import division, extended
from repro.core.config import EXTENDED, EXTENDED_GDC
from repro.core.substitution import substitute_network
from tests.atpg import reference_implication as reference
from tests.atpg.test_simulate import random_circuit

LEARNING = [(0, 200), (1, 0), (1, 1), (1, 200), (2, 0), (2, 1), (2, 200)]


def outcome(engine_cls, learn, circuit, assignments, depth, max_gates):
    """Conflict signal, or values and unjustified gates before/after learning."""
    engine = engine_cls(circuit)
    try:
        engine.assign_many(assignments)
        engine.propagate()
        direct = (
            list(engine.values.items()),
            [g.name for g in engine.unjustified_gates()],
        )
        learn(engine, depth, max_gates)
    except Conflict as exc:
        return ("conflict", exc.signal)
    return (
        direct,
        list(engine.values.items()),
        [g.name for g in engine.unjustified_gates()],
    )


def assert_same(circuit, assignments):
    for depth, max_gates in LEARNING:
        got = outcome(
            ImplicationEngine, learn_implications, circuit, assignments,
            depth, max_gates,
        )
        want = outcome(
            reference.ImplicationEngine, reference.learn_implications,
            circuit, assignments, depth, max_gates,
        )
        assert got == want, (circuit, assignments, depth, max_gates)


def wide_circuit(seed: int) -> Circuit:
    """Random AND/OR DAG with constants, repeated inputs and undriven reads."""
    rng = random.Random(seed)
    c = Circuit(f"w{seed}")
    signals = [f"x{i}" for i in range(rng.randint(3, 6))]
    for name in signals:
        c.add_pi(name)
    if rng.random() < 0.5:
        c.add_gate(Gate("k1", GateKind.CONST1))
        signals.append("k1")
    if rng.random() < 0.5:
        c.add_gate(Gate("k0", GateKind.CONST0))
        signals.append("k0")
    free = [f"u{i}" for i in range(rng.randint(0, 2))]  # never driven
    for j in range(rng.randint(4, 12)):
        pool = signals + free
        width = rng.randint(1, min(4, len(pool)))
        inputs = [(s, rng.random() < 0.6) for s in rng.sample(pool, width)]
        if rng.random() < 0.2:
            s, p = inputs[0]
            inputs.append((s, p if rng.random() < 0.5 else not p))
        name = f"g{j}"
        kind = GateKind.AND if rng.random() < 0.5 else GateKind.OR
        c.add_gate(Gate(name, kind, inputs))
        signals.append(name)
    return c


def random_assignments(rng, circuit, count):
    signals = list(circuit.gates)
    for gate in circuit.gates.values():
        for s, _ in gate.inputs:
            if s not in circuit.gates and s not in signals:
                signals.append(s)
    picks = rng.sample(signals, min(count, len(signals)))
    return [(s, rng.random() < 0.5) for s in picks]


@pytest.mark.parametrize("seed", range(150))
def test_random_circuits(seed):
    rng = random.Random(seed)
    circuit = random_circuit(seed)
    for count in (1, 2, 3):
        assert_same(circuit, random_assignments(rng, circuit, count))


@pytest.mark.parametrize("seed", range(150))
def test_wide_circuits(seed):
    rng = random.Random(1000 + seed)
    circuit = wide_circuit(seed)
    for count in (1, 2, 4):
        assert_same(circuit, random_assignments(rng, circuit, count))


# ----------------------------------------------------------------------
# Analysis circuits from real division and voting runs
# ----------------------------------------------------------------------
def capture(monkeypatch, every=7, limit=30):
    """Record (circuit copy, named assignments, patched verdict) per fault.

    The verdict is computed with the *live* circuit's kernel, which the
    region remover patches in place; comparing it against a fresh
    compile of the copy pins patching to full recompilation.
    """
    captured = {"division": [], "extended": []}

    def recorder(source, learn_depth):
        seen = [0]

        class Recording(ImplicationEngine):
            def assign_many_ids(self, assignments):
                seen[0] += 1
                bucket = captured[source]
                if seen[0] % every == 0 and len(bucket) < limit:
                    names = self.kernel.names
                    named = [(names[sid], value) for sid, value in assignments]
                    live = outcome(
                        ImplicationEngine, learn_implications,
                        self.circuit, named, learn_depth, 200,
                    )
                    bucket.append((self.circuit.copy(), named, live, learn_depth))
                super().assign_many_ids(assignments)

        return Recording

    def install(config):
        for module, source in ((division, "division"), (extended, "extended")):
            monkeypatch.setattr(
                module, "ImplicationEngine",
                recorder(source, config.learn_depth),
            )

    return captured, install


@pytest.mark.parametrize("config", [EXTENDED, EXTENDED_GDC], ids=["region", "gdc"])
@pytest.mark.parametrize("pos", [False, True], ids=["sop", "pos"])
def test_captured_analysis_circuits(monkeypatch, config, pos):
    captured, install = capture(monkeypatch)
    install(config)
    for seed in (3, 11):
        if pos:
            network = planted_pos_network(f"p{seed}", seed, n_pis=9)
        else:
            network = planted_network(f"s{seed}", seed, n_pis=10)
        substitute_network(network, config)
    monkeypatch.undo()
    for source in ("division", "extended"):
        assert captured[source], f"no {source} faults captured"
        for circuit, assignments, live, depth in captured[source]:
            fresh = outcome(
                ImplicationEngine, learn_implications, circuit,
                assignments, depth, 200,
            )
            assert live == fresh, (source, assignments)
            assert_same(circuit, assignments)


# ----------------------------------------------------------------------
# The early exit of the trail intersection
# ----------------------------------------------------------------------
def disjoint_or() -> Circuit:
    """f = ab + cd + ex: the justifications of f=1 share no assignment."""
    c = Circuit()
    for pi in "abcdex":
        c.add_pi(pi)
    c.add_and("g1", [("a", True), ("b", True)])
    c.add_and("g2", [("c", True), ("d", True)])
    c.add_and("g3", [("e", True), ("x", True)])
    c.add_or("f", [("g1", True), ("g2", True), ("g3", True)])
    return c


def count_propagations(monkeypatch, engine_cls):
    calls = []
    original = engine_cls.propagate

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(engine_cls, "propagate", counting)
    return calls


def test_trail_intersection_exits_early(monkeypatch):
    """Once no new assignment is common, later options are skipped.

    The reference intersected whole value maps, which always kept the
    assignments made before the split, so it tried all three options;
    the kernel stops after the second, with the same resulting state.
    """
    circuit = disjoint_or()
    assert_same(circuit, [("f", True)])

    new_calls = count_propagations(monkeypatch, ImplicationEngine)
    old_calls = count_propagations(monkeypatch, reference.ImplicationEngine)
    engine = ImplicationEngine(circuit)
    engine.run([("f", True)])
    old = reference.ImplicationEngine(circuit)
    old.run([("f", True)])
    del new_calls[:], old_calls[:]
    learn_implications(engine, depth=1)
    reference.learn_implications(old, depth=1)
    assert list(engine.values.items()) == list(old.values.items())
    # options g1 and g2, then the closing propagate; the reference also
    # tries g3.
    assert len(new_calls) == 3
    assert len(old_calls) == 4


def test_early_exit_keeps_conflicts_of_earlier_options():
    """A conflicting option before the empty intersection is still skipped."""
    c = disjoint_or()
    c.add_and("h1", [("a", True), ("b", True)])
    engine = ImplicationEngine(c)
    assert engine.run([("f", True), ("h1", False)])
    old = reference.ImplicationEngine(c)
    assert old.run([("f", True), ("h1", False)])
    learn_implications(engine, depth=1)
    reference.learn_implications(old, depth=1)
    assert list(engine.values.items()) == list(old.values.items())
