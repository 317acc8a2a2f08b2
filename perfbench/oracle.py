"""Independent equivalence oracle for the benchmark.

Shares no code with the program under test: a small BLIF reader and a
bit-parallel sum-of-products evaluator.  Every signal is a Python
integer whose bit *k* is the signal's value under input pattern *k*, so
one pass over the netlist evaluates all patterns at once.

Networks with at most :data:`EXHAUSTIVE_MAX_INPUTS` primary inputs are
compared on all ``2**n`` patterns (a proof); wider ones on
:data:`RANDOM_PATTERNS` seeded random patterns (a screen).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

EXHAUSTIVE_MAX_INPUTS = 20
RANDOM_PATTERNS = 1 << 16


class OracleError(ValueError):
    """The BLIF text is outside the combinational subset read here."""


class Netlist:
    """A parsed combinational BLIF model: inputs, outputs, SOP nodes."""

    def __init__(self) -> None:
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        #: node name -> (fanin names, rows of (input plane, output bit))
        self.nodes: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = {}


def parse_blif(text: str) -> Netlist:
    """Read the ``.model/.inputs/.outputs/.names/.end`` subset."""
    net = Netlist()
    current = None
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == ".model":
            continue
        if head == ".inputs":
            net.inputs.extend(words[1:])
        elif head == ".outputs":
            net.outputs.extend(words[1:])
        elif head == ".names":
            if len(words) < 2:
                raise OracleError(".names without an output")
            current = words[-1]
            if current in net.nodes:
                raise OracleError(f"node {current!r} defined twice")
            net.nodes[current] = (words[1:-1], [])
        elif head == ".end":
            break
        elif head.startswith("."):
            raise OracleError(f"unsupported construct {head}")
        else:
            if current is None:
                raise OracleError(f"cover row outside .names: {line!r}")
            fanins, rows = net.nodes[current]
            if fanins:
                if len(words) != 2 or len(words[0]) != len(fanins):
                    raise OracleError(f"bad row for {current!r}: {line!r}")
                rows.append((words[0], words[1]))
            else:
                rows.append(("", words[0]))
    return net


def evaluate(net: Netlist, pattern_bits: Dict[str, int], mask: int) -> Dict[str, int]:
    """Bit-parallel values of every output under the given PI words."""
    values: Dict[str, int] = dict(pattern_bits)
    for po in net.outputs:
        # Iterative post-order walk: deep chains must not hit the
        # interpreter's recursion limit.
        stack = [(po, False)]
        on_path = set()
        while stack:
            name, expanded = stack.pop()
            if name in values:
                continue
            if name not in net.nodes:
                raise OracleError(f"signal {name!r} is never driven")
            fanins, rows = net.nodes[name]
            if not expanded:
                if name in on_path:
                    raise OracleError(f"combinational loop through {name!r}")
                on_path.add(name)
                stack.append((name, True))
                stack.extend((f, False) for f in fanins if f not in values)
                continue
            on_path.discard(name)
            values[name] = _node_value(name, [values[f] for f in fanins], rows, mask)
    return {po: values[po] for po in net.outputs}


def _node_value(name: str, fanin_values: List[int], rows, mask: int) -> int:
    on = 0
    for plane, _ in rows:
        term = mask
        for char, fanin_value in zip(plane, fanin_values):
            if char == "1":
                term &= fanin_value
            elif char == "0":
                term &= ~fanin_value
            elif char != "-":
                raise OracleError(f"bad plane character {char!r} in {name!r}")
        on |= term
    output_bits = {bit for _, bit in rows}
    if output_bits - {"0", "1"} or len(output_bits) > 1:
        raise OracleError(f"mixed or bad output column in {name!r}")
    return (mask & ~on) if output_bits == {"0"} else on


def _exhaustive_words(inputs: List[str]) -> Tuple[Dict[str, int], int]:
    width = 1 << len(inputs)
    words = {}
    for i, name in enumerate(inputs):
        # Bit k of input i is bit i of k: a period of 2**i zeros then
        # 2**i ones, doubled until it covers every pattern.
        half = 1 << i
        word = ((1 << half) - 1) << half
        length = 2 * half
        while length < width:
            word |= word << length
            length *= 2
        words[name] = word
    return words, (1 << width) - 1


def _random_words(inputs: List[str], seed: int) -> Tuple[Dict[str, int], int]:
    rng = random.Random(seed)
    mask = (1 << RANDOM_PATTERNS) - 1
    return {name: rng.getrandbits(RANDOM_PATTERNS) for name in inputs}, mask


def check_equivalent(before_text: str, after_text: str, seed: int = 0) -> Tuple[bool, str]:
    """Compare two BLIF netlists output by output.

    Returns ``(equal, check)`` where *check* names what was done:
    ``"exhaustive-2^n"`` or ``"random-N"``.  Different input or output
    sets are a mismatch.
    """
    before = parse_blif(before_text)
    after = parse_blif(after_text)
    if sorted(before.inputs) != sorted(after.inputs):
        return False, "interface"
    if sorted(before.outputs) != sorted(after.outputs):
        return False, "interface"
    inputs = sorted(before.inputs)
    if len(inputs) <= EXHAUSTIVE_MAX_INPUTS:
        words, mask = _exhaustive_words(inputs)
        check = f"exhaustive-2^{len(inputs)}"
    else:
        words, mask = _random_words(inputs, seed)
        check = f"random-{RANDOM_PATTERNS}"
    expect = evaluate(before, words, mask)
    got = evaluate(after, words, mask)
    return all(expect[po] == got[po] for po in before.outputs), check
