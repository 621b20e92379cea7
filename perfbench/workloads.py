"""Seeded inputs and known answers for the stabcheck benchmark.

Standard library only, and stabcheck is never imported here, so no expected
answer can come from the checker being measured: the library workloads know
their answers by construction and the CLI workload reads them from a
hand-written table.  The same seed always gives the same items in the same
order; a workload is replayed cyclically until a timed run ends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# A check through the library API: parse both sides, then check_equivalence.
@dataclass(frozen=True)
class CheckItem:
    label: str
    expected: bool      # True when the two sides implement the same channel
    lhs: str            # .qpr source
    rhs: str = ""       # .qpr source; empty when identity is set
    identity: int = 0   # compare against builtin_identity(identity)


# A check through the command line, run in-process by stabcheck.cli.main.
@dataclass(frozen=True)
class CliItem:
    label: str
    expected: bool
    argv: tuple[str, ...]


Item = CheckItem | CliItem

_LETTERS = "abcdefghjkmnpqrstuvwxyz"


def _fresh_names(rng: random.Random, count: int) -> list[str]:
    # Three lowercase letters: never a keyword of the format or a gate name.
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(_LETTERS) for _ in range(3))
        if name not in names:
            names.append(name)
    return names


def _protocol(name: str, qubits, cbits, body, outputs) -> str:
    lines = [f"protocol {name} {{"]
    lines += [f"  qubit {q}: {init};" for q, init in qubits]
    lines += [f"  cbit {c};" for c in cbits]
    lines += [f"  {stmt}" for stmt in body]
    lines.append(f"  output {', '.join(outputs)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Wires per generated protocol, in both library workloads.
WIRES = 3


def teleport_chain(seed: int) -> list[CheckItem]:
    """teleport_3 against identity:3, plus one mutant per dropped correction.

    Each wire is teleported through its own Bell pair: 6 ancillas, 6
    measurements and 6 corrections.  Dropping the X correction of a wire
    leaves a bit flip on half the branches and dropping the Z correction a
    phase flip, so every mutant is refuted by construction.  The statements
    come wire after wire, each wire in the order of the bundled
    teleport.qpr, because the order of the measurements decides how many
    branches later statements run on.  The seed picks only the names, the
    declaration order (the tableau column of each wire) and the order of
    the items; none of these changes the work of a check.
    """
    rng = random.Random(seed)
    names = _fresh_names(rng, 5 * WIRES)
    psi, anc, out, m0, m1 = (names[i * WIRES:(i + 1) * WIRES] for i in range(5))
    qubits = [(q, "input") for q in psi] + [(q, "zero") for q in anc + out]
    rng.shuffle(qubits)
    # Input k (in declaration order) must come out on output k.
    outputs = [out[psi.index(q)] for q, init in qubits if init == "input"]
    cbits = m0 + m1
    rng.shuffle(cbits)
    body = []
    for k in range(WIRES):
        body += [
            (f"H {anc[k]};", None),
            (f"CNOT {anc[k]}, {out[k]};", None),
            (f"CNOT {psi[k]}, {anc[k]};", None),
            (f"H {psi[k]};", None),
            (f"measure {psi[k]} -> {m0[k]};", None),
            (f"measure {anc[k]} -> {m1[k]};", None),
            (f"if {m1[k]} then X {out[k]};", f"X{k}"),
            (f"if {m0[k]} then Z {out[k]};", f"Z{k}"),
        ]
    name = f"teleport_{WIRES}"
    items = [CheckItem(name, True, _protocol(name, qubits, cbits, [s for s, _ in body], outputs), identity=WIRES)]
    for i, (_, dropped) in enumerate(body):
        if dropped is None:
            continue
        mutant = f"{name}_no{dropped}"
        text = _protocol(mutant, qubits, cbits, [s for j, (s, _) in enumerate(body) if j != i], outputs)
        items.append(CheckItem(mutant, False, text, identity=WIRES))
    rng.shuffle(items)
    return items


_GATES = ("H", "P", "X", "Y", "Z", "CNOT")
# Gate sequences that multiply to the identity up to a global phase.
_IDENTITY_PAIRS = (("H", "H"), ("P", "P", "P", "P"), ("X", "X"))


# Circuit lengths: 100 to 195 gates, about 150 on average, each used twice per seed.
# Spread lengths make the latency distribution wide, so its median follows the
# machine's speed smoothly instead of jumping between clusters of equal checks.
_CIRCUIT_GATES = tuple(range(100, 200, 5))


def circuit_rewrite(seed: int) -> list[CheckItem]:
    """Random Clifford circuits checked against a rewrite of themselves.

    Every length in _CIRCUIT_GATES gives one equivalent and one refuted item,
    in an order fixed by the seed.  Equivalent rewrites insert one to four
    identity sequences.  Refuted rewrites delete one gate; every gate in the
    set is a non-identity unitary, so deleting one changes the channel.  No
    measurements: random measured ancillas scramble the outputs to the
    maximally mixed state, which would make every mutant equivalent.
    """
    rng = random.Random(seed)
    shapes = [(gates, equivalent) for gates in _CIRCUIT_GATES for equivalent in (True, False)]
    rng.shuffle(shapes)
    items = []
    for i, (gates, equivalent) in enumerate(shapes):
        names = _fresh_names(rng, WIRES)
        circuit = []
        for _ in range(gates):
            gate = rng.choice(_GATES)
            args = rng.sample(names, 2) if gate == "CNOT" else [rng.choice(names)]
            circuit.append(f"{gate} {', '.join(args)};")
        rewrite = list(circuit)
        if equivalent:
            for _ in range(rng.randint(1, 4)):
                q = rng.choice(names)
                at = rng.randint(0, len(rewrite))
                rewrite[at:at] = [f"{g} {q};" for g in rng.choice(_IDENTITY_PAIRS)]
            label = f"rewrite_{i}_insert"
        else:
            del rewrite[rng.randrange(gates)]
            label = f"rewrite_{i}_delete"
        qubits = [(q, "input") for q in names]
        lhs = _protocol(f"circuit_{i}", qubits, [], circuit, names)
        rhs = _protocol(f"rewrite_{i}", qubits, [], rewrite, names)
        items.append(CheckItem(label, equivalent, lhs, rhs))
    return items


# Bundled corpus files by stem: arity and the channel each implements.
# Equivalent exactly when the channel names match.  teleport_noX (Y in place
# of X) and teleport_noZ both reduce to full dephasing of the teleported wire.
CORPUS_CHANNEL = {
    "identity": (1, "identity:1"),
    "identity_hh": (1, "identity:1"),
    "teleport": (1, "identity:1"),
    "teleport_noX": (1, "dephase:1"),
    "teleport_noZ": (1, "dephase:1"),
    "swap_cnot": (2, "swap:2"),
    "swap_wires": (2, "swap:2"),
}


def corpus_cli(seed: int, path_of: Callable[[str], str]) -> list[CliItem]:
    """Every same-arity ordered pair of corpus files, and each against --identity n.

    Each case runs once plain and once with --verify; path_of maps a corpus
    file name to the path handed to the CLI.  The seed fixes the call order.
    """
    cases = []
    for a, (n_a, chan_a) in CORPUS_CHANNEL.items():
        for b, (n_b, chan_b) in CORPUS_CHANNEL.items():
            if n_a == n_b:
                cases.append((f"{a}~{b}", [path_of(a + ".qpr"), path_of(b + ".qpr")], chan_a == chan_b))
        cases.append((f"{a}~identity:{n_a}", [path_of(a + ".qpr"), "--identity", str(n_a)],
                      chan_a == f"identity:{n_a}"))
    items = []
    for label, args, expected in cases:
        items.append(CliItem(label, expected, ("check", *args, "--json")))
        items.append(CliItem(label + "+verify", expected, ("check", *args, "--json", "--verify")))
    random.Random(seed).shuffle(items)
    return items
