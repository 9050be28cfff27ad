"""Gate-per-line text serialization for circuits (Bristol-fashion style).

Layout::

    <n_gates> <n_wires>
    inputs <n_groups> <name>:<width> ...
    consts <zero_id> <one_id>
    outputs <n_outputs> <id> ...
    <n_in> 1 <in_ids...> <out_id> <KIND>     # one line per gate

The format is byte-stable: identical circuits serialize identically.
"""

from __future__ import annotations

from .ir import INV, KIND_BY_NAME, KIND_NAMES, Circuit, CircuitError, Gate, InputGroup


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"{len(circuit.gates)} {circuit.n_wires}"]
    groups = " ".join(f"{g.name}:{g.width}" for g in circuit.input_groups)
    lines.append(f"inputs {len(circuit.input_groups)} {groups}".rstrip())
    lines.append(f"consts {circuit.const_zero} {circuit.const_one}")
    outs = " ".join(str(w) for w in circuit.output_wires)
    lines.append(f"outputs {len(circuit.output_wires)} {outs}".rstrip())
    for g in circuit.gates:
        if g.kind == INV:
            lines.append(f"1 1 {g.a} {g.out} INV")
        else:
            lines.append(f"2 1 {g.a} {g.b} {g.out} {KIND_NAMES[g.kind]}")
    return "\n".join(lines) + "\n"


def _fail(lineno: int, msg: str) -> CircuitError:
    return CircuitError(f"line {lineno}: {msg}")


def parse_circuit(text: str) -> Circuit:
    lines = text.splitlines()
    if len(lines) < 4:
        raise CircuitError("truncated circuit file: expected 4 header lines")
    try:
        n_gates, n_wires = (int(x) for x in lines[0].split())
    except ValueError:
        raise _fail(1, f"bad header {lines[0]!r}") from None

    parts = lines[1].split()
    if not parts or parts[0] != "inputs":
        raise _fail(2, "expected 'inputs' line")
    groups: list[InputGroup] = []
    start = 0
    for spec in parts[2:]:
        name, _, width_s = spec.rpartition(":")
        try:
            width = int(width_s)
        except ValueError:
            raise _fail(2, f"bad group spec {spec!r}") from None
        groups.append(InputGroup(name, start, width))
        start += width
    if len(groups) != int(parts[1]):
        raise _fail(2, f"group count mismatch: {len(groups)} != {parts[1]}")

    parts = lines[2].split()
    if len(parts) != 3 or parts[0] != "consts":
        raise _fail(3, "expected 'consts <zero> <one>' line")
    const_zero, const_one = int(parts[1]), int(parts[2])

    parts = lines[3].split()
    if not parts or parts[0] != "outputs":
        raise _fail(4, "expected 'outputs' line")
    output_wires = tuple(int(x) for x in parts[2:])
    if len(output_wires) != int(parts[1]):
        raise _fail(4, "output count mismatch")

    gates: list[Gate] = []
    for idx, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        parts = line.split()
        try:
            n_in = int(parts[0])
            kind = KIND_BY_NAME[parts[-1]]
        except (ValueError, KeyError, IndexError):
            raise _fail(idx, f"bad gate line {line!r}") from None
        if n_in == 1:
            if len(parts) != 5 or kind != INV:
                raise _fail(idx, f"bad unary gate {line!r}")
            gates.append(Gate(INV, int(parts[2]), -1, int(parts[3])))
        elif n_in == 2:
            if len(parts) != 6 or kind == INV:
                raise _fail(idx, f"bad binary gate {line!r}")
            gates.append(Gate(kind, int(parts[2]), int(parts[3]), int(parts[4])))
        else:
            raise _fail(idx, f"unsupported fan-in {n_in}")
    if len(gates) != n_gates:
        raise CircuitError(f"gate count mismatch: header {n_gates}, parsed {len(gates)}")

    circuit = Circuit(
        n_inputs=start,
        input_groups=tuple(groups),
        const_zero=const_zero,
        const_one=const_one,
        gates=tuple(gates),
        output_wires=output_wires,
        n_wires=n_wires,
    )
    circuit.validate()
    return circuit
