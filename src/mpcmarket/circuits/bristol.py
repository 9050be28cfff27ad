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


def _ints(lineno: int, fields: list[str]) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise _fail(lineno, f"expected integers, got {' '.join(fields)!r}") from None


def _counted(lineno: int, parts: list[str], keyword: str) -> list[str]:
    """The items of a '<keyword> <count> <items...>' line."""
    if len(parts) < 2 or parts[0] != keyword:
        raise _fail(lineno, f"expected '{keyword}' line")
    (count,) = _ints(lineno, parts[1:2])
    if count != len(parts) - 2:
        raise _fail(lineno, f"{keyword} count mismatch: {len(parts) - 2} != {count}")
    return parts[2:]


def parse_circuit(text: str) -> Circuit:
    lines = text.splitlines()
    if len(lines) < 4:
        raise CircuitError("truncated circuit file: expected 4 header lines")
    header = _ints(1, lines[0].split())
    if len(header) != 2:
        raise _fail(1, f"bad header {lines[0]!r}")
    n_gates, n_wires = header

    groups: list[InputGroup] = []
    start = 0
    for spec in _counted(2, lines[1].split(), "inputs"):
        name, _, width_s = spec.rpartition(":")
        (width,) = _ints(2, [width_s])
        groups.append(InputGroup(name, start, width))
        start += width

    parts = lines[2].split()
    if len(parts) != 3 or parts[0] != "consts":
        raise _fail(3, "expected 'consts <zero> <one>' line")
    const_zero, const_one = _ints(3, parts[1:])
    output_wires = tuple(_ints(4, _counted(4, lines[3].split(), "outputs")))

    gates: list[Gate] = []
    for idx, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        *head, kind_name = line.split()
        nums, kind = _ints(idx, head), KIND_BY_NAME.get(kind_name)
        n_in = len(nums) - 3  # "<n_in> 1 <inputs...> <out>"
        if kind is None or nums[:2] != [n_in, 1] or n_in != (1 if kind == INV else 2):
            raise _fail(idx, f"bad gate line {line!r}")
        gates.append(Gate(kind, nums[2], nums[3] if n_in == 2 else -1, nums[-1]))
    if len(gates) != n_gates:
        raise CircuitError(f"gate count mismatch: header {n_gates}, parsed {len(gates)}")

    return Circuit(
        n_inputs=start,
        input_groups=tuple(groups),
        const_zero=const_zero,
        const_one=const_one,
        gates=tuple(gates),
        output_wires=output_wires,
        n_wires=n_wires,
    )
