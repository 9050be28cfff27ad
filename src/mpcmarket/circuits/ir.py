"""Core circuit data structures and the plaintext evaluator.

Wire numbering convention: data input wires occupy ids 0..n_inputs-1,
followed by the two constant wires (always allocated, fixed to 0 and 1),
followed by gate outputs in topological order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

XOR = 0
AND = 1
INV = 2


class CircuitError(ValueError):
    """Raised for malformed circuits or invalid builder parameters."""


class Gate(NamedTuple):
    kind: int
    a: int
    b: int  # -1 for INV gates
    out: int


class InputGroup(NamedTuple):
    name: str
    start: int
    width: int


class GateStats(NamedTuple):
    total: int
    non_xor: int


class Level(NamedTuple):
    """The gates of one topological depth as wire-index arrays, per kind.

    Every gate on a level reads only wires of lower depth, so the gates of
    a level can be processed in any order or all at once. ``and_ord`` is
    each AND gate's ordinal among the circuit's AND gates in gate order.
    """

    xor_a: np.ndarray
    xor_b: np.ndarray
    xor_out: np.ndarray
    inv_a: np.ndarray
    inv_out: np.ndarray
    and_a: np.ndarray
    and_b: np.ndarray
    and_out: np.ndarray
    and_ord: np.ndarray


@dataclass(frozen=True)
class FixedPointSpec:
    """Two's-complement fixed-point layout used by all circuit arithmetic."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not (0 <= self.frac_bits < self.total_bits <= 64):
            raise CircuitError(
                f"invalid fixed-point spec: total={self.total_bits} frac={self.frac_bits}"
            )

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    def quantize(self, value: float) -> int:
        """Round a real value to the nearest representable fixed-point integer."""
        if not math.isfinite(value):
            raise CircuitError(f"value {value} not representable in {self}")
        q = round(value * self.scale)
        lo = -(1 << (self.total_bits - 1))
        hi = (1 << (self.total_bits - 1)) - 1
        if not (lo <= q <= hi):
            raise CircuitError(f"value {value} not representable in {self}")
        return q

    def to_float(self, fixed: int) -> float:
        return fixed / self.scale


@dataclass(frozen=True)
class Circuit:
    """Immutable topologically-ordered Boolean circuit, validated once, when
    constructed.

    ``const_zero``/``const_one`` are distinguished wires pinned to 0 and 1;
    constants embedded by builders (thresholds, weights, lookup tables) are
    wired from them, which keeps INV/constant handling free under free-XOR.
    """

    n_inputs: int
    input_groups: tuple[InputGroup, ...]
    const_zero: int
    const_one: int
    gates: tuple[Gate, ...]
    output_wires: tuple[int, ...]
    n_wires: int

    def __post_init__(self) -> None:
        seen = self.n_inputs + 2  # inputs plus the two constant wires
        if self.const_zero != self.n_inputs or self.const_one != self.n_inputs + 1:
            raise CircuitError("constant wires must directly follow the inputs")
        for g in self.gates:
            ins = (g.a,) if g.kind == INV else (g.a, g.b)
            if g.kind == INV and g.b != -1:
                raise CircuitError(f"INV gate with two inputs at wire {g.out}")
            for w in ins:
                if not (0 <= w < seen):
                    raise CircuitError(f"gate output {g.out} reads undefined wire {w}")
            if g.out != seen:
                raise CircuitError(f"gate outputs must be dense, got {g.out} expected {seen}")
            seen += 1
        if seen != self.n_wires:
            raise CircuitError(f"wire count mismatch: {seen} != {self.n_wires}")
        for w in self.output_wires:
            if not (0 <= w < self.n_wires):
                raise CircuitError(f"output wire {w} out of range")

    @cached_property
    def stats(self) -> GateStats:
        """Total and non-XOR gate counts; INV is free, so non-XOR counts AND only."""
        non_xor = sum(1 for g in self.gates if g.kind == AND)
        return GateStats(total=len(self.gates), non_xor=non_xor)

    @cached_property
    def digest(self) -> bytes:
        """Content hash binding garbled tables to this exact circuit."""
        import hashlib
        import struct

        h = hashlib.sha256()
        h.update(
            struct.pack(
                ">IIII", self.n_inputs, self.const_zero, self.const_one, self.n_wires
            )
        )
        for g in self.input_groups:
            h.update(g.name.encode())
            h.update(struct.pack(">II", g.start, g.width))
        h.update(struct.pack(f">{len(self.output_wires)}I", *self.output_wires))
        arr = bytearray()
        pack = struct.pack
        for kind, a, b, out in self.gates:
            arr += pack(">BiiI", kind, a, b, out)
        h.update(bytes(arr))
        return h.digest()

    @cached_property
    def levels(self) -> tuple[Level, ...]:
        """Level schedule: gates grouped by topological depth (inputs and
        constants have depth 0, a gate one more than its deepest input)."""
        n = len(self.gates)
        # The spare last slot stays 0; INV gates read it through b = -1.
        depth = [0] * (self.n_wires + 1)
        for _, a, b, out in self.gates:
            da, db = depth[a], depth[b]
            depth[out] = (da if da > db else db) + 1
        g = np.fromiter(chain.from_iterable(self.gates), np.intp, 4 * n).reshape(n, 4)
        kind = g[:, 0]
        and_ord = np.cumsum(kind == AND) - 1
        gate_depth = np.array(depth[self.n_inputs + 2 : self.n_wires], dtype=np.intp)
        order = np.argsort(gate_depth, kind="stable")
        levels = []
        for idx in np.split(order, np.flatnonzero(np.diff(gate_depth[order])) + 1):
            k = kind[idx]
            x, i, a = idx[k == XOR], idx[k == INV], idx[k == AND]
            levels.append(
                Level(g[x, 1], g[x, 2], g[x, 3], g[i, 1], g[i, 3],
                      g[a, 1], g[a, 2], g[a, 3], and_ord[a])
            )
        return tuple(levels)

    def group(self, name: str) -> InputGroup:
        for g in self.input_groups:
            if g.name == name:
                return g
        raise KeyError(f"no input group named {name!r}")

    def input_bits(self, values: Mapping[str, int]) -> Iterator[tuple[int, int]]:
        """(wire, bit) for every bit of each named group's value, group by
        group in the order given, little-endian from the group's first wire.
        Values are bit patterns of the group's width; callers check that."""
        for name, value in values.items():
            group = self.group(name)
            for k in range(group.width):
                yield group.start + k, (value >> k) & 1


def eval_plain(circuit: Circuit, input_bits: Sequence[int]) -> list[int]:
    """Evaluate the circuit on plaintext bits; the oracle for the garbling engine."""
    if len(input_bits) != circuit.n_inputs:
        raise CircuitError(
            f"expected {circuit.n_inputs} input bits, got {len(input_bits)}"
        )
    values = [0] * circuit.n_wires
    for i, b in enumerate(input_bits):
        values[i] = b & 1
    values[circuit.const_zero] = 0
    values[circuit.const_one] = 1
    for kind, a, b, out in circuit.gates:
        if kind == XOR:
            values[out] = values[a] ^ values[b]
        elif kind == AND:
            values[out] = values[a] & values[b]
        else:
            values[out] = values[a] ^ 1
    return [values[w] for w in circuit.output_wires]


def bits_from_int(value: int, width: int) -> list[int]:
    """Little-endian bit vector of ``value`` (two's complement for negatives)."""
    mask = (1 << width) - 1
    v = value & mask
    return [(v >> i) & 1 for i in range(width)]


def int_from_bits(bits: Sequence[int], signed: bool = False) -> int:
    v = 0
    for i, b in enumerate(bits):
        v |= (b & 1) << i
    if signed and bits and (v >> (len(bits) - 1)) & 1:
        v -= 1 << len(bits)
    return v
