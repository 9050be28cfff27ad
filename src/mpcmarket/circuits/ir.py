"""Core circuit data structures.

Wire numbering convention: data input wires occupy ids 0..n_inputs-1,
followed by the two constant wires (always allocated, fixed to 0 and 1),
followed by gate outputs in topological order.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

XOR = 0
AND = 1


class CircuitError(ValueError):
    """Raised for malformed circuits or invalid builder parameters."""


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
    a level can be processed in any order or all at once. ``xor_in`` and
    ``and_in`` are (2, g) arrays, first inputs over second inputs. An AND
    gate with ordinal k among the circuit's AND gates in gate order owns
    rows 2k and 2k + 1 of the garbled table (``and_rows``, (2, g)) and
    hashes with the tweaks 2k + 1 and 2k + 2 (``and_tweak``, the same plus
    one, as uint64).
    """

    xor_in: np.ndarray
    xor_out: np.ndarray
    and_in: np.ndarray
    and_out: np.ndarray
    and_rows: np.ndarray
    and_tweak: np.ndarray


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


# One gate row as ``struct.pack(">BiiI", kind, a, b, out)`` writes it.
_DIGEST_ROW = np.dtype([("kind", "u1"), ("a", ">i4"), ("b", ">i4"), ("out", ">u4")])


@dataclass(frozen=True, eq=False)
class Circuit:
    """Immutable topologically-ordered Boolean circuit, validated once, when
    constructed.

    ``gates`` is a read-only copy of the given (g, 4) rows (kind, a, b, out)
    as int32, kind XOR or AND; row i reads two earlier wires and writes
    wire ``n_inputs + 2 + i``. ``const_zero``/``const_one`` are the two
    wires before the first gate output, pinned to 0 and 1; constants
    embedded by builders (thresholds, weights, lookup tables) are wired
    from them, and a NOT is an XOR with ``const_one``, so both are free
    under free-XOR.
    """

    n_inputs: int
    input_groups: tuple[InputGroup, ...]
    gates: np.ndarray
    output_wires: tuple[int, ...]

    def __post_init__(self) -> None:
        gates = np.array(self.gates, dtype=np.int32)
        if gates.ndim != 2 or gates.shape[1] != 4 or not np.array_equal(gates, self.gates):
            raise CircuitError(f"gates must be (g, 4) int32 rows, got shape {gates.shape}")
        gates.flags.writeable = False
        object.__setattr__(self, "gates", gates)
        kind, a, b, out = gates.T
        seen = np.arange(self.n_inputs + 2, self.n_wires)  # the wire each gate writes

        def first(bad: np.ndarray) -> int | None:
            hits = np.flatnonzero(bad)
            return int(hits[0]) if hits.size else None

        if (i := first((kind != XOR) & (kind != AND))) is not None:
            raise CircuitError(f"unknown gate kind {kind[i]} at wire {out[i]}")
        bad_a = (a < 0) | (a >= seen)
        if (i := first(bad_a | (b < 0) | (b >= seen))) is not None:
            raise CircuitError(
                f"gate output {out[i]} reads undefined wire {a[i] if bad_a[i] else b[i]}"
            )
        if (i := first(out != seen)) is not None:
            raise CircuitError(f"gate outputs must be dense, got {out[i]} expected {seen[i]}")
        for w in self.output_wires:
            if not (0 <= w < self.n_wires):
                raise CircuitError(f"output wire {w} out of range")
        end, names = 0, set()  # groups lie in order, back to back, over the inputs
        for g in self.input_groups:
            if g.name in names:
                raise CircuitError(f"duplicate input group {g.name!r}")
            if g.width < 1:
                raise CircuitError(f"input group {g.name!r} must have positive width")
            if g.start != end:
                raise CircuitError(f"input group {g.name!r} starts at {g.start}, expected {end}")
            names.add(g.name)
            end += g.width
        if end != self.n_inputs:
            raise CircuitError(f"input groups cover {end} wires, expected {self.n_inputs}")

    @property
    def const_zero(self) -> int:
        return self.n_inputs

    @property
    def const_one(self) -> int:
        return self.n_inputs + 1

    @property
    def n_wires(self) -> int:
        return self.n_inputs + 2 + len(self.gates)

    @cached_property
    def stats(self) -> GateStats:
        """Total and non-XOR (that is, AND) gate counts."""
        non_xor = int(np.count_nonzero(self.gates[:, 0] == AND))
        return GateStats(total=len(self.gates), non_xor=non_xor)

    @cached_property
    def digest(self) -> bytes:
        """Content hash binding garbled tables to this exact circuit."""
        h = hashlib.sha256(
            struct.pack(">IIII", self.n_inputs, self.const_zero, self.const_one, self.n_wires)
        )
        for g in self.input_groups:
            h.update(g.name.encode())
            h.update(struct.pack(">II", g.start, g.width))
        h.update(struct.pack(f">{len(self.output_wires)}I", *self.output_wires))
        h.update(np.rec.fromarrays(self.gates.T, dtype=_DIGEST_ROW).tobytes())
        return h.digest()

    @cached_property
    def levels(self) -> tuple[Level, ...]:
        """Level schedule: gates grouped by topological depth (inputs and
        constants have depth 0, a gate one more than its deepest input),
        each level's XOR and AND gates in arrays of their own.

        A circuit made by ``tile`` repeats its instance's gate depths copy
        after copy, so the per-gate depth loop runs over one copy only."""
        instance, copies = self._tiled or (self, 1)
        gate_depth = np.tile(_gate_depths(instance), copies)
        g = self.gates.astype(np.intp)  # fancy indexing converts anything else per call
        kind = g[:, 0]
        and_ord = np.cumsum(kind == AND) - 1
        order = np.argsort(gate_depth, kind="stable")
        levels = []
        for idx in np.split(order, np.flatnonzero(np.diff(gate_depth[order])) + 1):
            k = kind[idx]
            x, a = idx[k == XOR], idx[k == AND]
            table_rows = 2 * and_ord[a] + np.array([[0], [1]])
            levels.append(
                Level(g[x, 1:3].T.copy(), g[x, 3], g[a, 1:3].T.copy(), g[a, 3],
                      table_rows, (table_rows + 1).astype(np.uint64))
            )
        return tuple(levels)

    # (instance, copies) on a circuit that ``tile`` made, else None; see
    # ``levels``. Not a field: no constructor takes it.
    _tiled = None

    def tile(self, copies: int, group_names: Callable[[int], Sequence[str]]) -> Circuit:
        """``copies`` independent copies of this circuit side by side, sharing
        the two constant wires.

        With n1 inputs and G gates here, copy i's inputs are wires i*n1 and
        on, its groups named ``group_names(i)`` in this circuit's order; the
        constants follow all copies' inputs, at copies*n1 and copies*n1 + 1;
        copy i's gates come after them, i*G gates past the first. Outputs
        are copy 0's, then copy 1's and so on, each mapped the same way,
        including outputs that are inputs or constants."""
        if copies < 1:
            raise CircuitError(f"need at least one copy, got {copies}")
        n1, n_gates = self.n_inputs, len(self.gates)
        if (n_wires := copies * (n1 + n_gates) + 2) > np.iinfo(np.int32).max:
            raise CircuitError(f"{copies} copies need {n_wires} wires, past int32 wire ids")
        copy = np.arange(copies, dtype=np.int32).reshape(-1, 1, 1)

        def wires(w: np.ndarray) -> np.ndarray:
            """Each copy's wires for this circuit's wires ``w``, copy by copy."""
            w = np.asarray(w, dtype=np.int32)
            first = np.where(w < n1, w, w + (copies - 1) * n1)  # copy 0's
            step = np.where(w < n1, n1, np.where(w < n1 + 2, 0, n_gates))  # to the next copy
            return first + copy * step.astype(np.int32)

        gates = np.empty((copies, n_gates, 4), dtype=np.int32)
        gates[..., 0] = self.gates[:, 0]
        gates[..., 1:] = wires(self.gates[:, 1:])
        groups = [
            InputGroup(name, g.start + i * n1, g.width)
            for i in range(copies)
            for name, g in zip(group_names(i), self.input_groups, strict=True)
        ]
        tiled = Circuit(
            n_inputs=copies * n1,
            input_groups=tuple(groups),
            gates=gates.reshape(-1, 4),
            output_wires=tuple(wires(self.output_wires).ravel().tolist()),
        )
        object.__setattr__(tiled, "_tiled", (self, copies))
        return tiled

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


def _gate_depths(circuit: Circuit) -> np.ndarray:
    """Each gate's topological depth: inputs and constants have depth 0, a
    gate one more than its deepest input."""
    depth = [0] * circuit.n_wires
    for a, b, out in zip(*circuit.gates[:, 1:].T.tolist()):
        da, db = depth[a], depth[b]
        depth[out] = (da if da > db else db) + 1
    return np.array(depth[circuit.n_inputs + 2 :], dtype=np.intp)


def int_from_bits(bits: Sequence[int]) -> int:
    """The unsigned integer of little-endian ``bits``."""
    v = 0
    for i, b in enumerate(bits):
        v |= (b & 1) << i
    return v
