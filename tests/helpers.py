"""Helpers shared by the test modules: plaintext references that the real
paths are checked against, criterion 4's circuit corpus, and transcript
and transport lookups that no role needs."""

import math
from typing import Sequence

from mpcmarket.analytics.lr import LrModel, lr_affine_fixed
from mpcmarket.circuits.builders import CircuitBuilder
from mpcmarket.circuits.ir import XOR, Circuit, CircuitError, int_from_bits
from mpcmarket.protocol.channels import TcpChannel, Transcript
from mpcmarket.protocol.messages import ProtocolError


def bits_from_int(value: int, width: int) -> list[int]:
    """Little-endian bit vector of ``value`` (two's complement for negatives)."""
    v = value & ((1 << width) - 1)
    return [(v >> i) & 1 for i in range(width)]


def signed_from_bits(bits: Sequence[int]) -> int:
    """The two's-complement integer of little-endian ``bits``."""
    v = int_from_bits(bits)
    return v - (1 << len(bits)) if bits and bits[-1] & 1 else v


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
    for kind, a, b, out in zip(*circuit.gates.T.tolist()):  # columns convert fastest
        values[out] = values[a] ^ values[b] if kind == XOR else values[a] & values[b]
    return [values[w] for w in circuit.output_wires]


def schoolbook_negacyclic(a, b, p: int) -> list[int]:
    """Quadratic negacyclic convolution in exact integers; the NTT oracle."""
    n = len(a)
    assert len(b) == n
    full = [0] * (2 * n)
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            full[i + j] += ai * int(b[j])
    return [(full[i] - full[i + n]) % p for i in range(n)]


def lr_predict_float(model: LrModel, x_fixed: Sequence[int]) -> float:
    """Full-precision sigmoid on the same quantized inputs; the reference
    path for measuring table/fixed-point error."""
    z = lr_affine_fixed(model, x_fixed) / (1 << (2 * model.spec.frac_bits))
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# Message types whose payloads could carry plaintext listings or secrets;
# the datatrust must never receive any of them (transcript-level check used
# alongside the structural schema restriction in parties).
DT_FORBIDDEN_TYPES = frozenset(
    {"Result", "DeltaKeyDist", "DecryptRequest", "GarbledCircuitMsg", "OutputDecoding"}
)

# No message type implements oblivious transfer; this name set documents the
# absence and lets tests assert it against transcripts.
OT_TYPE_NAMES = frozenset({"OtOffer", "OtRequest", "OtResponse", "ObliviousTransfer"})


def assert_datatrust_hygiene(transcript: Transcript) -> None:
    seen = {e.type_name for e in transcript.received_by("datatrust")}
    bad = seen & DT_FORBIDDEN_TYPES
    if bad:
        raise ProtocolError(f"datatrust received forbidden message types: {sorted(bad)}")
    ot = {e.type_name for e in transcript.entries} & OT_TYPE_NAMES
    if ot:
        raise ProtocolError(f"transcript contains OT messages: {sorted(ot)}")


def type_sequence(transcript: Transcript) -> list[str]:
    return [e.type_name for e in transcript.entries]


def endpoint(channel: TcpChannel, name: str) -> tuple[str, int]:
    """The (host, port) that role ``name`` listens on."""
    return (channel._host, channel._ports[name])


# -- criterion 4's circuit corpus ---------------------------------------------


def build_adder(n_bits: int) -> Circuit:
    """Two's-complement adder with wraparound: 2n inputs, n outputs,
    n-1 AND gates (ripple carry, carry-out dropped)."""
    if not (1 <= n_bits <= 64):
        raise CircuitError(f"adder width {n_bits} out of range [1, 64]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build(b.add_wrap(x, y))


def build_multiplier(n_bits: int) -> Circuit:
    """Unsigned schoolbook multiplier: 2n inputs, 2n outputs (full product)."""
    if not (1 <= n_bits <= 32):
        raise CircuitError(f"multiplier width {n_bits} out of range [1, 32]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build(b.mul_unsigned(x, y))


def build_greater_than(n_bits: int) -> Circuit:
    """Unsigned strict comparison: 2n inputs, 1 output bit (a > b)."""
    if not (1 <= n_bits <= 128):
        raise CircuitError(f"comparator width {n_bits} out of range [1, 128]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build([b.greater_unsigned(x, y)])


def build_lookup(table: Sequence[int], index_bits: int, out_bits: int) -> Circuit:
    """Constant-table lookup circuit: index_bits inputs, out_bits outputs."""
    if not (1 <= index_bits <= 20):
        raise CircuitError(f"index width {index_bits} out of range [1, 20]")
    if not (1 <= out_bits <= 64):
        raise CircuitError(f"output width {out_bits} out of range [1, 64]")
    b = CircuitBuilder()
    idx = b.add_input_group("index", index_bits)
    return b.build(b.lookup(idx, table, out_bits))


def edge_circuits() -> dict[str, Circuit]:
    """Circuits at the edges of the wire layout: no gates, outputs that are
    inputs or constants, NOTs of constants, and a long XOR chain."""
    out = {}
    b = CircuitBuilder()
    out["no_gates"] = b.build(b.add_input_group("x", 3))
    b = CircuitBuilder()
    x = b.add_input_group("x", 2)
    out["input_and_const_outputs"] = b.build([x[1], b.zero, b.one, b.and_(x[0], x[1]), x[0]])
    b = CircuitBuilder()
    x = b.add_input_group("x", 1)
    out["inv_of_constants"] = b.build(
        [b.inv(b.zero), b.inv(b.one), b.and_(b.inv(b.zero), x[0])]
    )
    b = CircuitBuilder()
    x = b.add_input_group("x", 4)
    w = x[0]
    for i in range(300):
        w = b.xor(w, x[1 + i % 3])
    out["long_xor_chain"] = b.build([w, b.and_(w, x[0])])
    return out
