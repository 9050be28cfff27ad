"""Garbled circuit engine: point-and-permute, free-XOR, half-gates.

Labels are 128-bit integers. For every wire, label1 = label0 XOR delta
with lsb(delta) = 1, so the two labels of a wire always carry opposite
permute bits. AND gates are garbled with the half-gates construction
(exactly two 16-byte rows); XOR gates are label XORs and INV gates alias
the complementary label (out0 = in0 XOR delta), both costing nothing.

Input labels are derived from a shared PRF key instead of running
oblivious transfer: the party holding bit b for wire i submits
PRF(k, i) XOR b*delta directly.

The gate hash is a Davies-Meyer construction over a fixed-key AES-128:
H(L, tweak) = AES(2L ^ tweak) ^ 2L ^ tweak, with per-gate tweaks. It works
on each block on its own, so garbling and evaluation run one circuit level
at a time: every level is a handful of numpy operations on the labels and
one AES call, and the tables come out byte for byte as a gate-by-gate
engine would write them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .circuits.ir import Circuit, Level

MASK128 = (1 << 128) - 1
_GF_POLY = 0x87  # x^128 + x^7 + x^2 + x + 1

# Fixed public AES key for the gate hash; any fixed constant works.
_HASH_KEY = hashlib.sha256(b"mpcmarket half-gates fixed key v1").digest()[:16]

_MAGIC = b"MGC1"
_VERSION = 1


class GarblingError(ValueError):
    """Raised on malformed garbled circuits or label mismatches."""


def _new_cipher():
    return Cipher(algorithms.AES(_HASH_KEY), modes.ECB()).encryptor()


@dataclass(frozen=True)
class GlobalDelta:
    """Free-XOR global offset; least-significant bit pinned to 1."""

    bits: int

    def __post_init__(self) -> None:
        if not (0 <= self.bits <= MASK128) or self.bits & 1 != 1:
            raise GarblingError("delta must be a 128-bit value with lsb 1")


def derive_delta(seed: bytes) -> GlobalDelta:
    """Deterministically expand a 16-byte seed into delta (lsb forced to 1)."""
    if len(seed) != 16:
        raise GarblingError("delta seed must be 16 bytes")
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    block = enc.update(b"\x00" * 15 + b"\x01")
    return GlobalDelta(int.from_bytes(block, "big") | 1)


def derive_input_labels(prf_key: bytes, count: int) -> list[int]:
    """Zero-labels PRF(k, i) for input wires i = 0..count-1: AES-128 under
    k of the 16-byte block (0, i), in one cipher pass."""
    if len(prf_key) != 16:
        raise GarblingError("PRF key must be 16 bytes")
    enc = Cipher(algorithms.AES(prf_key), modes.ECB()).encryptor()
    blob = enc.update(b"".join(struct.pack(">QQ", 0, i) for i in range(count)))
    return [int.from_bytes(blob[i : i + 16], "big") for i in range(0, 16 * count, 16)]


def seeded_label_source(seed: bytes, domain: int = 1) -> Callable[[int], int]:
    """Deterministic label generator for constant/non-PRF wires."""
    if len(seed) != 16:
        raise GarblingError("label seed must be 16 bytes")
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()

    def labels(wire_index: int) -> int:
        return int.from_bytes(enc.update(struct.pack(">QQ", domain, wire_index)), "big")

    return labels


@dataclass(frozen=True)
class DecodingInfo:
    """Permute-bit mask per output wire: plaintext bit = lsb(label) ^ mask."""

    masks: tuple[int, ...]


@dataclass(frozen=True)
class GarbledCircuit:
    """Half-gates tables (two rows per AND gate, in gate order, as one
    big-endian blob) plus the active labels of the two constant wires,
    bound to a circuit digest."""

    circuit_hash: bytes
    n_and: int
    tables: bytes
    const_zero_active: int
    const_one_active: int


HEADER_SIZE = 4 + 1 + 32 + 4 + 2 * 16  # magic, version, hash, count, const actives


def serialize_garbled(gc: GarbledCircuit) -> bytes:
    return b"".join(
        (
            _MAGIC,
            bytes([_VERSION]),
            gc.circuit_hash,
            struct.pack(">I", gc.n_and),
            gc.const_zero_active.to_bytes(16, "big"),
            gc.const_one_active.to_bytes(16, "big"),
            gc.tables,
        )
    )


def parse_garbled(data: bytes) -> GarbledCircuit:
    if len(data) < HEADER_SIZE or data[:4] != _MAGIC:
        raise GarblingError("bad garbled-circuit header")
    if data[4] != _VERSION:
        raise GarblingError(f"unsupported garbled-circuit version {data[4]}")
    digest = data[5:37]
    (n_and,) = struct.unpack(">I", data[37:41])
    cz = int.from_bytes(data[41:57], "big")
    co = int.from_bytes(data[57:73], "big")
    body = data[HEADER_SIZE:]
    if len(body) != 32 * n_and:
        raise GarblingError(
            f"garbled table truncated: expected {32 * n_and} bytes, got {len(body)}"
        )
    return GarbledCircuit(bytes(digest), n_and, bytes(body), cz, co)


# -- level-batched engine -------------------------------------------------------
#
# A label is a row (hi, lo) of a uint64 array, so a block of n labels is an
# (n, 2) array whose big-endian bytes are the labels' 16-byte encodings. The
# gates of one level of ``Circuit.levels`` are independent, so each level
# costs a few array operations and one AES call whatever its width.


def _blocks(values) -> np.ndarray:
    """128-bit integers -> (n, 2) uint64 array of (hi, lo)."""
    blob = b"".join((v & MASK128).to_bytes(16, "big") for v in values)
    return np.frombuffer(blob, dtype=">u8").reshape(-1, 2).astype(np.uint64)


def _ints(blocks: np.ndarray) -> list[int]:
    blob = blocks.astype(">u8").tobytes()
    return [int.from_bytes(blob[i : i + 16], "big") for i in range(0, len(blob), 16)]


def _double(x: np.ndarray) -> np.ndarray:
    """Double each label in GF(2^128) (multiply by the polynomial x); this is
    linear over XOR."""
    hi, lo = x[:, 0], x[:, 1]
    return np.stack(((hi << 1) | (lo >> 63), (lo << 1) ^ ((hi >> 63) * _GF_POLY)), axis=1)


def _hash(update, k: np.ndarray) -> np.ndarray:
    """H = AES(k) ^ k for every block of k, in one cipher call."""
    out = np.frombuffer(update(k.astype(">u8").tobytes()), dtype=">u8").reshape(k.shape)
    return out ^ k


def _select(bit_of: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x where lsb(bit_of) is 1, else 0, row by row."""
    return (bit_of[:, 1:] & 1) * x


def _keys(lv: Level, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hash inputs of a level's AND gates: 2a ^ j0 stacked over 2b ^ j1, with
    the tweaks j0 = 2*ordinal + 1 and j1 = j0 + 1."""
    j = (2 * lv.and_ord + 1).astype(np.uint64)
    k = _double(np.concatenate((a, b)))
    k[:, 1] ^= np.concatenate((j, j + 1))
    return k


def _sweep(circuit: Circuit, labels: np.ndarray, inv_offset, and_gates) -> None:
    """Fill ``labels`` level by level: XOR gates, INV gates (input label ^
    ``inv_offset``: delta when garbling, 0 when evaluating) and AND gates
    through ``and_gates(update, level, a, b)``, which returns their labels."""
    update = _new_cipher().update
    for lv in circuit.levels:
        labels[lv.xor_out] = labels[lv.xor_a] ^ labels[lv.xor_b]
        labels[lv.inv_out] = labels[lv.inv_a] ^ inv_offset
        labels[lv.and_out] = and_gates(update, lv, labels[lv.and_a], labels[lv.and_b])


def garble(
    circuit: Circuit,
    delta: GlobalDelta,
    zero_label: Callable[[int], int],
) -> tuple[GarbledCircuit, DecodingInfo]:
    """Garble a circuit given the zero-label source for input + constant wires.

    Deterministic: a fixed delta and label source reproduce the garbling
    byte for byte.
    """
    n_fixed = circuit.n_inputs + 2  # inputs, then const_zero and const_one
    labels = np.zeros((circuit.n_wires, 2), dtype=np.uint64)
    labels[:n_fixed] = _blocks(zero_label(i) for i in range(n_fixed))
    d = _blocks([delta.bits])
    dd = _double(d)
    tables = np.zeros((circuit.stats.non_xor, 4), dtype=np.uint64)

    def and_gates(update, lv, a0, b0):
        m = len(a0)
        k = _keys(lv, a0, b0)
        # H(a0), H(a1), H(b0), H(b1): doubling is linear, so 2(x ^ delta) = 2x ^ 2delta.
        h = _hash(update, np.concatenate((k[:m], k[:m] ^ dd, k[m:], k[m:] ^ dd)))
        ha0, ha1, hb0, hb1 = h[:m], h[m : 2 * m], h[2 * m : 3 * m], h[3 * m :]
        tg = ha0 ^ ha1 ^ _select(b0, d)
        te = hb0 ^ hb1 ^ a0
        tables[lv.and_ord] = np.concatenate((tg, te), axis=1)
        return ha0 ^ _select(a0, tg) ^ hb0 ^ _select(b0, te ^ a0)

    _sweep(circuit, labels, d, and_gates)
    cz, co = _ints(labels[[circuit.const_zero, circuit.const_one]])
    gc = GarbledCircuit(
        circuit_hash=circuit.digest,
        n_and=len(tables),
        tables=tables.astype(">u8").tobytes(),
        const_zero_active=cz,
        const_one_active=co ^ delta.bits,
    )
    masks = labels[list(circuit.output_wires), 1] & 1
    return gc, DecodingInfo(masks=tuple(masks.tolist()))


def evaluate(
    garbled: GarbledCircuit,
    circuit: Circuit,
    active_labels: Sequence[int],
) -> list[int]:
    """Evaluate on active input labels; returns active output labels.

    Only the table rows selected by the labels' permute bits are touched;
    the evaluator never handles a non-active label.
    """
    if len(active_labels) != circuit.n_inputs:
        raise GarblingError(
            f"expected {circuit.n_inputs} input labels, got {len(active_labels)}"
        )
    if garbled.circuit_hash != circuit.digest:
        raise GarblingError("garbled tables do not match this circuit")
    if garbled.n_and != circuit.stats.non_xor or len(garbled.tables) != 32 * garbled.n_and:
        raise GarblingError("AND-gate count mismatch between circuit and tables")
    labels = np.zeros((circuit.n_wires, 2), dtype=np.uint64)
    labels[: circuit.n_inputs + 2] = _blocks(
        [*active_labels, garbled.const_zero_active, garbled.const_one_active]
    )
    tables = np.frombuffer(garbled.tables, dtype=">u8").reshape(-1, 4).astype(np.uint64)

    def and_gates(update, lv, la, lb):
        m = len(la)
        h = _hash(update, _keys(lv, la, lb))
        row = tables[lv.and_ord]
        return h[:m] ^ _select(la, row[:, :2]) ^ h[m:] ^ _select(lb, row[:, 2:] ^ la)

    _sweep(circuit, labels, 0, and_gates)
    return _ints(labels[list(circuit.output_wires)])


def decode(info: DecodingInfo, output_labels: Sequence[int]) -> list[int]:
    """Map active output labels to plaintext bits via the permute-bit masks."""
    if len(output_labels) != len(info.masks):
        raise GarblingError(
            f"expected {len(info.masks)} output labels, got {len(output_labels)}"
        )
    return [(lab & 1) ^ m for lab, m in zip(output_labels, info.masks)]


def active_input_labels(
    delta: int,
    zero_label: Callable[[int], int],
    wire_bits: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    """(wire, active label) for each (wire, bit) a label-holder submits:
    the wire's zero-label l0, XORed with delta where the bit is 1."""
    return [(wire, zero_label(wire) ^ (delta if bit & 1 else 0)) for wire, bit in wire_bits]
