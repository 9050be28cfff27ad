"""Garbled circuit engine: point-and-permute, free-XOR, half-gates.

Labels are 128-bit integers. For every wire, label1 = label0 XOR delta
with lsb(delta) = 1, so the two labels of a wire always carry opposite
permute bits. AND gates are garbled with the half-gates construction
(exactly two 16-byte rows); XOR gates are label XORs and cost nothing, and
so does a NOT, an XOR with the constant-one wire.

Zero labels of the fixed wires (the inputs, then the two constants) are
derived from a shared PRF key instead of running oblivious transfer:
PRF(k, i) for wire i. The party holding bit b for input wire i submits
PRF(k, i) XOR b*delta directly.

The gate hash is a Davies-Meyer construction over a fixed-key AES-128:
H(L, tweak) = AES(2L ^ tweak) ^ 2L ^ tweak, with per-gate tweaks. It works
on each block on its own, so garbling and evaluation run one circuit level
at a time. Labels and table rows move between the wire array and a level
as whole 16-byte items, and each level with AND gates makes one fused
half-gates step: one gather of both inputs, one AES call for all of its
hashes and one store of its table rows. The tables come out byte for byte
as a gate-by-gate engine would write them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


def derive_input_labels(prf_key: bytes, wires: Iterable[int]) -> list[int]:
    """Zero-labels PRF(k, i) for the fixed wires i in ``wires``, in that
    order: AES-128 under k of the 16-byte block (0, i), in one cipher pass."""
    if len(prf_key) != 16:
        raise GarblingError("PRF key must be 16 bytes")
    enc = Cipher(algorithms.AES(prf_key), modes.ECB()).encryptor()
    blob = enc.update(b"".join(struct.pack(">QQ", 0, i) for i in wires))
    return [int.from_bytes(blob[i : i + 16], "big") for i in range(0, len(blob), 16)]


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


# magic, version, circuit hash, AND count, the two constant wires' active labels
_HEADER = struct.Struct(">4sB32sI16s16s")
HEADER_SIZE = _HEADER.size


def serialize_garbled(gc: GarbledCircuit) -> bytes:
    consts = (label.to_bytes(16, "big") for label in (gc.const_zero_active, gc.const_one_active))
    return _HEADER.pack(_MAGIC, _VERSION, gc.circuit_hash, gc.n_and, *consts) + gc.tables


def parse_garbled(data: bytes) -> GarbledCircuit:
    if len(data) < HEADER_SIZE:
        raise GarblingError("garbled circuit shorter than its header")
    magic, version, digest, n_and, cz, co = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _VERSION:
        raise GarblingError(f"bad garbled-circuit header: magic {magic!r}, version {version}")
    body = data[HEADER_SIZE:]
    if len(body) != 32 * n_and:
        raise GarblingError(
            f"garbled table truncated: expected {32 * n_and} bytes, got {len(body)}"
        )
    cz, co = (int.from_bytes(label, "big") for label in (cz, co))
    return GarbledCircuit(digest, n_and, bytes(body), cz, co)


# -- level-batched engine -------------------------------------------------------
#
# A label is a row (hi, lo) of a C-contiguous uint64 array whose big-endian
# words are its 16-byte encoding; the garbled table is such an array with two
# rows per AND gate. Gathers and scatters go through a view of these arrays
# as 16-byte items, which numpy moves several times faster than it
# fancy-indexes 2-D rows. Arithmetic runs on whole blocks of words or on the
# strided hi or lo words, never by broadcasting one row against many (numpy
# then loops two words at a time). The gates of a level of ``Circuit.levels``
# are independent, so a level costs a fixed number of array operations.


def _blocks(values) -> np.ndarray:
    """128-bit integers -> (n, 2) uint64 array of (hi, lo)."""
    blob = b"".join((v & MASK128).to_bytes(16, "big") for v in values)
    return np.frombuffer(blob, dtype=">u8").reshape(-1, 2).astype(np.uint64)


def _ints(blocks: np.ndarray) -> list[int]:
    blob = blocks.astype(">u8").tobytes()
    return [int.from_bytes(blob[i : i + 16], "big") for i in range(0, len(blob), 16)]


def _rows(words: np.ndarray) -> np.ndarray:
    """A C-contiguous (..., 2) uint64 array as an array of 16-byte items."""
    return words.view("V16")[..., 0]


def _gather(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The items of ``rows`` at ``idx`` as an idx.shape + (2,) uint64 array."""
    return rows[idx].view(np.uint64).reshape(*idx.shape, 2)


def _double(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Double each label of a C-contiguous (..., 2) array in GF(2^128)
    (multiply by the polynomial x); this is linear over XOR."""
    out = np.left_shift(x, 1, out=out)
    carry = (x >> 63).reshape(-1)
    words = out.reshape(-1)
    words[0::2] |= carry[1::2]  # lo's top bit moves into hi
    words[1::2] ^= carry[0::2] * _GF_POLY  # hi's top bit folds back into lo
    return out


def _keys(lv: Level, ab: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hash inputs of a level's AND gates from their (2, m, 2) input labels:
    2a ^ j0 over 2b ^ j1, with the tweaks j0 = 2*ordinal + 1 and j1 = j0 + 1."""
    k = _double(ab, out)
    k[..., 1] ^= lv.and_tweak
    return k


def _hash(update, k: np.ndarray) -> np.ndarray:
    """H = AES(k) ^ k for every block of k, in one cipher call."""
    data = memoryview(k.astype(">u8")).cast("B")
    return np.frombuffer(update(data), dtype=">u8").reshape(k.shape) ^ k


def _permute_bits(ab: np.ndarray) -> np.ndarray:
    """lsb of each label of ab, as 0 or 1 in both of its words."""
    s = ab & 1
    words = s.reshape(-1)
    words[0::2] = words[1::2]
    return s


def _sweep(circuit: Circuit, labels: np.ndarray, and_gates) -> None:
    """Fill ``labels`` level by level: XOR gates, then AND gates through
    ``and_gates(update, level, ab)``, which takes their (2, m, 2) input
    labels (a over b) and returns their (m, 2) output labels."""
    rows = _rows(labels)
    update = _new_cipher().update
    for lv in circuit.levels:
        if len(lv.xor_out):
            a, b = _gather(rows, lv.xor_in)
            rows[lv.xor_out] = _rows(a ^ b)
        if len(lv.and_out):
            rows[lv.and_out] = _rows(and_gates(update, lv, _gather(rows, lv.and_in)))


def garble(
    circuit: Circuit,
    delta: GlobalDelta,
    zero_labels: Sequence[int],
) -> tuple[GarbledCircuit, DecodingInfo]:
    """Garble a circuit given the zero labels of its fixed wires: the
    inputs, then const_zero and const_one.

    Deterministic: a fixed delta and zero labels reproduce the garbling
    byte for byte.
    """
    n_fixed = circuit.n_inputs + 2
    if len(zero_labels) != n_fixed:
        raise GarblingError(f"expected {n_fixed} fixed-wire zero labels, got {len(zero_labels)}")
    labels = np.zeros((circuit.n_wires, 2), dtype=np.uint64)
    labels[:n_fixed] = _blocks(zero_labels)
    d = _blocks([delta.bits])
    # delta and 2*delta once per gate of the widest AND level, to combine
    # with a level's labels block by block
    ds = np.tile(d, (max((len(lv.and_out) for lv in circuit.levels), default=0), 1))
    dds = _double(ds)
    n_and = circuit.stats.non_xor
    tables = np.zeros((2 * n_and, 2), dtype=np.uint64)  # TG, TE per AND gate
    table_rows = _rows(tables)

    def and_gates(update, lv, ab):
        m = ab.shape[1]
        p = _permute_bits(ab)
        # Keys of label 0 over those of label 1: doubling is linear, so
        # 2(x ^ delta) = 2x ^ 2delta.
        k = np.empty((2, 2, m, 2), dtype=np.uint64)
        _keys(lv, ab, out=k[0])
        np.bitwise_xor(k[0], dds[:m], out=k[1])
        h0, h1 = _hash(update, k)  # h0 = H(a0) over H(b0), h1 = H(a1) over H(b1)
        t = h0 ^ h1
        t[0] ^= p[1] * ds[:m]  # TG = H(a0) ^ H(a1) ^ pb*delta
        w = p * t  # pa*TG over pb*(H(b0) ^ H(b1))
        w ^= h0
        t[1] ^= ab[0]  # TE = H(b0) ^ H(b1) ^ a0
        table_rows[lv.and_rows] = _rows(t)
        return w[0] ^ w[1]

    _sweep(circuit, labels, and_gates)
    cz, co = _ints(labels[[circuit.const_zero, circuit.const_one]])
    gc = GarbledCircuit(
        circuit_hash=circuit.digest,
        n_and=n_and,
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
    table_rows = _rows(np.frombuffer(garbled.tables, dtype=">u8").reshape(-1, 2).astype(np.uint64))

    def and_gates(update, lv, ab):
        t = _gather(table_rows, lv.and_rows)  # TG over TE
        t[1] ^= ab[0]
        t *= _permute_bits(ab)
        t ^= _hash(update, _keys(lv, ab))
        return t[0] ^ t[1]

    _sweep(circuit, labels, and_gates)
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
    zero_labels: Mapping[int, int] | Sequence[int],
    wire_bits: Iterable[tuple[int, int]],
) -> list[tuple[int, int]]:
    """(wire, active label) for each (wire, bit) a label-holder submits:
    the wire's zero-label ``zero_labels[wire]``, XORed with delta where the
    bit is 1."""
    return [(wire, zero_labels[wire] ^ (delta if bit & 1 else 0)) for wire, bit in wire_bits]
