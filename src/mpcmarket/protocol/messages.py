"""Protocol messages and the length-prefixed binary frame format.

Frame layout (fixed endianness, big-endian):

    u32  length of everything after this field
    u8   message type
    16B  session id
    u32  sequence number
    ...  payload (message-specific binary codec)

Every message type maps to exactly one protocol step. The datatrust's
accepted subset contains no variant capable of carrying plaintext
listings, secret keys, or the garbling secrets (delta, k).

Channel secrecy is assumed at desk scale (the delta/k distribution in
particular presumes a secure channel to each maker); the framing carries
no encryption layer of its own.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import ClassVar

FRAME_HEADER = struct.Struct(">IB16sI")
MAX_FRAME = 1 << 31


class ProtocolError(RuntimeError):
    """A role received a message it must not accept, or state is invalid."""


class FramingError(ValueError):
    """Malformed or truncated frame."""


def _pack_blob(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def _pack_str(s: str) -> bytes:
    return _pack_blob(s.encode("utf-8"))


def _pack_labels(labels) -> list[bytes]:
    parts = []
    for wire, label in labels:
        parts += (struct.pack(">I", wire), label.to_bytes(16, "big"))
    return parts


class _Reader:
    """Bounded cursor over one payload. Every read checks the bytes left and
    every failure is a :class:`FramingError`."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if n > len(self.data) - self.off:
            raise FramingError(
                f"truncated payload: {n} bytes wanted at offset {self.off} of {len(self.data)}"
            )
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def blob(self) -> bytes:
        (n,) = self.unpack(">I")
        return self.take(n)

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramingError(f"text is not UTF-8: {exc}") from exc

    def labels(self, count: int) -> tuple[tuple[int, int], ...]:
        """``count`` (u32 wire, 128-bit label) entries."""
        return tuple(
            (wire, int.from_bytes(label, "big"))
            for wire, label in struct.iter_unpack(">I16s", self.take(20 * count))
        )


@dataclass(frozen=True)
class Message:
    TYPE: ClassVar[int] = 0

    def encode(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def decode(cls, payload: bytes) -> "Message":
        """Decode exactly one payload: a short one or trailing bytes raise
        :class:`FramingError`."""
        r = _Reader(payload)
        msg = cls._read(r)
        if r.off != len(payload):
            raise FramingError(f"{cls.__name__}: {len(payload) - r.off} trailing bytes")
        return msg

    @classmethod
    def _read(cls, r: _Reader) -> "Message":
        raise NotImplementedError

    @property
    def type_name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Ack(Message):
    """Transport-level acknowledgement; never part of the protocol transcript."""

    TYPE: ClassVar[int] = 0x00

    def encode(self) -> bytes:
        return b""

    @classmethod
    def _read(cls, r: _Reader) -> "Ack":
        return cls()


@dataclass(frozen=True)
class ErrorReply(Message):
    """Transport-level error propagation from a remote role."""

    TYPE: ClassVar[int] = 0x7F
    detail: str = ""

    def encode(self) -> bytes:
        return _pack_str(self.detail)

    @classmethod
    def _read(cls, r: _Reader) -> "ErrorReply":
        return cls(r.text())


@dataclass(frozen=True)
class PublicKeyDist(Message):
    """Protocol 1 step 1: the CSP's public bundle (pk + relin keys; ``rk``
    is empty when the computation's HE plan multiplies no ciphertexts)."""

    TYPE: ClassVar[int] = 0x01
    params_repr: str = ""
    pk: bytes = b""
    rk: bytes = b""

    def encode(self) -> bytes:
        return _pack_str(self.params_repr) + _pack_blob(self.pk) + _pack_blob(self.rk)

    @classmethod
    def _read(cls, r: _Reader) -> "PublicKeyDist":
        return cls(r.text(), r.blob(), r.blob())


@dataclass(frozen=True)
class EncryptedListing(Message):
    """Protocol 1 step 2: one maker's ciphertexts, keyed by listing tag."""

    TYPE: ClassVar[int] = 0x02
    maker: int = 0
    entries: tuple[tuple[str, bytes], ...] = ()

    def encode(self) -> bytes:
        parts = [struct.pack(">HI", self.maker, len(self.entries))]
        for name, blob in self.entries:
            parts += (_pack_str(name), _pack_blob(blob))
        return b"".join(parts)

    @classmethod
    def _read(cls, r: _Reader) -> "EncryptedListing":
        maker, count = r.unpack(">HI")
        return cls(maker, tuple((r.text(), r.blob()) for _ in range(count)))


@dataclass(frozen=True)
class Query(Message):
    """Step 3 of both protocols: a buyer asks for the protected listings."""

    TYPE: ClassVar[int] = 0x03
    buyer: int = 0
    computation_id: str = ""
    params_json: str = "{}"

    def encode(self) -> bytes:
        return (
            struct.pack(">H", self.buyer)
            + _pack_str(self.computation_id)
            + _pack_str(self.params_json)
        )

    @classmethod
    def _read(cls, r: _Reader) -> "Query":
        (buyer,) = r.unpack(">H")
        return cls(buyer, r.text(), r.text())


@dataclass(frozen=True)
class ListingBundle(Message):
    """Datatrust response: every stored ciphertext entry (HE) or every
    stored active input label (GC)."""

    TYPE: ClassVar[int] = 0x04
    ciphertexts: tuple[tuple[int, str, bytes], ...] = ()
    labels: tuple[tuple[int, int], ...] = ()  # (wire index, 128-bit label)

    def encode(self) -> bytes:
        parts = [struct.pack(">II", len(self.ciphertexts), len(self.labels))]
        for maker, name, blob in self.ciphertexts:
            parts += (struct.pack(">H", maker), _pack_str(name), _pack_blob(blob))
        return b"".join(parts + _pack_labels(self.labels))

    @classmethod
    def _read(cls, r: _Reader) -> "ListingBundle":
        n_ct, n_lab = r.unpack(">II")
        cts = tuple((*r.unpack(">H"), r.text(), r.blob()) for _ in range(n_ct))
        return cls(cts, r.labels(n_lab))


@dataclass(frozen=True)
class DecryptRequest(Message):
    """Protocol 1 step 5 request: homomorphically computed ciphertexts."""

    TYPE: ClassVar[int] = 0x05
    entries: tuple[tuple[str, bytes], ...] = ()

    def encode(self) -> bytes:
        parts = [struct.pack(">I", len(self.entries))]
        for tag, blob in self.entries:
            parts += (_pack_str(tag), _pack_blob(blob))
        return b"".join(parts)

    @classmethod
    def _read(cls, r: _Reader) -> "DecryptRequest":
        (count,) = r.unpack(">I")
        return cls(tuple((r.text(), r.blob()) for _ in range(count)))


@dataclass(frozen=True)
class Result(Message):
    """Protocol 1 step 5 response: the decrypted, finished result."""

    TYPE: ClassVar[int] = 0x06
    payload_json: str = "{}"

    def encode(self) -> bytes:
        return _pack_str(self.payload_json)

    @classmethod
    def _read(cls, r: _Reader) -> "Result":
        return cls(r.text())

    def as_dict(self) -> dict:
        return json.loads(self.payload_json)


@dataclass(frozen=True)
class DeltaKeyDist(Message):
    """Protocol 2 step 1: delta and the shared PRF key, makers only."""

    TYPE: ClassVar[int] = 0x07
    delta: bytes = b"\x00" * 16
    prf_key: bytes = b"\x00" * 16

    def encode(self) -> bytes:
        return self.delta + self.prf_key

    @classmethod
    def _read(cls, r: _Reader) -> "DeltaKeyDist":
        return cls(r.take(16), r.take(16))


@dataclass(frozen=True)
class InputLabels(Message):
    """Protocol 2 step 2: a maker's active labels for its own input wires."""

    TYPE: ClassVar[int] = 0x08
    maker: int = 0
    labels: tuple[tuple[int, int], ...] = ()

    def encode(self) -> bytes:
        head = struct.pack(">HI", self.maker, len(self.labels))
        return b"".join([head] + _pack_labels(self.labels))

    @classmethod
    def _read(cls, r: _Reader) -> "InputLabels":
        maker, count = r.unpack(">HI")
        return cls(maker, r.labels(count))


@dataclass(frozen=True)
class GarbledCircuitMsg(Message):
    """Protocol 2 step 4: the garbled tables (which carry the circuit digest
    and the constant wires' active labels). The circuit itself is not sent:
    the buyer builds it from the registered computation it queried."""

    TYPE: ClassVar[int] = 0x09
    garbled: bytes = b""

    def encode(self) -> bytes:
        return _pack_blob(self.garbled)

    @classmethod
    def _read(cls, r: _Reader) -> "GarbledCircuitMsg":
        return cls(r.blob())


@dataclass(frozen=True)
class OutputLabels(Message):
    """Protocol 2 step 5: the buyer's active output labels."""

    TYPE: ClassVar[int] = 0x0A
    labels: tuple[int, ...] = ()

    def encode(self) -> bytes:
        return struct.pack(">I", len(self.labels)) + b"".join(
            label.to_bytes(16, "big") for label in self.labels
        )

    @classmethod
    def _read(cls, r: _Reader) -> "OutputLabels":
        (count,) = r.unpack(">I")
        labels = struct.iter_unpack(">16s", r.take(16 * count))
        return cls(tuple(int.from_bytes(label, "big") for (label,) in labels))


@dataclass(frozen=True)
class OutputDecoding(Message):
    """Protocol 2 step 6: the meaning of the output labels."""

    TYPE: ClassVar[int] = 0x0B
    bits: tuple[int, ...] = ()

    def encode(self) -> bytes:
        packed = bytearray((len(self.bits) + 7) // 8)
        for i, b in enumerate(self.bits):
            if b & 1:
                packed[i // 8] |= 1 << (i % 8)
        return struct.pack(">I", len(self.bits)) + bytes(packed)

    @classmethod
    def _read(cls, r: _Reader) -> "OutputDecoding":
        (count,) = r.unpack(">I")
        body = r.take((count + 7) // 8)
        if count % 8 and body[-1] >> (count % 8):
            raise FramingError("nonzero padding bits after the last output bit")
        return cls(tuple((body[i // 8] >> (i % 8)) & 1 for i in range(count)))


MESSAGE_TYPES: dict[int, type[Message]] = {
    cls.TYPE: cls
    for cls in (
        Ack,
        ErrorReply,
        PublicKeyDist,
        EncryptedListing,
        Query,
        ListingBundle,
        DecryptRequest,
        Result,
        DeltaKeyDist,
        InputLabels,
        GarbledCircuitMsg,
        OutputLabels,
        OutputDecoding,
    )
}


def pack_frame(msg: Message, session_id: bytes, seq: int) -> bytes:
    payload = msg.encode()
    return FRAME_HEADER.pack(21 + len(payload), msg.TYPE, session_id, seq) + payload


def parse_frame(data: bytes) -> tuple[Message, bytes, int]:
    """Decode one complete frame -> (message, session_id, seq)."""
    if len(data) < FRAME_HEADER.size:
        raise FramingError("frame shorter than header")
    length, mtype, session, seq = FRAME_HEADER.unpack_from(data, 0)
    if length != len(data) - 4:
        raise FramingError(f"frame length mismatch: header {length}, actual {len(data) - 4}")
    cls = MESSAGE_TYPES.get(mtype)
    if cls is None:
        raise FramingError(f"unknown message type 0x{mtype:02x}")
    payload = data[FRAME_HEADER.size :]
    return cls.decode(payload), session, seq
