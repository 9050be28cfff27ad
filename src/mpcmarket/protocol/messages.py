"""Protocol messages and the length-prefixed binary frame format.

Frame layout (fixed endianness, big-endian):

    u32  length of everything after this field
    u8   message type
    16B  session id
    u32  sequence number
    ...  payload: the message's fields in order, each by its codec in LAYOUT

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
from dataclasses import dataclass, fields
from typing import ClassVar

FRAME_HEADER = struct.Struct(">IB16sI")
MAX_FRAME = 1 << 31


class ProtocolError(RuntimeError):
    """A role received a message it must not accept, or state is invalid."""


class FramingError(ValueError):
    """Malformed or truncated frame."""


class _Reader:
    """Bounded cursor over one payload: every read checks the bytes left and
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


# -- field codecs: ``pack(value)`` gives the field's parts, ``read(r)`` reads it


class _Struct:
    """One struct-packed value: an integer, or bytes of a fixed length."""

    def __init__(self, fmt: str) -> None:
        self.s = struct.Struct(fmt)

    def pack(self, value) -> list[bytes]:
        return [self.s.pack(value)]

    def read(self, r: _Reader):
        return self.s.unpack(r.take(self.s.size))[0]


class _Blob:
    """u32 length, then the bytes; the blob is a part of its own, not a copy."""

    def pack(self, value: bytes) -> list[bytes]:
        return [*U32.pack(len(value)), value]

    def read(self, r: _Reader) -> bytes:
        return r.take(U32.read(r))


class _Text(_Blob):
    """A blob holding UTF-8 text."""

    def pack(self, value: str) -> list[bytes]:
        return super().pack(value.encode("utf-8"))

    def read(self, r: _Reader) -> str:
        try:
            return super().read(r).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramingError(f"text is not UTF-8: {exc}") from exc


class _Counted:
    """u32 item count, then the items; ``items`` and ``read_items`` are the
    body alone, for a layout that writes its counts first."""

    def pack(self, value) -> list[bytes]:
        return [*U32.pack(len(value)), *self.items(value)]

    def read(self, r: _Reader) -> tuple:
        return self.read_items(r, U32.read(r))


class Seq(_Counted):
    """Tuples, each written field by field with ``codecs``."""

    def __init__(self, *codecs) -> None:
        self.codecs = codecs

    def items(self, value) -> list[bytes]:
        return [
            p for item in value for c, v in zip(self.codecs, item, strict=True) for p in c.pack(v)
        ]

    def read_items(self, r: _Reader, count: int) -> tuple:
        return tuple(tuple(c.read(r) for c in self.codecs) for _ in range(count))


class _Labels(_Counted):
    """128-bit labels as two u64 halves each, one struct pass per sequence;
    with ``wires``, (u32 wire, label) pairs."""

    def __init__(self, wires: bool) -> None:
        self.wires = wires
        self.s = struct.Struct(">IQQ" if wires else ">QQ")

    def items(self, value) -> list[bytes]:
        pack, m = self.s.pack, (1 << 64) - 1
        if self.wires:
            return [b"".join([pack(w, label >> 64, label & m) for w, label in value])]
        return [b"".join([pack(label >> 64, label & m) for label in value])]

    def read_items(self, r: _Reader, count: int) -> tuple:
        records = self.s.iter_unpack(r.take(self.s.size * count))
        if self.wires:
            return tuple((w, hi << 64 | lo) for w, hi, lo in records)
        return tuple(hi << 64 | lo for hi, lo in records)


class _Bits(_Counted):
    """Bits packed eight to a byte, least significant first; the padding
    bits after the last one must be zero."""

    def items(self, value) -> list[bytes]:
        packed = bytearray((len(value) + 7) // 8)
        for i, b in enumerate(value):
            if b & 1:
                packed[i // 8] |= 1 << (i % 8)
        return [bytes(packed)]

    def read_items(self, r: _Reader, count: int) -> tuple:
        body = r.take((count + 7) // 8)
        if count % 8 and body[-1] >> (count % 8):
            raise FramingError("nonzero padding bits after the last output bit")
        return tuple((body[i // 8] >> (i % 8)) & 1 for i in range(count))


U16, U32, RAW16 = _Struct(">H"), _Struct(">I"), _Struct(">16s")
BLOB, TEXT = _Blob(), _Text()
WIRE_LABELS, LABELS, BITS = _Labels(wires=True), _Labels(wires=False), _Bits()


@dataclass(frozen=True)
class Message:
    """A protocol message: its payload is its fields in declaration order,
    each written and read by the codec at the same place in ``LAYOUT``."""

    TYPE: ClassVar[int] = 0
    LAYOUT: ClassVar[tuple] = ()

    def parts(self) -> list[bytes]:
        """The payload as a list of byte strings, in order; large blobs are
        the message's own objects, not copies."""
        layout = zip(self.LAYOUT, fields(self), strict=True)
        return [p for codec, f in layout for p in codec.pack(getattr(self, f.name))]

    def encode(self) -> bytes:
        return b"".join(self.parts())

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
        return cls(*(codec.read(r) for codec in cls.LAYOUT))

    @property
    def type_name(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Ack(Message):
    """Transport-level acknowledgement; never part of the protocol transcript."""

    TYPE: ClassVar[int] = 0x00


@dataclass(frozen=True)
class ErrorReply(Message):
    """Transport-level error propagation from a remote role."""

    TYPE: ClassVar[int] = 0x7F
    LAYOUT: ClassVar[tuple] = (TEXT,)
    detail: str = ""


@dataclass(frozen=True)
class PublicKeyDist(Message):
    """Protocol 1 step 1: the CSP's public bundle (pk + relin keys; ``rk``
    is empty when the computation's HE plan multiplies no ciphertexts)."""

    TYPE: ClassVar[int] = 0x01
    LAYOUT: ClassVar[tuple] = (BLOB, BLOB)
    pk: bytes = b""
    rk: bytes = b""


@dataclass(frozen=True)
class EncryptedListing(Message):
    """Protocol 1 step 2: one maker's ciphertexts, keyed by listing tag."""

    TYPE: ClassVar[int] = 0x02
    LAYOUT: ClassVar[tuple] = (U16, Seq(TEXT, BLOB))
    maker: int = 0
    entries: tuple[tuple[str, bytes], ...] = ()


@dataclass(frozen=True)
class Query(Message):
    """Step 3 of both protocols: a buyer asks for everything the datatrust holds."""

    TYPE: ClassVar[int] = 0x03


@dataclass(frozen=True)
class ListingBundle(Message):
    """Datatrust response: every stored ciphertext entry (HE) or every
    stored active input label (GC). Both counts come first."""

    TYPE: ClassVar[int] = 0x04
    LAYOUT: ClassVar[tuple] = (Seq(U16, TEXT, BLOB), WIRE_LABELS)
    ciphertexts: tuple[tuple[int, str, bytes], ...] = ()
    labels: tuple[tuple[int, int], ...] = ()  # (wire index, 128-bit label)

    def parts(self) -> list[bytes]:
        cts, labels = self.LAYOUT
        counts = U32.pack(len(self.ciphertexts)) + U32.pack(len(self.labels))
        return counts + cts.items(self.ciphertexts) + labels.items(self.labels)

    @classmethod
    def _read(cls, r: _Reader) -> "ListingBundle":
        cts, labels = cls.LAYOUT
        n_ct, n_lab = U32.read(r), U32.read(r)
        return cls(cts.read_items(r, n_ct), labels.read_items(r, n_lab))


@dataclass(frozen=True)
class DecryptRequest(Message):
    """Protocol 1 step 5 request: homomorphically computed ciphertexts."""

    TYPE: ClassVar[int] = 0x05
    LAYOUT: ClassVar[tuple] = (Seq(TEXT, BLOB),)
    entries: tuple[tuple[str, bytes], ...] = ()


@dataclass(frozen=True)
class Result(Message):
    """Protocol 1 step 5 response: the decrypted, finished result."""

    TYPE: ClassVar[int] = 0x06
    LAYOUT: ClassVar[tuple] = (TEXT,)
    payload_json: str = "{}"

    def as_dict(self) -> dict:
        return json.loads(self.payload_json)


@dataclass(frozen=True)
class DeltaKeyDist(Message):
    """Protocol 2 step 1: delta and the shared PRF key, makers only."""

    TYPE: ClassVar[int] = 0x07
    LAYOUT: ClassVar[tuple] = (RAW16, RAW16)
    delta: bytes = b"\x00" * 16
    prf_key: bytes = b"\x00" * 16


@dataclass(frozen=True)
class InputLabels(Message):
    """Protocol 2 step 2: a maker's active labels for its own input wires."""

    TYPE: ClassVar[int] = 0x08
    LAYOUT: ClassVar[tuple] = (WIRE_LABELS,)
    labels: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class GarbledCircuitMsg(Message):
    """Protocol 2 step 4: the garbled tables (which carry the circuit digest
    and the constant wires' active labels). The circuit itself is not sent:
    the buyer builds it from the session's registered computation."""

    TYPE: ClassVar[int] = 0x09
    LAYOUT: ClassVar[tuple] = (BLOB,)
    garbled: bytes = b""


@dataclass(frozen=True)
class OutputLabels(Message):
    """Protocol 2 step 5: the buyer's active output labels."""

    TYPE: ClassVar[int] = 0x0A
    LAYOUT: ClassVar[tuple] = (LABELS,)
    labels: tuple[int, ...] = ()


@dataclass(frozen=True)
class OutputDecoding(Message):
    """Protocol 2 step 6: the meaning of the output labels."""

    TYPE: ClassVar[int] = 0x0B
    LAYOUT: ClassVar[tuple] = (BITS,)
    bits: tuple[int, ...] = ()


# Every message class above, by type byte.
MESSAGE_TYPES: dict[int, type[Message]] = {cls.TYPE: cls for cls in Message.__subclasses__()}


def frame_size(parts: list[bytes]) -> int:
    """Length of the frame that carries these payload parts, header included."""
    return FRAME_HEADER.size + sum(map(len, parts))


def pack_frame(msg: Message, session_id: bytes, seq: int) -> bytes:
    """Header and payload parts joined once; the payload is not built first."""
    parts = msg.parts()
    length = frame_size(parts) - 4  # everything after the length field
    return b"".join([FRAME_HEADER.pack(length, msg.TYPE, session_id, seq), *parts])


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
    return cls.decode(data[FRAME_HEADER.size :]), session, seq
