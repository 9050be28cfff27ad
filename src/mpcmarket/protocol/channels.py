"""Message delivery: in-process dispatch and framed TCP loopback.

Both channels drive the same role state machines and produce identical
transcripts: one entry per delivered protocol message, sized by its frame
length, sequence numbers strictly increasing within a session. Transport
acknowledgements are not protocol messages and are never logged.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Protocol

from .messages import (
    FRAME_HEADER,
    MAX_FRAME,
    Ack,
    ErrorReply,
    FramingError,
    Message,
    ProtocolError,
    frame_size,
    pack_frame,
    parse_frame,
)


logger = logging.getLogger(__name__)


class TransportError(RuntimeError):
    """Connection loss or malformed framing; the session is aborted."""


@dataclass(frozen=True)
class TranscriptEntry:
    seq: int
    sender: str
    receiver: str
    type_name: str
    n_bytes: int


@dataclass
class Transcript:
    entries: list[TranscriptEntry] = field(default_factory=list)

    def received_by(self, receiver: str) -> list[TranscriptEntry]:
        return [e for e in self.entries if e.receiver == receiver]

    def total_bytes(self) -> int:
        return sum(e.n_bytes for e in self.entries)


class Role(Protocol):
    name: str

    def receive(self, msg: Message) -> Message | None: ...


class BaseChannel:
    """Shared sequencing and transcript bookkeeping."""

    def __init__(self, session_id: bytes) -> None:
        if len(session_id) != 16:
            raise ProtocolError("session id must be 16 bytes")
        self.session_id = session_id
        self.transcript = Transcript()
        self._seq = 0
        self._lock = threading.Lock()

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _log(self, seq: int, sender: str, receiver: str, msg: Message, n_bytes: int) -> None:
        entry = TranscriptEntry(seq, sender, receiver, msg.type_name, n_bytes)
        self.transcript.entries.append(entry)

    def send(self, sender: str, receiver: str, msg: Message) -> Message | None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class InprocChannel(BaseChannel):
    """Direct dispatch between role objects in one process. Transcript sizes
    are the frame lengths TCP would send; no frame is built."""

    def __init__(self, session_id: bytes, roles: dict[str, Role]) -> None:
        super().__init__(session_id)
        self._roles = roles

    def send(self, sender: str, receiver: str, msg: Message) -> Message | None:
        role = self._roles.get(receiver)
        if role is None:
            raise TransportError(f"no such role {receiver!r}")
        seq = self._next_seq()
        self._log(seq, sender, receiver, msg, frame_size(msg.parts()))
        reply = role.receive(msg)
        if reply is not None:
            self._log(self._next_seq(), receiver, sender, reply, frame_size(reply.parts()))
        return reply


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf += chunk
    return bytes(buf)


def _read_frame_bytes(sock: socket.socket) -> bytes:
    head = _read_exact(sock, 4)
    (length,) = struct.unpack(">I", head)
    if length < FRAME_HEADER.size - 4 or length > MAX_FRAME:
        raise FramingError(f"implausible frame length {length}")
    return head + _read_exact(sock, length)


class TcpChannel(BaseChannel):
    """Framed TCP loopback: one listener thread per role; each delivered
    frame is answered on the same connection (a protocol response or a
    transport acknowledgement)."""

    def __init__(self, session_id: bytes, roles: dict[str, Role], host: str = "127.0.0.1") -> None:
        super().__init__(session_id)
        self._roles = roles
        self._host = host
        self._ports: dict[str, int] = {}
        self._servers: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        for name, role in roles.items():
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, 0))
            srv.listen(16)
            self._ports[name] = srv.getsockname()[1]
            self._servers.append(srv)
            th = threading.Thread(
                target=self._serve, args=(srv, role), name=f"role-{name}", daemon=True
            )
            th.start()
            self._threads.append(th)

    def _serve(self, srv: socket.socket, role: Role) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            if self._stop.is_set():
                conn.close()
                return
            try:
                with conn:
                    raw = _read_frame_bytes(conn)
                    msg, session, _seq = parse_frame(raw)
                    if session != self.session_id:
                        raise ProtocolError("frame for a different session")
                    try:
                        reply = role.receive(msg)
                    except Exception as exc:  # noqa: BLE001
                        reply = ErrorReply(detail=f"{type(exc).__name__}: {exc}")
                    out = Ack() if reply is None else reply
                    conn.sendall(pack_frame(out, self.session_id, 0))
            except Exception:  # noqa: BLE001
                # Malformed input or a lost connection: drop this connection
                # (the sender aborts) and keep serving the next one.
                logger.warning("%s dropped a connection", role.name, exc_info=True)

    def send(self, sender: str, receiver: str, msg: Message) -> Message | None:
        port = self._ports.get(receiver)
        if port is None:
            raise TransportError(f"no such role {receiver!r}")
        seq = self._next_seq()
        frame = pack_frame(msg, self.session_id, seq)
        try:
            with socket.create_connection((self._host, port), timeout=30) as sock:
                sock.sendall(frame)
                raw = _read_frame_bytes(sock)
        except (OSError, TransportError) as exc:
            raise TransportError(f"session aborted talking to {receiver}: {exc}") from exc
        self._log(seq, sender, receiver, msg, len(frame))
        reply, session, _ = parse_frame(raw)
        if session != self.session_id:
            raise TransportError("response from a different session")
        if isinstance(reply, ErrorReply):
            raise ProtocolError(f"{receiver} rejected {msg.type_name}: {reply.detail}")
        if isinstance(reply, Ack):
            return None
        # A frame's length does not depend on its sequence number.
        self._log(self._next_seq(), receiver, sender, reply, len(raw))
        return reply

    def close(self) -> None:
        self._stop.set()
        for srv in self._servers:
            try:
                srv.shutdown(socket.SHUT_RDWR)  # unblocks a thread in accept()
            except OSError:
                pass
            try:
                srv.close()
            except OSError:
                pass
        for th in self._threads:
            th.join(timeout=2)


def make_channel(
    transport: str, session_id: bytes, roles: dict[str, Role]
) -> BaseChannel:
    if transport == "inproc":
        return InprocChannel(session_id, roles)
    if transport == "tcp":
        return TcpChannel(session_id, roles)
    raise ProtocolError(f"unknown transport {transport!r}")
