"""TCP loopback transport: equivalence with in-process, framing failures."""

import errno
import socket
import struct

import pytest

from mpcmarket.protocol import LdComputation, Query
from mpcmarket.protocol.channels import (
    InprocChannel,
    TcpChannel,
    TransportError,
    _read_frame_bytes,
)
from mpcmarket.protocol.messages import (
    FRAME_HEADER,
    Ack,
    DecryptRequest,
    DeltaKeyDist,
    EncryptedListing,
    ErrorReply,
    FramingError,
    GarbledCircuitMsg,
    InputLabels,
    ListingBundle,
    OutputDecoding,
    OutputLabels,
    PublicKeyDist,
    Result,
    pack_frame,
    parse_frame,
)
from mpcmarket.protocol.runner import run_protocol1, run_protocol2

from helpers import endpoint

LD_SPLIT = [{"i0.n_AB": 30}, {"i0.n_Ab": 20}, {"i0.n_aB": 20}, {"i0.n_ab": 30}]


def _strip_ts(transcript):
    return [(e.seq, e.sender, e.receiver, e.type_name, e.n_bytes) for e in transcript.entries]


class TestTransportEquivalence:
    def test_protocol2_ld(self):
        comp = LdComputation(count_bits=11, m_instances=1)
        a = run_protocol2(comp, LD_SPLIT, transport="inproc", seed=42)
        b = run_protocol2(comp, LD_SPLIT, transport="tcp", seed=42)
        assert a.result == b.result
        assert _strip_ts(a.transcript) == _strip_ts(b.transcript)

    def test_protocol1_ld(self, params8192):
        comp = LdComputation(count_bits=11, m_instances=1)
        a = run_protocol1(comp, LD_SPLIT, params8192, transport="inproc", seed=43)
        b = run_protocol1(comp, LD_SPLIT, params8192, transport="tcp", seed=43)
        assert a.result == b.result
        assert _strip_ts(a.transcript) == _strip_ts(b.transcript)


class _EchoRole:
    def __init__(self) -> None:
        self.name = "echo"
        self.count = 0

    def receive(self, msg):
        self.count += 1
        return None


class TestFraming:
    def test_truncated_frame_aborts_session(self):
        role = _EchoRole()
        with TcpChannel(b"S" * 16, {"echo": role}) as ch:
            host, port = endpoint(ch, "echo")
            with socket.create_connection((host, port)) as sock:
                sock.sendall(struct.pack(">I", 100) + b"\x03")  # header lies
                sock.shutdown(socket.SHUT_WR)
                # server drops the connection without a response
                assert sock.recv(64) == b""
            # channel still works for well-formed traffic afterwards
            assert ch.send("x", "echo", Query()) is None
        assert role.count == 1

    def test_garbage_length_prefix_rejected(self):
        role = _EchoRole()
        with TcpChannel(b"T" * 16, {"echo": role}) as ch:
            host, port = endpoint(ch, "echo")
            with socket.create_connection((host, port)) as sock:
                sock.sendall(b"\xff\xff\xff\xff garbage")
                try:
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(64) == b""
                except OSError as exc:
                    # Dropped with RST, or already gone by the time of our own
                    # shutdown (ENOTCONN): equally an abort.
                    if exc.errno not in (errno.ECONNRESET, errno.ENOTCONN):
                        raise
        assert role.count == 0

    def test_send_to_dead_port_is_transport_error(self):
        role = _EchoRole()
        ch = TcpChannel(b"U" * 16, {"echo": role})
        ch.close()
        with pytest.raises(TransportError):
            ch.send("x", "echo", Query())

    def test_wrong_session_id_rejected(self):
        role = _EchoRole()
        with TcpChannel(b"V" * 16, {"echo": role}) as ch:
            host, port = endpoint(ch, "echo")
            frame = pack_frame(Query(), b"W" * 16, 1)
            with socket.create_connection((host, port)) as sock:
                sock.sendall(frame)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(64) == b""
        assert role.count == 0

    def test_thousand_message_session_sequences_increase(self):
        role = _EchoRole()
        with TcpChannel(b"X" * 16, {"echo": role}) as ch:
            for _ in range(1000):
                ch.send("driver", "echo", Query())
            seqs = [e.seq for e in ch.transcript.entries]
        assert len(seqs) == 1000
        assert seqs == sorted(seqs) and len(set(seqs)) == 1000

    def test_frame_round_trip(self):
        msg = Query()
        frame = pack_frame(msg, b"Z" * 16, 9)
        back, session, seq = parse_frame(frame)
        assert back == msg and session == b"Z" * 16 and seq == 9

    def test_listener_survives_malformed_payloads(self):
        role = _EchoRole()
        session = b"M" * 16
        bad = [
            (ListingBundle.TYPE, b"\x00\x00\x00"),
            (Result.TYPE, b"\x00\x00\x00\x02\xff\xfe"),
        ]
        with TcpChannel(session, {"echo": role}) as ch:
            host, port = endpoint(ch, "echo")
            for mtype, payload in bad:
                frame = FRAME_HEADER.pack(21 + len(payload), mtype, session, 1) + payload
                with socket.create_connection((host, port), timeout=10) as sock:
                    sock.sendall(frame)
                    try:
                        sock.shutdown(socket.SHUT_WR)
                        assert sock.recv(64) == b""
                    except OSError as exc:
                        if exc.errno not in (errno.ECONNRESET, errno.ENOTCONN):
                            raise
            assert ch.send("x", "echo", Query()) is None
        assert role.count == 1

    def test_ack_frames_not_logged(self):
        role = _EchoRole()
        with TcpChannel(b"Y" * 16, {"echo": role}) as ch:
            ch.send("driver", "echo", Query())
            assert [e.type_name for e in ch.transcript.entries] == ["Query"]


class TestExactLengthDecoders:
    MESSAGES = [
        InputLabels(labels=((5, (1 << 128) - 1), (6, 7), (9, 1 << 100))),
        OutputLabels(labels=(3, (1 << 127) + 1, 0)),
        GarbledCircuitMsg(garbled=b"tables" * 5),
        Ack(),
        ErrorReply(detail="ValueError: b\u00e4d"),
        PublicKeyDist(pk=b"pk" * 4, rk=b""),
        EncryptedListing(maker=1, entries=(("7:n_AB", b"ct" * 3), ("7:n_Ab", b""))),
        Query(),
        ListingBundle(
            ciphertexts=((0, "7:n_AB", b"ct" * 3), (2, "", b"x")),
            labels=((1, (1 << 128) - 1), (2, 3)),
        ),
        DecryptRequest(entries=(("lhs:7", b"blob"), ("rhs:7", b""))),
        Result(payload_json='{"decisions": [true, false]}'),
        DeltaKeyDist(delta=bytes(range(16)), prf_key=bytes(range(16, 32))),
        OutputDecoding(bits=(1, 0, 1, 1, 0, 0, 0, 1, 1)),
    ]

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.type_name)
    def test_round_trip(self, msg):
        assert type(msg).decode(msg.encode()) == msg

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.type_name)
    def test_inproc_logs_the_frame_length(self, msg):
        class Sink:
            name = "sink"

            def receive(self, m):
                return None

        session = b"F" * 16
        ch = InprocChannel(session, {"sink": Sink()})
        ch.send("x", "sink", msg)
        (entry,) = ch.transcript.entries
        assert entry.n_bytes == len(pack_frame(msg, session, entry.seq))
        assert pack_frame(msg, session, 1)[FRAME_HEADER.size :] == msg.encode()

    def test_output_decoding_padding_bits_rejected(self):
        assert OutputDecoding.decode(b"\x00\x00\x00\x01\x01") == OutputDecoding(bits=(1,))
        with pytest.raises(FramingError):
            OutputDecoding.decode(b"\x00\x00\x00\x01\xff")

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.type_name)
    def test_every_truncation_and_a_trailing_byte_rejected(self, msg):
        payload = msg.encode()
        for cut in range(len(payload)):
            with pytest.raises(FramingError):
                type(msg).decode(payload[:cut])
        with pytest.raises(FramingError):
            type(msg).decode(payload + b"\x00")
