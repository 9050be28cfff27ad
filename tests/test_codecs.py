"""Property tests for every decoder of untrusted bytes: frames, garbled
tables, BFV keys and ciphertexts (whole and constant-term).

Each codec round-trips, and a flipped byte, a truncation or an insertion
either raises the codec's own error or decodes to a value that encodes back
to exactly the mutated bytes. Any other exception is a decoder bug.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmarket import garbling as gb
from mpcmarket.he import bfv
from mpcmarket.protocol.messages import (
    MESSAGE_TYPES,
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
    Query,
    Result,
    pack_frame,
    parse_frame,
)

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def mutations(draw, data: bytes, head: int) -> list[bytes]:
    """What one example checks: each of the first ``head`` bytes (where the
    lengths, types and versions are) flipped by one drawn mask, the buffer
    cut at each of those offsets, and a flip, a cut and an insertion at
    drawn offsets anywhere."""
    mask = draw(st.integers(1, 255))
    at, cut, into = (draw(st.integers(0, len(data) - 1)) for _ in range(3))
    extra = draw(st.binary(min_size=1, max_size=9))

    def flip(i: int) -> bytes:
        return data[:i] + bytes([data[i] ^ mask]) + data[i + 1 :]

    head = min(head, len(data))
    return [
        *map(flip, range(head)), *(data[:i] for i in range(head)),
        flip(at), data[:cut], data[:into] + extra + data[into:],
    ]


def check_mutations(decode, encode, error, mutated: list[bytes]) -> None:
    """Each mutated buffer raises ``error`` or decodes to a value that
    encodes back to exactly that buffer."""
    for data in mutated:
        try:
            value = decode(data)
        except error:
            continue
        assert encode(value) == data


# -- frames ---------------------------------------------------------------------

_u16, _u32 = st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1)
_text, _blob = st.text(max_size=6), st.binary(max_size=12)
_label = st.integers(0, 2**128 - 1)
_labels = st.lists(st.tuples(_u32, _label), max_size=3).map(tuple)
_entries = st.lists(st.tuples(_text, _blob), max_size=3).map(tuple)

MESSAGES = {
    Ack: st.builds(Ack),
    ErrorReply: st.builds(ErrorReply, _text),
    PublicKeyDist: st.builds(PublicKeyDist, _blob, _blob),
    EncryptedListing: st.builds(EncryptedListing, _u16, _entries),
    Query: st.builds(Query),
    ListingBundle: st.builds(
        ListingBundle, st.lists(st.tuples(_u16, _text, _blob), max_size=3).map(tuple), _labels
    ),
    DecryptRequest: st.builds(DecryptRequest, _entries),
    Result: st.builds(Result, _text),
    DeltaKeyDist: st.builds(DeltaKeyDist, st.binary(min_size=16, max_size=16),
                            st.binary(min_size=16, max_size=16)),
    InputLabels: st.builds(InputLabels, _labels),
    GarbledCircuitMsg: st.builds(GarbledCircuitMsg, _blob),
    OutputLabels: st.builds(OutputLabels, st.lists(_label, max_size=3).map(tuple)),
    OutputDecoding: st.builds(OutputDecoding, st.lists(st.integers(0, 1), max_size=20).map(tuple)),
}


def test_every_frame_type_has_a_strategy():
    assert set(MESSAGES) == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
@PROPERTY
@given(data=st.data(), session=st.binary(min_size=16, max_size=16), seq=_u32)
def test_frame_round_trip_and_mutations(cls, data, session, seq):
    msg = data.draw(MESSAGES[cls])
    frame = pack_frame(msg, session, seq)
    assert parse_frame(frame) == (msg, session, seq)
    bad = data.draw(mutations(frame, head=len(frame)))
    check_mutations(parse_frame, lambda parsed: pack_frame(*parsed), FramingError, bad)


# -- garbled tables ---------------------------------------------------------------

_garbled = st.integers(0, 3).flatmap(
    lambda n_and: st.builds(
        gb.GarbledCircuit,
        st.binary(min_size=32, max_size=32),
        st.just(n_and),
        st.binary(min_size=32 * n_and, max_size=32 * n_and),
        _label,
        _label,
    )
)


@PROPERTY
@given(data=st.data(), garbled=_garbled)
def test_garbled_round_trip_and_mutations(data, garbled):
    blob = gb.serialize_garbled(garbled)
    assert gb.parse_garbled(blob) == garbled
    bad = data.draw(mutations(blob, head=len(blob)))
    check_mutations(gb.parse_garbled, gb.serialize_garbled, gb.GarblingError, bad)


# -- BFV keys and ciphertexts -------------------------------------------------------

CODECS = {
    "ciphertext": (bfv.ciphertext_from_bytes, bfv.ciphertext_to_bytes),
    "constant-term": (bfv.ciphertext_from_bytes, bfv.ciphertext_to_bytes),
    "public": (bfv.public_key_from_bytes, bfv.public_key_to_bytes),
    "relinearization": (bfv.relin_key_from_bytes, bfv.relin_key_to_bytes),
    "relinearization, odd K": (bfv.relin_key_from_bytes, bfv.relin_key_to_bytes),
}


@lru_cache(maxsize=1)
def _bfv_blobs():
    """Each blob and the parameters it decodes under. The odd-K key holds
    two digits, the second cut to one prime, and pairs of 4 rows."""
    params = bfv.HeParams.default(1024)
    _, pk, rk = bfv.keygen(params, seed=8)
    ct = bfv.encrypt(pk, bfv.encode_scalar(5, params), np.random.default_rng(8))
    odd = bfv.HeParams(1024, tuple(bfv.find_ntt_primes(27, 1024, 3)), params.t)
    values = {
        "ciphertext": (params, ct),
        "constant-term": (params, bfv.keep_constant(ct)),
        "public": (params, pk),
        "relinearization": (params, rk),
        "relinearization, odd K": (odd, bfv.keygen(odd, seed=8)[2]),
    }
    return {name: (p, CODECS[name][1](v)) for name, (p, v) in values.items()}


@pytest.mark.parametrize("name", CODECS)
@PROPERTY
@given(data=st.data())
def test_bfv_blob_round_trip_and_mutations(name, data):
    params, blob = _bfv_blobs()[name]
    decode, encode = CODECS[name]
    assert encode(decode(blob, params)) == blob
    bad = data.draw(mutations(blob, head=64))
    check_mutations(lambda b: decode(b, params), encode, bfv.HeParamsError, bad)
