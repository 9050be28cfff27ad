"""End-to-end choreography of Protocol 1 (HE) and Protocol 2 (GC).

The runner is the session conductor: it instantiates the four roles, moves
every protocol message through the selected channel (in-process or TCP
loopback), and verifies the buyer's result against the plaintext oracle.
Both protocols share the query/bundle steps; neither contains any
oblivious-transfer exchange.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..he.bfv import HeParams
from .channels import BaseChannel, Transcript, make_channel
from .computations import Computation
from .messages import ProtocolError
from .parties import Buyer, Csp, DataTrust, Maker


@dataclass
class ProtocolOutcome:
    result: dict
    oracle: dict | None
    transcript: Transcript
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.oracle is None or self.result == self.oracle


class VerificationError(AssertionError):
    """Buyer output disagreed with the plaintext oracle."""


def _session_id(seed: int, tag: bytes) -> bytes:
    return hashlib.sha256(tag + seed.to_bytes(8, "big", signed=True)).digest()[:16]


def _merge_inputs(
    computation: Computation, maker_inputs: Sequence[Mapping[str, int]]
) -> dict[str, int]:
    """Check that the makers' groups tile the computation's input schema,
    that every value is a bit pattern of its group's width (an integer in
    [0, 2^width), a signed value given in two's complement), and that the
    values keep the computation's promise."""
    merged: dict[str, int] = {}
    for values in maker_inputs:
        for name, value in values.items():
            if name in merged:
                raise ProtocolError(f"input group {name!r} claimed by two makers")
            merged[name] = value
    schema = computation.input_schema
    missing = schema.keys() - merged.keys()
    extra = merged.keys() - schema.keys()
    if missing or extra:
        raise ProtocolError(
            f"maker inputs do not tile the input groups; missing={sorted(missing)[:4]} "
            f"extra={sorted(extra)[:4]}"
        )
    for name, value in merged.items():
        if not 0 <= value < 1 << schema[name]:
            raise ProtocolError(f"value for {name} does not fit {schema[name]} bits")
    computation.check_promise(merged)
    return merged


def _run_session(
    computation: Computation,
    maker_inputs: Sequence[Mapping[str, int]],
    steps: Callable[[BaseChannel, Csp, DataTrust, list[Maker], Buyer], dict],
    tag: bytes,
    transport: str,
    seed: int,
    verify: bool,
) -> ProtocolOutcome:
    """Validate the inputs, set up the roles and the channel, run one
    protocol's message ``steps`` (which return the buyer's result), then
    check the result against the plaintext oracle."""
    if not maker_inputs:
        raise ProtocolError("need at least one maker")
    merged = _merge_inputs(computation, maker_inputs)

    csp = Csp(computation, seed=seed)
    dt = DataTrust()
    makers = [
        Maker(i, computation, values, seed=seed * 1009 + 31 * i + 1)
        for i, values in enumerate(maker_inputs)
    ]
    buyer = Buyer(0, computation)
    roles = {r.name: r for r in (csp, dt, buyer, *makers)}

    t_start = time.perf_counter()
    channel = make_channel(transport, _session_id(seed, tag), roles)
    try:
        result = steps(channel, csp, dt, makers, buyer)
    finally:
        channel.close()

    timings = {"total_s": time.perf_counter() - t_start}
    timings.update(csp.timings)
    timings.update(buyer.timings)
    outcome = ProtocolOutcome(
        result=result,
        oracle=computation.oracle(merged) if verify else None,
        transcript=channel.transcript,
        timings=timings,
    )
    if outcome.oracle is not None and outcome.result != outcome.oracle:
        raise VerificationError(
            f"buyer result {outcome.result} != plaintext oracle {outcome.oracle}"
        )
    return outcome


def run_protocol1(
    computation: Computation,
    maker_inputs: Sequence[Mapping[str, int]],
    params: HeParams,
    transport: str = "inproc",
    seed: int = 0,
    verify: bool = True,
) -> ProtocolOutcome:
    """Homomorphic-encryption path: CSP keygen, makers encrypt listings to the
    datatrust, the buyer computes on ciphertexts, the CSP decrypts."""

    def steps(channel, csp, dt, makers, buyer) -> dict:
        bundle = csp.he_setup(params, len(makers))
        channel.send(csp.name, dt.name, bundle)
        for maker in makers:
            channel.send(maker.name, dt.name, maker.make_encrypted_listing(params, bundle))
        listings = channel.send(buyer.name, dt.name, buyer.make_query())
        request = buyer.make_decrypt_request(params, bundle, listings)
        return buyer.accept_result(channel.send(buyer.name, csp.name, request))

    return _run_session(computation, maker_inputs, steps, b"p1", transport, seed, verify)


def run_protocol2(
    computation: Computation,
    maker_inputs: Sequence[Mapping[str, int]],
    transport: str = "inproc",
    seed: int = 0,
    verify: bool = True,
) -> ProtocolOutcome:
    """Garbled-circuit path: delta/k to makers, PRF-derived labels to the
    datatrust (no oblivious transfer), CSP garbles, buyer evaluates."""

    def steps(channel, csp, dt, makers, buyer) -> dict:
        delta_msg = csp.gc_setup()
        for maker in makers:
            channel.send(csp.name, maker.name, delta_msg)
        for maker in makers:
            channel.send(maker.name, dt.name, maker.make_input_labels())
        listings = channel.send(buyer.name, dt.name, buyer.make_query())
        channel.send(csp.name, buyer.name, csp.make_garbled())
        out_labels = buyer.evaluate_garbled(listings)
        decoding = channel.send(buyer.name, csp.name, out_labels)
        return buyer.accept_decoding(decoding)

    return _run_session(computation, maker_inputs, steps, b"p2", transport, seed, verify)


# Message types whose payloads could carry plaintext listings or secrets;
# the datatrust must never receive any of them (transcript-level check used
# by tests alongside the structural schema restriction in parties).
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
