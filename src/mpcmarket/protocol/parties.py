"""Role state machines: CSP, datatrust, makers, buyers.

Each role consumes an ordered message stream via ``receive`` and exposes
local actions that produce the messages it originates. State hygiene is
structural: the datatrust accepts only ciphertext/label-bearing types;
makers never hold the secret key; only the CSP ever holds sk, delta, or
the label-derivation key.
"""

from __future__ import annotations

import json
import time
from typing import Mapping

import numpy as np

from .. import garbling as gb
from ..circuits.ir import Circuit
from ..he import bfv
from ..he.bfv import HeParams
from .computations import Computation
from .messages import (
    DecryptRequest,
    DeltaKeyDist,
    EncryptedListing,
    GarbledCircuitMsg,
    InputLabels,
    ListingBundle,
    Message,
    OutputDecoding,
    OutputLabels,
    ProtocolError,
    PublicKeyDist,
    Query,
    Result,
)


class DataTrust:
    """Stores protected listings; never sees plaintext, sk, delta, or k.

    The accepted message set has no plaintext-bearing variant, which is the
    structural form of that guarantee.
    """

    def __init__(self) -> None:
        self.name = "datatrust"
        self.listings: list[EncryptedListing] = []
        self.labels: dict[int, int] = {}

    def receive(self, msg: Message) -> Message | None:
        if isinstance(msg, PublicKeyDist):
            return None  # accepted, not stored: no datatrust step reads it
        if isinstance(msg, EncryptedListing):
            self.listings.append(msg)
            return None
        if isinstance(msg, InputLabels):
            for wire, label in msg.labels:
                if wire in self.labels:
                    raise ProtocolError(f"duplicate label submission for wire {wire}")
                self.labels[wire] = label
            return None
        if isinstance(msg, Query):
            if self.labels:
                return ListingBundle(labels=tuple(sorted(self.labels.items())))
            cts = tuple(
                (listing.maker, name, blob)
                for listing in self.listings
                for name, blob in listing.entries
            )
            return ListingBundle(ciphertexts=cts)
        raise ProtocolError(f"datatrust cannot accept {msg.type_name}")


class Csp:
    """Crypto service provider: key generation, garbling, final decryption."""

    def __init__(self, computation: Computation, seed: int) -> None:
        self.name = "csp"
        self.computation = computation
        self._rng = np.random.default_rng(seed)
        self.timings: dict[str, float] = {}
        # Protocol 1 state
        self._sk = None
        self._plan = None
        # Protocol 2 state
        self._delta: gb.GlobalDelta | None = None
        self._prf_key: bytes | None = None
        self._const_seed: bytes | None = None
        self._decoding: gb.DecodingInfo | None = None

    # -- Protocol 1 ----------------------------------------------------------

    def he_setup(self, params: HeParams, makers: int) -> PublicKeyDist:
        """Validate the plan for the session's number of makers, then
        generate keys. The relinearization key is built and shipped only
        for circuits that multiply ciphertexts; otherwise ``rk`` is empty."""
        self._plan = self.computation.he_plan(params, makers)
        seed = int(self._rng.integers(0, 2**63, dtype=np.int64))
        self._sk, pk, rk = bfv.keygen(params, seed, relin=self._plan.relin)
        return PublicKeyDist(
            pk=bfv.public_key_to_bytes(pk),
            rk=b"" if rk is None else bfv.relin_key_to_bytes(rk),
        )

    # -- Protocol 2 ----------------------------------------------------------

    def gc_setup(self) -> DeltaKeyDist:
        delta_seed = self._rng.bytes(16)
        self._delta = gb.derive_delta(delta_seed)
        self._prf_key = self._rng.bytes(16)
        self._const_seed = self._rng.bytes(16)
        return DeltaKeyDist(
            delta=self._delta.bits.to_bytes(16, "big"), prf_key=self._prf_key
        )

    def make_garbled(self) -> GarbledCircuitMsg:
        if self._delta is None or self._prf_key is None or self._const_seed is None:
            raise ProtocolError("gc_setup must run before garbling")
        circuit = self.computation.circuit
        const_source = gb.seeded_label_source(self._const_seed, domain=2)
        n_inputs = circuit.n_inputs
        input_zero = gb.derive_input_labels(self._prf_key, n_inputs)

        def zero_label(wire: int) -> int:
            if wire < n_inputs:
                return input_zero[wire]
            return const_source(wire)

        t0 = time.perf_counter()
        garbled, decoding = gb.garble(circuit, self._delta, zero_label)
        self.timings["garble_s"] = time.perf_counter() - t0
        self._decoding = decoding
        return GarbledCircuitMsg(garbled=gb.serialize_garbled(garbled))

    # -- message handling ------------------------------------------------------

    def receive(self, msg: Message) -> Message | None:
        if isinstance(msg, DecryptRequest):
            if self._sk is None:
                raise ProtocolError("CSP has no secret key for this session")
            result = self.computation.he_finish(self._sk, self._plan, msg.entries)
            return Result(payload_json=json.dumps(result, sort_keys=True))
        if isinstance(msg, OutputLabels):
            if self._decoding is None:
                raise ProtocolError("CSP has not garbled a circuit in this session")
            bits = gb.decode(self._decoding, list(msg.labels))
            return OutputDecoding(bits=tuple(bits))
        raise ProtocolError(f"CSP cannot accept {msg.type_name}")


class Maker:
    """A data contributor; owns a subset of the circuit's input groups."""

    def __init__(
        self,
        index: int,
        computation: Computation,
        values: Mapping[str, int],
        seed: int,
    ) -> None:
        self.name = f"maker{index}"
        self.index = index
        self.computation = computation
        self.values = dict(values)
        self._rng = np.random.default_rng(seed)
        self._delta: int | None = None
        self._prf_key: bytes | None = None

    # -- Protocol 1 ----------------------------------------------------------

    def make_encrypted_listing(
        self, params: HeParams, bundle: PublicKeyDist
    ) -> EncryptedListing:
        pk = bfv.public_key_from_bytes(bundle.pk, params)
        plan = self.computation.he_plan(params)
        entries = self.computation.he_encrypt_inputs(pk, plan, self.values, self._rng)
        return EncryptedListing(maker=self.index, entries=tuple(entries))

    # -- Protocol 2 ----------------------------------------------------------

    def receive(self, msg: Message) -> Message | None:
        if isinstance(msg, DeltaKeyDist):
            self._delta = int.from_bytes(msg.delta, "big")
            self._prf_key = msg.prf_key
            return None
        raise ProtocolError(f"maker cannot accept {msg.type_name}")

    def make_input_labels(self) -> InputLabels:
        """Active labels for the maker's own bits: PRF(k, wire) ^ bit*delta,
        negative values in two's complement. The runner has checked the
        values against the input schema. No oblivious transfer anywhere in
        this exchange."""
        if self._delta is None or self._prf_key is None:
            raise ProtocolError("maker has not received delta and k")
        circuit: Circuit = self.computation.circuit
        zero = gb.derive_input_labels(self._prf_key, circuit.n_inputs)
        labels = gb.active_input_labels(
            self._delta, zero.__getitem__, circuit.input_bits(self.values)
        )
        return InputLabels(labels=tuple(labels))


class Buyer:
    """Queries the datatrust and drives the computation on protected data."""

    def __init__(self, index: int, computation: Computation, seed: int) -> None:
        self.name = f"buyer{index}"
        self.computation = computation
        self._rng = np.random.default_rng(seed)
        self.timings: dict[str, float] = {}
        self._garbled_msg: GarbledCircuitMsg | None = None
        self.result: dict | None = None

    # -- Protocol 1 ----------------------------------------------------------

    def make_decrypt_request(
        self,
        params: HeParams,
        bundle: PublicKeyDist,
        listings: ListingBundle,
    ) -> DecryptRequest:
        plan = self.computation.he_plan(params)
        rk = bfv.relin_key_from_bytes(bundle.rk, params) if plan.relin else None
        t0 = time.perf_counter()
        entries = self.computation.he_evaluate(params, rk, plan, listings.ciphertexts, self._rng)
        self.timings["evaluate_s"] = time.perf_counter() - t0
        return DecryptRequest(entries=tuple(entries))

    def accept_result(self, msg: Result) -> dict:
        self.result = msg.as_dict()
        return self.result

    # -- Protocol 2 ----------------------------------------------------------

    def receive(self, msg: Message) -> Message | None:
        if isinstance(msg, GarbledCircuitMsg):
            self._garbled_msg = msg
            return None
        raise ProtocolError(f"buyer cannot accept {msg.type_name}")

    def evaluate_garbled(self, listings: ListingBundle) -> OutputLabels:
        """Evaluate on the circuit of the session's computation; the tables'
        digest binds them to it (``gb.evaluate`` rejects a mismatch)."""
        if self._garbled_msg is None:
            raise ProtocolError("buyer has no garbled circuit")
        circuit: Circuit = self.computation.circuit
        garbled = gb.parse_garbled(self._garbled_msg.garbled)
        label_map = dict(listings.labels)
        if label_map.keys() != set(range(circuit.n_inputs)):
            raise ProtocolError(
                f"input labels are not exactly for wires 0..{circuit.n_inputs - 1}"
            )
        active = [label_map[i] for i in range(circuit.n_inputs)]
        t0 = time.perf_counter()
        outs = gb.evaluate(garbled, circuit, active)
        self.timings["evaluate_s"] = time.perf_counter() - t0
        return OutputLabels(labels=tuple(outs))

    def accept_decoding(self, msg: OutputDecoding) -> dict:
        self.result = self.computation.decode_output(list(msg.bits))
        return self.result
