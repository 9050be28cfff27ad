"""Fixed-seed sessions keep their bytes.

Each session below runs under a fixed seed and pins its result, its message
type sequence and the SHA-256 of every frame its channel logs: the frame
``pack_frame(msg, session_id, seq)`` that carries the message over TCP (the
in-process channel builds none, so the test packs it). A change that moves
any byte of a protocol message, a key or a ciphertext fails here; a change
that should move bytes re-records the digests of the sessions it touches.

The P1 digests were re-recorded for key version 3, whose public and
relinearization keys carry a 32-byte seed in place of their uniform halves:
every frame that holds a key or a ciphertext moved, and the Query and
Result frames, the results, the type sequences and every P2 digest did not.

They were re-recorded again for ciphertext version 4, when the buyer began
to modulus-switch its outputs to the plan's fewest primes. The
DecryptRequest frames moved and shrank. Each EncryptedListing and
ListingBundle frame is the previous frame with every ciphertext's version
byte raised from 3 to 4. Every other frame, the results, the type
sequences and every P2 digest did not move.

The p2-ld digests were re-recorded when the LD circuit's products moved to
column addition, a dedicated squarer and signed-digit constants. Its
GarbledCircuitMsg and OutputLabels frames moved, as the circuit did. Every
other frame, the results, the type sequences and every P1 and p2-lr-tcp
digest did not move.

The p1-lr digests were re-recorded when the HE plan began to choose the
session's key prefix of q: LR's keys, listings and output now hold 3 of
the 4 default primes at n = 4096. Its PublicKeyDist, EncryptedListing and
ListingBundle frames shrank by a quarter of their rows; its DecryptRequest
kept its size (the output held 3 primes before, after a switch) and moved
with the parameter hash. The Query and Result frames, the result, the type
sequence and every p1-ld, p2-ld and p2-lr-tcp digest did not move.

The p1-ld DecryptRequest digest was re-recorded when P1 products began to
settle to fewer primes and the LD circuit to relinearize a*b - c*d once:
its output ciphertexts are computed along another path (fused products,
lower levels) and carry other residues and noise fields, at the same 2
primes and the same size. Every other frame, the result, the type
sequences and every p1-lr, p2-ld and p2-lr-tcp digest did not move.

The p1-ld and p1-lr digests were re-recorded for ciphertext version 5 and
key version 4, which pack every residue in the bit length of its blob's
largest prime (30 bits for p1-ld, 27 for p1-lr) instead of a uint32, and
send keys in the transform domain. Every PublicKeyDist, EncryptedListing,
ListingBundle and DecryptRequest frame moved and shrank; each key and
ciphertext in them decodes to the same residues, t and noise field as
before. The Query and Result frames, the results, the type sequences and
every P2 digest did not move.

The p1-lr DecryptRequest digest was re-recorded when the buyer began to
send a plan that is not batched its outputs in the constant-term form
(magic HECX: c0's coefficient 0 and all of c1), with no mask. The frame
shrank from 83,027 to 41,582 B. Its ciphertext holds the same c1 and the
same c0 coefficient 0 as before, since the mask touched neither; only the
noise field moved, by the mask's plaintext add it no longer counts. The
other p1-lr frames, the result, the type sequence and every p1-ld, p2-ld
and p2-lr-tcp digest did not move.

The p1-ld PublicKeyDist and DecryptRequest digests were re-recorded for
relinearization key version 5, hybrid key switching: the key holds 3
digits of two primes, each of 7 rows under q's 6 primes and the special
prime P, instead of 6 one-prime digits of 6 rows. The PublicKeyDist frame
shrank from 1,290,373 to 829,573 B, its public key unchanged. The
DecryptRequest kept its 368,822 B: its outputs hold the same 2 primes but
were relinearized with the new key, so their residues and noise fields
moved. The EncryptedListing, ListingBundle, Query and Result frames, the
result, the type sequence and every p1-lr, p2-ld and p2-lr-tcp digest did
not move.

The p2-ld and p2-lr-tcp digests were re-recorded when a NOT became an XOR
with the constant-one wire and the CSP began to take delta straight from
its generator and the constant wires' zero labels from PRF(k, wire), as
the inputs' are. The circuits keep every gate count and level, but their
gate rows, and so their digests and tables, moved. The DeltaKeyDist,
InputLabels, ListingBundle, GarbledCircuitMsg and OutputLabels frames
moved at the same sizes. The Query and OutputDecoding frames, the results,
the type sequences and every p1 digest did not move.

The p1-ld and p1-lr digests were re-recorded when the fresh noise
estimate began to count t, the plaintext-add rule's bound, so that it
bounds a negative plaintext's noise too. Every EncryptedListing and
ListingBundle frame moved only in its ciphertexts' 8-byte noise fields,
and so did the p1-lr DecryptRequest. In p1-ld, whose inputs are one
share each, the last product now settles to 2 primes instead of 3, so
the plaintext add after it runs under 2 primes and no switch follows:
each output moved in its noise field and in c0's coefficient 0 (a
constant add touches no other coefficient), at the same size. The
PublicKeyDist, Query and Result frames, the results, the type sequences
and every P2 digest did not move.
"""

import hashlib

import pytest

from mpcmarket.he.bfv import HeParams
from mpcmarket.protocol import (
    LdComputation,
    LrComputation,
    channels,
    run_protocol1,
    run_protocol2,
)
from mpcmarket.protocol.messages import pack_frame

from helpers import type_sequence

# Two LD instances, one deciding True and one at equilibrium; each of four
# makers holds one count of both.
LD_COUNTS = [(30, 20, 20, 30), (25, 25, 25, 25)]
LD_MAKERS = [
    {f"i{i}.{name}": counts[j] for i, counts in enumerate(LD_COUNTS)}
    for j, name in enumerate(("n_AB", "n_Ab", "n_aB", "n_ab"))
]
LD_RESULT = {"decisions": [True, False]}
LR_RESULT = {"probability_fixed": 720159, "probability": 0.0003353501670062542}

P1_LD_TYPES = (
    ["PublicKeyDist"] + ["EncryptedListing"] * 4
    + ["Query", "ListingBundle", "DecryptRequest", "Result"]
)
P1_LR_TYPES = [
    "PublicKeyDist", "EncryptedListing", "Query", "ListingBundle", "DecryptRequest", "Result"
]
P2_LD_TYPES = (
    ["DeltaKeyDist"] * 4 + ["InputLabels"] * 4
    + ["Query", "ListingBundle", "GarbledCircuitMsg", "OutputLabels", "OutputDecoding"]
)
P2_LR_TYPES = [
    "DeltaKeyDist", "InputLabels", "Query", "ListingBundle", "GarbledCircuitMsg",
    "OutputLabels", "OutputDecoding",
]

FRAMES = {
    "p1-ld": [
        "62fda153bbc113c08646754158e74f937549090f53ee16077b1d8ce2706d0fba",
        "a20b7a9d47d59c343f6d1b82b75c6bd02ba08081705ee3a6edfc297b3dec47e6",
        "ead902e9a7c3e2041615b402af247cb8a3cdbeb7e5af6653006dfcf63ae42fb6",
        "31117764089cbedb8c2c01199da04ca584215679b6a1f22361fc2410cf6958e3",
        "b45e09d932f59cd7094a186d7f08a06e64279017036c95b017396d4503d1d030",
        "554eae367d3b46bc2e731b1c25a0284b7d17a6d0ba30da605de3a26a29fe09ce",
        "dac5d1c1e040d636fcf86085f87d41dff898846ca507630c58e830ff18f6179c",
        "d2be17414ea8f05efc0698425a26683616a36e982e42111fadca932ac1b26d57",
        "d82c07798b87d00629b069a01e6dcfd3ecc22cda4d974cc62d4f40ed3a3337d9",
    ],
    "p1-lr": [
        "f20a651bbfe417d8f1d4d0660c7a18fa1edcb0e4175084a5f5c5865776613f78",
        "7e66d4db505fa2e1a671c942d6cb64766c44a1af43bed5302dba06710b12f90b",
        "2155d60f20f95f278f1da51e578eaea9dfdb69c3470a752c556f94a711157c79",
        "c311075fe2aa8a37a4425cba65a257a7ccf83c8f0bb377d2077beb326ce55b49",
        "48a663cc9b877753d69252efc3315f4630056d78721e10b9448dbb6923cd8c3e",
        "065a7fc87398666be98326193c89e12dee1aba1f1d0c83808ab9db03e633ebfb",
    ],
    "p2-ld": [
        "a4381e6bdbd4fa36f26c6b88bc8ecc8dd70e48a71d393c2a93ec464d7bd12252",
        "479eea3b4dc8d7cf83045191aaf790b8ca7649729160d6db37f694315b41159a",
        "480e62fd1d2290e2c293959fea149684b15f8f248b780d474bc58f97b454d01a",
        "e53f166527f495aae9773044767e151c4ec94e170615e6e3b29e6f863d0738be",
        "3669d8483c597cb74409d8d71cc4768f1c48acd9dd9dfb41691899161c7ec30e",
        "cad3fc94051fbcf4442a928ed8a4db83875196309d6d66f53c71af79da8adfe8",
        "592aef067e5e11299d75336367adc7b3c5090a65c5ce9490cfaff99eaef97dba",
        "abf6761f788f5c84e9e05fae76fc2b1cfc834c392b5ada7d8adf4b9cb6f831e4",
        "88a7b7c9db483d166a6119c5c7e6a2df222f5763ccfefa5ba27fe6f4c764e724",
        "0f8f02a02d4b495df3ee5b08c89e8f5e529ce3752f8bef90431dc66b1cb6e346",
        "e880857cfaf43f72698992042d1266af9f9231324a706bd788c12a49c8130fba",
        "be4bd847529f5a667ad55173cc4f64e30f3960d73fa21265762d283f6fd96bcc",
        "dd580c87cd80317ece5b69b05f4bb3a096f675879c9c961534c4bf1ad8b0b099",
    ],
    "p2-lr-tcp": [
        "af9e9dc4519954c401b0c0afed74c8c681e476e166a766e1b55ddba1b38e75db",
        "ed769c05608c56c2d7f6d1979fb7bcedc6bf76b7513f9a25a49de398b0090593",
        "26cda3fbedf6e4d3e1e83060291e6fe48fa1185833dceb51d47916a3faf6c38b",
        "f6c9cbb3f279eab76f3e69d5e0c37b7ccab35bd4a80b4640fc8c7e762da5e2a0",
        "e3bf5ad8856ed10286f390680f9ac290bd3ed139d05ce6d3c9c31147be69bd4d",
        "d143a1377b311bdd82cfc66a4dd2f96e6dd1f9c9c9207aea2fbbc5cf73281352",
        "1605e475e9f37780e119aa1e92d197e88baa2cecb2d5aa07adb1145858d15d7c",
    ],
}


@pytest.fixture(scope="module")
def lr_row(bundled_model, bundled_dataset):
    rows, _ = bundled_dataset
    mask = (1 << bundled_model.spec.total_bits) - 1
    return {f"x{j}": v & mask for j, v in enumerate(rows[0])}


def _sessions(bundled_model, lr_row):
    ld = LdComputation(count_bits=11, m_instances=2)
    lr = LrComputation(model=bundled_model, range_bits=10)
    return {
        "p1-ld": (lambda: run_protocol1(ld, LD_MAKERS, HeParams.default(8192, 21), seed=91),
                  LD_RESULT, P1_LD_TYPES),
        "p1-lr": (lambda: run_protocol1(lr, [lr_row], HeParams.default(4096), seed=92),
                  LR_RESULT, P1_LR_TYPES),
        "p2-ld": (lambda: run_protocol2(ld, LD_MAKERS, seed=93), LD_RESULT, P2_LD_TYPES),
        "p2-lr-tcp": (lambda: run_protocol2(lr, [lr_row], transport="tcp", seed=94),
                      LR_RESULT, P2_LR_TYPES),
    }


def frame_digests(run, monkeypatch) -> tuple[object, list[str]]:
    """Run one session; return its outcome and the SHA-256 of each logged frame."""
    digests = []
    log = channels.BaseChannel._log

    def spy(self, seq, sender, receiver, msg, n_bytes):
        digests.append(hashlib.sha256(pack_frame(msg, self.session_id, seq)).hexdigest())
        log(self, seq, sender, receiver, msg, n_bytes)

    monkeypatch.setattr(channels.BaseChannel, "_log", spy)
    return run(), digests


@pytest.mark.parametrize("name", list(FRAMES))
def test_fixed_seed_session_bytes(name, monkeypatch, bundled_model, lr_row):
    run, result, types = _sessions(bundled_model, lr_row)[name]
    outcome, digests = frame_digests(run, monkeypatch)
    assert outcome.result == result
    assert type_sequence(outcome.transcript) == types
    assert digests == FRAMES[name]
