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
        "b340cbc56ef8768544baa38a1a5a785a37acc47c78ec1ebc82962b0aab131412",
        "cc8b58e5691bb3fec446d5b16e154427f3b4d749f1fe6690f70ddb6c845f87de",
        "dde9ce793dc34789d880370f83fb9f4adfda1ce62fa3d5d4f16a551f1f131f09",
        "9561a71f0ff2a8bc5a2eed8227ce6fc4901e0f776b264a97ab07366bdefb5637",
        "554eae367d3b46bc2e731b1c25a0284b7d17a6d0ba30da605de3a26a29fe09ce",
        "07e260c3a3af462b850dd885f1aa884495f97be075b1a0b862171c4374d83919",
        "105c7b5078f53de3150f164a66911de8e2e4a317b7837efca18610c3ac3b58f2",
        "d82c07798b87d00629b069a01e6dcfd3ecc22cda4d974cc62d4f40ed3a3337d9",
    ],
    "p1-lr": [
        "f20a651bbfe417d8f1d4d0660c7a18fa1edcb0e4175084a5f5c5865776613f78",
        "d58cf6d55f9aca8f3a56fd1f05880fe39188c0a8e80cdc4f7a43a3639b18835b",
        "2155d60f20f95f278f1da51e578eaea9dfdb69c3470a752c556f94a711157c79",
        "a3406f2c67cbd1cf22bd38fd2d4ece19ffc544d9f2810a45aef8551695632b02",
        "ccb8ac83e5078c11c6af21f327dcc64f1b829db74fe5a9b2a45439ae37a921fa",
        "065a7fc87398666be98326193c89e12dee1aba1f1d0c83808ab9db03e633ebfb",
    ],
    "p2-ld": [
        "a192d4bf5428594e46633677a80d8d11264787d5cb53dd514c280062ed8ab734",
        "36e5caf6231a8d4d930d8f47615e150c51eb5975790ce934ce84dcd2d8e3dc08",
        "8554d9be11db2d3036b73e231a101acfa2407082a56787390fed88dd15e89e3d",
        "6dfe6972e794455c0156b1c780ba7c446cff3be5ead844fc6c731d0e500c49f7",
        "8b4c939cb9abb7c20836056b9254c7f02bc410c8d8a8dc55842b58836c5ced83",
        "16e5dcd83c99a930b772f22adc10d498a35325afe5707ea3b148602e113824ef",
        "0dffc51c914280bf58fbb2c4fd5211b300f015e5f19c93e1e94431c49e486565",
        "6b0c89f1dff863e924d549231a77975081e6a0fdbf23343839486440407db66e",
        "88a7b7c9db483d166a6119c5c7e6a2df222f5763ccfefa5ba27fe6f4c764e724",
        "18b470913434db7b2bb3b6cf7cd38547f43ff92f686fcf08196bc469eb054125",
        "74e426662e2d5ab1c0f4155af98c1ae085e0d3ddb011eb330f714d96436b8962",
        "b308e336729be99b45219c59dad83960c1edd59d2cb11b594a410dbecab8af7e",
        "dd580c87cd80317ece5b69b05f4bb3a096f675879c9c961534c4bf1ad8b0b099",
    ],
    "p2-lr-tcp": [
        "f3c2221f314fb2e1631a19fd237cd5df89bb13c1892de2f0957844e9d2e5087b",
        "f4a89871f9c2065d6c49360b0a4982dca47cb252b6f7922141da9f4ea503adda",
        "26cda3fbedf6e4d3e1e83060291e6fe48fa1185833dceb51d47916a3faf6c38b",
        "7b4c2cd404ccbbabec360cdbd001339b31f870a64d1d0b45663bd934080924f3",
        "151fc3f29698b5e511c9add4e51c40c6846705201188f5538e09e13db1a51f4d",
        "4615900fe72204ea61fd5d4bd45827077ca6b6bc5824b39b8dde6db08eb90bbc",
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
