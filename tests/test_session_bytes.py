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
        "ab58ed6908462e442e0dbf740b356d4ca0dca6876309dd01b4ab42433038eb11",
        "283b83dbfd8d1790053c60f820135d18300ce04814ae36ea839d5615e0f59063",
        "b1d0e698ec6db26ce05f3f82fbd2b8f50afd76570b8bea3f327d70a3e8b9162e",
        "464557eb5426bf2450841b3464e77e9e156b9e4f50d69becff487cc02806aeaa",
        "e31435674befd45d0d8504e3e0113abd23cb1fd74b266a15ec22ae87f20c33ee",
        "554eae367d3b46bc2e731b1c25a0284b7d17a6d0ba30da605de3a26a29fe09ce",
        "383f9564393e141aa8a9998b207a48e19b9d2f1b9bbf4bdabb68dd8825c94f64",
        "c484bbbc1b0618e0cdc365ca2f977412c0e03d83bc63c90231dee0285a8f1abc",
        "d82c07798b87d00629b069a01e6dcfd3ecc22cda4d974cc62d4f40ed3a3337d9",
    ],
    "p1-lr": [
        "4adc16e60ae47cdcd7083bad18dbb3d845af0c7960c29c6b4c20a7c217f9e0ad",
        "c03364859180e05c34b5942d21a6a5836c9189d2e77f5d78c6937b12812b99e4",
        "2155d60f20f95f278f1da51e578eaea9dfdb69c3470a752c556f94a711157c79",
        "6216470fdf5273034d551b25172dd222cfd9993703ca1866621fe4841438fa80",
        "941620c593abe6c32d0ff503e0a7e3800bc3a10e4cefff3fbf56b541786fc6bf",
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
    assert outcome.transcript.type_sequence() == types
    assert digests == FRAMES[name]
