"""Fixed-seed sessions keep their bytes.

Each session below runs under a fixed seed and pins its result, its message
type sequence and the SHA-256 of every frame its channel logs: the frame
``pack_frame(msg, session_id, seq)`` that carries the message over TCP (the
in-process channel builds none, so the test packs it). A change that moves
any byte of a protocol message, a key or a ciphertext fails here; a change
that should move bytes re-records the digests of the sessions it touches.
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
        "8a747466598e8268b2bcd45ae4faddba7d4ad04cd72d0ba4416b7adff4ffafc8",
        "9ab88e4f040c7cf1a869834fd95f59709394cbc17a84f645b70232f1974c6f32",
        "4d6cb1a06c2b6fedc94a65f9031a0aa88de02dc5a0b687e2d99965d8929679a2",
        "6ea09352360142349b8c2e967a1fe6e32b0a5a454c5dc47f4e9c4c8af1c7397a",
        "7c10b2d428799edc9d80bb09b22d5ccd974be76996d89dea2ddca4cb666cdc37",
        "554eae367d3b46bc2e731b1c25a0284b7d17a6d0ba30da605de3a26a29fe09ce",
        "9d2ac3a08336e9e147c3d9079e5f74fc942a6df89abd4e0502077ce9a2c7aa5b",
        "5f0864013b501f65bb81d1becb3b462bff1875dc5c5a0735c2e83e54ae25d932",
        "d82c07798b87d00629b069a01e6dcfd3ecc22cda4d974cc62d4f40ed3a3337d9",
    ],
    "p1-lr": [
        "1c4bbdd09d0e04fea2da9ff807dd24e2d022dcba74658d0f9dac27d6c5b59356",
        "34bc7d27f81ab93fa9f0143436f77aeb8896b66bc194d725a095e74c9831418b",
        "2155d60f20f95f278f1da51e578eaea9dfdb69c3470a752c556f94a711157c79",
        "71172c6914f5b6aff6cdf77b7c83657484dbd875371a53166747f6855bf2ba36",
        "935beb723ca09265995db76a39f1880f9402e31faa358fa5266bb97c7955a8ff",
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
        "0395e486b4eef40317d6b8754db3f44bb2bd99837acf3b944e52d439045ed813",
        "349a6a22b602a6c127bd48aefa0f42439ff9379f3efdaca43640d55bd15c469d",
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
