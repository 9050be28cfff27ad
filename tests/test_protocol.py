"""End-to-end protocol choreography, hygiene, and transcripts (in-process)."""

import itertools
import json

import numpy as np
import pytest

from mpcmarket.analytics.ld import PlanRejected
from mpcmarket.analytics.lr import build_sigmoid_table, lr_predict_fixed
from mpcmarket.circuits.ir import CircuitError
from mpcmarket.he import bfv
from mpcmarket.he.bfv import HeParams
from mpcmarket.protocol import (
    DeltaKeyDist,
    EncryptedListing,
    LdComputation,
    ListingBundle,
    LrComputation,
    ProtocolError,
    Result,
    channels,
)
from mpcmarket.protocol.parties import Csp, DataTrust
from mpcmarket.protocol.runner import (
    VerificationError,
    assert_datatrust_hygiene,
    run_protocol1,
    run_protocol2,
)

LD_SPLIT_4 = [{"i0.n_AB": 30}, {"i0.n_Ab": 20}, {"i0.n_aB": 20}, {"i0.n_ab": 30}]
LD_EQUILIBRIUM = [{"i0.n_AB": 25, "i0.n_Ab": 25, "i0.n_aB": 25, "i0.n_ab": 25}]


@pytest.fixture(scope="module")
def ld_comp():
    return LdComputation(count_bits=11, m_instances=1)


@pytest.fixture(scope="module")
def lr_comp(bundled_model):
    return LrComputation(model=bundled_model, range_bits=10)


@pytest.fixture(scope="module")
def lr_row_input(bundled_model, bundled_dataset):
    rows, _ = bundled_dataset
    mask = (1 << bundled_model.spec.total_bits) - 1
    return {f"x{j}": rows[0][j] & mask for j in range(bundled_model.dim)}


@pytest.fixture
def listed(monkeypatch):
    """(maker, ciphertext count) of every EncryptedListing a session sends."""
    seen = []
    log = channels.BaseChannel._log

    def spy(self, seq, sender, receiver, msg, n_bytes):
        if isinstance(msg, EncryptedListing):
            seen.append((msg.maker, len(msg.entries)))
        log(self, seq, sender, receiver, msg, n_bytes)

    monkeypatch.setattr(channels.BaseChannel, "_log", spy)
    return seen


class TestProtocol2:
    def test_ld_counts_split_across_four_makers(self, ld_comp):
        out = run_protocol2(ld_comp, LD_SPLIT_4, seed=1)
        assert out.result == {"decisions": [True]}
        assert out.verified

    def test_ld_equilibrium_false(self, ld_comp):
        out = run_protocol2(ld_comp, LD_EQUILIBRIUM, seed=2)
        assert out.result == {"decisions": [False]}

    def test_transcript_has_no_ot_messages(self, ld_comp):
        out = run_protocol2(ld_comp, LD_SPLIT_4, seed=3)
        assert_datatrust_hygiene(out.transcript)
        expected = (
            ["DeltaKeyDist"] * 4
            + ["InputLabels"] * 4
            + ["Query", "ListingBundle", "GarbledCircuitMsg", "OutputLabels", "OutputDecoding"]
        )
        assert out.transcript.type_sequence() == expected

    def test_lr_row_matches_fixed_point_oracle(
        self, lr_comp, lr_row_input, bundled_model, bundled_dataset
    ):
        rows, _ = bundled_dataset
        out = run_protocol2(lr_comp, [lr_row_input], seed=4)
        table = build_sigmoid_table(range_bits=10)
        assert out.result["probability_fixed"] == lr_predict_fixed(
            bundled_model, rows[0], table
        )
        assert_datatrust_hygiene(out.transcript)

    def test_multi_instance_decisions(self):
        comp = LdComputation(count_bits=8, m_instances=2)
        inputs = [
            {
                "i0.n_AB": 30, "i0.n_Ab": 20, "i0.n_aB": 20, "i0.n_ab": 30,
                "i1.n_AB": 25, "i1.n_Ab": 25, "i1.n_aB": 25, "i1.n_ab": 25,
            }
        ]
        out = run_protocol2(comp, inputs, seed=5)
        assert out.result == {"decisions": [True, False]}

    def test_duplicate_group_claim_rejected(self, ld_comp):
        bad = [{"i0.n_AB": 30, "i0.n_Ab": 20}, {"i0.n_AB": 1, "i0.n_aB": 20, "i0.n_ab": 30}]
        with pytest.raises(ProtocolError, match="claimed by two makers"):
            run_protocol2(ld_comp, bad, seed=6)

    def test_missing_group_rejected(self, ld_comp):
        with pytest.raises(ProtocolError, match="do not tile"):
            run_protocol2(ld_comp, [{"i0.n_AB": 30}], seed=7)

    def test_misplaced_label_wire_rejected(self, ld_comp, monkeypatch):
        # Wire 0's label arrives as wire n + 7: as many labels, not wires 0..n-1.
        receive = DataTrust.receive

        def misplace(self, msg):
            reply = receive(self, msg)
            if isinstance(reply, ListingBundle):
                (_, label), *rest = reply.labels
                reply = ListingBundle(labels=(*rest, (len(reply.labels) + 7, label)))
            return reply

        monkeypatch.setattr(DataTrust, "receive", misplace)
        with pytest.raises(ProtocolError, match="not exactly for wires 0..43"):
            run_protocol2(ld_comp, LD_SPLIT_4, seed=7)

    def test_deterministic_under_seed(self, ld_comp):
        a = run_protocol2(ld_comp, LD_SPLIT_4, seed=8)
        b = run_protocol2(ld_comp, LD_SPLIT_4, seed=8)
        assert a.transcript.type_sequence() == b.transcript.type_sequence()
        assert [e.n_bytes for e in a.transcript.entries] == [
            e.n_bytes for e in b.transcript.entries
        ]
        assert a.result == b.result


class TestProtocol1:
    def test_ld_counts_split_across_four_makers(self, ld_comp, params8192):
        out = run_protocol1(ld_comp, LD_SPLIT_4, params8192, seed=11)
        assert out.result == {"decisions": [True]}
        assert out.verified
        assert out.transcript.type_sequence() == [
            "PublicKeyDist",
            "EncryptedListing", "EncryptedListing", "EncryptedListing", "EncryptedListing",
            "Query", "ListingBundle", "DecryptRequest", "Result",
        ]
        assert_datatrust_hygiene(out.transcript)

    def test_ld_equilibrium_false(self, ld_comp, params8192):
        out = run_protocol1(ld_comp, LD_EQUILIBRIUM, params8192, seed=12)
        assert out.result == {"decisions": [False]}

    def test_lr_affine_matches_gc_path(
        self, lr_comp, lr_row_input, params4096, bundled_model, bundled_dataset
    ):
        rows, _ = bundled_dataset
        out = run_protocol1(lr_comp, [lr_row_input], params4096, seed=13)
        table = build_sigmoid_table(range_bits=10)
        assert out.result["probability_fixed"] == lr_predict_fixed(
            bundled_model, rows[0], table
        )
        assert_datatrust_hygiene(out.transcript)


class TestHePipeline:
    def test_lr_features_split_across_two_makers(self, lr_comp, lr_row_input, params4096):
        names = sorted(lr_row_input)
        split = [{k: lr_row_input[k] for k in names[i::2]} for i in (0, 1)]
        he = run_protocol1(lr_comp, split, params4096, seed=31)
        assert he.result == run_protocol2(lr_comp, split, seed=31).result
        assert he.verified

    def test_listings_do_not_grow_with_the_makers(
        self, lr_comp, lr_row_input, params4096, listed
    ):
        # A maker lists its features as one packed ciphertext (one plan
        # modulus), whether it holds the whole row or half of it.
        names = sorted(lr_row_input)
        split = [{k: lr_row_input[k] for k in names[i::2]} for i in (0, 1)]
        one = run_protocol1(lr_comp, [lr_row_input], params4096, seed=32)
        assert listed == [(0, 1)]
        listed.clear()
        two = run_protocol1(lr_comp, split, params4096, seed=32)
        assert listed == [(0, 1), (1, 1)]
        assert two.verified and two.result == one.result
        # The second maker adds one ciphertext entry to the listings and one to the bundle.
        ct_bytes = 2 * len(params4096.q_primes) * params4096.n * 4
        growth = two.transcript.total_bytes() - one.transcript.total_bytes()
        assert 2 * ct_bytes < growth < 2 * ct_bytes + 200

    def test_ld_maker_lists_one_ciphertext_per_modulus(self, ld_comp, params8192, listed):
        assert len(ld_comp.he_plan(params8192).moduli) == 3
        out = run_protocol1(ld_comp, LD_SPLIT_4, params8192, seed=33)
        assert out.verified and out.result == {"decisions": [True]}
        assert listed == [(j, 3) for j in range(4)]

    def test_maker_without_inputs_lists_nothing(self, lr_comp, lr_row_input, params4096, listed):
        out = run_protocol1(lr_comp, [{}, lr_row_input], params4096, seed=34)
        assert out.verified
        assert listed == [(0, 0), (1, 1)]

    def test_lr_plan_rejected_at_n2048(self, lr_comp):
        with pytest.raises(PlanRejected):
            lr_comp.he_plan(HeParams.default(2048))

    def test_plan_derives_relinearization_need(self, ld_comp, lr_comp, params8192):
        assert ld_comp.he_plan(params8192).relin
        assert not lr_comp.he_plan(params8192).relin

    def test_inflated_noise_rejected_before_any_he_mul(
        self, ld_comp, params8192, keys8192, monkeypatch
    ):
        _, pk, rk = keys8192
        plan = ld_comp.he_plan(params8192)
        entries = ld_comp.he_encrypt_inputs(pk, plan, LD_EQUILIBRIUM[0], np.random.default_rng(5))
        ct = bfv.ciphertext_from_bytes(entries[-1][1], params8192)
        ct.noise_log2 = 100.0
        entries[-1] = (entries[-1][0], bfv.ciphertext_to_bytes(ct))

        def no_mul(*args):
            raise AssertionError("he_mul ran before the noise check")

        monkeypatch.setattr(bfv, "he_mul", no_mul)
        with pytest.raises(PlanRejected):
            ld_comp.he_evaluate(params8192, rk, plan, [(0, tag, blob) for tag, blob in entries])

    def test_plan_counts_the_session_makers(self, monkeypatch):
        # On this ring the LD circuit fits the sums of four makers' shares
        # but not of eight: the CSP rejects the eight-maker session before
        # it generates any key.
        q = bfv.find_ntt_primes(28, 8192, 2) + bfv.find_ntt_primes(27, 8192, 4)
        params = HeParams(8192, tuple(q), bfv.find_ntt_primes(20, 8192)[0])
        comp = LdComputation(count_bits=11, m_instances=2)
        groups = [f"i{i}.{k}" for i in range(2) for k in ("n_AB", "n_Ab", "n_aB", "n_ab")]
        four = [{g: 25 for g in groups[j::4]} for j in range(4)]
        assert run_protocol1(comp, four, params, seed=3).verified

        def no_keygen(*args, **kwargs):
            raise AssertionError("keys generated for a plan that does not fit")

        monkeypatch.setattr(bfv, "keygen", no_keygen)
        with pytest.raises(PlanRejected):
            run_protocol1(comp, [{g: 25} for g in groups], params, seed=3)

    def test_plan_rejects_more_instances_than_slots(self, params8192, monkeypatch):
        assert LdComputation(m_instances=8192).he_plan(params8192).slots == 8192
        comp = LdComputation(m_instances=8193)
        with pytest.raises(PlanRejected):
            comp.he_plan(params8192)

        def no_keygen(*args, **kwargs):
            raise AssertionError("keys generated for a plan that does not fit")

        monkeypatch.setattr(bfv, "keygen", no_keygen)
        with pytest.raises(PlanRejected):
            Csp(comp, seed=0).he_setup(params8192, 1)

    def test_finish_needs_one_entry_per_output_and_modulus(self, ld_comp, params8192, keys8192):
        sk, _, _ = keys8192
        plan = ld_comp.he_plan(params8192)
        entries = [(f"{name}:{t}", b"") for t in plan.moduli for name in plan.outputs]
        for bad in (entries[:-1], entries + entries[:1], entries[:-1] + [("e:7", b"")]):
            with pytest.raises(ProtocolError):
                ld_comp.he_finish(sk, plan, bad)

    def test_estimates_never_exceed_exact_budget(
        self, lr_comp, bundled_model, bundled_dataset, params8192, monkeypatch
    ):
        seen = []
        decrypt = bfv.decrypt

        def measured(sk, ct):
            seen.append((ct.budget_estimate, bfv.noise_budget(sk, ct)))
            return decrypt(sk, ct)

        monkeypatch.setattr(bfv, "decrypt", measured)
        rows, _ = bundled_dataset
        mask = (1 << bundled_model.spec.total_bits) - 1
        for i, row in enumerate(rows[:3]):
            maker = {f"x{j}": v & mask for j, v in enumerate(row)}
            assert run_protocol1(lr_comp, [maker], HeParams.default(4096), seed=40 + i).verified
        ld = LdComputation(count_bits=11, m_instances=2)
        counts = {"i0.n_AB": 30, "i0.n_Ab": 20, "i0.n_aB": 20, "i0.n_ab": 30}
        counts.update({f"i1.{k[3:]}": 25 for k in counts})
        assert run_protocol1(ld, [counts], params8192, seed=43).verified
        assert len(seen) == 3 + 3
        for estimate, exact in seen:
            assert estimate <= exact


class TestBackendIndependence:
    @pytest.mark.parametrize("contributors,m", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_ld_schema_matches_circuit(self, contributors, m):
        comp = LdComputation(count_bits=8, m_instances=m, contributors=contributors)
        assert comp.input_schema == {g.name: g.width for g in comp.circuit.input_groups}

    def test_lr_schema_matches_circuit(self, lr_comp):
        assert lr_comp.input_schema == {g.name: g.width for g in lr_comp.circuit.input_groups}

    def test_value_wider_than_schema_rejected(self, ld_comp, lr_comp, lr_row_input, params8192):
        # Values are bit patterns of their group's width: a negative value
        # is rejected too, not wrapped or handed to HE as a negative count.
        # An LD instance whose total N reaches 2^count_bits breaks the
        # promise the circuit and the HE bounds rest on, though every count fits.
        cases = [
            (ld_comp, [{"i0.n_AB": v, "i0.n_Ab": 20, "i0.n_aB": 20, "i0.n_ab": 30}], 11)
            for v in (1 << 11, -1, -(1 << 20))
        ] + [(lr_comp, [{**lr_row_input, "x0": v}], 16) for v in (1 << 16, -1, -(1 << 20))]
        wide_total = {"i0.n_AB": 2047, "i0.n_Ab": 1, "i0.n_aB": 1, "i0.n_ab": 2047}
        cases.append((ld_comp, [wide_total], 11))
        for (comp, bad, width), verify in itertools.product(cases, (True, False)):
            with pytest.raises(ProtocolError, match=f"does not fit {width} bits"):
                run_protocol1(comp, bad, params8192, seed=21, verify=verify)
            with pytest.raises(ProtocolError, match=f"does not fit {width} bits"):
                run_protocol2(comp, bad, seed=21, verify=verify)

    def test_seed_outside_range_rejected_before_any_role(self, ld_comp, params8192, monkeypatch):
        # A negative seed used to reach np.random.default_rng in Csp.__init__
        # and end in a numpy ValueError; a seed of 2^63 does not fit the
        # session id's 8 bytes.
        from mpcmarket.protocol import runner

        monkeypatch.setattr(runner, "Csp", lambda *a, **k: pytest.fail("a role was built"))
        for seed in (-5, -1, 1 << 63):
            with pytest.raises(ProtocolError, match="seed must be in"):
                run_protocol1(ld_comp, LD_SPLIT_4, params8192, seed=seed)
            with pytest.raises(ProtocolError, match="seed must be in"):
                run_protocol2(ld_comp, LD_SPLIT_4, seed=seed)

    def test_relin_key_shipped_only_when_plan_multiplies(
        self, ld_comp, lr_comp, params4096, params8192
    ):
        assert Csp(lr_comp, seed=1).he_setup(params4096, 1).rk == b""
        assert len(Csp(ld_comp, seed=1).he_setup(params8192, 1).rk) > 0

    def test_protocol1_builds_no_circuit(self, monkeypatch, bundled_model, lr_row_input):
        import mpcmarket.protocol.computations as comps

        def no_circuit(*args, **kwargs):
            raise AssertionError("Protocol 1 built a garbled-circuit description")

        monkeypatch.setattr(comps, "build_ld_circuit", no_circuit)
        monkeypatch.setattr(comps, "build_lr_circuit", no_circuit)
        lr = LrComputation(model=bundled_model, range_bits=10)
        assert run_protocol1(lr, [lr_row_input], HeParams.default(4096), seed=22).verified
        # The GC circuit for this threshold is 67 bits wide; HE needs no circuit.
        wide = LdComputation(count_bits=8, threshold_num=3841000000, threshold_den=1000000000)
        out = run_protocol1(wide, LD_SPLIT_4, HeParams.default(8192, t_bits=21), seed=23)
        assert out.result == out.oracle == {"decisions": [True]}

    def test_protocol2_rejects_wide_ld_circuit(self):
        wide = LdComputation(count_bits=8, threshold_num=3841000000, threshold_den=1000000000)
        with pytest.raises(CircuitError, match="internal width 67"):
            run_protocol2(wide, LD_SPLIT_4, seed=24)


class TestHygieneStructural:
    def test_datatrust_rejects_secret_bearing_types(self):
        dt = DataTrust()
        with pytest.raises(ProtocolError):
            dt.receive(DeltaKeyDist(delta=b"\x01" * 16, prf_key=b"\x02" * 16))
        with pytest.raises(ProtocolError):
            dt.receive(Result(payload_json="{}"))

    def test_maker_state_never_holds_sk(self, ld_comp, params8192):
        out = run_protocol1(ld_comp, LD_SPLIT_4, params8192, seed=14)
        # transcript-level: nothing sk-bearing ever goes to makers or DT
        for e in out.transcript.entries:
            if e.receiver.startswith("maker") or e.receiver == "datatrust":
                assert e.type_name not in ("Result", "DecryptRequest")

    def test_transcript_export_jsonl(self, ld_comp):
        out = run_protocol2(ld_comp, LD_SPLIT_4, seed=15)
        lines = out.transcript.to_jsonl().strip().splitlines()
        assert len(lines) == len(out.transcript.entries)
        rec = json.loads(lines[0])
        assert set(rec) == {"seq", "from", "to", "type", "bytes", "ts"}
        # replaying logged sizes reproduces the totals exactly
        assert sum(json.loads(ln)["bytes"] for ln in lines) == out.transcript.total_bytes()

    def test_sequence_numbers_strictly_increasing(self, ld_comp):
        out = run_protocol2(ld_comp, LD_SPLIT_4, seed=16)
        seqs = [e.seq for e in out.transcript.entries]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestVerification:
    def test_oracle_disagreement_raises(self, ld_comp, monkeypatch):
        import mpcmarket.protocol.computations as comps

        def wrong_oracle(self, inputs):
            return {"decisions": [False]}

        monkeypatch.setattr(comps.LdComputation, "oracle", wrong_oracle)
        with pytest.raises(VerificationError):
            run_protocol2(ld_comp, LD_SPLIT_4, seed=17)

    def test_no_verify_skips_oracle(self, ld_comp):
        out = run_protocol2(ld_comp, LD_SPLIT_4, seed=18, verify=False)
        assert out.oracle is None
        assert out.result == {"decisions": [True]}
