"""End-to-end protocol choreography, hygiene, and transcripts (in-process)."""

import itertools
import math
import threading

import numpy as np
import pytest

from mpcmarket.analytics.ld import PlanRejected
from mpcmarket.analytics.lr import build_sigmoid_table, lr_predict_fixed
from mpcmarket.circuits.ir import CircuitError
from mpcmarket.he import bfv
from mpcmarket.cli import EXIT_CONFIG, main
from mpcmarket.he.bfv import HeParams, HeParamsError
from mpcmarket.protocol import (
    DeltaKeyDist,
    EncryptedListing,
    LdComputation,
    ListingBundle,
    LrComputation,
    ProtocolError,
    PublicKeyDist,
    Result,
    channels,
)
from mpcmarket.protocol.computations import Estimate, NoiseOps
from mpcmarket.protocol.parties import Buyer, Csp, DataTrust, Maker
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

    def test_repeated_label_wire_rejected(self, ld_comp, monkeypatch):
        # One entry more than the 44 input wires: wire 0 again, with another label.
        receive = DataTrust.receive

        def repeat(self, msg):
            reply = receive(self, msg)
            if isinstance(reply, ListingBundle):
                (wire, label), *_ = reply.labels
                reply = ListingBundle(labels=(*reply.labels, (wire, label ^ 2)))
            return reply

        monkeypatch.setattr(DataTrust, "receive", repeat)
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
        # The second maker adds one ciphertext entry to the listings and one
        # to the bundle, each under the plan's key prefix of q.
        ct_bytes = 2 * lr_comp.he_plan(params4096).key_primes * params4096.n * 4
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

    def test_plan_keeps_the_fewest_output_primes_the_rule_allows(self, lr_comp):
        # he-ld keeps 2 of 6 primes, he-lr 3 of 4; one prime fewer leaves
        # no budget under the switch rule.
        cases = (
            (LdComputation(count_bits=11, m_instances=10), HeParams.default(8192, 21), 4, 2),
            (lr_comp, HeParams.default(4096), 1, 3),
        )
        for comp, params, makers, k in cases:
            plan = comp.he_plan(params, makers)
            assert plan.output_primes == k
            assert comp.he_plan(params) == plan
            fresh = params.fresh_noise_log2()
            start = dict.fromkeys(
                plan.inputs, Estimate(fresh + math.log2(makers), plan.key_primes)
            )
            for t in plan.moduli:
                comp._circuit(NoiseOps(params, t), start, k)
                with pytest.raises(PlanRejected):
                    comp._circuit(NoiseOps(params, t), start, k - 1)

    def test_finish_rejects_an_output_under_the_wrong_prime_count(
        self, ld_comp, params8192, keys8192
    ):
        sk, pk, _ = keys8192
        plan = ld_comp.he_plan(params8192)
        assert plan.output_primes == 2
        rng = np.random.default_rng(6)
        cts = {t: bfv.encrypt(pk, plan.encode([7], params8192, t), rng) for t in plan.moduli}
        entries = [
            (f"e:{t}", bfv.ciphertext_to_bytes(bfv.mod_switch(ct, 2))) for t, ct in cts.items()
        ]
        assert ld_comp.he_finish(sk, plan, entries) == {"decisions": [7 > ld_comp._bounds[1]]}
        t = plan.moduli[0]
        for k in (6, 3, 5):
            ct = cts[t] if k == 6 else bfv.mod_switch(cts[t], k)
            bad = [(f"e:{t}", bfv.ciphertext_to_bytes(ct))] + entries[1:]
            with pytest.raises(ProtocolError, match=f"holds {k} primes"):
                ld_comp.he_finish(sk, plan, bad)

    def test_buyer_rejects_an_input_under_fewer_primes(self, ld_comp, params8192, keys8192):
        _, pk, rk = keys8192
        plan = ld_comp.he_plan(params8192)
        entries = ld_comp.he_encrypt_inputs(pk, plan, LD_EQUILIBRIUM[0], np.random.default_rng(7))
        ct = bfv.ciphertext_from_bytes(entries[0][1], params8192)
        entries[0] = (entries[0][0], bfv.ciphertext_to_bytes(bfv.mod_switch(ct, 3)))
        with pytest.raises(ProtocolError, match="holds 3 of q's primes"):
            ld_comp.he_evaluate(params8192, rk, plan, [(0, tag, blob) for tag, blob in entries])

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

    def test_plan_keys_the_fewest_primes_the_worst_session_allows(self, lr_comp):
        # A session's inputs are sums of at most one share per input group;
        # under one prime fewer, that worst case leaves no budget (LD has
        # no prime to spare even with one share).
        cases = (
            (lr_comp, HeParams.default(4096), 3),
            (lr_comp, HeParams.default(8192), 3),
            (LdComputation(count_bits=11, m_instances=10), HeParams.default(8192, 21), 6),
        )
        for comp, params, k in cases:
            plan = comp.he_plan(params)
            assert plan.key_primes == k
            assert plan.key_params(params).q_primes == params.q_primes[:k]
            worst = params.fresh_noise_log2() + math.log2(len(comp.input_schema))
            start = dict.fromkeys(plan.inputs, Estimate(worst, k - 1))
            fewer = HeParams(params.n, params.q_primes[: k - 1], params.t)
            for t in plan.moduli:
                with pytest.raises(PlanRejected):
                    comp._circuit(NoiseOps(fewer, t), start, k - 1)

    def test_plan_is_the_same_for_every_maker_count(self, lr_comp, params8192):
        for comp, params in (
            (lr_comp, HeParams.default(4096)),
            (LdComputation(count_bits=11, m_instances=1), params8192),
            (LdComputation(count_bits=11, m_instances=10), params8192),
        ):
            plan = comp.he_plan(params)
            for makers in range(1, len(comp.input_schema) + 1):
                assert comp.he_plan(params, makers) == plan

    def test_lr_one_feature_per_maker_under_the_key_prefix(
        self, lr_comp, lr_row_input, listed, monkeypatch
    ):
        keyed = []
        keygen = bfv.keygen

        def spy(params, *args, **kwargs):
            keyed.append(len(params.q_primes))
            return keygen(params, *args, **kwargs)

        monkeypatch.setattr(bfv, "keygen", spy)
        makers = [{name: v} for name, v in sorted(lr_row_input.items())]
        assert len(makers) == 30
        out = run_protocol1(lr_comp, makers, HeParams.default(4096), seed=36)
        assert out.verified and keyed == [3]
        assert listed == [(j, 1) for j in range(30)]

    @pytest.fixture
    def keys_under_every_prime(self, monkeypatch):
        """A CSP that keys under all of the caller's primes, whatever the
        plan's ``key_primes``."""

        def he_setup(self, params, makers):
            self._plan = self.computation.he_plan(params, makers)
            self._sk, pk, rk = bfv.keygen(params, 5, relin=self._plan.relin)
            return PublicKeyDist(
                pk=bfv.public_key_to_bytes(pk),
                rk=b"" if rk is None else bfv.relin_key_to_bytes(rk),
            )

        monkeypatch.setattr(Csp, "he_setup", he_setup)

    def test_maker_and_buyer_reject_keys_under_every_prime(
        self, lr_comp, lr_row_input, keys_under_every_prime
    ):
        # LR's plan keys 3 of the 4 primes; LD's keys 6 of these 7, and its
        # buyer reads the relinearization key.
        ld_params = HeParams(
            8192, tuple(bfv.find_ntt_primes(30, 8192, 7)), bfv.find_ntt_primes(21, 8192)[0]
        )
        ld = LdComputation(count_bits=11, m_instances=1)
        for comp, params, values in (
            (lr_comp, HeParams.default(4096), lr_row_input),
            (ld, ld_params, LD_EQUILIBRIUM[0]),
        ):
            plan = comp.he_plan(params)
            assert plan.key_primes < len(params.q_primes)
            bundle = Csp(comp, seed=0).he_setup(params, 1)
            with pytest.raises(HeParamsError, match="different parameters"):
                Maker(0, comp, values, seed=1).make_encrypted_listing(params, bundle)
            # What a maker that took the key would have listed.
            pk = bfv.public_key_from_bytes(bundle.pk, params)
            entries = comp.he_encrypt_inputs(pk, plan, values, np.random.default_rng(8))
            listings = ListingBundle(ciphertexts=tuple((0, tag, ct) for tag, ct in entries))
            with pytest.raises(HeParamsError, match="different parameters"):
                Buyer(0, comp, seed=2).make_decrypt_request(params, bundle, listings)

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_keys_under_every_prime_exit_as_a_config_rejection(
        self, transport, keys_under_every_prime, capsys
    ):
        rc = main(["run", "--backend", "he", "--workload", "lr", "--rows", "1",
                   "--repeat", "1", "--transport", transport])
        assert rc == EXIT_CONFIG
        assert "different parameters" in capsys.readouterr().err
        assert not [th for th in threading.enumerate() if th.name.startswith("role-")]


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
