"""Garbling engine: free-XOR, half-gates, OT-free label derivation."""

import dataclasses
import hashlib
import random

import pytest

from mpcmarket import garbling as gb
from mpcmarket.circuits import (
    AND,
    CircuitBuilder,
    build_adder,
    build_greater_than,
    build_lookup,
    build_multiplier,
    eval_plain,
)
from mpcmarket.circuits.ir import bits_from_int, int_from_bits

DELTA = gb.derive_delta(bytes(range(16)))
SOURCE = gb.seeded_label_source(b"label-seed-00000"[:16])


def active(bits):
    """Active labels, in wire order, for a bit on every input wire."""
    return [label for _, label in gb.active_input_labels(DELTA.bits, SOURCE, enumerate(bits))]


def roundtrip(circuit, bits):
    garbled, info = gb.garble(circuit, DELTA, SOURCE)
    return gb.decode(info, gb.evaluate(garbled, circuit, active(bits)))


class TestDeltaDerivation:
    def test_lsb_forced(self):
        for seed in (bytes(16), b"\xff" * 16, bytes(range(16))):
            assert gb.derive_delta(seed).bits & 1 == 1

    def test_deterministic(self):
        s = b"0123456789abcdef"
        assert gb.derive_delta(s) == gb.derive_delta(s)

    def test_distinct_across_seeds(self):
        rng = random.Random(1)
        seen = {gb.derive_delta(rng.randbytes(16)).bits for _ in range(1000)}
        assert len(seen) == 1000

    def test_bad_seed_length(self):
        with pytest.raises(gb.GarblingError):
            gb.derive_delta(b"short")


class TestInputLabelDerivation:
    def test_deterministic(self):
        k = b"k" * 16
        assert gb.derive_input_labels(k, 8) == gb.derive_input_labels(k, 8)
        # a prefix: wire i's label does not depend on the count
        assert gb.derive_input_labels(k, 3) == gb.derive_input_labels(k, 8)[:3]

    def test_distinct_across_indices(self):
        assert len(set(gb.derive_input_labels(b"k" * 16, 1000))) == 1000

    def test_one_label_is_zero_label_xor_delta(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        wire_bits = list(zip(range(10, 18), bits))
        labels = gb.active_input_labels(DELTA.bits, SOURCE, wire_bits)
        assert [w for w, _ in labels] == list(range(10, 18))
        for (wire, label), bit in zip(labels, bits):
            zero = SOURCE(wire)
            assert label == (zero ^ DELTA.bits if bit else zero)


class TestGarbleStructure:
    def test_xor_only_circuit_has_no_rows(self):
        b = CircuitBuilder()
        x = b.add_input_group("x", 8)
        y = b.add_input_group("y", 8)
        c = b.build([b.xor(a, bb) for a, bb in zip(x, y)])
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        assert garbled.n_and == 0 and garbled.tables == b""
        assert len(gb.serialize_garbled(garbled)) == gb.HEADER_SIZE

    def test_single_and_truth_table(self):
        b = CircuitBuilder()
        x = b.add_input_group("x", 1)
        y = b.add_input_group("y", 1)
        c = b.build([b.and_(x[0], y[0])])
        for xa in (0, 1):
            for ya in (0, 1):
                assert roundtrip(c, [xa, ya]) == [xa & ya]

    def test_serialized_size_exact(self):
        for c in (build_adder(8), build_multiplier(8), build_greater_than(16)):
            garbled, _ = gb.garble(c, DELTA, SOURCE)
            data = gb.serialize_garbled(garbled)
            assert len(data) == gb.HEADER_SIZE + 32 * c.stats.non_xor
            assert gb.parse_garbled(data) == garbled

    def test_garbling_deterministic(self):
        c = build_multiplier(6)
        g1, i1 = gb.garble(c, DELTA, SOURCE)
        g2, i2 = gb.garble(c, DELTA, SOURCE)
        assert gb.serialize_garbled(g1) == gb.serialize_garbled(g2)
        assert i1 == i2


class TestDecode:
    def test_zero_labels_decode_to_zero(self):
        # identity circuit: outputs are the input wires, so output zero-labels
        # are exactly the label source values
        b = CircuitBuilder()
        x = b.add_input_group("x", 8)
        c = b.build(x)
        _, info = gb.garble(c, DELTA, SOURCE)
        zeros = [SOURCE(i) for i in range(8)]
        assert gb.decode(info, zeros) == [0] * 8
        flipped = [z ^ DELTA.bits for z in zeros]
        assert gb.decode(info, flipped) == [1] * 8

    def test_length_mismatch(self):
        c = build_adder(4)
        _, info = gb.garble(c, DELTA, SOURCE)
        with pytest.raises(gb.GarblingError):
            gb.decode(info, [0] * 3)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "circuit",
        [build_adder(8), build_adder(16), build_multiplier(8), build_greater_than(32)],
        ids=["adder8", "adder16", "mult8", "gt32"],
    )
    def test_random_roundtrips_match_eval_plain(self, circuit):
        rng = random.Random(circuit.n_inputs)
        for _ in range(100):
            bits = [rng.randrange(2) for _ in range(circuit.n_inputs)]
            assert roundtrip(circuit, bits) == eval_plain(circuit, bits)

    def test_adder_decodes_sum(self):
        c = build_adder(8)
        bits = bits_from_int(1, 8) + bits_from_int(1, 8)
        assert int_from_bits(roundtrip(c, bits)) == 2

    def test_lookup_roundtrip(self):
        rng = random.Random(5)
        table = [rng.randrange(256) for _ in range(64)]
        c = build_lookup(table, 6, 8)
        for idx in range(0, 64, 7):
            got = int_from_bits(roundtrip(c, bits_from_int(idx, 6)))
            assert got == table[idx]

    def test_output_label_algebra(self):
        # flipping inputs moves every output label by exactly 0 or delta
        c = build_adder(8)
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        rng = random.Random(9)
        for _ in range(50):
            bits_a = [rng.randrange(2) for _ in range(16)]
            bits_b = [rng.randrange(2) for _ in range(16)]
            la = gb.evaluate(garbled, c, active(bits_a))
            lb = gb.evaluate(garbled, c, active(bits_b))
            for wa, wb in zip(la, lb):
                assert wa == wb or wa ^ wb == DELTA.bits


class TestConcurrency:
    def test_disjoint_circuits_garble_concurrently(self):
        import concurrent.futures

        circuits = [build_adder(16), build_multiplier(8), build_greater_than(32)]
        sequential = [gb.serialize_garbled(gb.garble(c, DELTA, SOURCE)[0]) for c in circuits]
        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(gb.garble, c, DELTA, SOURCE) for c in circuits]
            concurrent = [gb.serialize_garbled(f.result()[0]) for f in futures]
        assert concurrent == sequential


class TestWorkloadScale:
    def test_ld_m10_table_bytes_near_reference_comm(self):
        # reference communication column reports 1.3 MB at M=10; half-gates
        # tables are 32 bytes per AND gate
        from mpcmarket.analytics.ld import build_ld_circuit

        st = build_ld_circuit(11, 10, 3841, 1000).stats
        table_bytes = 32 * st.non_xor
        assert 1.3e6 / 3 <= table_bytes <= 1.3e6 * 3


class TestErrors:
    def test_hash_binding(self):
        c1 = build_adder(8)
        c2 = build_multiplier(8)
        garbled, _ = gb.garble(c1, DELTA, SOURCE)
        with pytest.raises(gb.GarblingError):
            gb.evaluate(garbled, c2, active([0] * 16))

    def test_label_count_mismatch(self):
        c = build_adder(8)
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        with pytest.raises(gb.GarblingError):
            gb.evaluate(garbled, c, [0] * 5)

    def test_truncated_garbled_bytes(self):
        c = build_adder(8)
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        data = gb.serialize_garbled(garbled)
        with pytest.raises(gb.GarblingError):
            gb.parse_garbled(data[:-10])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _garbled_digests(circuit):
    garbled, info = gb.garble(circuit, DELTA, SOURCE)
    return _sha(gb.serialize_garbled(garbled)), _sha(bytes(info.masks))


def _edge_circuits():
    out = {}
    b = CircuitBuilder()
    out["no_gates"] = b.build(b.add_input_group("x", 3))
    b = CircuitBuilder()
    x = b.add_input_group("x", 2)
    out["input_and_const_outputs"] = b.build([x[1], b.zero, b.one, b.and_(x[0], x[1]), x[0]])
    b = CircuitBuilder()
    x = b.add_input_group("x", 1)
    out["inv_of_constants"] = b.build(
        [b.inv(b.zero), b.inv(b.one), b.and_(b.inv(b.zero), x[0])]
    )
    b = CircuitBuilder()
    x = b.add_input_group("x", 4)
    w = x[0]
    for i in range(300):
        w = b.xor(w, x[1 + i % 3])
    out["long_xor_chain"] = b.build([w, b.and_(w, x[0])])
    return out


class TestGoldenBytes:
    """SHA-256 of garbled tables and decoding masks, recorded from the
    gate-by-gate engine that the level-batched one replaced."""

    EDGE = {
        "no_gates": (
            "e97fde023881281ba209db00551d151b3f3396d67027b790d9f0ad8ecfa7cb0a",
            "fb50dc0717ff266cf9baf82b1ce7a1c2ef6d9247859680b11a19fb7077f5f222",
        ),
        "input_and_const_outputs": (
            "1499b6ebb4c0dcb62272c6ba6184075d135c3f5e18a735124c62d2a20322efe8",
            "15f2f1a4339f5f2a313b95015cad8124d054a171ac2f31cf529dda7cfb6a38b4",
        ),
        "inv_of_constants": (
            "f29df3e9d66efbb587b29fb46cf3271b875a176d55cf5a19e21e596252759fdb",
            "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c",
        ),
        "long_xor_chain": (
            "94dcc347e9f76d2cf33efcfe0864a3be99dc3d016318a42359591cbf3bea4a6b",
            "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        ),
    }

    def _check_workload(self, circuit, tables, masks, outputs):
        assert _garbled_digests(circuit) == (tables, masks)
        garbled, _ = gb.garble(circuit, DELTA, SOURCE)
        bits = [int(i % 3 == 0) for i in range(circuit.n_inputs)]
        labels = gb.evaluate(garbled, circuit, active(bits))
        assert _sha(b"".join(v.to_bytes(16, "big") for v in labels)) == outputs

    def test_ld_m10(self):
        from mpcmarket.protocol import LdComputation

        self._check_workload(
            LdComputation(count_bits=11, m_instances=10).circuit,
            "30802246ba48af58fce2231a6c626ee90998dc7b6237201bf42e2325e727be24",
            "8cc976adc1cfe7a4f597e90dab11539386108fc3e9dbaf34f7b9358192c4c76d",
            "715ac6a824de2bc68217f1b52f67201b51353e85c7fac525e3466cde43a0934c",
        )

    def test_lr_range10(self, bundled_model):
        from mpcmarket.protocol import LrComputation

        self._check_workload(
            LrComputation(model=bundled_model, range_bits=10).circuit,
            "ac85e5c94c9d2c9f28b320bb0f5cb01ded0470e1d2caebc7566b13a1877ba902",
            "442d989eb0cbc79087f41ba64511619195fe6926f284ac194c87a5e84ae13b44",
            "b44f7a2fcdf8f8bb69dd14430f82082c64e451d92e9d3c1633cb4f24278bc229",
        )

    @pytest.mark.parametrize("name", sorted(EDGE))
    def test_edge_circuit(self, name):
        circuit = _edge_circuits()[name]
        assert _garbled_digests(circuit) == self.EDGE[name]
        for value in range(1 << circuit.n_inputs):
            bits = bits_from_int(value, circuit.n_inputs)
            assert roundtrip(circuit, bits) == eval_plain(circuit, bits)


class TestLevelSchedule:
    def test_levels_partition_gates_by_depth(self):
        c = build_multiplier(6)
        depth = [0] * c.n_wires
        seen_ands = []
        gates_seen = 0
        for d, lv in enumerate(c.levels, start=1):
            reads = [*lv.xor_a, *lv.xor_b, *lv.inv_a, *lv.and_a, *lv.and_b]
            assert all(depth[w] < d for w in reads) and max(depth[w] for w in reads) == d - 1
            for w in (*lv.xor_out, *lv.inv_out, *lv.and_out):
                depth[w] = d
            seen_ands += lv.and_ord.tolist()
            gates_seen += len(lv.xor_out) + len(lv.inv_out) + len(lv.and_out)
        assert gates_seen == len(c.gates)
        assert sorted(seen_ands) == list(range(c.stats.non_xor))
        and_outs = [g.out for g in c.gates if g.kind == AND]
        for lv in c.levels:
            assert [and_outs[k] for k in lv.and_ord] == lv.and_out.tolist()

    def test_schedule_built_once_per_circuit(self, monkeypatch):
        from functools import cached_property

        from mpcmarket.circuits.ir import Circuit
        from mpcmarket.protocol import LdComputation, run_protocol2

        builds = []
        build = Circuit.levels.func

        def counting(self):
            builds.append(self)
            return build(self)

        prop = cached_property(counting)
        prop.__set_name__(Circuit, "levels")
        monkeypatch.setattr(Circuit, "levels", prop)
        comp = LdComputation(count_bits=6, m_instances=1)
        inputs = [{"i0.n_AB": 9, "i0.n_Ab": 3, "i0.n_aB": 3, "i0.n_ab": 9}]
        for seed in range(2):
            assert run_protocol2(comp, inputs, seed=seed).verified
        assert builds == [comp.circuit]


class TestEvaluateRejects:
    def test_wrong_and_count(self):
        c = build_adder(8)
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        labels = active([0] * 16)
        for n_and in (garbled.n_and - 1, garbled.n_and + 1):
            bad = dataclasses.replace(garbled, n_and=n_and, tables=bytes(32 * n_and))
            with pytest.raises(gb.GarblingError, match="AND-gate count"):
                gb.evaluate(bad, c, labels)
        short = dataclasses.replace(garbled, tables=garbled.tables[:-32])
        with pytest.raises(gb.GarblingError, match="AND-gate count"):
            gb.evaluate(short, c, labels)

    def test_wrong_digest(self):
        c = build_adder(8)
        garbled, _ = gb.garble(c, DELTA, SOURCE)
        bad = dataclasses.replace(garbled, circuit_hash=bytes(32))
        with pytest.raises(gb.GarblingError, match="do not match"):
            gb.evaluate(bad, c, active([0] * 16))
