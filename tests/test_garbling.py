"""Garbling engine: free-XOR, half-gates, OT-free label derivation."""

import dataclasses
import hashlib
import random
import types

import pytest

from mpcmarket import garbling as gb
from mpcmarket.circuits import (
    AND,
    XOR,
    CircuitBuilder,
)
from mpcmarket.circuits.ir import int_from_bits

from helpers import (
    bits_from_int,
    build_adder,
    build_greater_than,
    build_lookup,
    build_multiplier,
    edge_circuits,
    eval_plain,
)

KEY = bytes(range(16))
DELTA = gb.GlobalDelta(int.from_bytes(b"delta-seed-00000", "big") | 1)


def zero(wires):
    """Zero labels PRF(KEY, i) of the fixed wires i in ``wires``."""
    return gb.derive_input_labels(KEY, wires)


def garble(circuit):
    return gb.garble(circuit, DELTA, zero(range(circuit.n_inputs + 2)))


def active(bits):
    """Active labels, in wire order, for a bit on every input wire."""
    labels = gb.active_input_labels(DELTA.bits, zero(range(len(bits))), enumerate(bits))
    return [label for _, label in labels]


def roundtrip(circuit, bits):
    garbled, info = garble(circuit)
    return gb.decode(info, gb.evaluate(garbled, circuit, active(bits)))


class TestFixedWireLabels:
    def test_garble_takes_one_zero_label_per_fixed_wire(self):
        c = build_adder(4)
        for count in (c.n_inputs, c.n_inputs + 1, c.n_inputs + 3):
            with pytest.raises(gb.GarblingError, match="fixed-wire zero labels"):
                gb.garble(c, DELTA, zero(range(count)))

    def test_csp_header_constants_are_prf_labels(self):
        """The CSP's zero labels of the two constant wires are PRF(k, wire),
        as the inputs' are: the header carries PRF(k, n_inputs) for
        const_zero and PRF(k, n_inputs + 1) ^ delta for const_one."""
        from mpcmarket.protocol import LdComputation
        from mpcmarket.protocol.parties import Csp

        comp = LdComputation(count_bits=6, m_instances=1)
        n = comp.circuit.n_inputs
        for seed in range(3):
            csp = Csp(comp, seed)
            keys = csp.gc_setup()
            delta = int.from_bytes(keys.delta, "big")
            garbled = gb.parse_garbled(csp.make_garbled().garbled)
            cz, co = gb.derive_input_labels(keys.prf_key, [n, n + 1])
            assert delta & 1 == 1
            assert (garbled.const_zero_active, garbled.const_one_active) == (cz, co ^ delta)


class TestInputLabelDerivation:
    def test_deterministic(self):
        k = b"k" * 16
        assert gb.derive_input_labels(k, range(8)) == gb.derive_input_labels(k, range(8))
        # a prefix: wire i's label does not depend on the count
        assert gb.derive_input_labels(k, range(3)) == gb.derive_input_labels(k, range(8))[:3]

    def test_subset_equals_full_derivation_at_its_wires(self):
        # A maker derives only the wires it sends labels for.
        k = b"k" * 16
        full = gb.derive_input_labels(k, range(440))
        wires = [439, 7, 110, 111, 0, 300]
        assert gb.derive_input_labels(k, wires) == [full[w] for w in wires]
        assert gb.derive_input_labels(k, []) == []

    def test_distinct_across_indices(self):
        assert len(set(gb.derive_input_labels(b"k" * 16, range(1000)))) == 1000

    def test_one_label_is_zero_label_xor_delta(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        wire_bits = list(zip(range(10, 18), bits))
        zeros = zero(range(18))
        labels = gb.active_input_labels(DELTA.bits, zeros, wire_bits)
        assert [w for w, _ in labels] == list(range(10, 18))
        for (wire, label), bit in zip(labels, bits):
            assert label == (zeros[wire] ^ DELTA.bits if bit else zeros[wire])


class TestGarbleStructure:
    def test_xor_only_circuit_has_no_rows(self):
        b = CircuitBuilder()
        x = b.add_input_group("x", 8)
        y = b.add_input_group("y", 8)
        c = b.build([b.xor(a, bb) for a, bb in zip(x, y)])
        garbled, _ = garble(c)
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
            garbled, _ = garble(c)
            data = gb.serialize_garbled(garbled)
            assert len(data) == gb.HEADER_SIZE + 32 * c.stats.non_xor
            assert gb.parse_garbled(data) == garbled

    def test_garbling_deterministic(self):
        c = build_multiplier(6)
        g1, i1 = garble(c)
        g2, i2 = garble(c)
        assert gb.serialize_garbled(g1) == gb.serialize_garbled(g2)
        assert i1 == i2


class TestDecode:
    def test_zero_labels_decode_to_zero(self):
        # identity circuit: outputs are the input wires, so output zero-labels
        # are exactly the inputs' zero labels
        b = CircuitBuilder()
        x = b.add_input_group("x", 8)
        c = b.build(x)
        _, info = garble(c)
        zeros = zero(range(8))
        assert gb.decode(info, zeros) == [0] * 8
        flipped = [z ^ DELTA.bits for z in zeros]
        assert gb.decode(info, flipped) == [1] * 8

    def test_length_mismatch(self):
        c = build_adder(4)
        _, info = garble(c)
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
        garbled, _ = garble(c)
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
        sequential = [gb.serialize_garbled(garble(c)[0]) for c in circuits]
        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(garble, c) for c in circuits]
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
        garbled, _ = garble(c1)
        with pytest.raises(gb.GarblingError):
            gb.evaluate(garbled, c2, active([0] * 16))

    def test_label_count_mismatch(self):
        c = build_adder(8)
        garbled, _ = garble(c)
        with pytest.raises(gb.GarblingError):
            gb.evaluate(garbled, c, [0] * 5)

    def test_truncated_garbled_bytes(self):
        c = build_adder(8)
        garbled, _ = garble(c)
        data = gb.serialize_garbled(garbled)
        with pytest.raises(gb.GarblingError):
            gb.parse_garbled(data[:-10])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _garbled_digests(circuit):
    garbled, info = garble(circuit)
    return _sha(gb.serialize_garbled(garbled)), _sha(bytes(info.masks))


class TestGoldenBytes:
    """SHA-256 of garbled tables and decoding masks, recorded from the
    gate-by-gate engine that the level-batched one replaced.

    Re-recorded when a NOT became an XOR with the constant-one wire and
    every zero label here became PRF(KEY, wire). Under the former delta and
    label source, the tables and masks of the three circuits without a NOT
    (no_gates, input_and_const_outputs, long_xor_chain) still matched the
    old records byte for byte, so only the labels moved them."""

    EDGE = {
        "no_gates": (
            "5c7c706b2b99ce4fe639a6c4edfc80e964e68c956f7095af9f41125427d09a49",
            "85f90dfea1d8027e1463e5ca971a250110a20df0119d204a74220bc63516d15b",
        ),
        "input_and_const_outputs": (
            "ff955d3118e81835fffa75cac4f2178e626bbc6dd4fc8fbc5f459b92e2d8d5d5",
            "cc6cd9b042500b2a1374d40ddfeb605aa5ebde2214067bbb761e85d4f0ab20b9",
        ),
        "inv_of_constants": (
            "7256b5b67d6b8c806014dfbb5564515d341f2b6777852ace6feb3cb051e7d2fc",
            "85f90dfea1d8027e1463e5ca971a250110a20df0119d204a74220bc63516d15b",
        ),
        "long_xor_chain": (
            "4531fc09db30669b5ef5eb67a35c6efcaaf94443389be89a95574ae4d030afeb",
            "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        ),
    }

    def _check_workload(self, circuit, tables, masks, outputs):
        assert _garbled_digests(circuit) == (tables, masks)
        garbled, _ = garble(circuit)
        bits = [int(i % 3 == 0) for i in range(circuit.n_inputs)]
        labels = gb.evaluate(garbled, circuit, active(bits))
        assert _sha(b"".join(v.to_bytes(16, "big") for v in labels)) == outputs

    def test_ld_m10(self):
        """Re-recorded from the level-batched engine when the LD products
        moved to column addition, a dedicated squarer and signed-digit
        constants: the circuit changed, so its tables did."""
        from mpcmarket.protocol import LdComputation

        self._check_workload(
            LdComputation(count_bits=11, m_instances=10).circuit,
            "c9250923ac4a75aa0c475bcda654dc3d88fd051d6bd2099f48379ee1b9526910",
            "701917b2e26d9f2511c4f68c20cda27c09d046df28bddf78b09d3215305920ac",
            "f32e821bb97a908462dd7fdd4a444e8f2cd50ae672e735d11a01409f19a72d07",
        )

    def test_lr_range10(self, bundled_model):
        from mpcmarket.protocol import LrComputation

        self._check_workload(
            LrComputation(model=bundled_model, range_bits=10).circuit,
            "5da0b4bd6323f3a989bc834d944a69178ae76fc2396ce23b963e3e945a35f1bf",
            "1d9b4b0bfab899c4a758e459c07e42d9bbc6c2d93bc13b1987b0091a97031f4a",
            "751b7fad584cccdf633b2a22788c6ec0a6ac5b1754303e6b93c4de3399029f12",
        )

    @pytest.mark.parametrize("name", sorted(EDGE))
    def test_edge_circuit(self, name):
        circuit = edge_circuits()[name]
        assert _garbled_digests(circuit) == self.EDGE[name]
        for value in range(1 << circuit.n_inputs):
            bits = bits_from_int(value, circuit.n_inputs)
            assert roundtrip(circuit, bits) == eval_plain(circuit, bits)


class TestLevelSchedule:
    def test_levels_partition_gates_by_depth(self):
        c = build_multiplier(6)
        depth = [0] * c.n_wires
        seen_ands = []
        rebuilt = []  # (kind, a, b, out) of every gate, from the levels
        for d, lv in enumerate(c.levels, start=1):
            reads = [*lv.xor_in.ravel(), *lv.and_in.ravel()]
            assert all(depth[w] < d for w in reads) and max(depth[w] for w in reads) == d - 1
            for w in (*lv.xor_out, *lv.and_out):
                depth[w] = d
            ords = lv.and_rows[0] // 2
            assert lv.and_rows.tolist() == [(2 * ords).tolist(), (2 * ords + 1).tolist()]
            assert lv.and_tweak.tolist() == (lv.and_rows + 1).tolist()
            seen_ands += ords.tolist()
            rebuilt += [(XOR, a, b, o) for a, b, o in zip(*lv.xor_in, lv.xor_out)]
            rebuilt += [(AND, a, b, o) for a, b, o in zip(*lv.and_in, lv.and_out)]
        assert sorted(rebuilt, key=lambda g: g[3]) == [tuple(g) for g in c.gates.tolist()]
        assert sorted(seen_ands) == list(range(c.stats.non_xor))
        and_outs = c.gates[c.gates[:, 0] == AND, 3].tolist()  # the out column of AND rows
        for lv in c.levels:
            assert [and_outs[k] for k in lv.and_rows[0] // 2] == lv.and_out.tolist()

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
            out = run_protocol2(comp, inputs, seed=seed)
            assert out.result == out.oracle
        assert builds == [comp.circuit]


class TestAesCallsPerLevel:
    """Garbling and evaluation call the cipher once per level that has AND
    gates, with all of its hash blocks, and never on the other levels."""

    @staticmethod
    def _blocks_per_call(monkeypatch, circuit):
        calls = []
        cipher = gb._new_cipher

        def counting():
            update = cipher().update

            def counted(data):
                calls.append(len(data) // 16)
                return update(data)

            return types.SimpleNamespace(update=counted)

        monkeypatch.setattr(gb, "_new_cipher", counting)
        garbled, _ = garble(circuit)
        garbling = calls[:]
        calls.clear()
        gb.evaluate(garbled, circuit, active([0] * circuit.n_inputs))
        return garbling, calls

    def _check(self, monkeypatch, circuit, and_levels, levels):
        widths = [len(lv.and_out) for lv in circuit.levels if len(lv.and_out)]
        assert (len(widths), len(circuit.levels)) == (and_levels, levels)
        garbling, evaluation = self._blocks_per_call(monkeypatch, circuit)
        assert garbling == [4 * m for m in widths]  # H(a0), H(a1), H(b0), H(b1)
        assert evaluation == [2 * m for m in widths]  # H(a), H(b)

    def test_ld_m10(self, monkeypatch):
        """(326, 336) before the LD products moved to column addition, a
        dedicated squarer and signed-digit constants."""
        from mpcmarket.protocol import LdComputation

        self._check(monkeypatch, LdComputation(count_bits=11, m_instances=10).circuit, 239, 265)

    def test_lr_range10(self, monkeypatch, bundled_model):
        from mpcmarket.protocol import LrComputation

        circuit = LrComputation(model=bundled_model, range_bits=10).circuit
        self._check(monkeypatch, circuit, 177, 243)


class TestEvaluateRejects:
    def test_wrong_and_count(self):
        c = build_adder(8)
        garbled, _ = garble(c)
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
        garbled, _ = garble(c)
        bad = dataclasses.replace(garbled, circuit_hash=bytes(32))
        with pytest.raises(gb.GarblingError, match="do not match"):
            gb.evaluate(bad, c, active([0] * 16))
