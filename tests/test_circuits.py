"""Circuit IR, builders, plaintext evaluation, and the text format."""

import random

import pytest

from mpcmarket.circuits import (
    CircuitBuilder,
    CircuitError,
    FixedPointSpec,
    build_adder,
    build_greater_than,
    build_lookup,
    build_multiplier,
    eval_plain,
    parse_circuit,
    serialize_circuit,
)
from mpcmarket.circuits.ir import bits_from_int, int_from_bits


def run(circuit, *values_widths):
    bits = []
    for value, width in values_widths:
        bits.extend(bits_from_int(value, width))
    return eval_plain(circuit, bits)


class TestAdder:
    def test_small_sum(self):
        assert int_from_bits(run(build_adder(8), (1, 8), (1, 8))) == 2

    def test_wraparound(self):
        assert int_from_bits(run(build_adder(8), (255, 8), (1, 8))) == 0

    def test_random_against_native(self):
        c = build_adder(16)
        rng = random.Random(0xADD)
        for _ in range(1000):
            a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
            assert int_from_bits(run(c, (a, 16), (b, 16))) == (a + b) % (1 << 16)

    def test_gate_stats_ripple_carry(self):
        # n-1 ANDs: one per full-adder stage, none for the dropped carry-out
        assert build_adder(8).stats.non_xor == 7

    def test_width_out_of_range(self):
        with pytest.raises(CircuitError):
            build_adder(0)
        with pytest.raises(CircuitError):
            build_adder(65)


class TestMultiplier:
    def test_small(self):
        assert int_from_bits(run(build_multiplier(8), (3, 8), (5, 8))) == 15

    def test_zero_annihilator(self):
        assert int_from_bits(run(build_multiplier(8), (0, 8), (200, 8))) == 0

    def test_random_against_native(self):
        c = build_multiplier(16)
        rng = random.Random(0x3E)
        for _ in range(1000):
            a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
            assert int_from_bits(run(c, (a, 16), (b, 16))) == a * b

    def test_width_out_of_range(self):
        with pytest.raises(CircuitError):
            build_multiplier(33)


class TestGreaterThan:
    def test_strict(self):
        c = build_greater_than(4)
        assert run(c, (5, 4), (3, 4)) == [1]
        assert run(c, (7, 4), (7, 4)) == [0]

    def test_random_against_native(self):
        c = build_greater_than(64)
        rng = random.Random(0x61)
        for _ in range(1000):
            a, b = rng.randrange(1 << 64), rng.randrange(1 << 64)
            assert run(c, (a, 64), (b, 64)) == [1 if a > b else 0]

    def test_width_out_of_range(self):
        with pytest.raises(CircuitError):
            build_greater_than(129)


class TestLookup:
    def test_direct_indexing(self):
        c = build_lookup([7, 0, 3, 9], 2, 4)
        assert int_from_bits(run(c, (2, 2))) == 3

    def test_exhaustive_sweep(self):
        rng = random.Random(0x10)
        table = [rng.randrange(1 << 16) for _ in range(1 << 10)]
        c = build_lookup(table, 10, 16)
        for idx in range(1 << 10):
            assert int_from_bits(run(c, (idx, 10))) == table[idx]

    def test_non_xor_roughly_doubles_per_index_bit(self):
        rng = random.Random(0x11)
        counts = {}
        for k in (10, 11, 12):
            table = [rng.randrange(1 << 16) for _ in range(1 << k)]
            counts[k] = build_lookup(table, k, 16).stats.non_xor
        assert 1.9 <= counts[11] / counts[10] <= 2.1
        assert 1.9 <= counts[12] / counts[11] <= 2.1

    def test_table_length_mismatch(self):
        with pytest.raises(CircuitError):
            build_lookup([1, 2, 3], 2, 4)

    def test_value_overflow(self):
        with pytest.raises(CircuitError):
            build_lookup([1, 2, 3, 16], 2, 4)


class TestEvalPlain:
    def test_xor_only_self_inverse(self):
        b = CircuitBuilder()
        x = b.add_input_group("a", 8)
        y = b.add_input_group("b", 8)
        c = b.build([b.xor(xi, yi) for xi, yi in zip(x, y)])
        assert c.stats.non_xor == 0
        for v in (0, 1, 77, 255):
            assert int_from_bits(run(c, (v, 8), (v, 8))) == 0

    def test_length_mismatch(self):
        with pytest.raises(CircuitError):
            eval_plain(build_adder(8), [0] * 15)


class TestBuilderInternals:
    def test_signed_ops_against_native(self):
        rng = random.Random(0x51)
        b = CircuitBuilder()
        x = b.add_input_group("x", 12)
        y = b.add_input_group("y", 12)
        s = b.add_signed(x, y)
        d = b.sub_signed(x, y)
        p = b.mul_signed(x, y)
        q = b.square_signed(x)
        n = b.negate(x)
        c = b.build(s + d + p + q + n)
        for _ in range(500):
            a = rng.randrange(-(1 << 11), 1 << 11)
            bb = rng.randrange(-(1 << 11), 1 << 11)
            out = run(c, (a, 12), (bb, 12))
            ls, ld_, lp, lq, ln = len(s), len(d), len(p), len(q), len(n)
            off = 0
            assert int_from_bits(out[off : off + ls], signed=True) == a + bb
            off += ls
            assert int_from_bits(out[off : off + ld_], signed=True) == a - bb
            off += ld_
            assert int_from_bits(out[off : off + lp], signed=True) == a * bb
            off += lp
            assert int_from_bits(out[off : off + lq], signed=False) == a * a
            off += lq
            if a != -(1 << 11):  # two's-complement negation edge
                assert int_from_bits(out[off : off + ln], signed=True) == -a

    def test_mul_const_signed(self):
        rng = random.Random(0x52)
        for const in (0, 1, -1, 3, -5, 255, -1000, 3841):
            b = CircuitBuilder()
            x = b.add_input_group("x", 10)
            w = b.mul_const_signed(x, const)
            c = b.build(w)
            for _ in range(50):
                a = rng.randrange(-(1 << 9), 1 << 9)
                assert int_from_bits(run(c, (a, 10)), signed=True) == a * const

    def test_mux_and_greater_signed(self):
        rng = random.Random(0x53)
        b = CircuitBuilder()
        x = b.add_input_group("x", 8)
        y = b.add_input_group("y", 8)
        gt = b.greater_signed(x, y)
        m = b.mux(gt, x, y)
        c = b.build([gt] + m)
        for _ in range(300):
            a = rng.randrange(-128, 128)
            bb = rng.randrange(-128, 128)
            out = run(c, (a, 8), (bb, 8))
            assert out[0] == (1 if a > bb else 0)
            assert int_from_bits(out[1:], signed=True) == max(a, bb)

    def test_inputs_frozen_after_gates(self):
        b = CircuitBuilder()
        x = b.add_input_group("x", 2)
        b.xor(x[0], x[1])
        with pytest.raises(CircuitError):
            b.add_input_group("y", 2)

    def test_duplicate_group_rejected(self):
        b = CircuitBuilder()
        b.add_input_group("x", 2)
        with pytest.raises(CircuitError):
            b.add_input_group("x", 2)


class TestSerialization:
    def test_builder_determinism_byte_identical(self):
        assert serialize_circuit(build_adder(16)) == serialize_circuit(build_adder(16))
        t1 = [3, 1, 4, 1]
        assert serialize_circuit(build_lookup(t1, 2, 3)) == serialize_circuit(
            build_lookup(t1, 2, 3)
        )

    def test_round_trip(self):
        for c in (build_adder(8), build_multiplier(6), build_greater_than(12)):
            back = parse_circuit(serialize_circuit(c))
            assert back == c
            assert back.digest == c.digest

    def test_parse_error_has_line_number(self):
        text = serialize_circuit(build_adder(4))
        broken = text.replace("XOR", "XNOR", 1)
        with pytest.raises(CircuitError, match=r"line \d+"):
            parse_circuit(broken)

    @pytest.mark.parametrize("line,text", [
        (0, "13 x"), (1, "inputs two a:2 b:2"), (1, "inputs 2 a:2 b:x"), (2, "consts 4 x"),
        (3, "outputs 2 5 y"), (3, "outputs x"), (4, "2 1 0 z 6 XOR"), (4, "XOR"),
        (4, "2 1 0 6 INV"), (4, "0 1 6 AND"),
    ])
    def test_malformed_field_names_its_line(self, line, text):
        lines = serialize_circuit(build_adder(2)).splitlines()
        lines[line] = text
        with pytest.raises(CircuitError, match=rf"line {line + 1}:"):
            parse_circuit("\n".join(lines) + "\n")

    def test_truncated_header(self):
        with pytest.raises(CircuitError):
            parse_circuit("3 10\n")


class TestFixedPointSpec:
    def test_valid(self):
        s = FixedPointSpec(16, 8)
        assert s.quantize(1.0) == 256
        assert s.to_float(256) == 1.0

    def test_invalid(self):
        with pytest.raises(CircuitError):
            FixedPointSpec(16, 16)
        with pytest.raises(CircuitError):
            FixedPointSpec(65, 8)

    def test_quantize_overflow(self):
        with pytest.raises(CircuitError):
            FixedPointSpec(8, 4).quantize(100.0)
