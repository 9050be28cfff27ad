"""Circuit IR, its validation, builders and plaintext evaluation."""

import hashlib
import random
import struct

import numpy as np
import pytest

from mpcmarket.circuits import (
    AND,
    XOR,
    Circuit,
    CircuitBuilder,
    CircuitError,
    FixedPointSpec,
    InputGroup,
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
    signed_from_bits,
)


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


def _word_circuit(build, *widths):
    """Circuit over input groups of the given widths, with ``build``'s word as output."""
    b = CircuitBuilder()
    words = [b.add_input_group(f"x{i}", w) for i, w in enumerate(widths)]
    return b.build(build(b, *words))


def _value(circuit, *values):
    widths = [g.width for g in circuit.input_groups]
    return int_from_bits(run(circuit, *zip(values, widths)))


class TestColumnArithmetic:
    """``sum_columns`` and the three products built on it, against Python
    integers: exhaustive at small widths, random at the LD circuit's widths."""

    def test_sum_columns_random_heights(self):
        rng = random.Random(0xC0)
        for _ in range(40):
            heights = [rng.randrange(6) for _ in range(rng.randrange(1, 9))]
            width = rng.randrange(1, len(heights) + 3)
            b = CircuitBuilder()
            x = b.add_input_group("x", max(1, sum(heights)))
            it = iter(x)
            cols = [[next(it) for _ in range(h)] for h in heights]
            c = b.build(b.sum_columns(cols, width))
            assert len(c.output_wires) == width
            for _ in range(20):
                v = rng.randrange(1 << len(x))
                want = sum(((v >> w) & 1) << k for k, col in enumerate(cols) for w in col)
                assert _value(c, v) == want % (1 << width)

    @pytest.mark.parametrize(
        "la, lb", [(w, w) for w in range(1, 7)] + [(1, 6), (6, 1), (3, 5), (6, 4)]
    )
    def test_mul_unsigned_exhaustive(self, la, lb):
        c = _word_circuit(CircuitBuilder.mul_unsigned, la, lb)
        assert len(c.output_wires) == la + lb
        for x in range(1 << la):
            for y in range(1 << lb):
                assert _value(c, x, y) == x * y

    @pytest.mark.parametrize("la, lb", [(11, 11), (20, 11), (20, 20), (40, 11)])
    def test_mul_unsigned_random_at_ld_widths(self, la, lb):
        c = _word_circuit(CircuitBuilder.mul_unsigned, la, lb)
        rng = random.Random(la * 64 + lb)
        top = [((1 << la) - 1, (1 << lb) - 1), (1 << (la - 1), 1 << (lb - 1))]
        for x, y in top + [(rng.randrange(1 << la), rng.randrange(1 << lb)) for _ in range(150)]:
            assert _value(c, x, y) == x * y

    @pytest.mark.parametrize("width", range(1, 7))
    def test_square_signed_exhaustive(self, width):
        # The minimum -2^(width-1) is included: its |a| reads as an unsigned word.
        c = _word_circuit(CircuitBuilder.square_signed, width)
        assert len(c.output_wires) == 2 * width
        for v in range(1 << width):
            a = v - (1 << width) if v >> (width - 1) else v
            assert _value(c, v) == a * a

    def test_square_signed_random_at_21_bits(self):
        c = _word_circuit(CircuitBuilder.square_signed, 21)
        rng = random.Random(0x5A)
        values = [0, 1, -1, (1 << 20) - 1, -(1 << 20) + 1, -(1 << 20)]
        for a in values + [rng.randrange(-(1 << 20), 1 << 20) for _ in range(150)]:
            assert _value(c, a & ((1 << 21) - 1)) == a * a

    CONSTANTS = [0, 1, 2, 3, 1 << 5, (1 << 5) - 1, (1 << 7) - 1, 1000, 3841]

    @pytest.mark.parametrize("const", CONSTANTS)
    def test_mul_const_unsigned_exhaustive_at_8_bits(self, const):
        # Every operand with the top bit set is here too: a sign-extended
        # subtrahend would get those wrong.
        c = _word_circuit(lambda b, x: b.mul_const_unsigned(x, const), 8)
        assert len(c.output_wires) == max(1, (255 * const).bit_length())
        for x in range(256):
            assert _value(c, x) == x * const

    @pytest.mark.parametrize("const", CONSTANTS)
    def test_mul_const_unsigned_random_at_40_bits(self, const):
        c = _word_circuit(lambda b, x: b.mul_const_unsigned(x, const), 40)
        rng = random.Random(const)
        top = [(1 << 40) - 1, 1 << 39] + [rng.randrange(1 << 39, 1 << 40) for _ in range(40)]
        for x in top + [rng.randrange(1 << 40) for _ in range(60)]:
            assert _value(c, x) == x * const

    def test_signed_digits_use_fewer_ands_than_binary_shift_add(self):
        def shift_add(b, x, const):
            # one add_unsigned per further set bit of the constant
            rows = [b.shift_left(x, k) for k in range(const.bit_length()) if const >> k & 1]
            acc = rows[0]
            for row in rows[1:]:
                acc = b.add_unsigned(b.zext(acc, len(row)), row)
            return acc

        for width in (8, 52):
            naf = _word_circuit(lambda b, x: b.mul_const_unsigned(x, 1000), width)
            binary = _word_circuit(lambda b, x: shift_add(b, x, 1000), width)
            assert naf.stats.non_xor < binary.stats.non_xor / 2
            for x in (0, 1, (1 << width) - 1):
                assert _value(binary, x) == _value(naf, x) == 1000 * x


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
        q = b.square_signed(x)
        n = b.negate(x)
        c = b.build(s + d + q + n)
        for _ in range(500):
            a = rng.randrange(-(1 << 11), 1 << 11)
            bb = rng.randrange(-(1 << 11), 1 << 11)
            out = run(c, (a, 12), (bb, 12))
            ls, ld_, lq, ln = len(s), len(d), len(q), len(n)
            off = 0
            assert signed_from_bits(out[off : off + ls]) == a + bb
            off += ls
            assert signed_from_bits(out[off : off + ld_]) == a - bb
            off += ld_
            assert int_from_bits(out[off : off + lq]) == a * a
            off += lq
            if a != -(1 << 11):  # two's-complement negation edge
                assert signed_from_bits(out[off : off + ln]) == -a

    def test_mul_const_signed(self):
        rng = random.Random(0x52)
        for const in (0, 1, -1, 3, -5, 255, -1000, 3841):
            b = CircuitBuilder()
            x = b.add_input_group("x", 10)
            w = b.mul_const_signed(x, const)
            c = b.build(w)
            for _ in range(50):
                a = rng.randrange(-(1 << 9), 1 << 9)
                assert signed_from_bits(run(c, (a, 10))) == a * const

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
            assert signed_from_bits(out[1:]) == max(a, bb)

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


class TestValidation:
    # Two inputs, the constant wires 2 and 3, and one AND gate writing wire 4.
    GOOD = dict(n_inputs=2, input_groups=(InputGroup("x", 0, 2),),
                gates=np.array([[AND, 0, 1, 4]]), output_wires=(4,))

    @pytest.mark.parametrize("change, message", [
        (dict(gates=np.array([[3, 0, 0, 4]])), "unknown gate kind 3 at wire 4"),
        (dict(gates=np.array([[2, 0, -1, 4]])), "unknown gate kind 2 at wire 4"),
        (dict(gates=np.array([[XOR, 0, -1, 4]])), "gate output 4 reads undefined wire -1"),
        (dict(gates=np.array([[AND, 0, 4, 4]])), "gate output 4 reads undefined wire 4"),
        (dict(gates=np.array([[AND, 0, 1, 5]])), "must be dense, got 5 expected 4"),
        (dict(output_wires=(5,)), "output wire 5 out of range"),
        (dict(gates=np.array([[AND, 0, 2**32 + 1, 4]])), r"\(g, 4\) int32 rows"),
        (dict(gates=np.array([AND, 0, 1, 4])), r"got shape \(4,\)"),
        (dict(input_groups=(InputGroup("x", 0, 1), InputGroup("x", 1, 1))),
         "duplicate input group 'x'"),
        (dict(input_groups=(InputGroup("x", 0, 2), InputGroup("y", 2, 0))),
         "input group 'y' must have positive width"),
        (dict(input_groups=(InputGroup("x", 1, 1), InputGroup("y", 0, 1))),
         "input group 'x' starts at 1, expected 0"),
        (dict(input_groups=(InputGroup("x", 0, 1),)), "input groups cover 1 wires, expected 2"),
        (dict(input_groups=(InputGroup("x", 0, 3),)), "input groups cover 3 wires, expected 2"),
    ], ids=["unknown-kind", "kind-2", "negative-b", "undefined-wire", "sparse-outputs", "output-range",
            "beyond-int32", "not-rows", "repeated-group", "empty-group", "groups-out-of-order",
            "groups-short", "groups-past-inputs"])
    def test_malformed_circuit_rejected(self, change, message):
        assert Circuit(**self.GOOD).stats == (1, 1)
        with pytest.raises(CircuitError, match=message):
            Circuit(**{**self.GOOD, **change})

    def test_builders_are_deterministic(self):
        assert build_adder(16).digest == build_adder(16).digest
        t1 = [3, 1, 4, 1]
        assert build_lookup(t1, 2, 3).digest == build_lookup(t1, 2, 3).digest

    def test_gate_array_is_read_only(self):
        c = build_adder(8)
        with pytest.raises(ValueError):
            c.gates[0, 1] = 0
        # The circuit copies the rows it is given, so the caller's array
        # cannot change it either.
        rows = np.array([[AND, 0, 1, 4]], dtype=np.int32)
        c = Circuit(**{**self.GOOD, "gates": rows})
        rows[0, 0] = XOR
        assert c.gates.tolist() == [[AND, 0, 1, 4]]


class TestTile:
    @staticmethod
    def _named(circuit):
        """``group_names`` for ``Circuit.tile``: copy i's groups as c{i}.<name>."""
        return lambda i: [f"c{i}.{g.name}" for g in circuit.input_groups]

    @pytest.mark.parametrize("name", [*sorted(edge_circuits()), "adder4"])
    def test_each_copy_evaluates_as_the_instance(self, name):
        circuit = {**edge_circuits(), "adder4": build_adder(4)}[name]
        tiled = circuit.tile(3, self._named(circuit))
        n1 = circuit.n_inputs
        assert (tiled.n_inputs, len(tiled.gates)) == (3 * n1, 3 * len(circuit.gates))
        assert tiled.input_groups[-len(circuit.input_groups):] == tuple(
            InputGroup(f"c2.{g.name}", 2 * n1 + g.start, g.width) for g in circuit.input_groups
        )
        rng = random.Random(name)
        for _ in range(20):
            copies = [[rng.randrange(2) for _ in range(n1)] for _ in range(3)]
            want = [bit for bits in copies for bit in eval_plain(circuit, bits)]
            assert eval_plain(tiled, [bit for bits in copies for bit in bits]) == want

    @pytest.mark.parametrize("copies", [0, -1])
    def test_fewer_than_one_copy_rejected(self, copies):
        c = build_adder(4)
        with pytest.raises(CircuitError, match="at least one copy"):
            c.tile(copies, self._named(c))

    def test_wire_ids_past_int32_rejected_before_allocating(self):
        c = build_adder(4)
        with pytest.raises(CircuitError, match="past int32 wire ids"):
            c.tile(2**28, self._named(c))

    def test_repeated_group_names_rejected(self):
        c = build_adder(4)
        with pytest.raises(CircuitError, match="duplicate input group 'a'"):
            c.tile(2, lambda i: ["a", "b"])

    @pytest.mark.parametrize("name", ["inv_of_constants", "input_and_const_outputs", "ld"])
    def test_levels_equal_the_depth_loop_on_the_same_fields(self, name):
        """A tiled circuit repeats its instance's depths; the schedule must
        equal the one the depth loop builds over every gate of a circuit
        that was not tiled."""
        from mpcmarket.analytics.ld import build_ld_circuit

        if name == "ld":
            tiled = build_ld_circuit(5, 4, 3841, 1000, contributors=2)
        else:
            circuit = edge_circuits()[name]
            tiled = circuit.tile(5, self._named(circuit))
        plain = Circuit(tiled.n_inputs, tiled.input_groups, tiled.gates, tiled.output_wires)
        assert plain.digest == tiled.digest
        want = Circuit.levels.func(plain)
        assert len(tiled.levels) == len(want)
        for got_level, want_level in zip(tiled.levels, want):
            for got, expected in zip(got_level, want_level):
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)


def _digest_by_struct(c):
    """``Circuit.digest`` rebuilt field by field with ``struct``."""
    n_wires = c.n_inputs + 2 + len(c.gates)
    h = hashlib.sha256(struct.pack(">IIII", c.n_inputs, c.n_inputs, c.n_inputs + 1, n_wires))
    for g in c.input_groups:
        h.update(g.name.encode() + struct.pack(">II", g.start, g.width))
    h.update(struct.pack(f">{len(c.output_wires)}I", *c.output_wires))
    for kind, a, b, out in c.gates.tolist():
        h.update(struct.pack(">BiiI", kind, a, b, out))
    return h.digest()


class TestDigestLayout:
    """The digest binds garbled tables to a circuit; its bytes must not move."""

    def test_adder(self):
        c = build_adder(8)
        assert c.digest == _digest_by_struct(c)

    def test_ld(self):
        """The total was 132550 before the LD products moved to column
        addition, a dedicated squarer and signed-digit constants."""
        from mpcmarket.protocol import LdComputation

        c = LdComputation(count_bits=11, m_instances=10).circuit
        assert c.stats.total == 102760
        assert c.digest == _digest_by_struct(c)

    def test_lr(self, bundled_model):
        from mpcmarket.protocol import LrComputation

        c = LrComputation(model=bundled_model, range_bits=10).circuit
        assert c.stats.total == 114560
        assert c.digest == _digest_by_struct(c)


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
