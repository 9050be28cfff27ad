"""Logistic-regression inference: sigmoid table, fixed-point oracle, circuit."""

import hashlib
import random
import struct

import pytest

from mpcmarket.analytics.datagen import (
    gen_lr_samples,
    load_lr_csv,
    write_lr_csv,
)
from mpcmarket.analytics.lr import (
    DEFAULT_PROB_SPEC,
    LrModel,
    build_lr_circuit,
    build_sigmoid_table,
    load_model,
    lr_predict_fixed,
)
from mpcmarket.circuits import CircuitError, FixedPointSpec
from mpcmarket.circuits.ir import int_from_bits
from mpcmarket.protocol import LrComputation

from helpers import eval_plain, lr_predict_float


def lr_bits(circuit, row) -> list[int]:
    """The circuit's input bits, in wire order, for one feature row."""
    return [bit for _, bit in circuit.input_bits({f"x{j}": v for j, v in enumerate(row)})]


class TestSigmoidTable:
    def test_entry_at_zero_is_half(self):
        t = build_sigmoid_table(range_bits=10)
        mid = t.entries[1 << 9]  # grid point z = 0
        assert abs(mid - (1 << 30)) <= 1

    def test_monotone(self):
        t = build_sigmoid_table(range_bits=11)
        assert all(a <= b for a, b in zip(t.entries, t.entries[1:]))

    def test_symmetry(self):
        t = build_sigmoid_table(range_bits=10)
        q = t.out_spec.scale
        for i in range(1, 1 << 10):
            assert abs(t.entries[i] + t.entries[(1 << 10) - i] - q) <= 1

    @pytest.mark.parametrize("range_bits, digest", [
        (4, "418c2997827e176e12bc1d7a8df28fa1b62042a7b270dc9d816ba1bcf7a1c15b"),
        (16, "42c8551760bc4342d9995173c7bccff75da9cd2500f53806b270c522d114285f"),
    ])
    def test_entries_pinned(self, range_bits, digest):
        # The smallest and the largest table, as little-endian u32 entries.
        e = build_sigmoid_table(range_bits).entries
        assert hashlib.sha256(struct.pack(f"<{len(e)}I", *e)).hexdigest() == digest

    @pytest.mark.parametrize("range_bits", [3, 17])
    def test_range_bits_outside_4_to_16_rejected(self, range_bits, bundled_model):
        with pytest.raises(CircuitError, match=f"range_bits {range_bits} outside"):
            build_sigmoid_table(range_bits)
        with pytest.raises(CircuitError, match=f"range_bits {range_bits} outside"):
            LrComputation(model=bundled_model, range_bits=range_bits)

    def test_index_clamps(self):
        t = build_sigmoid_table(range_bits=10)
        big = 1 << 40
        assert t.index_for_z(big, 16) == (1 << 10) - 1
        assert t.index_for_z(-big, 16) == 0
        assert t.index_for_z(0, 16) == 1 << 9


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        m = LrModel(weights=(128, -320, 0), bias=192, spec=FixedPointSpec(16, 8))
        path = tmp_path / "model.txt"
        path.write_text("16 8\n192\n128\n-320\n0\n")
        back = load_model(str(path))
        assert back == m
        assert back.weights == (128, -320, 0)

    def test_unrepresentable_weight_rejected(self):
        with pytest.raises(CircuitError):
            LrModel(weights=(1 << 16,), bias=0, spec=FixedPointSpec(16, 8))

    def test_short_file_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("16 8\n")
        with pytest.raises(CircuitError):
            load_model(str(p))

    def test_bundled_model_shape(self, bundled_model):
        assert bundled_model.dim == 30
        assert bundled_model.spec == FixedPointSpec(16, 8)


class TestPlainOracle:
    def test_zero_model_gives_half(self):
        m = LrModel(weights=(0,) * 4, bias=0, spec=FixedPointSpec(16, 8))
        t = build_sigmoid_table(range_bits=10)
        p = lr_predict_fixed(m, [100, -200, 300, -400], t)
        assert p == t.entries[1 << 9]
        assert abs(t.out_spec.to_float(p) - 0.5) < 2**-20

    def test_large_bias_saturates(self):
        m = LrModel(weights=(0,) * 2, bias=(100 << 8), spec=FixedPointSpec(16, 8))
        t = build_sigmoid_table(range_bits=10)
        p = lr_predict_fixed(m, [0, 0], t)
        assert t.out_spec.to_float(p) > 0.999

    def test_dimension_mismatch(self, bundled_model):
        t = build_sigmoid_table(range_bits=10)
        with pytest.raises(CircuitError):
            lr_predict_fixed(bundled_model, [0] * 29, t)

    def test_dual_path_error_bound(self, bundled_model, bundled_dataset):
        rows, _ = bundled_dataset
        table = build_sigmoid_table(range_bits=12)
        worst = 0.0
        for row in rows:
            pf = lr_predict_float(bundled_model, row)
            pq = table.out_spec.to_float(lr_predict_fixed(bundled_model, row, table))
            worst = max(worst, abs(pf - pq))
        # table step 2^-8 with slope 1/4, plus z trunc 2^-8/4 and rounding
        assert worst <= 2**-6

    def test_classification_agreement(self, bundled_model, bundled_dataset):
        rows, _ = bundled_dataset
        table = build_sigmoid_table(range_bits=12)
        bound = 2**-6
        for row in rows:
            pf = lr_predict_float(bundled_model, row)
            pq = table.out_spec.to_float(lr_predict_fixed(bundled_model, row, table))
            if abs(pf - 0.5) > bound:
                assert (pq > 0.5) == (pf > 0.5)


class TestLrCircuit:
    def test_bit_exact_on_dataset_rows(self, bundled_model, bundled_dataset):
        rows, _ = bundled_dataset
        table = build_sigmoid_table(range_bits=10)
        circ = build_lr_circuit(bundled_model, table)
        for row in rows[:25]:
            want = lr_predict_fixed(bundled_model, row, table)
            got = int_from_bits(eval_plain(circ, lr_bits(circ, row)))
            assert got == want

    def test_bit_exact_on_random_inputs(self, bundled_model):
        table = build_sigmoid_table(range_bits=10)
        circ = build_lr_circuit(bundled_model, table)
        rng = random.Random(0x88)
        for _ in range(50):
            row = [rng.randrange(-(1 << 15), 1 << 15) for _ in range(30)]
            want = lr_predict_fixed(bundled_model, row, table)
            got = int_from_bits(eval_plain(circ, lr_bits(circ, row)))
            assert got == want

    def test_zero_weight_model_outputs_half(self):
        m = LrModel(weights=(0,) * 3, bias=0, spec=FixedPointSpec(16, 8))
        table = build_sigmoid_table(range_bits=10)
        circ = build_lr_circuit(m, table)
        bits = lr_bits(circ, [11, -22, 33])
        assert int_from_bits(eval_plain(circ, bits)) == table.entries[1 << 9]

    def test_reference_scaling_band(self, bundled_model):
        # desk-scale comparison rows: 106016 / 193056 / 371232 non-XOR
        reference = {10: 106016, 11: 193056, 12: 371232}
        counts = {}
        for k, ref in reference.items():
            st = build_lr_circuit(bundled_model, build_sigmoid_table(range_bits=k)).stats
            counts[k] = st.non_xor
            assert ref / 3 <= st.non_xor <= ref * 3
        assert 1.7 <= counts[11] / counts[10] <= 2.1
        assert 1.7 <= counts[12] / counts[11] <= 2.1

    def test_probability_output_width(self, bundled_model):
        table = build_sigmoid_table(range_bits=10)
        circ = build_lr_circuit(bundled_model, table)
        assert len(circ.output_wires) == DEFAULT_PROB_SPEC.total_bits


class TestDataFiles:
    def test_bundled_dataset_shape(self, bundled_dataset):
        rows, labels = bundled_dataset
        assert len(rows) == 569
        assert all(len(r) == 30 for r in rows)
        assert set(labels) == {0, 1}

    def test_synthetic_samples_shape_and_determinism(self, tmp_path, bundled_model):
        rows = gen_lr_samples(7, rows=569, dims=30)
        assert len(rows) == 569 and len(rows[0]) == 30
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lr_csv(str(p1), rows)
        write_lr_csv(str(p2), gen_lr_samples(7, rows=569, dims=30))
        assert p1.read_bytes() == p2.read_bytes()
        loaded, _ = load_lr_csv(str(p1), bundled_model)
        assert len(loaded) == 569
