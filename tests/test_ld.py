"""Linkage-disequilibrium statistics: oracle, circuit, and HE plan."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mpcmarket.analytics.datagen import gen_haplotype_counts
from mpcmarket.analytics.ld import (
    GenotypeCounts,
    HaplotypeCounts,
    LdStatisticUndefined,
    PlanRejected,
    build_ld_circuit,
    crt_combine,
    genotype_to_allele_counts,
    ld_decide_plain,
    ld_input_bits,
    ld_value_bounds,
)
from mpcmarket.circuits import CircuitError, eval_plain, gate_stats
from mpcmarket.he import bfv
from mpcmarket.protocol.computations import CiphertextOps, LdComputation, NoiseOps

THRESH = (3841, 1000)  # chi-square at 1 dof, p = 0.05


def random_counts(rng, n_max):
    while True:
        n = rng.randrange(4, n_max + 1)
        cuts = sorted(rng.randrange(n + 1) for _ in range(3))
        c = HaplotypeCounts(cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2])
        if min(c.margins) > 0:
            return c


class TestPlainOracle:
    def test_perfect_equilibrium(self):
        r = ld_decide_plain(HaplotypeCounts(25, 25, 25, 25), *THRESH)
        assert r.d_coefficient == 0
        assert r.chi_square == 0
        assert r.decision is False

    def test_worked_example(self):
        # N=100, N_A=N_B=50, diff = 100*30 - 2500 = 500
        # lhs = 2*100*500^2 = 50,000,000; margins product = 50^4 = 6,250,000
        r = ld_decide_plain(HaplotypeCounts(30, 20, 20, 30), *THRESH)
        assert r.lhs == 50_000_000
        assert r.rhs == 3841 * 6_250_000
        assert r.chi_square == Fraction(8)
        assert r.d_coefficient == Fraction(5, 100)
        assert r.decision is True  # 50e6 * 1000 > 3841 * 6.25e6

    def test_zero_margin_undefined(self):
        with pytest.raises(LdStatisticUndefined):
            ld_decide_plain(HaplotypeCounts(50, 50, 0, 0), *THRESH)

    def test_integer_rule_matches_float_chi_square(self):
        rng = random.Random(0x1D)
        for _ in range(1000):
            c = random_counts(rng, 1600)
            r = ld_decide_plain(c, *THRESH)
            chi = float(r.chi_square)
            # agreement except within a float ulp of the threshold
            if abs(chi - 3.841) > 1e-9:
                assert r.decision == (chi > 3.841)

    def test_chi_square_zero_iff_d_zero(self):
        for c in gen_haplotype_counts(0xE0, rows=50, n_total=240, target_d=0.0):
            r = ld_decide_plain(c, *THRESH)
            assert r.chi_square == 0 and r.d_coefficient == 0
        for c in gen_haplotype_counts(0xE1, rows=50, n_total=240, target_d=0.2):
            r = ld_decide_plain(c, *THRESH)
            if r.d_coefficient != 0:
                assert r.chi_square != 0


class TestGenotypeCounts:
    def test_homozygous_population(self):
        assert genotype_to_allele_counts(GenotypeCounts(5, 0, 0)) == (10, 0, 10)

    def test_symmetric(self):
        assert genotype_to_allele_counts(GenotypeCounts(1, 2, 1)) == (4, 4, 8)

    def test_counts_partition_total(self):
        rng = random.Random(0x6E)
        for _ in range(500):
            g = GenotypeCounts(rng.randrange(50), rng.randrange(50), rng.randrange(50))
            if sum(g) == 0:
                continue
            n_A, n_a, n = genotype_to_allele_counts(g)
            assert n_A + n_a == n == 2 * sum(g)

    def test_empty_undefined(self):
        with pytest.raises(LdStatisticUndefined):
            genotype_to_allele_counts(GenotypeCounts(0, 0, 0))


class TestLdCircuit:
    def test_worked_example_bits(self):
        circ = build_ld_circuit(11, 1, *THRESH)
        assert eval_plain(circ, ld_input_bits(HaplotypeCounts(30, 20, 20, 30), 11)) == [1]
        assert eval_plain(circ, ld_input_bits(HaplotypeCounts(25, 25, 25, 25), 11)) == [0]

    def test_matches_oracle_randomized(self):
        circ = build_ld_circuit(11, 1, *THRESH)
        rng = random.Random(0xC1)
        for _ in range(250):
            c = random_counts(rng, 1600)
            want = ld_decide_plain(c, *THRESH).decision
            assert eval_plain(circ, ld_input_bits(c, 11)) == [1 if want else 0]

    def test_multi_instance_outputs(self):
        circ = build_ld_circuit(8, 3, *THRESH)
        rng = random.Random(0xC2)
        cs = [random_counts(rng, 200) for _ in range(3)]
        bits = []
        for c in cs:
            bits.extend(ld_input_bits(c, 8))
        got = eval_plain(circ, bits)
        want = [1 if ld_decide_plain(c, *THRESH).decision else 0 for c in cs]
        assert got == want

    def test_contributor_aggregation(self):
        circ = build_ld_circuit(8, 1, *THRESH, contributors=2)
        # shares summing to (30,20,20,30)
        bits = []
        for name_total in (30, 20, 20, 30):
            a = name_total // 2
            for share in (a, name_total - a):
                bits.extend((share >> k) & 1 for k in range(8))
        # circuit interleaves contributor groups per count name
        circ_groups = [g.name for g in circ.input_groups]
        assert circ_groups == [
            "i0.c0.n_AB", "i0.c1.n_AB", "i0.c0.n_Ab", "i0.c1.n_Ab",
            "i0.c0.n_aB", "i0.c1.n_aB", "i0.c0.n_ab", "i0.c1.n_ab",
        ]
        assert eval_plain(circ, bits) == [1]

    def test_gate_count_reference_band(self):
        # desk-scale comparison row: 293550 gates / 81690 non-XOR at M=10
        st = gate_stats(build_ld_circuit(11, 10, *THRESH))
        assert 293550 / 3 <= st.total <= 293550 * 3
        assert 81690 / 3 <= st.non_xor <= 81690 * 3

    def test_linear_scaling_in_m(self):
        s1 = gate_stats(build_ld_circuit(11, 1, *THRESH))
        s5 = gate_stats(build_ld_circuit(11, 5, *THRESH))
        assert s5.total == 5 * s1.total
        assert s5.non_xor == 5 * s1.non_xor

    def test_width_overflow_rejected(self):
        with pytest.raises(CircuitError):
            build_ld_circuit(12, 1, 3841, 100000)

    def test_count_bits_out_of_range(self):
        with pytest.raises(CircuitError):
            build_ld_circuit(2, 1, *THRESH)

    def test_input_bits_validation(self):
        with pytest.raises(CircuitError):
            ld_input_bits(HaplotypeCounts(300, 0, 0, 0), 8)


class TestCrtCombine:
    def test_reconstructs(self):
        assert crt_combine({3: 2, 5: 3, 7: 2}) == 23
        moduli = [1032193, 1030145]
        value = 987654321
        assert crt_combine({m: value % m for m in moduli}) == value


def planned_noise(params, t, num, den):
    """The planner's (lhs, rhs) noise estimates under modulus ``t``: the LD
    circuit replayed on noise at four fresh maker shares per count."""
    comp = LdComputation(count_bits=11, threshold_num=num, threshold_den=den)
    start = dict.fromkeys(HaplotypeCounts._fields, params.fresh_noise_log2() + 2)
    out = comp.he_circuit(NoiseOps(params, t), start)
    return out["lhs"], out["rhs"]


class TestHePlan:
    def test_bounds_cover_worked_example(self):
        lhs_max, rhs_max = ld_value_bounds(11, *THRESH)
        assert lhs_max >= 50_000_000 * 1000
        assert rhs_max >= 3841 * 6_250_000

    def test_plan_rejected_at_small_degree(self, params4096):
        with pytest.raises(PlanRejected):
            LdComputation(count_bits=11).he_plan(params4096)

    def test_plan_moduli_cover_range(self, params8192):
        plan = LdComputation(count_bits=11).he_plan(params8192)
        lhs_max, rhs_max = ld_value_bounds(11, *THRESH)
        assert math.prod(plan.moduli) > max(lhs_max, rhs_max)

    def test_planner_estimate_is_the_runtime_estimate(self, params8192, keys8192):
        # Four maker shares per count, summed as the buyer sums them, under
        # the plan's last modulus (not params.t): the planner's (lhs, rhs)
        # estimates are the ones the runtime operations carry.
        _, pk, rk = keys8192
        num, den = 1_000_003, 3
        comp = LdComputation(count_bits=11, threshold_num=num, threshold_den=den)
        t = comp.he_plan(params8192).moduli[-1]
        assert t != params8192.t
        rng = np.random.default_rng(22)
        shares = {}
        for name in ("n_AB", "n_Ab", "n_aB", "n_ab"):
            cts = [bfv.encrypt(pk, bfv.encode_scalar(1, params8192, t), rng) for _ in range(4)]
            shares[name] = bfv.he_add(bfv.he_add(bfv.he_add(cts[0], cts[1]), cts[2]), cts[3])
        out = comp.he_circuit(CiphertextOps(params8192, t, rk), shares)
        assert (out["lhs"].noise_log2, out["rhs"].noise_log2) == pytest.approx(
            planned_noise(params8192, t, num, den)
        )
        base = planned_noise(params8192, t, 1, 1)
        assert planned_noise(params8192, t, 1, 1 << 12)[0] == pytest.approx(base[0] + 12)
        assert planned_noise(params8192, t, 1 << 12, 1)[1] == pytest.approx(base[1] + 12)

    def test_worked_example_encrypted(self, params8192, keys8192):
        sk, pk, rk = keys8192
        comp = LdComputation(count_bits=11, m_instances=2)
        plan = comp.he_plan(params8192)
        counts = [HaplotypeCounts(30, 20, 20, 30), HaplotypeCounts(25, 25, 25, 25)]
        maker_input = {f"i{i}.{k}": v for i, c in enumerate(counts) for k, v in c._asdict().items()}
        rng = np.random.default_rng(21)
        listings = [(0, *e) for e in comp.he_encrypt_inputs(pk, plan, maker_input, rng)]
        entries = comp.he_evaluate(params8192, rk, plan, listings)
        residues = {}
        for tag, blob in entries:
            pt = bfv.decrypt(sk, bfv.ciphertext_from_bytes(blob, params8192))
            residues[tuple(tag.split(":"))] = bfv.batch_decode(pt, 2)
        ts = [str(t) for t in plan.moduli]
        # instance 0: the worked example with den folded into the lhs
        lhs0 = crt_combine({int(t): residues["lhs", t][0] for t in ts})
        rhs0 = crt_combine({int(t): residues["rhs", t][0] for t in ts})
        assert lhs0 == 50_000_000_000
        assert rhs0 == 24_006_250_000
        # instance 1: equilibrium, lhs exactly zero
        lhs1 = crt_combine({int(t): residues["lhs", t][1] for t in ts})
        assert lhs1 == 0
        assert comp.he_finish(sk, plan, entries) == {"decisions": [True, False]}
