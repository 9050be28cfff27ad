"""Linkage-disequilibrium statistics: oracle, circuit, and HE plan."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mpcmarket.analytics.datagen import gen_haplotype_counts
from mpcmarket.analytics.ld import (
    HaplotypeCounts,
    LdStatisticUndefined,
    PlanRejected,
    build_ld_circuit,
    crt_combine,
    ld_decide_plain,
    ld_group_names,
    ld_value_bounds,
)
from mpcmarket.circuits import CircuitError, eval_plain
from mpcmarket.he import bfv
from mpcmarket.protocol import run_protocol1
from mpcmarket.protocol.computations import CiphertextOps, Estimate, LdComputation, NoiseOps

THRESH = (3841, 1000)  # chi-square at 1 dof, p = 0.05


def ld_bits(circuit, *counts: HaplotypeCounts) -> list[int]:
    """The circuit's input bits, in wire order, for one table per instance."""
    values = {
        group: v
        for i, c in enumerate(counts)
        for name, v in c._asdict().items()
        for group in ld_group_names(i, name)
    }
    return [bit for _, bit in circuit.input_bits(values)]


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


class TestLdCircuit:
    def test_worked_example_bits(self):
        circ = build_ld_circuit(11, 1, *THRESH)
        assert eval_plain(circ, ld_bits(circ, HaplotypeCounts(30, 20, 20, 30))) == [1]
        assert eval_plain(circ, ld_bits(circ, HaplotypeCounts(25, 25, 25, 25))) == [0]

    def test_matches_oracle_randomized(self):
        circ = build_ld_circuit(11, 1, *THRESH)
        rng = random.Random(0xC1)
        for _ in range(250):
            c = random_counts(rng, 1600)
            want = ld_decide_plain(c, *THRESH).decision
            assert eval_plain(circ, ld_bits(circ, c)) == [1 if want else 0]

    def test_every_defined_table_at_count_bits_4(self):
        circ = build_ld_circuit(4, 1, *THRESH)
        tables = [
            HaplotypeCounts(a, b, c, d)
            for a in range(16) for b in range(16 - a) for c in range(16 - a - b)
            for d in range(16 - a - b - c)
        ]
        tables = [t for t in tables if min(t.margins) > 0]
        assert len(tables) == 3395
        for t in tables:
            want = ld_decide_plain(t, *THRESH).decision
            assert eval_plain(circ, ld_bits(circ, t)) == [int(want)]

    def test_lhs_at_its_top_bit(self):
        # N = 2047 with |diff| at its N^2/4 bound: den*lhs reaches bit 61,
        # the top of the 62-bit word the constant multiply builds.
        circ = build_ld_circuit(11, 1, *THRESH)
        tables = [HaplotypeCounts(1023, 0, 0, 1024), HaplotypeCounts(1024, 0, 0, 1023),
                  HaplotypeCounts(0, 1023, 1024, 0), HaplotypeCounts(0, 1024, 1023, 0),
                  HaplotypeCounts(1, 1023, 1023, 0)]
        for t in tables:
            r = ld_decide_plain(t, *THRESH)
            assert (r.lhs * THRESH[1]).bit_length() == 62
            assert eval_plain(circ, ld_bits(circ, t)) == [int(r.decision)]

    def test_multi_instance_outputs(self):
        circ = build_ld_circuit(8, 3, *THRESH)
        rng = random.Random(0xC2)
        cs = [random_counts(rng, 200) for _ in range(3)]
        got = eval_plain(circ, ld_bits(circ, *cs))
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
        st = build_ld_circuit(11, 10, *THRESH).stats
        assert 293550 / 3 <= st.total <= 293550 * 3
        assert 81690 / 3 <= st.non_xor <= 81690 * 3

    def test_linear_scaling_in_m(self):
        s1 = build_ld_circuit(11, 1, *THRESH).stats
        s5 = build_ld_circuit(11, 5, *THRESH).stats
        assert s5.total == 5 * s1.total
        assert s5.non_xor == 5 * s1.non_xor

    def test_width_overflow_rejected(self):
        with pytest.raises(CircuitError):
            build_ld_circuit(12, 1, 3841, 100000)

    def test_count_bits_out_of_range(self):
        with pytest.raises(CircuitError):
            build_ld_circuit(2, 1, *THRESH)


class TestCrtCombine:
    def test_reconstructs(self):
        assert crt_combine({3: 2, 5: 3, 7: 2}) == 23
        moduli = [1032193, 1030145]
        value = 987654321
        assert crt_combine({m: value % m for m in moduli}) == value


def planned_noise(params, t, num, den, ops=None):
    """The planner's estimate of e under modulus ``t`` (on ``ops``, by
    default a fresh :class:`NoiseOps`): the LD circuit replayed on noise at
    four fresh maker shares per count, under all of params' primes."""
    comp = LdComputation(count_bits=11, threshold_num=num, threshold_den=den)
    fresh = Estimate(params.fresh_noise_log2() + 2, len(params.q_primes))
    start = dict.fromkeys(HaplotypeCounts._fields, fresh)
    return comp.he_circuit(NoiseOps(params, t) if ops is None else ops, start)["e"]


class Recorded:
    """An op set that keeps, in order, every value its ops return, and the
    names of those ops."""

    def __init__(self, ops) -> None:
        self.ops, self.values, self.names = ops, [], []

    def __getattr__(self, name):
        op = getattr(self.ops, name)

        def record(*args, **kwargs):
            self.values.append(op(*args, **kwargs))
            self.names.append(name)
            return self.values[-1]

        return record

    def of(self, name: str) -> list:
        return [v for n, v in zip(self.names, self.values) if n == name]


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
        # the plan's last modulus (not params.t): the planner's estimate of e
        # is the one the runtime operations carry, and every value of the
        # circuit holds as many primes in the planner as at runtime.
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
        runtime = Recorded(CiphertextOps(params8192, t, rk))
        out = comp.he_circuit(runtime, shares)
        planner = Recorded(NoiseOps(params8192, t))
        planned = planned_noise(params8192, t, num, den, planner)
        assert out["e"].noise_log2 == pytest.approx(planned.log2)
        assert [len(ct.primes) for ct in runtime.values] == [v.primes for v in planner.values]
        assert [ct.noise_log2 for ct in runtime.values] == pytest.approx(
            [v.log2 for v in planner.values]
        )
        # Scaling both thresholds scales both terms of e (den*lhs and
        # num*rhs), and with them e's remaining budget: e settles to fewer
        # primes when its noise grows, losing less than a bit there.
        base, scaled = Recorded(NoiseOps(params8192, t)), Recorded(NoiseOps(params8192, t))
        e = [planned_noise(params8192, t, c, c, ops) for c, ops in ((1, base), (1 << 12, scaled))]
        for x, y in zip(base.of("mul_const"), scaled.of("mul_const")):
            assert (y.log2, y.primes) == (pytest.approx(x.log2 + 12), x.primes)
        budget = [params8192.budget_capacity(t, v.primes) - v.log2 for v in e]
        assert budget[0] - budget[1] == pytest.approx(12, abs=1)

    def test_session_relinearizes_five_times_per_modulus(self, params8192, monkeypatch):
        # The benchmark's he-ld session: M=10, four makers, n=8192 and three
        # moduli. Per modulus, in call order: the difference
        # n*N_AB - N_A*N_B in one call under 6 primes, its square under 5,
        # N_A*N_a and N_B*N_b under 6, and the final a*b - c*d under 4:
        # 15 he_mul calls, where one per product made 21.
        levels = []
        he_mul = bfv.he_mul

        def counted(*args):
            operands = [args[0], args[1], *(args[3] if len(args) > 3 and args[3] else ())]
            levels.append(min(len(ct.primes) for ct in operands))
            return he_mul(*args)

        monkeypatch.setattr(bfv, "he_mul", counted)
        comp = LdComputation(count_bits=11, m_instances=10)
        rng = random.Random(5)
        counts = [[rng.randrange(256) for _ in range(4)] for _ in range(10)]
        makers = [
            {f"i{i}.{name}": c[j] for i, c in enumerate(counts)}
            for j, name in enumerate(HaplotypeCounts._fields)
        ]
        out = run_protocol1(comp, makers, params8192, seed=26)
        assert out.verified
        assert len(comp.he_plan(params8192).moduli) == 3
        assert levels == [6, 5, 6, 6, 4] * 3

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
        e = [crt_combine({t: residues["e", str(t)][i] for t in plan.moduli}) for i in (0, 1)]
        _, rhs_max = ld_value_bounds(11, *THRESH)
        # instance 0: the worked example, den*lhs = 50_000_000_000 and
        # num*rhs = 24_006_250_000; instance 1: equilibrium, lhs exactly zero
        assert e == [50_000_000_000 - 24_006_250_000 + rhs_max, rhs_max - 24_006_250_000]
        assert comp.he_finish(sk, plan, entries) == {"decisions": [True, False]}

    def test_single_value_decision_at_its_edge(self):
        # den*lhs > num*rhs exactly when e = den*lhs - num*rhs + rhs_max > rhs_max.
        comp = LdComputation(count_bits=11, m_instances=3)
        lhs_max, rhs_max = ld_value_bounds(11, *THRESH)
        outputs = {"e": [rhs_max - 1, rhs_max, rhs_max + 1]}
        assert comp.he_result(outputs, lhs_max + rhs_max + 1) == {
            "decisions": [False, False, True]
        }

    def test_session_at_the_promise_maximum(self, params8192):
        # (1023, 0, 0, 1024) has N = 2047, the largest total the promise
        # allows, and reaches both bounds: e = lhs_max, the top of its range,
        # which the plan moduli cover without wrapping. Instance 1 is at
        # equilibrium (lhs = 0).
        comp = LdComputation(count_bits=11, m_instances=2)
        lhs_max, rhs_max = ld_value_bounds(11, *THRESH)
        assert math.prod(comp.he_plan(params8192).moduli) > lhs_max + rhs_max
        counts = [HaplotypeCounts(1023, 0, 0, 1024), HaplotypeCounts(25, 25, 25, 25)]
        top = ld_decide_plain(counts[0], *THRESH)
        assert (top.lhs * THRESH[1], top.rhs) == (lhs_max, rhs_max)
        maker = {f"i{i}.{k}": v for i, c in enumerate(counts) for k, v in c._asdict().items()}
        out = run_protocol1(comp, [maker], params8192, seed=24)
        assert out.verified
        assert out.result == {"decisions": [True, False]}
