"""Linkage-disequilibrium chi-square testing.

The decision rule compares 2N*(N*N_AB - N_A*N_B)^2 against
threshold * N_A*N_a*N_B*N_b, with the threshold supplied as an exact
rational num/den so every path (plaintext, circuit, HE) works in
integers. The plaintext evaluation is the oracle for both secure paths.

The |D| <= 1/4 identity (D = p_AB - p_A*p_B) bounds the difference term
by N^2/4, which is what lets circuit wire widths and HE plaintext-modulus
products stay small; both secure paths rely on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.builders import CircuitBuilder
from ..circuits.ir import Circuit, CircuitError
from ..he import bfv
from ..he.bfv import HeCiphertext, HeParams, HePlaintext, PublicKey, RelinKey


class LdStatisticUndefined(ValueError):
    """A margin count is zero, so the chi-square statistic does not exist."""


class PlanRejected(ValueError):
    """An HE computation plan failed its depth/modulus validation."""


class HaplotypeCounts(NamedTuple):
    n_AB: int
    n_Ab: int
    n_aB: int
    n_ab: int

    @property
    def total(self) -> int:
        return self.n_AB + self.n_Ab + self.n_aB + self.n_ab

    @property
    def margins(self) -> tuple[int, int, int, int]:
        """(N_A, N_a, N_B, N_b)."""
        return (
            self.n_AB + self.n_Ab,
            self.n_aB + self.n_ab,
            self.n_AB + self.n_aB,
            self.n_Ab + self.n_ab,
        )


class GenotypeCounts(NamedTuple):
    n_AA: int
    n_Aa: int
    n_aa: int


def genotype_to_allele_counts(g: GenotypeCounts) -> tuple[int, int, int]:
    """(N_A, N_a, N) from single-locus genotype tallies:
    N_A = 2*N_AA + N_Aa, N_a = 2*N_aa + N_Aa."""
    n_A = 2 * g.n_AA + g.n_Aa
    n_a = 2 * g.n_aa + g.n_Aa
    n = n_A + n_a
    if n == 0:
        raise LdStatisticUndefined("no alleles observed; frequencies undefined")
    return n_A, n_a, n


@dataclass(frozen=True)
class LdResult:
    """lhs = 2N*(N*N_AB - N_A*N_B)^2, rhs = num * N_A*N_a*N_B*N_b;
    decision is lhs*den > rhs."""

    lhs: int
    rhs: int
    chi_square: Fraction
    d_coefficient: Fraction
    decision: bool


def ld_decide_plain(
    counts: HaplotypeCounts, threshold_num: int, threshold_den: int
) -> LdResult:
    """Exact integer/rational LD decision; the oracle for both secure paths."""
    if threshold_num < 0 or threshold_den <= 0:
        raise ValueError("threshold must be a non-negative rational num/den")
    n = counts.total
    n_A, n_a, n_B, n_b = counts.margins
    if min(n_A, n_a, n_B, n_b) == 0:
        raise LdStatisticUndefined(
            f"margin is zero for counts {tuple(counts)}; chi-square undefined"
        )
    diff = n * counts.n_AB - n_A * n_B
    lhs = 2 * n * diff * diff
    margins_prod = n_A * n_a * n_B * n_b
    rhs = threshold_num * margins_prod
    return LdResult(
        lhs=lhs,
        rhs=rhs,
        chi_square=Fraction(lhs, margins_prod),
        d_coefficient=Fraction(diff, n * n),
        decision=lhs * threshold_den > rhs,
    )


# -- shared bound bookkeeping ----------------------------------------------------


def ld_value_bounds(count_bits: int, threshold_num: int, threshold_den: int) -> tuple[int, int]:
    """(lhs*den max, rhs max) under the input promise N < 2^count_bits.

    Uses |N*N_AB - N_A*N_B| <= N^2/4 and N_A*N_a, N_B*N_b <= N^2/4.
    """
    n_max = (1 << count_bits) - 1
    quarter = n_max * n_max // 4
    lhs_max = threshold_den * 2 * n_max * quarter * quarter
    rhs_max = threshold_num * quarter * quarter
    return lhs_max, rhs_max


# -- garbled-circuit path ----------------------------------------------------------


def build_ld_circuit(
    count_bits: int,
    m_instances: int,
    threshold_num: int,
    threshold_den: int,
    contributors: int = 1,
) -> Circuit:
    """Circuit deciding LD for m independent instances.

    Inputs per instance: four haplotype counts of ``count_bits`` bits each
    (per contributor when contributors > 1; contributions are summed with an
    adder tree). Input promise: the instance total N fits ``count_bits`` bits.
    Output: one decision bit per instance. Threshold constants are baked in.
    """
    c = count_bits
    if not (3 <= c <= 12):
        raise CircuitError(f"count_bits {c} out of range [3, 12]")
    if m_instances < 1 or contributors < 1:
        raise CircuitError("need at least one instance and one contributor")
    if threshold_num < 0 or threshold_den <= 0:
        raise CircuitError("threshold must be a non-negative rational num/den")
    widest = 5 * c - 3 + threshold_den.bit_length()
    if widest > 64:
        raise CircuitError(
            f"internal width {widest} exceeds 64 bits; shrink count_bits or threshold_den"
        )

    b = CircuitBuilder()
    names = ("n_AB", "n_Ab", "n_aB", "n_ab")
    inputs: list[list[list[int]]] = []  # [instance][count][contributor bits merged later]
    for i in range(m_instances):
        per_count: list[list[int]] = []
        for name in names:
            if contributors == 1:
                per_count.append([b.add_input_group(f"i{i}.{name}", c)])
            else:
                per_count.append(
                    [
                        b.add_input_group(f"i{i}.c{j}.{name}", c)
                        for j in range(contributors)
                    ]
                )
        inputs.append(per_count)

    decisions: list[int] = []
    for per_count in inputs:
        counts = []
        for shares in per_count:
            acc = shares[0]
            for extra in shares[1:]:
                acc = b.truncate(b.add_unsigned(acc, extra), c)  # promise: total < 2^c
            counts.append(acc)
        w_AB, w_Ab, w_aB, w_ab = counts

        n_w = b.add_unsigned(b.add_unsigned(w_AB, w_Ab), b.add_unsigned(w_aB, w_ab))
        n = b.truncate(n_w, c)  # promise: N < 2^c
        n_A = b.truncate(b.add_unsigned(w_AB, w_Ab), c)
        n_a = b.truncate(b.add_unsigned(w_aB, w_ab), c)
        n_B = b.truncate(b.add_unsigned(w_AB, w_aB), c)
        n_b = b.truncate(b.add_unsigned(w_Ab, w_ab), c)

        m1 = b.mul_unsigned(n, w_AB)  # 2c bits
        m2 = b.mul_unsigned(n_A, n_B)
        diff = b.sub_signed(b.zext(m1, 2 * c + 1), b.zext(m2, 2 * c + 1))
        diff = b.truncate(diff, 2 * c - 1)  # |diff| <= N^2/4 < 2^(2c-2)
        sq = b.truncate(b.square_signed(diff), 4 * c - 4)
        two_n = b.shift_left(n, 1)
        lhs = b.mul_unsigned(sq, two_n)  # < 2^(5c-3), width 5c-3 exactly
        lhs = b.truncate(lhs, 5 * c - 3)
        lhs = b.mul_const_unsigned(lhs, threshold_den)

        m_a = b.truncate(b.mul_unsigned(n_A, n_a), 2 * c - 2)  # <= N^2/4
        m_b = b.truncate(b.mul_unsigned(n_B, n_b), 2 * c - 2)
        prod = b.mul_unsigned(m_a, m_b)
        rhs = b.mul_const_unsigned(prod, threshold_num)

        decisions.append(b.greater_unsigned(lhs, rhs))

    return b.build(decisions)


def ld_input_bits(counts: HaplotypeCounts, count_bits: int) -> list[int]:
    """Little-endian input bit vector for one instance of the LD circuit."""
    out: list[int] = []
    for v in counts:
        if v < 0 or v >> count_bits:
            raise CircuitError(f"count {v} does not fit {count_bits} bits")
        out.extend((v >> k) & 1 for k in range(count_bits))
    return out


# -- homomorphic-encryption path ----------------------------------------------------


def _simulate_plan_noise(params: HeParams, t: int) -> float:
    """Worst-case noise estimate (log2) of the deepest plan output, mirroring
    the estimates used by the runtime operations."""

    def mul(va: float, vb: float) -> float:
        base = float(np.logaddexp2(va, vb))
        mult = math.log2(t) + math.log2(params.n) + 2 + base
        relin = (
            math.log2(len(params.q_primes))
            + math.log2(params.n)
            + max(math.log2(p) for p in params.q_primes)
            + math.log2(6 * params.noise_sigma)
        )
        return float(np.logaddexp2(mult, relin))

    fresh = params.fresh_noise_log2()
    count = fresh + 2  # aggregated counts / margin sums
    m1 = mul(count, count)
    diff = m1 + 1
    sq = mul(diff, diff)
    lhs = mul(sq, count + 1)
    return lhs + 10  # scaled by the threshold constant


@dataclass(frozen=True)
class LdHePlan:
    """Protocol-1 computation plan for the LD test.

    The lhs/rhs products exceed any single depth-3-capable plaintext modulus,
    so the plan evaluates the same integer circuit modulo several batching
    primes t_i and the decrypting party CRT-combines the residues before the
    final comparison (which BFV cannot do cheaply in ciphertext space).
    """

    count_bits: int
    threshold_num: int
    threshold_den: int
    moduli: tuple[int, ...]

    # ``run`` multiplies ciphertexts, so the evaluator needs the relin key.
    MULTIPLIES_CIPHERTEXTS: ClassVar[bool] = True

    @classmethod
    def create(
        cls,
        params: HeParams,
        count_bits: int,
        threshold_num: int,
        threshold_den: int,
        t_bits: int = 21,
    ) -> "LdHePlan":
        """Select CRT plaintext moduli and validate depth against the params."""
        lhs_max, rhs_max = ld_value_bounds(count_bits, threshold_num, threshold_den)
        need = max(lhs_max, rhs_max) + 1
        moduli: list[int] = []
        prod = 1
        while prod < need:
            more = bfv.find_plain_primes(params.n, t_bits, len(moduli) + 1)
            moduli = more
            prod = math.prod(moduli)
            if len(moduli) > 8:
                raise PlanRejected("cannot cover LD value range with CRT moduli")
        for t in moduli:
            capacity = params.log2_q - math.log2(2 * t)
            est = _simulate_plan_noise(params, t)
            if capacity - est <= 0:
                raise PlanRejected(
                    f"LD plan needs ~{est:.0f} noise bits but t={t} leaves "
                    f"{capacity:.0f} at n={params.n}; increase ring degree"
                )
        return cls(count_bits, threshold_num, threshold_den, tuple(moduli))

    def run(
        self, rk: RelinKey, enc_counts: Mapping[str, HeCiphertext]
    ) -> tuple[HeCiphertext, HeCiphertext]:
        """Homomorphic lhs/rhs for ciphertexts under one plan modulus.

        ``enc_counts`` maps count name (n_AB, n_Ab, n_aB, n_ab) to a
        ciphertext; values may be batched (one LD instance per slot).
        """
        c_ab = enc_counts["n_AB"]
        c_Ab = enc_counts["n_Ab"]
        c_aB = enc_counts["n_aB"]
        c_ab2 = enc_counts["n_ab"]
        params = c_ab.params
        t = c_ab.t
        if t not in self.moduli:
            raise PlanRejected(f"ciphertext modulus {t} is not part of this plan")

        n = bfv.he_add(bfv.he_add(c_ab, c_Ab), bfv.he_add(c_aB, c_ab2))
        n_A = bfv.he_add(c_ab, c_Ab)
        n_a = bfv.he_add(c_aB, c_ab2)
        n_B = bfv.he_add(c_ab, c_aB)
        n_b = bfv.he_add(c_Ab, c_ab2)

        diff = bfv.he_sub(bfv.he_mul(n, c_ab, rk), bfv.he_mul(n_A, n_B, rk))
        sq = bfv.he_mul(diff, diff, rk)
        lhs = bfv.he_mul(sq, bfv.he_add(n, n), rk)
        lhs = bfv.he_mul_plain(lhs, bfv.encode_scalar(self.threshold_den, params, t))

        prod = bfv.he_mul(bfv.he_mul(n_A, n_a, rk), bfv.he_mul(n_B, n_b, rk), rk)
        rhs = bfv.he_mul_plain(prod, bfv.encode_scalar(self.threshold_num, params, t))
        return lhs, rhs

    def decide(self, residues: Mapping[int, tuple[int, int]]) -> bool:
        """CRT-combine per-modulus (lhs, rhs) residues and compare."""
        lhs = crt_combine({t: lr[0] for t, lr in residues.items()})
        rhs = crt_combine({t: lr[1] for t, lr in residues.items()})
        return lhs > rhs

    def decide_many(
        self, residues: Mapping[int, tuple[Sequence[int], Sequence[int]]]
    ) -> list[bool]:
        """Batched variant: slot-wise decisions."""
        moduli = list(residues)
        counts = {len(residues[t][0]) for t in moduli}
        if len(counts) != 1:
            raise ValueError("per-modulus slot counts differ")
        (m,) = counts
        out = []
        for i in range(m):
            out.append(
                self.decide({t: (residues[t][0][i], residues[t][1][i]) for t in moduli})
            )
        return out


def crt_combine(residues: Mapping[int, int]) -> int:
    """Chinese-remainder reconstruction for pairwise-coprime moduli."""
    total = math.prod(residues)
    acc = 0
    for t, r in residues.items():
        t_hat = total // t
        acc += (r % t) * t_hat * pow(t_hat % t, -1, t)
    return acc % total


def encrypt_ld_counts(
    pk: PublicKey,
    counts: Sequence[HaplotypeCounts],
    plan: LdHePlan,
    rng: np.random.Generator | None = None,
) -> dict[int, dict[str, HeCiphertext]]:
    """Encrypt LD instances slot-batched under every plan modulus."""
    params = pk.params
    names = ("n_AB", "n_Ab", "n_aB", "n_ab")
    out: dict[int, dict[str, HeCiphertext]] = {}
    for t in plan.moduli:
        per_name = {}
        for idx, name in enumerate(names):
            values = [c[idx] for c in counts]
            pt: HePlaintext = bfv.batch_encode(values, params, t)
            per_name[name] = bfv.encrypt(pk, pt, rng)
        out[t] = per_name
    return out
