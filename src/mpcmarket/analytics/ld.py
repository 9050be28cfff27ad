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
from typing import Mapping, NamedTuple

from ..circuits.builders import CircuitBuilder
from ..circuits.ir import Circuit, CircuitError


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


def ld_group_names(instance: int, name: str, contributors: int = 1) -> list[str]:
    """The input groups whose sum is count ``name`` (a ``HaplotypeCounts``
    field) of one instance: ``i{instance}.{name}`` for a single contributor,
    else ``i{instance}.c{j}.{name}`` per contributor j."""
    if contributors == 1:
        return [f"i{instance}.{name}"]
    return [f"i{instance}.c{j}.{name}" for j in range(contributors)]


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
    # [instance][count][contributor]: each contributor's bits, summed below
    inputs = [
        [
            [b.add_input_group(g, c) for g in ld_group_names(i, name, contributors)]
            for name in HaplotypeCounts._fields
        ]
        for i in range(m_instances)
    ]

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


# -- homomorphic-encryption path ----------------------------------------------------


def crt_combine(residues: Mapping[int, int]) -> int:
    """Chinese-remainder reconstruction for pairwise-coprime moduli."""
    total = math.prod(residues)
    acc = 0
    for t, r in residues.items():
        t_hat = total // t
        acc += (r % t) * t_hat * pow(t_hat % t, -1, t)
    return acc % total
