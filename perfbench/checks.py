"""Independent output checks: plain Python integers, no mpcmarket imports.

Every session result the benchmark counts is recomputed here from the
generated inputs (LD) or from the model file's integers (LR). None of these
functions touches the program's own oracles, tables or circuits.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

LD_THRESHOLD = (3841, 1000)
COUNT_NAMES = ("n_AB", "n_Ab", "n_aB", "n_ab")

# The datatrust may receive these and nothing else.
DATATRUST_TYPES = frozenset({"PublicKeyDist", "EncryptedListing", "InputLabels", "Query"})


class CheckFailed(AssertionError):
    """A session result disagreed with the benchmark's own computation."""


# -- LD -----------------------------------------------------------------------


def ld_decision(counts: Sequence[int], threshold=LD_THRESHOLD) -> bool:
    """den*2N*(N*n_AB - N_A*N_B)^2 > num*N_A*N_a*N_B*N_b."""
    num, den = threshold
    n_ab_, n_Ab, n_aB, n_ab = counts
    n = n_ab_ + n_Ab + n_aB + n_ab
    n_A, n_a = n_ab_ + n_Ab, n_aB + n_ab
    n_B, n_b = n_ab_ + n_aB, n_Ab + n_ab
    diff = n * n_ab_ - n_A * n_B
    return den * 2 * n * diff * diff > num * n_A * n_a * n_B * n_b


def check_ld(result: Mapping, instances: Sequence[Sequence[int]]) -> list[bool]:
    """Return the decisions if they match the rule on every instance."""
    want = [ld_decision(c) for c in instances]
    got = result.get("decisions")
    if got != want:
        raise CheckFailed(f"LD decisions {got} != recomputed {want}")
    return want


# -- LR -----------------------------------------------------------------------


class LrReference:
    """Bit-exact fixed-point LR from the model file's integers.

    z = (bias << frac) + sum x_j*w_j at 2*frac fractional bits; the table
    index truncates z to the 1/64 grid, clamps it to 2^(k-1) entries either
    side of zero and flips the sign bit; the entry is round(sigmoid(z_grid)
    * 2^31) on the grid [-8, 8).
    """

    Z_MIN, Z_SPAN, PROB_FRAC = -8.0, 16, 31

    def __init__(self, model_path: str, range_bits: int) -> None:
        with open(model_path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        total, frac = (int(v) for v in lines[0].split())
        self.total_bits, self.frac_bits = total, frac
        self.bias = int(lines[1])
        self.weights = [int(v) for v in lines[2:]]
        self.range_bits = range_bits
        # log2(Z_SPAN) = 4 integer bits of the table grid.
        self.shift = 2 * frac - (range_bits - 4)

    def quantize(self, value: float) -> int:
        q = round(value * (1 << self.frac_bits))
        lo, hi = -(1 << (self.total_bits - 1)), (1 << (self.total_bits - 1)) - 1
        if not lo <= q <= hi:
            raise ValueError(f"feature {value} outside the fixed-point range")
        return q

    def accumulator(self, x: Sequence[int]) -> int:
        return (self.bias << self.frac_bits) + sum(a * w for a, w in zip(x, self.weights))

    def index(self, z: int) -> int:
        half = 1 << (self.range_bits - 1)
        z_q = max(-half, min(half - 1, z >> self.shift))
        return (z_q & ((1 << self.range_bits) - 1)) ^ half

    def entry(self, index: int) -> int:
        z = self.Z_MIN + index * (self.Z_SPAN / (1 << self.range_bits))
        return round(1.0 / (1.0 + math.exp(-z)) * (1 << self.PROB_FRAC))

    def probability_fixed(self, x: Sequence[int]) -> int:
        return self.entry(self.index(self.accumulator(x)))

    def check(self, result: Mapping, x: Sequence[int]) -> int:
        """Return the probability if it is bit-exact and within 2^-7 of
        sigmoid(z/2^(2 frac)): grid step 1/64 times slope <= 1/4, and the
        sigmoid tail beyond +-8 stays under 2^-7 too."""
        want = self.probability_fixed(x)
        got = result.get("probability_fixed")
        if got != want:
            raise CheckFailed(f"LR probability {got} != recomputed {want}")
        if result.get("probability") != want / (1 << self.PROB_FRAC):
            raise CheckFailed("LR probability float disagrees with its fixed-point value")
        z = self.accumulator(x) / (1 << (2 * self.frac_bits))
        exact = 0.5 * (1.0 + math.tanh(z / 2))
        if abs(want / (1 << self.PROB_FRAC) - exact) > 2.0**-7:
            raise CheckFailed(f"LR probability {want} is not within 2^-7 of sigmoid({z})")
        return want


# -- protocol properties ---------------------------------------------------------


def check_datatrust_types(received: Iterable[str]) -> None:
    bad = set(received) - DATATRUST_TYPES
    if bad:
        raise CheckFailed(f"datatrust received {sorted(bad)}")


def check_cross(mine: Mapping[str, object], partner: Mapping[str, object]) -> int:
    """Compare results keyed by input with another workload's results for
    the same seed; returns the number of keys compared."""
    shared = mine.keys() & partner.keys()
    bad = sorted(k for k in shared if mine[k] != partner[k])
    if bad:
        raise CheckFailed(f"{len(bad)} results differ from the other backend, e.g. {bad[0]}")
    return len(shared)
