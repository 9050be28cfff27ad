"""Seeded input generation: plain Python, no mpcmarket imports.

Every session's inputs come from ``random.Random`` seeded with the run's
``--seed``, the worker number and the session number, so the same seed gives
the same inputs and the HE and GC twins of a workload see identical sessions.
"""

from __future__ import annotations

import csv
import math
import random
from typing import Sequence

from checks import COUNT_NAMES, LD_THRESHOLD, ld_decision

COUNT_BITS = 11
N_LIMIT = 1 << COUNT_BITS  # input promise: N < 2^11
LD_KINDS = ("equilibrium", "above", "below", "linked")


def session_rng(family: str, seed: int, worker: int, index: int) -> random.Random:
    return random.Random(f"{family}:{seed}:{worker}:{index}")


def protocol_seed(rng: random.Random) -> int:
    return rng.getrandbits(40)


# -- LD -----------------------------------------------------------------------


def _from_margins(n: int, n_A: int, n_B: int, n_ab_: int) -> tuple[int, int, int, int] | None:
    counts = (n_ab_, n_A - n_ab_, n_B - n_ab_, n - n_A - n_B + n_ab_)
    return counts if min(counts) >= 0 else None


def _near_threshold(rng: random.Random, above: bool) -> tuple[int, int, int, int]:
    """Fix N and both margins, then take the n_AB nearest the threshold on
    the requested side: the first count that decides True going outwards
    from equilibrium, or the last one that decides False."""
    num, den = LD_THRESHOLD
    while True:
        n = rng.randrange(200, N_LIMIT)
        n_A = rng.randrange(n // 5, 4 * n // 5)
        n_B = rng.randrange(n // 5, 4 * n // 5)
        margins = n_A * (n - n_A) * n_B * (n - n_B)
        # |N*n_AB - N_A*N_B| at the threshold, then step outwards.
        d_star = math.isqrt(num * margins // (den * 2 * n))
        start = (n_A * n_B + d_star) // n
        for n_ab_ in range(max(start - 2, 0), start + 4):
            counts = _from_margins(n, n_A, n_B, n_ab_)
            if counts is None or n * n_ab_ < n_A * n_B:
                continue
            if ld_decision(counts):
                if above:
                    return counts
                below = _from_margins(n, n_A, n_B, n_ab_ - 1)
                if below is not None and not ld_decision(below):
                    return below
                break


def ld_instance(rng: random.Random, kind: str) -> tuple[int, int, int, int]:
    if kind == "equilibrium":
        # Outer product of allele counts: N*n_AB == N_A*N_B exactly.
        while True:
            a, c = rng.randrange(1, 40), rng.randrange(1, 40)
            b, d = rng.randrange(1, 40), rng.randrange(1, 40)
            if (a + c) * (b + d) < N_LIMIT:
                return (a * b, a * d, c * b, c * d)
    if kind in ("above", "below"):
        return _near_threshold(rng, kind == "above")
    # Clearly linked: most haplotypes on the diagonal.
    while True:
        n_ab_, n_ab = rng.randrange(100, 900), rng.randrange(100, 900)
        n_Ab, n_aB = rng.randrange(1, 60), rng.randrange(1, 60)
        if n_ab_ + n_Ab + n_aB + n_ab < N_LIMIT:
            return (n_ab_, n_Ab, n_aB, n_ab)


def ld_session(rng: random.Random, m: int) -> list[tuple[int, int, int, int]]:
    """m instances cycling through the four kinds, so that every session
    holds both decisions."""
    return [ld_instance(rng, LD_KINDS[i % len(LD_KINDS)]) for i in range(m)]


def ld_maker_inputs(instances: Sequence[Sequence[int]], makers: int) -> list[dict[str, int]]:
    """Input groups i<k>.<count> dealt round-robin over the makers."""
    groups = [
        (f"i{i}.{name}", v)
        for i, counts in enumerate(instances)
        for name, v in zip(COUNT_NAMES, counts)
    ]
    return [dict(groups[j::makers]) for j in range(makers)]


# -- LR -----------------------------------------------------------------------


def read_rows(csv_path: str, quantize) -> list[list[int]]:
    """Feature columns of the bundled dataset, quantized by the benchmark."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header) - (header[-1].strip().lower() == "label")
        return [[quantize(float(v)) for v in line[:width]] for line in reader]


def lr_maker_input(row: Sequence[int], total_bits: int) -> dict[str, int]:
    mask = (1 << total_bits) - 1
    return {f"x{j}": v & mask for j, v in enumerate(row)}
