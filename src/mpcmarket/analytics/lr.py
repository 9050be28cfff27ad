"""Logistic-regression inference over fixed-point arithmetic.

The model is applied as p = sigmoid(x . w + b). The nonlinearity is
realized as a precomputed lookup table over a clamped input range, the
same table serving the plaintext oracle, the garbled-circuit path, and
the HE path (where the decrypting party applies the table after the
affine part). The fixed-point oracle is bit-exact with the circuit.

Default layout: 16-bit inputs and weights with 8 fractional bits;
probabilities are emitted at 32-bit precision (31 fractional bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..circuits.builders import CircuitBuilder
from ..circuits.ir import Circuit, CircuitError, FixedPointSpec

DEFAULT_PROB_SPEC = FixedPointSpec(total_bits=32, frac_bits=31)
Z_MIN = -8.0
Z_SPAN_BITS = 4  # the table covers z in [Z_MIN, Z_MIN + 2^Z_SPAN_BITS) = [-8, 8)
# An index holds z's integer bits at least; 2^16 entries is the largest table.
RANGE_BITS = range(Z_SPAN_BITS, 17)


@dataclass(frozen=True)
class LrModel:
    """Trained regression coefficients in fixed point."""

    weights: tuple[int, ...]
    bias: int
    spec: FixedPointSpec

    def __post_init__(self) -> None:
        lo = -(1 << (self.spec.total_bits - 1))
        hi = (1 << (self.spec.total_bits - 1)) - 1
        for w in (*self.weights, self.bias):
            if not (lo <= w <= hi):
                raise CircuitError(f"coefficient {w} not representable in {self.spec}")

    @property
    def dim(self) -> int:
        return len(self.weights)


def load_model(path: str) -> LrModel:
    """Plain-text model file: line 1 = total/frac bits, line 2 = bias,
    remaining lines = weights (all fixed-point integers)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3:
        raise CircuitError(f"model file {path} too short")
    total, frac = (int(x) for x in lines[0].split())
    spec = FixedPointSpec(total, frac)
    bias = int(lines[1])
    weights = tuple(int(x) for x in lines[2:])
    return LrModel(weights=weights, bias=bias, spec=spec)


def check_range_bits(range_bits: int) -> None:
    if range_bits not in RANGE_BITS:
        raise CircuitError(f"range_bits {range_bits} outside [{RANGE_BITS[0]}, {RANGE_BITS[-1]}]")


@dataclass(frozen=True)
class SigmoidTable:
    """2^range_bits uniform sigmoid samples over z in [-8, 8), clamped
    outside, each a probability in ``out_spec`` (32 bits, 31 fractional).

    The span is a power of two, so the table index is a pure bit-slice of
    the fixed-point accumulator: z is quantized to range_bits - Z_SPAN_BITS
    fractional bits and offset-binary maps it to the entry index.
    """

    out_spec: ClassVar[FixedPointSpec] = DEFAULT_PROB_SPEC
    range_bits: int
    entries: tuple[int, ...]

    @property
    def z_frac_bits(self) -> int:
        return self.range_bits - Z_SPAN_BITS

    def index_for_z(self, z_fixed: int, z_frac_in: int) -> int:
        """Table index for a z value held at ``z_frac_in`` fractional bits.

        Quantization truncates toward minus infinity (a free bit-slice in
        the circuit); out-of-range z clamps to the boundary entries.
        """
        shift = z_frac_in - self.z_frac_bits
        if shift < 0:
            raise CircuitError("z accumulator must be at least table precision")
        z_q = z_fixed >> shift
        half = 1 << (self.range_bits - 1)
        z_q = max(-half, min(half - 1, z_q))
        return z_q + half

    def probability(self, index: int) -> int:
        return self.entries[index]


def build_sigmoid_table(range_bits: int) -> SigmoidTable:
    """Tabulate round(sigmoid(z) * 2^31) on a uniform grid of 2^range_bits."""
    check_range_bits(range_bits)
    count = 1 << range_bits
    step = (1 << Z_SPAN_BITS) / count
    scale = SigmoidTable.out_spec.scale
    limit = (1 << SigmoidTable.out_spec.total_bits) - 1
    entries = []
    for i in range(count):
        z = Z_MIN + i * step
        p = 1.0 / (1.0 + math.exp(-z))
        entries.append(min(round(p * scale), limit))
    return SigmoidTable(range_bits, tuple(entries))


# -- plaintext oracle ---------------------------------------------------------------


def lr_affine_fixed(model: LrModel, x_fixed: Sequence[int]) -> int:
    """Exact accumulator z at 2*frac fractional bits."""
    if len(x_fixed) != model.dim:
        raise CircuitError(f"expected {model.dim} features, got {len(x_fixed)}")
    acc = model.bias << model.spec.frac_bits
    for xv, wv in zip(x_fixed, model.weights):
        acc += xv * wv
    return acc


def lr_accumulator_range(model: LrModel) -> tuple[int, int]:
    """The exact (lo, hi) of the accumulator z (at 2*frac fractional bits)
    over every row of the model's fixed-point features."""
    x_lo = -(1 << (model.spec.total_bits - 1))
    x_hi = (1 << (model.spec.total_bits - 1)) - 1
    lo = hi = model.bias << model.spec.frac_bits
    for w in model.weights:
        cands = (w * x_lo, w * x_hi)
        lo += min(cands)
        hi += max(cands)
    return lo, hi


def lr_predict_fixed(model: LrModel, x_fixed: Sequence[int], table: SigmoidTable) -> int:
    """Fixed-point probability via the lookup table; bit-exact with the circuit."""
    z = lr_affine_fixed(model, x_fixed)
    idx = table.index_for_z(z, 2 * model.spec.frac_bits)
    return table.probability(idx)


# -- garbled-circuit path -------------------------------------------------------------


def build_lr_circuit(model: LrModel, table: SigmoidTable) -> Circuit:
    """Inference circuit: widened fixed-point dot product with the weights
    baked in as constants, z clamped to the table range, then the sigmoid
    lookup. Outputs the probability bits (table out_spec width)."""
    spec = model.spec
    b = CircuitBuilder()
    xs = [b.add_input_group(f"x{j}", spec.total_bits) for j in range(model.dim)]

    # Exact bounds of the accumulator decide the working width.
    lo, hi = lr_accumulator_range(model)
    shift_bits = 2 * spec.frac_bits - table.z_frac_bits
    width = max(lo.bit_length(), hi.bit_length()) + 1
    width = max(width, shift_bits + table.range_bits + 1)

    acc = b.const_word(model.bias << spec.frac_bits, width)
    for xw, w in zip(xs, model.weights):
        if w == 0:
            continue
        term = b.mul_const_signed(xw, w)
        acc = b.truncate(b.add_signed(acc, b.sext(term, width)), width)

    # Quantize to the table grid (truncating shift), clamp, index.
    shift = 2 * spec.frac_bits - table.z_frac_bits
    if shift < 0:
        raise CircuitError("table finer than the accumulator precision")
    z_t = b.shift_right(acc, shift)
    k = table.range_bits
    half = 1 << (k - 1)
    wz = len(z_t)
    hi_const = b.const_word(half - 1, wz)
    lo_const = b.const_word(-half, wz)
    over = b.greater_signed(z_t, hi_const)
    z_c = b.mux(over, hi_const, z_t)
    under = b.greater_signed(lo_const, z_c)
    z_c = b.mux(under, lo_const, z_c)
    z_k = b.truncate(z_c, k)
    index = z_k[:-1] + [b.inv(z_k[-1])]  # offset-binary: flip the sign bit

    prob = b.lookup(index, table.entries, table.out_spec.total_bits)
    return b.build(prob)
