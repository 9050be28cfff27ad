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
from typing import Sequence

from ..circuits.builders import CircuitBuilder
from ..circuits.ir import Circuit, CircuitError, FixedPointSpec

DEFAULT_PROB_SPEC = FixedPointSpec(total_bits=32, frac_bits=31)
DEFAULT_RANGE_BITS = 10
DEFAULT_Z_MIN = -8.0
DEFAULT_Z_MAX = 8.0


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


def save_model(model: LrModel, path: str) -> None:
    """Plain-text model file: line 1 = total/frac bits, line 2 = bias,
    remaining lines = weights (all fixed-point integers)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.spec.total_bits} {model.spec.frac_bits}\n")
        fh.write(f"{model.bias}\n")
        for w in model.weights:
            fh.write(f"{w}\n")


def load_model(path: str) -> LrModel:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3:
        raise CircuitError(f"model file {path} too short")
    total, frac = (int(x) for x in lines[0].split())
    spec = FixedPointSpec(total, frac)
    bias = int(lines[1])
    weights = tuple(int(x) for x in lines[2:])
    return LrModel(weights=weights, bias=bias, spec=spec)


@dataclass(frozen=True)
class SigmoidTable:
    """Uniform sigmoid samples over [z_min, z_max), clamped outside.

    The z span must be a power of two so that the table index is a pure
    bit-slice of the fixed-point accumulator: with 2^range_bits entries over
    a 2^span span, z is quantized to range_bits - span fractional bits and
    offset-binary maps it to the entry index.
    """

    out_spec: FixedPointSpec
    range_bits: int
    z_min: float
    z_max: float
    entries: tuple[int, ...]

    @property
    def z_frac_bits(self) -> int:
        span = round(math.log2(self.z_max - self.z_min))
        return self.range_bits - span

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


def build_sigmoid_table(
    out_spec: FixedPointSpec = DEFAULT_PROB_SPEC,
    range_bits: int = DEFAULT_RANGE_BITS,
    z_min: float = DEFAULT_Z_MIN,
    z_max: float = DEFAULT_Z_MAX,
) -> SigmoidTable:
    """Tabulate round(sigmoid(z) * 2^frac) on a uniform grid of 2^range_bits."""
    if not (2 <= range_bits <= 16):
        raise CircuitError(f"range_bits {range_bits} out of range [2, 16]")
    span = z_max - z_min
    if span <= 0:
        raise CircuitError(f"degenerate z range [{z_min}, {z_max}]")
    log_span = math.log2(span)
    if abs(log_span - round(log_span)) > 1e-9 or range_bits < round(log_span):
        raise CircuitError("z span must be a power of two not exceeding 2^range_bits")
    count = 1 << range_bits
    step = span / count
    scale = out_spec.scale
    limit = (1 << out_spec.total_bits) - 1
    entries = []
    for i in range(count):
        z = z_min + i * step
        p = 1.0 / (1.0 + math.exp(-z))
        entries.append(min(round(p * scale), limit))
    return SigmoidTable(out_spec, range_bits, z_min, z_max, tuple(entries))


# -- plaintext oracle ---------------------------------------------------------------


def lr_affine_fixed(model: LrModel, x_fixed: Sequence[int]) -> int:
    """Exact accumulator z at 2*frac fractional bits."""
    if len(x_fixed) != model.dim:
        raise CircuitError(f"expected {model.dim} features, got {len(x_fixed)}")
    acc = model.bias << model.spec.frac_bits
    for xv, wv in zip(x_fixed, model.weights):
        acc += xv * wv
    return acc


def lr_predict_fixed(model: LrModel, x_fixed: Sequence[int], table: SigmoidTable) -> int:
    """Fixed-point probability via the lookup table; bit-exact with the circuit."""
    z = lr_affine_fixed(model, x_fixed)
    idx = table.index_for_z(z, 2 * model.spec.frac_bits)
    return table.probability(idx)


def lr_predict_float(model: LrModel, x_fixed: Sequence[int]) -> float:
    """Full-precision sigmoid on the same quantized inputs; the reference
    path for measuring table/fixed-point error."""
    z = lr_affine_fixed(model, x_fixed) / (1 << (2 * model.spec.frac_bits))
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# -- garbled-circuit path -------------------------------------------------------------


def build_lr_circuit(model: LrModel, table: SigmoidTable) -> Circuit:
    """Inference circuit: widened fixed-point dot product with the weights
    baked in as constants, z clamped to the table range, then the sigmoid
    lookup. Outputs the probability bits (table out_spec width)."""
    spec = model.spec
    b = CircuitBuilder()
    xs = [b.add_input_group(f"x{j}", spec.total_bits) for j in range(model.dim)]

    # Exact bounds of the accumulator decide the working width.
    x_lo = -(1 << (spec.total_bits - 1))
    x_hi = (1 << (spec.total_bits - 1)) - 1
    lo = hi = model.bias << spec.frac_bits
    for w in model.weights:
        cands = (w * x_lo, w * x_hi)
        lo += min(cands)
        hi += max(cands)
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
    z_t = b.shift_right(acc, shift, signed=True)
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


# -- homomorphic-encryption path ---------------------------------------------------


def lr_he_plan_bound(model: LrModel) -> int:
    """Upper bound on |z| (at 2*frac fractional bits); the HE plaintext
    modulus must exceed twice this so the affine part never wraps."""
    x_abs = 1 << (model.spec.total_bits - 1)
    bound = abs(model.bias) << model.spec.frac_bits
    for w in model.weights:
        bound += abs(w) * x_abs
    return bound
