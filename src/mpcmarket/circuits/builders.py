"""Composable arithmetic circuit builders.

Words are little-endian lists of wire ids. Constructions favour
free-XOR-friendly shapes: ripple-carry adders cost one AND per stage,
schoolbook multipliers one AND per partial-product bit, multiplexers one
AND per selected bit. Shifts, truncations, and sign extensions are pure
rewiring and cost nothing.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .ir import AND, INV, XOR, Circuit, CircuitError, InputGroup

Word = list[int]


class CircuitBuilder:
    """Accumulates gates over named input groups, then freezes to a Circuit.

    Gates go into one flat int32 array, four entries (kind, a, b, out) per
    gate, with outputs allocated densely above all existing wires. The
    builder does not check the wires a gate reads; ``build`` hands the
    array to ``Circuit``, which validates it once.
    """

    def __init__(self) -> None:
        self._groups: list[InputGroup] = []
        self._n_inputs = 0
        self._gates = array("i")
        self._n_wires = 0  # stays 0 until the inputs are frozen

    # -- inputs and constants -------------------------------------------------

    def add_input_group(self, name: str, width: int) -> Word:
        if self._n_wires:
            raise CircuitError("cannot add inputs after gates or constants")
        if width < 1:
            raise CircuitError(f"input group {name!r} must have positive width")
        if any(g.name == name for g in self._groups):
            raise CircuitError(f"duplicate input group {name!r}")
        start = self._n_inputs
        self._groups.append(InputGroup(name, start, width))
        self._n_inputs += width
        return list(range(start, start + width))

    def _freeze_inputs(self) -> None:
        if not self._n_wires:
            self._n_wires = self._n_inputs + 2

    @property
    def zero(self) -> int:
        self._freeze_inputs()
        return self._n_inputs

    @property
    def one(self) -> int:
        self._freeze_inputs()
        return self._n_inputs + 1

    # -- gate primitives ------------------------------------------------------

    def _emit(self, kind: int, a: int, b: int) -> int:
        self._freeze_inputs()
        out = self._n_wires
        self._gates.extend((kind, a, b, out))
        self._n_wires = out + 1
        return out

    def xor(self, a: int, b: int) -> int:
        return self._emit(XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        return self._emit(AND, a, b)

    def inv(self, a: int) -> int:
        return self._emit(INV, a, -1)

    def or_(self, a: int, b: int) -> int:
        # a | b == ~(~a & ~b); one AND
        return self.inv(self.and_(self.inv(a), self.inv(b)))

    def const_bit(self, value: int) -> int:
        return self.one if value & 1 else self.zero

    def const_word(self, value: int, width: int) -> Word:
        mask = (1 << width) - 1
        v = value & mask
        return [self.const_bit((v >> i) & 1) for i in range(width)]

    # -- word plumbing (free) -------------------------------------------------

    def zext(self, a: Word, width: int) -> Word:
        if width < len(a):
            raise CircuitError("zext cannot narrow")
        return list(a) + [self.zero] * (width - len(a))

    def sext(self, a: Word, width: int) -> Word:
        if width < len(a):
            raise CircuitError("sext cannot narrow")
        return list(a) + [a[-1]] * (width - len(a))

    @staticmethod
    def truncate(a: Word, width: int) -> Word:
        return list(a[:width])

    def shift_left(self, a: Word, amount: int) -> Word:
        return [self.zero] * amount + list(a)

    @staticmethod
    def shift_right(a: Word, amount: int) -> Word:
        """Arithmetic shift, keeping the sign bit; callers pad if width matters."""
        return list(a[min(amount, len(a) - 1) :])

    # -- arithmetic -----------------------------------------------------------

    def _ripple(self, a: Word, b: Word, carry_in: int | None, keep_carry: bool) -> Word:
        """Ripple-carry: one AND per stage with carry-out, none for the last
        stage when the carry is dropped."""
        if len(a) != len(b):
            raise CircuitError("ripple add requires equal widths")
        n = len(a)
        out: Word = []
        carry = carry_in
        for i in range(n):
            ai, bi = a[i], b[i]
            last = i == n - 1
            if carry is None:
                out.append(self.xor(ai, bi))
                if not (last and not keep_carry):
                    carry = self.and_(ai, bi)
            else:
                t1 = self.xor(ai, carry)
                out.append(self.xor(t1, bi))
                if not (last and not keep_carry):
                    t2 = self.xor(bi, carry)
                    carry = self.xor(self.and_(t1, t2), carry)
        if keep_carry:
            assert carry is not None
            out.append(carry)
        return out

    def add_unsigned(self, a: Word, b: Word) -> Word:
        """Exact unsigned sum, width max(len)+1."""
        w = max(len(a), len(b))
        return self._ripple(self.zext(a, w), self.zext(b, w), None, keep_carry=True)

    def add_signed(self, a: Word, b: Word) -> Word:
        """Exact two's-complement sum, width max(len)+1."""
        w = max(len(a), len(b)) + 1
        return self._ripple(self.sext(a, w), self.sext(b, w), None, keep_carry=False)

    def add_wrap(self, a: Word, b: Word) -> Word:
        """Modular sum at the common width (wraparound, no carry out)."""
        if len(a) != len(b):
            raise CircuitError("add_wrap requires equal widths")
        return self._ripple(a, b, None, keep_carry=False)

    def sub_signed(self, a: Word, b: Word) -> Word:
        """Exact two's-complement difference a-b, width max(len)+1.

        Computed as a + ~b + 1; the injected carry specialises stage 0 to
        s0 = a0 XOR b0 with carry a0 OR ~b0.
        """
        w = max(len(a), len(b)) + 1
        aa = self.sext(a, w)
        bb = self.sext(b, w)
        out: Word = [self.xor(aa[0], bb[0])]
        carry = self.or_(aa[0], self.inv(bb[0]))
        for i in range(1, w):
            nb = self.inv(bb[i])
            t1 = self.xor(aa[i], carry)
            out.append(self.xor(t1, nb))
            if i != w - 1:
                t2 = self.xor(nb, carry)
                carry = self.xor(self.and_(t1, t2), carry)
        return out

    def cond_negate(self, a: Word, sel: int) -> Word:
        """Two's-complement negation of ``a`` when sel=1, identity otherwise."""
        n = len(a)
        if n == 1:
            return [a[0]]
        out: Word = [a[0]]
        carry = self.and_(self.xor(a[0], sel), sel)
        for i in range(1, n):
            xi = self.xor(a[i], sel)
            out.append(self.xor(xi, carry))
            if i != n - 1:
                carry = self.and_(xi, carry)
        return out

    def negate(self, a: Word) -> Word:
        """Two's-complement negation (~a + 1) at the same width."""
        n = len(a)
        if n == 1:
            return [a[0]]
        out: Word = [a[0]]
        carry = self.inv(a[0])
        for i in range(1, n):
            xi = self.inv(a[i])
            out.append(self.xor(xi, carry))
            if i != n - 1:
                carry = self.and_(xi, carry)
        return out

    def abs_signed(self, a: Word) -> Word:
        """|a| as an unsigned word of the same width (valid when a != min)."""
        return self.cond_negate(a, a[-1])

    def mul_unsigned(self, a: Word, b: Word) -> Word:
        """Schoolbook product, full width len(a)+len(b)."""
        if not a or not b:
            raise CircuitError("empty multiplier operand")
        acc: Word | None = None
        low_bits: Word = []
        for i, bi in enumerate(b):
            row = [self.and_(aj, bi) for aj in a]
            if acc is None:
                acc = row
            else:
                low_bits.append(acc[0])
                acc = self.add_unsigned(acc[1:], row)
        assert acc is not None
        return low_bits + acc

    def square_signed(self, a: Word) -> Word:
        """a*a (always non-negative), width 2*len(a)."""
        m = self.abs_signed(a)
        return self.mul_unsigned(m, m)

    def mul_const_unsigned(self, a: Word, c: int) -> Word:
        """Shift-and-add product with a non-negative constant; no AND gates
        for the partial products, adds only where the constant has set bits."""
        if c < 0:
            raise CircuitError("mul_const_unsigned requires c >= 0")
        if c == 0:
            return [self.zero]
        acc: Word | None = None
        shift = 0
        while c:
            if c & 1:
                row = self.shift_left(a, shift)
                acc = row if acc is None else self.add_unsigned(self.zext(acc, len(row)), row)
            c >>= 1
            shift += 1
        assert acc is not None
        return acc

    def mul_const_signed(self, a: Word, c: int) -> Word:
        """Signed word times integer constant (constant folded via shift-add)."""
        if c == 0:
            return [self.zero]
        width = len(a) + abs(c).bit_length()
        acc: Word | None = None
        shift = 0
        m = abs(c)
        while m:
            if m & 1:
                row = self.shift_left(self.sext(a, width - shift), shift)[:width]
                acc = row if acc is None else self.truncate(
                    self.add_signed(acc, row), width
                )
            m >>= 1
            shift += 1
        assert acc is not None
        if c < 0:
            acc = self.negate(acc)
        return acc

    def greater_unsigned(self, a: Word, b: Word) -> int:
        """Single bit a > b (strict, unsigned): NOT carry of b + ~a + 1."""
        w = max(len(a), len(b))
        aa = self.zext(a, w)
        bb = self.zext(b, w)
        # carry chain of b - a; carry_out == 1 iff b >= a
        carry = self.or_(bb[0], self.inv(aa[0]))
        for i in range(1, w):
            na = self.inv(aa[i])
            t1 = self.xor(bb[i], carry)
            t2 = self.xor(na, carry)
            carry = self.xor(self.and_(t1, t2), carry)
        return self.inv(carry)

    def greater_signed(self, a: Word, b: Word) -> int:
        """Single bit a > b for two's-complement words (bias by sign flip)."""
        w = max(len(a), len(b))
        aa = self.sext(a, w)
        bb = self.sext(b, w)
        aa = aa[:-1] + [self.inv(aa[-1])]
        bb = bb[:-1] + [self.inv(bb[-1])]
        return self.greater_unsigned(aa, bb)

    def mux(self, sel: int, a: Word, b: Word) -> Word:
        """Word select: a when sel=1 else b; one AND per bit."""
        if len(a) != len(b):
            raise CircuitError("mux requires equal widths")
        out: Word = []
        for ai, bi in zip(a, b):
            d = self.xor(ai, bi)
            out.append(self.xor(self.and_(sel, d), bi))
        return out

    def lookup(self, index: Word, table: Sequence[int], out_bits: int) -> Word:
        """Multiplexer-tree table lookup with constants baked in.

        The generic tree is used without constant-folding the leaf layer
        (circuit optimisation passes are out of scope), giving
        out_bits * (2^k - 1) AND gates for a k-bit index.
        """
        k = len(index)
        if len(table) != (1 << k):
            raise CircuitError(f"table length {len(table)} != 2^{k}")
        for v in table:
            if v < 0 or v.bit_length() > out_bits:
                raise CircuitError(f"table value {v} does not fit {out_bits} bits")
        layer = [self.const_word(v, out_bits) for v in table]
        for bit in index:
            layer = [
                self.mux(bit, layer[2 * i + 1], layer[2 * i])
                for i in range(len(layer) // 2)
            ]
        return layer[0]

    # -- finalisation ----------------------------------------------------------

    def build(self, output_wires: Sequence[int]) -> Circuit:
        self._freeze_inputs()
        return Circuit(
            n_inputs=self._n_inputs,
            input_groups=tuple(self._groups),
            gates=np.frombuffer(self._gates, dtype=np.int32).reshape(-1, 4),
            output_wires=tuple(output_wires),
        )


# -- standalone builders -------------------------------------------------------


def build_adder(n_bits: int) -> Circuit:
    """Two's-complement adder with wraparound: 2n inputs, n outputs,
    n-1 AND gates (ripple carry, carry-out dropped)."""
    if not (1 <= n_bits <= 64):
        raise CircuitError(f"adder width {n_bits} out of range [1, 64]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build(b.add_wrap(x, y))


def build_multiplier(n_bits: int) -> Circuit:
    """Unsigned schoolbook multiplier: 2n inputs, 2n outputs (full product)."""
    if not (1 <= n_bits <= 32):
        raise CircuitError(f"multiplier width {n_bits} out of range [1, 32]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build(b.mul_unsigned(x, y))


def build_greater_than(n_bits: int) -> Circuit:
    """Unsigned strict comparison: 2n inputs, 1 output bit (a > b)."""
    if not (1 <= n_bits <= 128):
        raise CircuitError(f"comparator width {n_bits} out of range [1, 128]")
    b = CircuitBuilder()
    x = b.add_input_group("a", n_bits)
    y = b.add_input_group("b", n_bits)
    return b.build([b.greater_unsigned(x, y)])


def build_lookup(table: Sequence[int], index_bits: int, out_bits: int) -> Circuit:
    """Constant-table lookup circuit: index_bits inputs, out_bits outputs."""
    if not (1 <= index_bits <= 20):
        raise CircuitError(f"index width {index_bits} out of range [1, 20]")
    if not (1 <= out_bits <= 64):
        raise CircuitError(f"output width {out_bits} out of range [1, 64]")
    b = CircuitBuilder()
    idx = b.add_input_group("index", index_bits)
    return b.build(b.lookup(idx, table, out_bits))
