"""Composable arithmetic circuit builders.

Words are little-endian lists of wire ids. Constructions favour
free-XOR-friendly shapes: one AND per full adder, so a ripple-carry adder
costs one AND per stage; multiplexers cost one AND per selected bit.
Shifts, truncations, and sign extensions are pure rewiring and cost nothing.

Adders and products share one column adder, ``sum_columns``: full adders
reduce each column to two bits, then one ripple pass adds the two rows. A
product puts one AND per partial-product bit into the columns; the squarer
forms each cross product once; a constant multiply is recoded in signed
digits and forms no partial product at all.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from .ir import AND, XOR, Circuit, CircuitError, InputGroup

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
        return self._emit(XOR, a, self.one)

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

    def _add_bits(self, bits: Word, keep_carry: bool) -> tuple[int, int | None]:
        """Sum and carry of two or three bits: one AND, or none when the
        carry is dropped. The carry of x+y+z is ((x^z) & (y^z)) ^ z."""
        if len(bits) == 2:
            x, y = bits
            return self.xor(x, y), self.and_(x, y) if keep_carry else None
        x, y, z = bits
        t1 = self.xor(x, z)
        s = self.xor(t1, y)
        if not keep_carry:
            return s, None
        return s, self.xor(self.and_(t1, self.xor(y, z)), z)

    def sum_columns(self, cols: Sequence[Sequence[int]], width: int) -> Word:
        """Sum of bit columns, where ``cols[k]`` holds bits of weight 2^k,
        modulo 2^width.

        Full adders (one AND each) take three bits of a column to one bit
        there and one above, in rounds, until no column holds more than
        two bits (Wallace 1964). One ripple pass then adds the two rows.
        No column at or above ``width`` is built: the top column's carries
        are dropped, so its adders cost no AND.
        """
        cols = [list(col) for col in cols[:width]]
        cols += [[] for _ in range(width - len(cols))]
        top = width - 1
        while any(len(col) > 2 for col in cols):
            nxt: list[Word] = [[] for _ in range(width)]
            for k, col in enumerate(cols):
                n_full = len(col) // 3
                for i in range(0, 3 * n_full, 3):
                    s, carry = self._add_bits(col[i : i + 3], k < top)
                    nxt[k].append(s)
                    if carry is not None:
                        nxt[k + 1].append(carry)
                nxt[k] += col[3 * n_full :]
            cols = nxt
        out: Word = []
        carry: int | None = None
        for k, col in enumerate(cols):
            bits = col if carry is None else col + [carry]
            if not bits:
                out.append(self.zero)
                carry = None
            elif len(bits) == 1:
                out.append(bits[0])
                carry = None
            else:
                s, carry = self._add_bits(bits, k < top)
                out.append(s)
        return out

    def add_unsigned(self, a: Word, b: Word) -> Word:
        """Exact unsigned sum, width max(len)+1."""
        w = max(len(a), len(b))
        return self.sum_columns(list(zip(self.zext(a, w), self.zext(b, w))), w + 1)

    def add_signed(self, a: Word, b: Word) -> Word:
        """Exact two's-complement sum, width max(len)+1."""
        w = max(len(a), len(b)) + 1
        return self.add_wrap(self.sext(a, w), self.sext(b, w))

    def add_wrap(self, a: Word, b: Word) -> Word:
        """Modular sum at the common width (wraparound, no carry out)."""
        if len(a) != len(b):
            raise CircuitError("add_wrap requires equal widths")
        return self.sum_columns(list(zip(a, b)), len(a))

    def sub_signed(self, a: Word, b: Word) -> Word:
        """Exact two's-complement difference a-b, width max(len)+1."""
        w = max(len(a), len(b)) + 1
        return self.sub_wrap(self.sext(a, w), self.sext(b, w))

    def sub_wrap(self, a: Word, b: Word) -> Word:
        """Modular difference a-b at the common width.

        Computed as a + ~b + 1; the injected carry specialises stage 0 to
        s0 = a0 XOR b0 with carry a0 OR ~b0.
        """
        if len(a) != len(b):
            raise CircuitError("sub_wrap requires equal widths")
        w = len(a)
        out: Word = [self.xor(a[0], b[0])]
        carry = self.or_(a[0], self.inv(b[0]))
        for i in range(1, w):
            nb = self.inv(b[i])
            t1 = self.xor(a[i], carry)
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
        """Product at full width len(a)+len(b): each partial product
        a_j*b_i is one AND into column i+j, then ``sum_columns``."""
        if not a or not b:
            raise CircuitError("empty multiplier operand")
        cols: list[Word] = [[] for _ in range(len(a) + len(b))]
        for i, bi in enumerate(b):
            for j, aj in enumerate(a):
                cols[i + j].append(self.and_(aj, bi))
        return self.sum_columns(cols, len(a) + len(b))

    def square_signed(self, a: Word) -> Word:
        """a*a (always non-negative), width 2*len(a).

        With m = |a|, m^2 is the sum of m_i at weight 2i, which is free,
        and of m_i*m_j at weight i+j+1 for each i < j, one AND each.
        """
        m = self.abs_signed(a)
        cols: list[Word] = [[] for _ in range(2 * len(m))]
        for i, mi in enumerate(m):
            cols[2 * i].append(mi)
            for j in range(i + 1, len(m)):
                cols[i + j + 1].append(self.and_(mi, m[j]))
        return self.sum_columns(cols, 2 * len(m))

    def mul_const_unsigned(self, a: Word, c: int) -> Word:
        """Product with a non-negative constant, at the width of its largest
        value; no AND gates for the partial products.

        The constant is recoded in non-adjacent form, e.g. 1000 = 2^10 -
        2^5 + 2^3 (Reitwiesner 1960). ``sum_columns`` adds the shifts of a
        for the positive digits. Each negative digit's shift of a is then
        subtracted from the bits at and above that shift, zero-extended
        and wrapping at the final width.
        """
        if c < 0:
            raise CircuitError("mul_const_unsigned requires c >= 0")
        if c == 0:
            return [self.zero]
        width = (((1 << len(a)) - 1) * c).bit_length()
        cols: list[Word] = [[] for _ in range(width)]
        negative: list[int] = []
        shift = 0
        while c:
            if c & 1:
                digit = 2 - (c & 3)  # +1 or -1, so the next digit is 0
                if digit > 0:
                    for i, bit in enumerate(a[: width - shift]):
                        cols[shift + i].append(bit)
                else:
                    negative.append(shift)
                c -= digit
            c >>= 1
            shift += 1
        acc = self.sum_columns(cols, width)
        for shift in negative:
            acc = acc[:shift] + self.sub_wrap(acc[shift:], self.zext(a, width - shift))
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
