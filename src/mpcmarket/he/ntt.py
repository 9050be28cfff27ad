"""Negacyclic number-theoretic transforms over word-sized prime moduli.

Polynomials live in Z_p[X]/(X^n + 1) with n a power of two and
p = 1 (mod 2n). The forward transform evaluates at the odd powers of the
2n-th root psi, so pointwise products in the transform domain correspond
to negacyclic convolution. Its output is in natural order, position r
holding the evaluation at psi^(2 r + 1): the order the matrix products
leave it in, with no bit reversal. Pointwise products do not care about
the order; only the batch encoding shows slots, and it applies
:attr:`NttPlan.slot_index` (bit-reversed order) itself.

Each transform is four-step: one float64 matrix product per stage and
prime, with a pointwise twiddle between the two stages. The data goes into
float64 once per prime and call, and no step takes an int64 remainder:
every reduction estimates its quotient in float64 and subtracts quotient
times p exactly (:func:`_reduce` in float64, :func:`_sub_quotient` in
int64). :func:`dot_mod` takes pointwise products and their sums the same
way.

Exactness. Primes are below 2^30. A quotient estimate within 1/2 of the
true quotient leaves a remainder r with |r| < p, and every float64 value
below is an integer of magnitude below 2^53, so each sum is exact in
whatever order the BLAS adds.

- Input: integers with |a| < 2^30, any representative. Callers reduce
  wider values once, where they make them.
- Stage products: each table T is stored as its 15-bit limbs,
  T = L + 2^15 H, stacked, so one GEMM gives both limb sums of the unsplit
  data. The data is the input or a remainder, below 2^30 in magnitude, and
  a GEMM sums at most n2 <= 128 products below 2^15 * 2^30, so each limb
  sum is below 2^52.
- Join (:func:`_join`): the high sum is reduced to |H'| < p, then
  2^15 H' + L < 2^45 + 2^52 is reduced again. For |x| < 2^53 - 2^30 the
  estimate x * fl(1/p) is off by at most |x / p| 2^-52 < 2 / p, below 1/2,
  and rint(x / p) p stays below 2^53.
- Twiddle: a remainder z and a twiddle w are below 2^30, so |z w| < 2^60
  in int64. The estimate z * fl(w / p) is off by less than 2^-21, and
  |rint(z w / p) p| < 2^60 + 2^30.
- Output: the remainder, plus p where it is negative, so it lies in [0, p).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive_2n_root(p: int, n: int) -> int:
    for g in range(2, p):
        w = pow(g, (p - 1) // (2 * n), p)
        if pow(w, n, p) == p - 1:
            return w
    raise ValueError(f"no 2n-th root of unity mod {p}")


def _bitrev_perm(n: int) -> np.ndarray:
    logn = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for i in range(logn):
        rev |= ((idx >> i) & 1) << (logn - 1 - i)
    return rev


# n = n1 * n2 with n1 <= n2 <= _MAX_N2, so a GEMM sums at most 128 products.
_LIMB = 15
_LIMB_MASK = (1 << _LIMB) - 1
_MAX_N2 = 128


def _powers(root: int, p: int, count: int) -> np.ndarray:
    """root^i mod p for i < count (a power of two), by repeated doubling."""
    pw = np.ones(count, dtype=np.int64)
    m, r = 1, root
    while m < count:
        pw[m : 2 * m] = pw[:m] * r % p
        r, m = r * r % p, 2 * m
    return pw


def split_limbs(table: np.ndarray, axis: int) -> np.ndarray:
    """A table of residues below 2^30 as float64: its low 15-bit limbs, then
    its high ones, stacked along ``axis``."""
    return np.concatenate((table & _LIMB_MASK, table >> _LIMB), axis=axis).astype(np.float64)


def _reduce(x: np.ndarray, p, p_inv, scratch: np.ndarray | None = None) -> np.ndarray:
    """x - rint(x / p) p in place, for float64 integers |x| < 2^53 - 2^30:
    exact, and |x| < p after. ``p`` and ``p_inv`` (1 / p) broadcast against
    x; the quotient goes to ``scratch`` when given."""
    quot = np.multiply(x, p_inv, out=scratch)
    np.rint(quot, out=quot)
    quot *= p
    x -= quot
    return x


def _join(lo: np.ndarray, hi: np.ndarray, p, p_inv) -> np.ndarray:
    """A remainder of lo + 2^15 hi mod p, |result| < p, for float64 limb
    sums below 2^52; ``hi`` is returned, and both are overwritten."""
    _reduce(hi, p, p_inv)
    hi *= 1 << _LIMB
    hi += lo
    return _reduce(hi, p, p_inv, scratch=lo)


def canonical(x: np.ndarray, p, out: np.ndarray | None = None) -> np.ndarray:
    """Remainders |x| < p as int64 in [0, p), written to ``out`` when given."""
    if out is None:
        out = np.empty(x.shape, dtype=np.int64)
    out[...] = x
    out += p & (out >> 63)
    return out


def _sub_quotient(prod: np.ndarray, quot: np.ndarray, p) -> np.ndarray:
    """prod - rint(quot) p in place, for an int64 product (or sum of
    products, which may wrap) and a float64 estimate ``quot`` within 1/2 of
    prod / p: exact, since the true remainder is below p."""
    np.rint(quot, out=quot)
    quot_int = quot.astype(np.int64)
    quot_int *= p
    prod -= quot_int
    return prod


def dot_mod(xs, ys, p: np.ndarray) -> np.ndarray:
    """sum_i xs[i] ys[i] mod p as int64 remainders |r| < p, for int64
    arrays |x|, |y| < 2p and ``p`` that broadcasts against one term. Each
    product is below 2^62; a sum of more terms may wrap past 2^63, but
    numpy integer arithmetic wraps mod 2^64 and the remainder is small, so
    it comes out exact. The float64 estimate of K products is off by about
    4 K^2 p 2^-52 in the quotient."""
    prod = quot = 0
    for x, y in zip(xs, ys):
        prod = prod + x * y
        quot = quot + x.astype(np.float64) * y.astype(np.float64)
    quot *= 1.0 / p
    return _sub_quotient(prod, quot, p)


def _split(n: int) -> int:
    """n2 of the four-step split n = n1 * n2, n1 <= n2 <= _MAX_N2."""
    if n & (n - 1) or n < 2:
        raise ValueError(f"ring degree {n} must be a power of two")
    n2 = 1 << (n.bit_length() // 2)
    if n2 > _MAX_N2:
        raise ValueError(f"ring degree {n} needs n2={n2} > {_MAX_N2}; sums would be inexact")
    return n2


@lru_cache(maxsize=64)
def _prime_steps(n: int, q: int) -> tuple[tuple, tuple]:
    """The forward and inverse steps of the four-step transform mod q (see
    :class:`NttPlan`): the two stage matrices, each (2 r, r) with its low
    limbs above its high ones, and between them the twiddles (int32) with
    their quotient estimates w / q. The tables are exponents of psi, looked
    up in q's powers; the inverse tables negate them (psi^-e = psi^(2n - e))."""
    n2 = _split(n)
    n1 = n // n2
    pw = _powers(_primitive_2n_root(q, n), q, 2 * n)

    def steps(first: np.ndarray, w: np.ndarray, second: np.ndarray) -> tuple:
        return split_limbs(first, 0), w.astype(np.int32), w / q, split_limbs(second, 0)

    k2, j2 = np.arange(n2)[:, None], np.arange(n2)[None, :]
    j1, k1 = np.arange(n1)[:, None], np.arange(n1)[None, :]
    e_f1 = n1 * j2 * (2 * k2 + 1)  # [k2, j2]: the n2-point DFT and psi^(n1 j2)
    e_tw = j1.T * (2 * k2 + 1)  # [k2, j1]: omega^(j1 k2) psi^j1
    e_f2 = 2 * n2 * j1 * k1  # [k1, j1] (symmetric): the n1-point DFT
    forward = steps(pw[e_f1 % (2 * n)], pw[e_tw % (2 * n)], pw[e_f2 % (2 * n)])
    inverse = steps(
        pw[-e_f2 % (2 * n)] * pow(n, -1, q) % q, pw[-e_tw.T % (2 * n)], pw[-e_f1.T % (2 * n)]
    )
    return forward, inverse


class NttPlan:
    """Precomputed tables for ring degree n and a tuple of k primes. A plan
    transforms (..., k, n) arrays, one residue row per prime, in one call,
    and spreads a 1-D polynomial onto every row. ``mod`` is the (k, 1)
    column of primes, for broadcasting.

    The transform is the four-step method (Bailey, "FFTs in External or
    Hierarchical Memory", 1990) for n = n1 * n2: view a row as an (n2, n1)
    matrix X, multiply on the left by an n2-point DFT matrix, scale
    pointwise by twiddles, and multiply the transpose on the left by an
    n1-point DFT matrix. The negacyclic twist psi^i is folded into the
    first matrix and the twiddles, and n^-1 into the inverse's first
    matrix. Both stages are left products, so each limb sum is one
    contiguous block. The output (n1, n2) matrix, read row by row, holds
    the evaluation at psi^(2 r + 1) at position r: the natural order.

    A call takes one prime at a time, all its rows at once, which keeps
    each step's temporaries to a few hundred kB. Each prime's tables are
    built once per ring degree (:func:`_prime_steps`) and shared by every
    plan over a tuple that holds the prime."""

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        n2 = _split(n)
        for q in primes:
            if q >= 1 << 30:
                raise ValueError(f"modulus {q} is not below 2^30")
            if (q - 1) % (2 * n) != 0 or not is_prime(q):
                raise ValueError(f"modulus {q} is not NTT-friendly for n={n}")
        self.n = n
        self._n1, self._n2 = n // n2, n2
        self.mod = np.array(primes, dtype=np.int64)[:, None]
        self._primes = primes
        steps = [_prime_steps(n, q) for q in primes]
        self._forward = [f for f, _ in steps]
        self._inverse = [i for _, i in steps]
        # Batch slot s holds the evaluation at psi^(2 bitrev(s) + 1).
        self.slot_index = _bitrev_perm(n)

    @staticmethod
    def _stage(mat: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
        """``mat @ x`` mod p as float64 remainders |r| < p, for a stacked
        (2 r, r) limb table and float64 x of shape (m, r, c)."""
        sums = mat @ x
        half = len(mat) // 2
        return _join(sums[:, :half], sums[:, half:], p, 1.0 / p)

    def _transform(self, a, steps: list[tuple], dims: tuple[int, int]) -> np.ndarray:
        """Either transform of ``a`` broadcast against ``mod`` to (..., k, n),
        each prime's m rows taken as a stack of ``dims`` matrices."""
        a = np.asarray(a)
        shape = np.broadcast_shapes(a.shape, self.mod.shape)
        rows = np.broadcast_to(a, shape).reshape(-1, *shape[-2:])
        out = np.empty(rows.shape, dtype=np.int64)
        for i, (p, (first, w, w_p, second)) in enumerate(zip(self._primes, steps)):
            z = self._stage(first, rows[:, i].reshape(-1, *dims).astype(np.float64), p)
            prod = z.astype(np.int64)
            prod *= w
            z = _sub_quotient(prod, z * w_p, p).astype(np.float64)
            y = self._stage(second, z.swapaxes(1, 2), p)
            canonical(y, p, out=out[:, i].reshape(y.shape))
        return out.reshape(shape)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT of integers |a| < 2^30; output in [0, p), in
        natural order (position r holds the evaluation at psi^(2 r + 1))."""
        return self._transform(a, self._forward, (self._n2, self._n1))

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT of integers |a| < 2^30 in :meth:`forward`'s
        order; undoes it, with output in [0, p)."""
        return self._transform(a, self._inverse, (self._n1, self._n2))


@lru_cache(maxsize=128)
def get_plan(n: int, primes: tuple[int, ...]) -> NttPlan:
    return NttPlan(n, primes)
