"""Negacyclic number-theoretic transforms over word-sized prime moduli.

Polynomials live in Z_p[X]/(X^n + 1) with n a power of two and
p = 1 (mod 2n). The forward transform evaluates at the odd powers of the
2n-th root psi, so pointwise products in the transform domain correspond
to negacyclic convolution; its output is in bit-reversed order.

Each transform is four-step: two float64 matrix products per prime with
a pointwise twiddle between them. Primes stay below 2^30 and the data is
split into two 15-bit limbs, so every product is below 2^45 and every
sum of at most 128 of them below 2^52: exact in float64 whatever order
the BLAS sums in. Twiddle products stay below 2^60 in int64.
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


def _reduce_float(x: np.ndarray, p: np.ndarray, p_inv: np.ndarray) -> None:
    """x -= floor(x / p) * p in place, for integers x below 2^53 in float64:
    exact, and lands in [-p, 2p) since the quotient is off by at most one."""
    quot = x * p_inv
    np.floor(quot, out=quot)
    quot *= p
    x -= quot


def _join_limbs(lo: np.ndarray, hi: np.ndarray, p) -> np.ndarray:
    """(lo + 2^15 hi) mod p as int64, for float64 integer sums below 2^52;
    ``hi`` is overwritten. p is an int or an int64 array that broadcasts."""
    pf = np.asarray(p, dtype=np.float64)
    p_inv = 1.0 / pf
    _reduce_float(hi, pf, p_inv)
    # Now |hi| < 2^31, so 2^15 hi + lo stays below 2^53.
    hi *= 1 << _LIMB
    hi += lo
    _reduce_float(hi, pf, p_inv)
    y = hi.astype(np.int64)
    y %= p
    return y


def _gemm_mod(x: np.ndarray, mat: np.ndarray, p: int, left: bool) -> np.ndarray:
    """``mat @ x`` over axis 0 (``left``) or ``x @ mat`` over the last axis,
    mod p, for x of shape (n2, m, n1) reduced mod p."""
    n2, m, n1 = x.shape
    axis = 1 if left else 0
    limbs = np.empty(x.shape[:axis] + (2,) + x.shape[axis:])
    pick = (slice(None),) * axis
    limbs[pick + (0,)] = x & _LIMB_MASK
    limbs[pick + (1,)] = x >> _LIMB
    if left:
        sums = (mat @ limbs.reshape(n2, -1)).reshape(limbs.shape)
    else:
        sums = (limbs.reshape(-1, n1) @ mat).reshape(limbs.shape)
    return _join_limbs(sums[pick + (0,)], sums[pick + (1,)], p)


class NttPlan:
    """Precomputed tables for ring degree n and a tuple of k primes. A plan
    transforms (..., k, n) arrays, one residue row per prime, in one call,
    and spreads a 1-D polynomial onto every row. ``mod`` is the (k, 1)
    column of primes, for broadcasting.

    The transform is the four-step method (Bailey, "FFTs in External or
    Hierarchical Memory", 1990) for n = n1 * n2: view a row as an (n2, n1)
    matrix, multiply on the left by an n2-point DFT matrix, scale pointwise
    by twiddles, multiply on the right by an n1-point DFT matrix. The
    negacyclic twist psi^i is folded into the first matrix and the twiddles,
    and n^-1 into the inverse's first matrix."""

    def __init__(self, n: int, primes: tuple[int, ...]) -> None:
        if n & (n - 1) or n < 2:
            raise ValueError(f"ring degree {n} must be a power of two")
        n2 = 1 << (n.bit_length() // 2)
        if n2 > _MAX_N2:
            raise ValueError(f"ring degree {n} needs n2={n2} > {_MAX_N2}; sums would be inexact")
        n1 = n // n2
        for q in primes:
            if q >= 1 << 30:
                raise ValueError(f"modulus {q} is not below 2^30")
            if (q - 1) % (2 * n) != 0 or not is_prime(q):
                raise ValueError(f"modulus {q} is not NTT-friendly for n={n}")
        self.n = n
        self._n1 = n1
        self.mod = np.array(primes, dtype=np.int64)[:, None]
        self._primes = primes

        # Tables as exponents of psi, looked up in each prime's powers; the
        # inverse tables negate them (psi^-e = psi^(2n - e)).
        pws = [_powers(_primitive_2n_root(q, n), q, 2 * n) for q in primes]

        def table(exp: np.ndarray, sign: int = 1) -> np.ndarray:
            return np.stack([pw[sign * exp % (2 * n)] for pw in pws])

        k2, j2 = np.arange(n2)[:, None], np.arange(n2)[None, :]
        j1, k1 = np.arange(n1)[:, None], np.arange(n1)[None, :]
        e_f1 = n1 * j2 * (2 * k2 + 1)  # [k2, j2]: the n2-point DFT and psi^(n1 j2)
        e_tw = j1.T * (2 * k2 + 1)  # [k2, j1]: omega^(j1 k2) psi^j1
        e_f2 = 2 * n2 * j1 * k1  # [j1, k1]: the n1-point DFT
        n_inv = np.array([pow(n, -1, q) for q in primes], dtype=np.int64)[:, None, None]
        self._f1 = table(e_f1).astype(np.float64)
        self._tw = table(e_tw)[:, :, None, :]
        self._f2 = table(e_f2).astype(np.float64)
        self._g1 = (table(e_f2, -1) * n_inv % np.array(primes)[:, None, None]).astype(np.float64)
        self._itw = table(e_tw, -1)[:, :, None, :]
        self._g2 = table(e_f1.T, -1).astype(np.float64)
        # Output slot s holds the evaluation at psi^(2 r + 1), r = bitrev(s),
        # which the GEMMs leave at row r % n2, column r // n2.
        rev = _bitrev_perm(n)
        self._gather = rev % n2 * n1 + rev // n2
        self._scatter = np.argsort(self._gather)

    def _rows(self, a: np.ndarray) -> np.ndarray:
        """``a`` reduced, as (m, k, n)."""
        a = np.mod(a, self.mod).astype(np.int64, copy=False)
        return a.reshape(-1, *a.shape[-2:])

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT; input in natural order, output in bit-reversed order."""
        shape = np.broadcast_shapes(np.shape(a), np.shape(self.mod))
        rows = self._rows(a)
        m, k, n = rows.shape
        out = np.empty_like(rows)
        for i, p in enumerate(self._primes):
            x = rows[:, i].reshape(m, -1, self._n1).transpose(1, 0, 2)
            z = _gemm_mod(x, self._f1[i], p, left=True)
            z *= self._tw[i]
            z %= p
            y = _gemm_mod(z, self._f2[i], p, left=False)
            out[:, i] = y.transpose(1, 0, 2).reshape(m, n)[:, self._gather]
        return out.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; undoes :meth:`forward`."""
        shape = np.broadcast_shapes(np.shape(a), np.shape(self.mod))
        rows = self._rows(a)[..., self._scatter]
        m, k, n = rows.shape
        for i, p in enumerate(self._primes):
            x = rows[:, i].reshape(m, -1, self._n1).transpose(1, 0, 2)
            u = _gemm_mod(x, self._g1[i], p, left=False)
            u *= self._itw[i]
            u %= p
            y = _gemm_mod(u, self._g2[i], p, left=True)
            rows[:, i] = y.transpose(1, 0, 2).reshape(m, n)
        return rows.reshape(shape)


@lru_cache(maxsize=128)
def get_plan(n: int, primes: tuple[int, ...]) -> NttPlan:
    return NttPlan(n, primes)


def schoolbook_negacyclic(a, b, p: int) -> list[int]:
    """Quadratic negacyclic convolution in exact integers; the NTT oracle."""
    n = len(a)
    assert len(b) == n
    full = [0] * (2 * n)
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            full[i + j] += ai * int(b[j])
    return [(full[i] - full[i + n]) % p for i in range(n)]
