"""Negacyclic number-theoretic transforms over word-sized prime moduli.

Polynomials live in Z_p[X]/(X^n + 1) with n a power of two and
p = 1 (mod 2n). The transforms fold the 2n-th root psi into the
butterflies, so pointwise products in the transform domain correspond
to negacyclic convolution. Primes are kept below 2^31 so butterfly
products fit in int64 under numpy.
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


def find_ntt_primes(bits: int, n: int, count: int, exclude: tuple[int, ...] = ()) -> list[int]:
    """Largest ``count`` primes of exactly ``bits`` bits with p = 1 (mod 2n)."""
    if bits > 30:
        raise ValueError("NTT primes must stay below 2^31 for int64 arithmetic")
    two_n = 2 * n
    found: list[int] = []
    p = ((1 << bits) - 1) // two_n * two_n + 1
    while p.bit_length() == bits and len(found) < count:
        if p not in exclude and is_prime(p):
            found.append(p)
        p -= two_n
    if len(found) < count:
        raise ValueError(f"not enough {bits}-bit NTT primes for n={n}")
    return found


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


class NttPlan:
    """Precomputed twiddle tables for ring degree n and one prime ``p``, or
    a tuple of primes. A plan for one prime transforms arrays of shape
    (..., n); a plan for k primes transforms (..., k, n) arrays, one residue
    row per prime, in one call, and spreads a 1-D polynomial onto every row.
    ``mod`` is ``p`` or the (k, 1) column of primes, for broadcasting."""

    def __init__(self, n: int, p: int | tuple[int, ...]) -> None:
        if n & (n - 1) or n < 2:
            raise ValueError(f"ring degree {n} must be a power of two")
        primes = p if isinstance(p, tuple) else (p,)
        for q in primes:
            if (q - 1) % (2 * n) != 0 or not is_prime(q):
                raise ValueError(f"modulus {q} is not NTT-friendly for n={n}")
        self.n = n
        self.p = p
        rev = _bitrev_perm(n)
        tw, itw = [], []
        for q in primes:
            # psi^i and psi^-i for i < n, in bit-reversed order.
            psi = _primitive_2n_root(q, n)
            psi_inv = pow(psi, -1, q)
            powers, inv_powers = [1], [1]
            for _ in range(n - 1):
                powers.append(powers[-1] * psi % q)
                inv_powers.append(inv_powers[-1] * psi_inv % q)
            tw.append(np.array(powers, dtype=np.int64)[rev])
            itw.append(np.array(inv_powers, dtype=np.int64)[rev])
        n_inv = [pow(n, -1, q) for q in primes]
        if not isinstance(p, tuple):
            self.mod, self._p, self._n_inv = p, p, n_inv[0]
            self._tw, self._itw = tw[0], itw[0]
        else:
            self.mod = np.array(primes, dtype=np.int64)[:, None]
            self._p = self.mod[:, :, None]
            self._n_inv = np.array(n_inv, dtype=np.int64)[:, None]
            self._tw, self._itw = np.stack(tw), np.stack(itw)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT; input in natural order, output in bit-reversed order."""
        n, p, tw = self.n, self._p, self._tw
        a = np.mod(a, self.mod).astype(np.int64, copy=False)
        lead = a.shape[:-1]
        t = n
        m = 1
        while m < n:
            t //= 2
            a = a.reshape(*lead, m, 2, t)
            lo = a[..., 0, :]
            hi = a[..., 1, :] * tw[..., m : 2 * m, None] % p
            a = np.stack(((lo + hi) % p, (lo - hi) % p), axis=-2)
            m *= 2
        return a.reshape(*lead, n)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; undoes :meth:`forward`."""
        n, p, itw = self.n, self._p, self._itw
        a = np.mod(a, self.mod).astype(np.int64, copy=False)
        lead = a.shape[:-1]
        t = 1
        m = n
        while m > 1:
            h = m // 2
            a = a.reshape(*lead, h, 2, t)
            lo = a[..., 0, :]
            hi = a[..., 1, :]
            a = np.stack(((lo + hi) % p, (lo - hi) * itw[..., h : 2 * h, None] % p), axis=-2)
            t *= 2
            m = h
        return a.reshape(*lead, n) * self._n_inv % self.mod

    def pointwise(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        return fa * fb % self.mod


@lru_cache(maxsize=128)
def get_plan(n: int, p: int | tuple[int, ...]) -> NttPlan:
    return NttPlan(n, p)


def negacyclic_mul(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """a * b mod (X^n + 1, p) via NTT."""
    plan = get_plan(n, p)
    return plan.inverse(plan.pointwise(plan.forward(a), plan.forward(b)))


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
