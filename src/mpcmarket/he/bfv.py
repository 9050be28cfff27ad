"""Textbook BFV: keygen, encrypt/decrypt, add, multiply-with-relinearization,
coefficient and batched encodings, and noise-budget tracking.

Representation: every polynomial is one (k, n) int64 array in RNS form,
one residue row per coefficient-modulus prime, and every operation is one
broadcast against the (k, 1) column of primes (``HeParams.ntt.mod``); one
NTT call transforms all k rows. The coefficient modulus q is a product of
30-bit NTT-friendly primes (kept word-sized so numpy int64 products never
overflow). Products in the transform domain take no int64 remainder:
:func:`~mpcmarket.he.ntt.dot_mod` estimates each quotient in float64 and
subtracts it exactly. The transforms keep their natural output order, so
only :func:`batch_encode` and :func:`batch_decode` apply the (bit-reversed)
slot order; keys and ciphertexts travel in coefficient form, which the
order does not touch.

Multiplication takes a signed sum of products, a*b or a*b - c*d. It
extends the operands' centered lifts from q to an extended prime basis by
exact RNS base conversion, accumulates the tensor of every product there
(a square transforms its operand once), then scale-rounds by t/q in RNS
and relinearizes with an RNS-decomposed key-switching key once for the
whole sum (lazy relinearization: Kim, Polyakov and Zucca, ASIACRYPT 2021);
decryption uses the same rounding. Both work in int64 and float64 (Halevi,
Polyakov and Shoup, CT-RSA 2019); a column whose float sum lies too near
a rounding boundary is recomputed in Python integers, so results equal
exact integer arithmetic.

A ciphertext lives under any leading prefix of the key's primes, its
level. :func:`mod_switch` keeps the first k of them: it divides by the
product D of the dropped primes and rounds, (c - [c]_D) / D with [c]_D the
centered lift of the dropped residues (Brakerski, Gentry and
Vaikuntanathan, ITCS 2012). The result lives under q' = q / D with
Delta' = floor(q'/t) and takes every operation. Every product settles to
the fewest leading primes that lose less than one bit of budget
(:func:`settle_primes`), and an operation on two levels first switches
the operand with more primes down to the other's count. A product under
the first k primes relinearizes with the first k digits and key rows; the
key encrypts (q/p_i) s^2 for the full q, so the digits take the full q's
constants q_hat_i^-1 mod p_i, sliced to the first k.

Keys and ciphertexts serialize as their (k, n) arrays in coefficient form,
prime-major, one little-endian uint32 per residue (every prime is below
2^30); the decoders take exactly one such buffer, check n and k against
the parameters (a ciphertext may hold the first k of the K primes) and
every residue against its prime, and raise :class:`HeParamsError` on
anything else. A public or relinearization key sends only its b rows and a
32-byte seed: its uniform a halves are public, so every party expands them
from the seed (:func:`_expand_uniform`), as SEAL's seeded serialization
does.

Noise is tracked two ways: a conservative running estimate carried on every
ciphertext (used to flag budget exhaustion eagerly, the scheme's bottom
element), and an exact secret-key measurement via :func:`noise_budget`.
The estimate follows five rules, which the operations and the computation
planner share (Fan and Vercauteren, 2012; v and t as log2 values, a (+) b
= log2(2^a + 2^b)):

- a sum or difference adds the noises;
- a relinearized sum of products follows :func:`mul_noise_log2`;
- a multiply by a plaintext p (its centered representative) gives
  |p|_1 * (v + t), the t term covering the r_t(q) wrap; the planner takes
  |p|_1 from the constant or weights (:func:`centered_l1`), not from p;
- adding a plaintext gives v (+) t, since Delta m differs from m q / t by
  less than t;
- a switch from q to q' gives (v - log2(q/q')) (+) t (+) log2((1 + n)/2):
  the scaled noise, the wrap of Delta' against q'/t, and the rounding
  error r0 + r1 s with |r_i| <= 1/2 and s ternary; a product switches to
  the prime count :func:`settle_primes` gives.

Both the estimate and :func:`noise_budget` measure against Delta =
floor(q/t), so they count the wrap r_t(q) m / t (below t) as noise. Where
q/t is small the exact budget can therefore read below 0 while decryption
is still exact, as for an LR output switched to 2 of 4 primes at n=4096.

Parameter sets here are desk-scale and not production-audited.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .ntt import NttPlan, _join, canonical, dot_mod, get_plan, is_prime, split_limbs

VALID_DEGREES = (1024, 2048, 4096, 8192)

# q-prime bit layout per degree, loosely following the usual 128-bit-security
# modulus budgets (109 bits at n=4096, ~180 of the 218 available at n=8192).
_DEFAULT_Q_BITS = {
    1024: (27, 27),
    2048: (27, 27),
    4096: (27, 27, 27, 27),
    8192: (30, 30, 30, 30, 30, 30),
}

# Standard deviation of every error polynomial, clipped at 6 sigma.
NOISE_SIGMA = 3.2


class HeParamsError(ValueError):
    """Invalid or mismatched encryption parameters."""


class DecryptionFailure(RuntimeError):
    """The scheme's bottom element: noise exceeded the decryptable budget."""


class NoiseBudgetExhausted(DecryptionFailure):
    """Raised eagerly when an operation would push estimated budget to <= 0."""


def find_ntt_primes(bits: int, n: int, count: int = 1, exclude: tuple[int, ...] = ()) -> list[int]:
    """The largest ``count`` primes of exactly ``bits`` bits with p = 1
    (mod 2n), skipping ``exclude``: coefficient primes, the multiply basis
    and batching plaintext moduli. The search has no size cap of its own;
    :class:`HeParams` and the NTT plans reject primes of 2^30 or more."""
    two_n = 2 * n
    found: list[int] = []
    p = ((1 << bits) - 1) // two_n * two_n + 1
    while p.bit_length() == bits and len(found) < count:
        if p not in exclude and is_prime(p):
            found.append(p)
        p -= two_n
    if len(found) < count:
        raise HeParamsError(f"not enough {bits}-bit primes p = 1 (mod {two_n})")
    return found


@dataclass(frozen=True)
class HeParams:
    """Ring degree, RNS coefficient modulus, plaintext modulus; noise width NOISE_SIGMA."""

    n: int
    q_primes: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        if self.n not in VALID_DEGREES:
            raise HeParamsError(f"ring degree {self.n} not in {VALID_DEGREES}")
        if len(set(self.q_primes)) != len(self.q_primes):
            raise HeParamsError("coefficient primes must be distinct")
        for p in self.q_primes:
            if p.bit_length() > 30 or (p - 1) % (2 * self.n) or not is_prime(p):
                raise HeParamsError(f"bad coefficient prime {p}")
        if not (2 <= self.t < self.q):
            raise HeParamsError(f"plaintext modulus {self.t} must satisfy 2 <= t < q")
        if self.fresh_budget() <= 0:
            raise HeParamsError(
                f"no fresh noise budget at n={self.n}, log2(q)={math.log2(self.q):.0f}, t={self.t}"
            )

    @property
    def q(self) -> int:
        return math.prod(self.q_primes)

    @property
    def ntt(self) -> NttPlan:
        """The transform for all k coefficient primes; ``ntt.mod`` is their
        (k, 1) column."""
        return get_plan(self.n, self.q_primes)

    def residues(self, x: int) -> np.ndarray:
        """The (k, 1) column of x mod each coefficient prime."""
        return np.array([x % p for p in self.q_primes], dtype=np.int64)[:, None]

    def fresh_noise_log2(self) -> float:
        bound = 6 * NOISE_SIGMA
        return math.log2(2 * self.n * bound + bound)

    def budget_capacity(self, t: int | None = None, k: int | None = None) -> float:
        """log2(q / 2t): the noise (log2) at which decryption under t
        (default ``self.t``) and the first k primes (default all) fails."""
        log2_q = sum(math.log2(p) for p in self.q_primes[:k])
        return log2_q - math.log2(2 * (self.t if t is None else t))

    def fresh_budget(self) -> float:
        return self.budget_capacity() - self.fresh_noise_log2()

    def canonical_repr(self) -> str:
        qs = ",".join(str(p) for p in self.q_primes)
        return f"bfv:n={self.n}:q={qs}:t={self.t}:sigma={NOISE_SIGMA}"

    @property
    def param_hash(self) -> bytes:
        return hashlib.sha256(self.canonical_repr().encode()).digest()[:8]

    @classmethod
    def default(cls, n: int, t_bits: int = 20) -> "HeParams":
        bits = _DEFAULT_Q_BITS.get(n)
        if bits is None:
            raise HeParamsError(f"no default parameters for n={n}")
        primes: list[int] = []
        for b in sorted(set(bits)):
            want = bits.count(b)
            primes.extend(find_ntt_primes(b, n, want, exclude=tuple(primes)))
        return cls(n=n, q_primes=tuple(primes), t=find_ntt_primes(t_bits, n)[0])


class _Rns(NamedTuple):
    """CRT constants for a tuple of primes with product q."""

    primes: tuple[int, ...]
    q: int
    lifts: tuple[int, ...]  # q_hat_i * (q_hat_i^-1 mod p_i), q_hat_i = q / p_i
    col: np.ndarray  # (k, 1) int64 primes
    hat_inv: np.ndarray  # (k, 1) int64 q_hat_i^-1 mod p_i
    inv: np.ndarray  # (k,) float64 1 / p_i


@lru_cache(maxsize=64)
def _rns(primes: tuple[int, ...]) -> _Rns:
    q = math.prod(primes)
    hat_invs = [pow(q // p % p, -1, p) for p in primes]
    col = np.array(primes, dtype=np.int64)[:, None]
    return _Rns(
        primes,
        q,
        tuple(q // p * inv for p, inv in zip(primes, hat_invs)),
        col,
        np.array(hat_invs, dtype=np.int64)[:, None],
        1.0 / col[:, 0].astype(np.float64),
    )


class _Conversion(NamedTuple):
    """Constants for moving a centered lift from ``src`` to the ``dst`` primes."""

    src: _Rns
    dst: _Rns
    hats: np.ndarray  # (2 kd, ks) float64: q_hat_i mod d_j, low then high 15-bit limbs
    q_dst: np.ndarray  # (kd, 1) int64: q mod d_j
    q_inv_dst: np.ndarray  # (kd, 1) int64: q^-1 mod d_j


@lru_cache(maxsize=64)
def _conversion(src: tuple[int, ...], dst: tuple[int, ...]) -> _Conversion:
    q = math.prod(src)
    hats = np.array([[q // p % d for p in src] for d in dst], dtype=np.int64)
    return _Conversion(
        _rns(src),
        _rns(dst),
        split_limbs(hats, axis=0),
        np.array([q % d for d in dst], dtype=np.int64)[:, None],
        np.array([pow(q, -1, d) for d in dst], dtype=np.int64)[:, None],
    )


@lru_cache(maxsize=32)
def _mul_basis(n: int, q_primes: tuple[int, ...]) -> tuple[int, ...]:
    """q's primes, then extension primes with product P > 2 n q. The exact
    tensor of a sum of two products of centered operands (|W| < n q^2)
    then fits the whole basis, and the quotient h of W = w_q + q h
    (|h| < n q) lifts from P without ambiguity."""
    q = math.prod(q_primes)
    need = 2 * n * q * q
    basis = list(q_primes)
    prod = q
    bits = 30
    while prod < need:
        extra = find_ntt_primes(bits, n, 1, exclude=tuple(basis))
        basis.extend(extra)
        prod *= extra[0]
    return tuple(basis)


# -- exact RNS arithmetic in int64 and float64 ----------------------------------
#
# Halevi, Polyakov and Shoup, "An Improved RNS Variant of the BFV Homomorphic
# Encryption Scheme" (CT-RSA 2019). For residues x_i of X mod q, the digits
# y_i = [x_i q_hat_i^-1]_{p_i} give X = sum y_i q_hat_i - v q with
# v = rint(sum y_i / p_i) for the centered X, and
# round(t X / q) = sum floor(t y_i / p_i) + rint(sum (t y_i mod p_i) / p_i) - t v.
# Both float sums are off by about 1e-15; a column whose sum lies within
# _BOUNDARY of a half-integer is recomputed in Python integers.

_BOUNDARY = 1e-9


def _exact_columns(x: np.ndarray, mask: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """The centered integers (object dtype) of the columns of x (..., k, n)
    selected by mask, by exact CRT reconstruction in Python integers."""
    rns = _rns(primes)
    v = np.swapaxes(x, -1, -2)[mask].astype(object).dot(rns.lifts) % rns.q
    return np.where(v > rns.q // 2, v - rns.q, v)


def _lift(x: np.ndarray, conv: _Conversion):
    """Digits y, v and the residues mod ``conv.dst`` of the centered lift of
    x (..., ks, n), with the columns where v may be off by one."""
    src, dst = conv.src, conv.dst
    y = x * src.hat_inv % src.col
    yf = y.astype(np.float64)
    f = src.inv @ yf
    v = np.rint(f)
    near = np.abs(f - v) > 0.5 - _BOUNDARY
    # Each sum is below ks * 2^15 * 2^30 <= 2^49, so exact.
    sums = conv.hats @ yf
    kd = len(dst.primes)
    lo = sums[..., :kd, :]
    lo -= v[..., None, :] * conv.q_dst
    w = _join(lo, sums[..., kd:, :], dst.col, dst.inv[:, None])
    return y, v.astype(np.int64), canonical(w, dst.col), near


def _extend(x: np.ndarray, conv: _Conversion) -> np.ndarray:
    """Residues mod ``conv.dst`` of the centered lift of x (..., ks, n)."""
    _, _, out, near = _lift(x, conv)
    if near.any():
        lifted = _exact_columns(x, near, conv.src.primes)
        np.swapaxes(out, -1, -2)[near] = [[v % d for d in conv.dst.primes] for v in lifted]
    return out


def _round_tq(y: np.ndarray, rns: _Rns, t: int) -> tuple[np.ndarray, np.ndarray]:
    """round(t X / q) + t v for the lift X of digits y (..., k, n), and the
    columns where it may be off by one (every column if t y overflows int64)."""
    cols = y.shape[:-2] + y.shape[-1:]
    if t >= 1 << 33:
        return np.zeros(cols, np.int64), np.ones(cols, bool)
    whole, part = np.divmod(y * t, rns.col)
    s = rns.inv @ part.astype(np.float64)
    r = np.rint(s)
    near = np.abs(s - r) > 0.5 - _BOUNDARY
    return whole.sum(axis=-2) + r.astype(np.int64), near


def _scale_round(w: np.ndarray, basis: tuple[int, ...], k: int, t: int) -> np.ndarray:
    """Residues mod q (the first k primes) of round(t W / q) for the exact
    integers W held as residues w (..., K, n) over the whole basis."""
    to_p = _conversion(basis[:k], basis[k:])
    y, v, w_q_p, near = _lift(w[..., :k, :], to_p)
    # W = w_q + q h with w_q the centered lift of W mod q; h is exact mod P,
    # and round(t W / q) = t h + round(t w_q / q) = t (h - v) + r.
    h = (w[..., k:, :] - w_q_p) * to_p.q_inv_dst % to_p.dst.col
    h_q = _extend(h, _conversion(basis[k:], basis[:k]))
    r, near_r = _round_tq(y, to_p.src, t)
    q_col = to_p.src.col
    out = ((h_q - v[..., None, :]) * (t % q_col) + r[..., None, :]) % q_col
    near |= near_r
    if near.any():
        q = to_p.src.q
        exact = _exact_columns(w, near, basis)
        np.swapaxes(out, -1, -2)[near] = [
            [(2 * t * x + q) // (2 * q) % p for p in basis[:k]] for x in exact
        ]
    return out


@dataclass(frozen=True)
class SecretKey:
    params: HeParams
    s_coeff: np.ndarray  # ternary, int64
    s_ntt: np.ndarray = field(repr=False)  # (k, n)


@dataclass(frozen=True)
class PublicKey:
    """(b, a) in the transform domain; a is half 0 of ``seed``."""

    params: HeParams
    seed: bytes
    pk0_ntt: np.ndarray = field(repr=False)  # (k, n)
    pk1_ntt: np.ndarray = field(repr=False)  # (k, n)


@dataclass(frozen=True)
class RelinKey:
    """Key-switching key for s^2 -> s, RNS-decomposed: one (b, a) pair of
    (k, n) arrays per coefficient prime, stored in the transform domain;
    pair i's a is half i of ``seed``."""

    params: HeParams
    seed: bytes
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)


@dataclass(frozen=True)
class HePlaintext:
    """Polynomial mod t: values in its coefficients (a scalar in the
    constant one), or one value per slot when batched; the caller knows
    which."""

    poly: np.ndarray
    t: int

    def centered(self) -> np.ndarray:
        """The coefficients as representatives in (-t/2, t/2]."""
        return np.where(self.poly > self.t // 2, self.poly - self.t, self.poly)


@dataclass
class HeCiphertext:
    """RNS ciphertext (c0, c1) of two (k, n) polys; relinearization keeps
    every product a pair (Fan and Vercauteren, 2012).

    ``noise_log2`` is the conservative running noise estimate used for eager
    budget checks. ``t`` travels with the ciphertext: one keypair serves any
    plaintext modulus over the same ring, which the CRT computation plans
    rely on. The polys hold one row per prime of ``primes``, a leading
    prefix of q's primes (all of them when fresh).
    """

    params: HeParams
    t: int
    polys: tuple[np.ndarray, np.ndarray]
    noise_log2: float

    @property
    def primes(self) -> tuple[int, ...]:
        return self.params.q_primes[: len(self.polys[0])]

    @property
    def plan(self) -> NttPlan:
        """The transform over ``primes``; ``plan.mod`` is their (k, 1) column."""
        return get_plan(self.params.n, self.primes)

    @property
    def budget_estimate(self) -> float:
        return self.params.budget_capacity(self.t, len(self.primes)) - self.noise_log2


# -- noise rules ------------------------------------------------------------------


def add_noise_log2(va: float, vb: float) -> float:
    """Noise estimate (log2) of a sum or difference of two noises."""
    return float(np.logaddexp2(va, vb))


def mul_noise_log2(
    params: HeParams, t: int, k: int, products: Sequence[tuple[float, float]]
) -> float:
    """Noise estimate (log2) after one relinearization, under the first
    ``k`` primes and plaintext modulus ``t``, of a signed sum of products
    of ciphertexts, each product given by its operands' estimates: every
    product adds its tensor noise, and the key switch adds its own once."""
    base = reduce(add_noise_log2, (add_noise_log2(va, vb) for va, vb in products))
    mult = math.log2(t) + math.log2(params.n) + 2 + base
    relin = (
        math.log2(k)
        + math.log2(params.n)
        + max(math.log2(p) for p in params.q_primes[:k])
        + math.log2(6 * NOISE_SIGMA)
    )
    return add_noise_log2(mult, relin)


def centered_l1(values: Sequence[int], t: int) -> int:
    """The l1 norm of ``values``' representatives mod ``t`` in (-t/2, t/2]."""
    return sum(min(v % t, t - v % t) for v in values)


def plain_mul_noise_log2(v: float, l1: int, t: int) -> float:
    """Noise estimate (log2) after multiplying noise ``v`` by a plaintext p
    mod ``t`` whose centered representative has l1 norm ``l1``:
    |p|_1 * (v + t). The t term bounds the wrap r_t(q) * floor(x*p / t),
    where Delta * t = q - r_t(q) and r_t(q) < t (Fan and Vercauteren,
    "Somewhat Practical Fully Homomorphic Encryption", 2012)."""
    return math.log2(max(l1, 1)) + add_noise_log2(v, math.log2(t))


def plain_add_noise_log2(v: float, t: int) -> float:
    """Noise estimate (log2) after adding a plaintext under modulus ``t`` to
    noise ``v``: Delta * m differs from m * q / t by less than t."""
    return add_noise_log2(v, math.log2(t))


def switch_noise_log2(
    params: HeParams, t: int, v: float, k: int, held: int | None = None
) -> float:
    """Noise estimate (log2) after :func:`mod_switch` keeps the first ``k``
    of the first ``held`` (default all) of q's primes: v q'/q, plus the
    wrap of Delta' = floor(q'/t) against q'/t (below t), plus the rounding
    r0 + r1 s (at most (1 + n)/2 for a ternary s). Keeping every prime
    changes nothing."""
    dropped = params.q_primes[k:held]
    if not dropped:
        return v
    scaled = v - sum(math.log2(p) for p in dropped)
    return add_noise_log2(plain_add_noise_log2(scaled, t), math.log2((1 + params.n) / 2))


def settle_primes(params: HeParams, t: int, v: float, k: int) -> int:
    """The fewest leading primes j <= k to which a product of noise ``v``
    under the first ``k`` primes switches losing less than one bit of
    budget (and keeping some): the switch's noise exceeds the scaled v by
    less than a bit. Dropping a prime pays off while the scaled noise
    still dominates the switch's own terms, t and (1 + n)/2."""
    j = k
    while j > 1:
        after = switch_noise_log2(params, t, v, j - 1, k)
        scaled = v - sum(math.log2(p) for p in params.q_primes[j - 1 : k])
        if after - scaled >= 1 or after >= params.budget_capacity(t, j - 1):
            break
        j -= 1
    return j


# -- sampling -----------------------------------------------------------------


def _sample_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1, 2, n, dtype=np.int64)


def _sample_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    bound = math.ceil(6 * NOISE_SIGMA)
    e = np.rint(rng.normal(0.0, NOISE_SIGMA, n)).astype(np.int64)
    return np.clip(e, -bound, bound)


def _expand_uniform(seed: bytes, half: int, n: int, primes: Sequence[int]) -> np.ndarray:
    """Uniform half ``half`` of a key, as its (k, n) transform-domain rows.
    Row i holds the first n words below p_i of SHAKE-128(seed, half, i)
    (one byte each for half and i), read as little-endian uint32 and masked
    to p_i's bit length. The stream is fixed by the hash, not by numpy's
    generators, whose output may change between versions."""
    rows = np.empty((len(primes), n), dtype=np.int64)
    for i, p in enumerate(primes):
        xof = hashlib.shake_128(seed + bytes((half, i)))
        mask = (1 << p.bit_length()) - 1
        words = n + n // 4
        while True:
            # A longer digest extends the shorter one, so the rows do not
            # depend on how many words were read.
            w = np.frombuffer(xof.digest(4 * words), dtype="<u4") & mask
            w = w[w < p]
            if len(w) >= n:
                break
            words *= 2
        rows[i] = w[:n]
    return rows


# -- key generation -----------------------------------------------------------


def keygen(
    params: HeParams, seed=None, relin: bool = True
) -> tuple[SecretKey, PublicKey, RelinKey | None]:
    """Generate (sk, pk, rk); deterministic under a fixed seed. The rng
    draws s, then pk's 32-byte seed and error, then rk's seed and errors.
    With ``relin=False`` no relinearization key is built and rk is None;
    rk is sampled last, so sk and pk are the same either way."""
    rng = np.random.default_rng(seed)
    n, primes = params.n, params.q_primes
    plan = params.ntt
    q = plan.mod

    s = _sample_ternary(rng, n)
    s_ntt = plan.forward(s)

    def rlwe(seed: bytes, half: int, body_ntt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(b, a) in the transform domain with b = body - a s."""
        a_ntt = _expand_uniform(seed, half, n, primes)
        return (body_ntt - dot_mod((a_ntt,), (s_ntt,), q)) % q, a_ntt

    pk_seed = rng.bytes(32)
    pk = PublicKey(params, pk_seed, *rlwe(pk_seed, 0, plan.forward(-_sample_gaussian(rng, n))))
    sk = SecretKey(params, s, s_ntt)
    if not relin:
        return sk, pk, None

    rk_seed = rng.bytes(32)
    s2_ntt = dot_mod((s_ntt,), (s_ntt,), q)
    pairs = tuple(
        rlwe(rk_seed, i, params.residues(params.q // p_i) * s2_ntt
             + plan.forward(_sample_gaussian(rng, n)))
        for i, p_i in enumerate(primes)
    )
    return sk, pk, RelinKey(params, rk_seed, pairs)


# -- encodings ----------------------------------------------------------------


def encode_coeffs(values: Sequence[int], params: HeParams, t: int | None = None) -> HePlaintext:
    """Up to n integers as the coefficients of X^0, X^1, ... mod t."""
    t = params.t if t is None else t
    if len(values) > params.n:
        raise HeParamsError(f"too many coefficients: {len(values)} > {params.n}")
    poly = np.zeros(params.n, dtype=np.int64)
    poly[: len(values)] = np.mod(np.asarray(values, dtype=object), t).astype(np.int64)
    return HePlaintext(poly, t)


def encode_scalar(value: int, params: HeParams, t: int | None = None) -> HePlaintext:
    return encode_coeffs([value], params, t)


def decode_scalar(pt: HePlaintext) -> int:
    return int(pt.poly[0]) % pt.t


def batch_encode(values: Sequence[int], params: HeParams, t: int | None = None) -> HePlaintext:
    """Pack up to n integers into slots (CRT/NTT packing over R_t)."""
    t = params.t if t is None else t
    if t.bit_length() > 30 or (t - 1) % (2 * params.n) or not is_prime(t):
        raise HeParamsError(f"t={t} incompatible with batching at n={params.n}")
    if len(values) > params.n:
        raise HeParamsError(f"too many values to batch: {len(values)} > {params.n}")
    plan = get_plan(params.n, (t,))
    slots = np.zeros(params.n, dtype=np.int64)
    slots[plan.slot_index[: len(values)]] = np.mod(np.asarray(values, dtype=object), t)
    return HePlaintext(plan.inverse(slots)[0], t)


def batch_decode(pt: HePlaintext, count: int | None = None) -> list[int]:
    plan = get_plan(len(pt.poly), (pt.t,))
    slots = plan.forward(pt.poly)[0][plan.slot_index[:count]]
    return [int(v) for v in slots]


# -- encryption / decryption ---------------------------------------------------


def encrypt(pk: PublicKey, pt: HePlaintext, rng: np.random.Generator | None = None) -> HeCiphertext:
    """Randomized public-key encryption of a plaintext polynomial."""
    params = pk.params
    if len(pt.poly) != params.n:
        raise HeParamsError("plaintext/parameter ring mismatch")
    if rng is None:
        rng = np.random.default_rng()
    n, plan = params.n, params.ntt
    q = plan.mod
    u = _sample_ternary(rng, n)
    e1 = _sample_gaussian(rng, n)
    e2 = _sample_gaussian(rng, n)
    u_ntt = plan.forward(u)
    delta = params.residues(params.q // pt.t)
    # pt.poly is reduced first: residues below 2^30 keep delta * m in int64 for any t.
    c0 = (plan.inverse(dot_mod((pk.pk0_ntt,), (u_ntt,), q)) + e1 + delta * (pt.poly % q)) % q
    c1 = (plan.inverse(dot_mod((pk.pk1_ntt,), (u_ntt,), q)) + e2) % q
    return HeCiphertext(params, pt.t, (c0, c1), params.fresh_noise_log2())


def _dot_secret(ct: HeCiphertext, sk: SecretKey) -> np.ndarray:
    """Residues of c0 + c1*s mod the ciphertext's primes."""
    plan = get_plan(ct.params.n, ct.primes)
    q = plan.mod
    c0, c1 = ct.polys
    s_ntt = sk.s_ntt[: len(ct.primes)]  # each row transforms under its own prime
    return (c0 + plan.inverse(dot_mod((plan.forward(c1),), (s_ntt,), q))) % q


def decrypt(sk: SecretKey, ct: HeCiphertext) -> HePlaintext:
    """Decrypt; raises :class:`DecryptionFailure` when the tracked noise
    estimate says the result would be garbage (the scheme's bottom element)."""
    if sk.params != ct.params:
        raise HeParamsError("secret key / ciphertext parameter mismatch")
    if ct.budget_estimate <= 0:
        raise DecryptionFailure(
            f"noise budget exhausted (estimate {ct.budget_estimate:.1f} bits)"
        )
    w = _dot_secret(ct, sk)
    rns, t = _rns(ct.primes), ct.t
    # round(t W / q) mod t, where the t v term of the rounding vanishes.
    m, near = _round_tq(w * rns.hat_inv % rns.col, rns, t)
    poly = m % t
    if near.any():
        exact = _exact_columns(w, near, rns.primes)
        poly[near] = [(2 * t * x + rns.q) // (2 * rns.q) % t for x in exact]
    return HePlaintext(poly, t)


def noise_budget(sk: SecretKey, ct: HeCiphertext) -> int:
    """Exact remaining budget in bits: floor(log2(q / (2 t |noise|))), q the
    product of the ciphertext's primes and the noise taken against
    Delta = floor(q/t)."""
    w = _exact_columns(_dot_secret(ct, sk), np.ones(ct.params.n, bool), ct.primes)
    q, t = math.prod(ct.primes), ct.t
    v = w - (2 * t * w + q) // (2 * q) * (q // t)
    vmax = int(np.abs(v).max()) or 1
    return math.floor(math.log2(q) - math.log2(2 * t) - math.log2(vmax))


# -- homomorphic operations -----------------------------------------------------


def _within_budget(
    params: HeParams, t: int, est: float, what: str, k: int | None = None
) -> None:
    """Raise unless noise ``est`` leaves some budget under ``t`` and the
    first ``k`` primes (default all)."""
    capacity = params.budget_capacity(t, k)
    if capacity - est <= 0:
        raise NoiseBudgetExhausted(
            f"{what} would exhaust the noise budget (estimate {est:.1f} bits of {capacity:.1f})"
        )


def _align(*cts: HeCiphertext) -> list[HeCiphertext]:
    """The operands, which share parameters and plaintext modulus, under
    their fewest primes: each one holding more is switched down (once,
    however often it appears)."""
    a = cts[0]
    for b in cts:
        if b.params != a.params or b.t != a.t:
            raise HeParamsError("ciphertext parameter/modulus mismatch")
    k = min(len(c.primes) for c in cts)
    at_k = {id(c): mod_switch(c, k) for c in cts}
    return [at_k[id(c)] for c in cts]


def _add_or_sub(a: HeCiphertext, b: HeCiphertext, op) -> HeCiphertext:
    """Component-wise ``op``; noise grows by at most one bit."""
    a, b = _align(a, b)
    q = a.plan.mod
    return HeCiphertext(
        params=a.params,
        t=a.t,
        polys=tuple(op(x, y) % q for x, y in zip(a.polys, b.polys)),
        noise_log2=add_noise_log2(a.noise_log2, b.noise_log2),
    )


def he_add(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    """Slot/coefficient-wise sum."""
    return _add_or_sub(a, b, np.add)


def he_sub(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    return _add_or_sub(a, b, np.subtract)


def he_add_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    """Add Delta m, Delta = floor(q/t) for the q of the ciphertext's primes."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    q = ct.plan.mod
    delta = math.prod(ct.primes) // ct.t
    delta_q = np.array([delta % p for p in ct.primes], dtype=np.int64)[:, None]
    c0 = (ct.polys[0] + delta_q * (pt.poly % q)) % q
    return HeCiphertext(
        params=ct.params,
        t=ct.t,
        polys=(c0, ct.polys[1]),
        noise_log2=plain_add_noise_log2(ct.noise_log2, ct.t),
    )


def he_mul_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    """Multiply by a plaintext polynomial, taken as its centered
    representative (no relinearization needed). A constant polynomial
    multiplies each residue row by its residue and takes no transform."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    params, k = ct.params, len(ct.primes)
    est = plain_mul_noise_log2(ct.noise_log2, int(np.abs(pt.centered()).sum()), pt.t)
    _within_budget(params, ct.t, est, "plaintext multiply", k)
    plan = ct.plan
    q = plan.mod
    # The centered plaintext exceeds 2^30 for t > 2^31; reduce it once.
    m = pt.centered()
    if not m[1:].any():
        polys = tuple(c * (m[:1] % q) % q for c in ct.polys)
    else:
        m_ntt = plan.forward(m % q)
        polys = tuple(plan.inverse(dot_mod((plan.forward(c),), (m_ntt,), q)) for c in ct.polys)
    return HeCiphertext(params=params, t=ct.t, polys=polys, noise_log2=est)


def _tensor_terms(f, g, square: bool) -> tuple[list, list, list]:
    """The (x, y) factor pairs of the three tensor components of the product
    of transformed ciphertexts f = (f0, f1) and g: (f0 g0, f0 g1 + f1 g0,
    f1 g1), with 2 g1 in place of the middle pair for a square."""
    (f0, f1), (g0, g1) = f, g
    if square:
        return [(f0, g0)], [(f0, 2 * g1)], [(f1, g1)]
    return [(f0, g0)], [(f0, g1), (f1, g0)], [(f1, g1)]


def he_mul(
    a: HeCiphertext,
    b: HeCiphertext,
    rk: RelinKey,
    minus: tuple[HeCiphertext, HeCiphertext] | None = None,
) -> HeCiphertext:
    """Relinearized homomorphic product a*b, or a*b - c*d for ``minus`` =
    (c, d): the exact integer tensor of every product accumulated in an
    extended prime basis, one scale-round by t/q and one key switch of the
    s^2 component. The operands first meet at their fewest primes, and the
    result settles to the count :func:`settle_primes` gives."""
    cts = _align(a, b, *(minus or ()))
    if rk.params != cts[0].params:
        raise HeParamsError("relinearization key parameter mismatch")
    params, t = cts[0].params, cts[0].t
    primes = cts[0].primes
    n, k = params.n, len(primes)
    products = list(zip(cts[::2], cts[1::2]))
    est = mul_noise_log2(params, t, k, [(x.noise_log2, y.noise_log2) for x, y in products])
    _within_budget(params, t, est, "multiplication", k)

    # Extend each distinct operand exactly from q to the whole basis and
    # transform it once, accumulate the tensor components of every product
    # there (the subtracted one negated), and scale-round them back to q.
    # The RNS steps take one polynomial at a time: on a stack of several,
    # their temporaries grow to several MB, which glibc's allocator returns
    # to the system after each call and faults in again on the next; that
    # made them about 3x slower.
    basis = _mul_basis(n, primes)
    ext = get_plan(n, basis)
    P = ext.mod
    to_p = _conversion(primes, basis[k:])
    distinct = list({id(c): c for c in cts}.values())
    f = ext.forward(
        np.stack([np.concatenate((x, _extend(x, to_p))) for c in distinct for x in c.polys])
    )
    transformed = {id(c): (f[2 * i], f[2 * i + 1]) for i, c in enumerate(distinct)}
    terms: tuple[list, list, list] = ([], [], [])
    for j, (x, y) in enumerate(products):
        g = transformed[id(y)]
        if j:
            g = tuple(-gi for gi in g)
        for acc, more in zip(terms, _tensor_terms(transformed[id(x)], g, x is y)):
            acc += more
    tensor = np.stack([dot_mod(*zip(*pairs), P) for pairs in terms])
    e0, e1, e2 = (_scale_round(w, basis, k, t) for w in ext.inverse(tensor))

    # Relinearize e2 with the first k RNS digits and key rows: digit i is
    # row i of e2 * q_hat_i^-1 (the full q's constant), spread onto every
    # prime by the transform.
    plan = cts[0].plan
    Q = plan.mod
    digits_ntt = plan.forward((e2 * _rns(params.q_primes).hat_inv[:k] % Q)[:, None, :])
    keys = [(kb[:k], ka[:k]) for kb, ka in rk.pairs[:k]]
    acc0, acc1 = (dot_mod(digits_ntt, rows, Q) for rows in zip(*keys))
    product = HeCiphertext(
        params=params,
        t=t,
        polys=((e0 + plan.inverse(acc0)) % Q, (e1 + plan.inverse(acc1)) % Q),
        noise_log2=est,
    )
    return mod_switch(product, settle_primes(params, t, est, k))


def mod_switch(ct: HeCiphertext, k: int) -> HeCiphertext:
    """The ciphertext under the first ``k`` of its primes: c' = (c - [c]_D)
    / D for the product D of the dropped primes, [c]_D the centered lift of
    the dropped residues, which rounds c q'/q to the nearest integer.
    Noise follows :func:`switch_noise_log2`; keeping every prime returns
    ``ct`` itself."""
    held = len(ct.primes)
    if not 1 <= k <= held:
        raise HeParamsError(f"cannot switch to {k} of {held} primes")
    if k == held:
        return ct
    est = switch_noise_log2(ct.params, ct.t, ct.noise_log2, k, held)
    _within_budget(ct.params, ct.t, est, "modulus switch", k)
    conv = _conversion(ct.primes[k:], ct.primes[:k])
    q = conv.dst.col
    if held - k == 1:
        # One dropped prime p: [c]_p is its residue, centered. Each
        # difference lies within p/2 of [0, q_i), below 2^30 + 2^29, so
        # dot_mod's int64 product and its quotient estimate stay exact.
        p = ct.primes[k]
        lifted = (c[:k] - np.where(c[k] > p // 2, c[k] - p, c[k]) for c in ct.polys)
        polys = tuple(canonical(dot_mod((x,), (conv.q_inv_dst,), q), q) for x in lifted)
    else:
        polys = tuple((c[:k] - _extend(c[k:], conv)) * conv.q_inv_dst % q for c in ct.polys)
    return HeCiphertext(ct.params, ct.t, polys, est)


# -- serialization ---------------------------------------------------------------


_CT_MAGIC = b"HECT"
_PK_MAGIC = b"HEPK"
_RK_MAGIC = b"HERK"
_CT_VERSION = 4
_KEY_VERSION = 3  # public and relinearization keys
_CT_HEAD = struct.Struct(">B8sQIBd")
_KEY_HEAD = struct.Struct(">B8sIB32s")


def _pack_rows(polys) -> bytes:
    return np.ascontiguousarray(np.stack(polys), dtype="<u4").tobytes()


def _read(
    data: bytes, magic: bytes, head: struct.Struct, params: HeParams, what: str, version: int
):
    """Check a blob's magic, version and parameter hash; return the other
    header fields and the body."""
    if len(data) < 4 + head.size or data[:4] != magic:
        raise HeParamsError(f"bad {what} header")
    ver, ph, *fields = head.unpack_from(data, 4)
    if ver != version:
        raise HeParamsError(f"unsupported {what} version {ver}")
    if ph != params.param_hash:
        raise HeParamsError(f"{what} was produced under different parameters")
    return fields, data[4 + head.size :]


def _read_rows(
    body: bytes, count: int, n: int, k: int, params: HeParams, what: str, prefix: bool = False
) -> np.ndarray:
    """Exactly ``count`` (k, n) polynomials of residues, each below its
    prime: under all K primes, or with ``prefix`` under the first 1 <= k <= K."""
    big_k = len(params.q_primes)
    if n != params.n or not (1 <= k <= big_k if prefix else k == big_k):
        raise HeParamsError(f"{what} has n={n}, k={k}; params have n={params.n}, k={big_k}")
    size = 4 * count * k * n
    if len(body) != size:
        raise HeParamsError(f"{what} body is {len(body)} bytes, expected {size}")
    rows = np.frombuffer(body, dtype="<u4").astype(np.int64).reshape(count, k, n)
    if not (rows < params.ntt.mod[:k]).all():
        raise HeParamsError(f"{what} residue out of range")
    return rows


def ciphertext_to_bytes(ct: HeCiphertext) -> bytes:
    params = ct.params
    head = _CT_MAGIC + _CT_HEAD.pack(
        _CT_VERSION, params.param_hash, ct.t, params.n, len(ct.primes), ct.noise_log2
    )
    return head + _pack_rows(ct.polys)


def ciphertext_from_bytes(data: bytes, params: HeParams) -> HeCiphertext:
    """A ciphertext under the first k of the session's primes, k from its header."""
    (t, n, k, noise), body = _read(data, _CT_MAGIC, _CT_HEAD, params, "ciphertext", _CT_VERSION)
    c0, c1 = _read_rows(body, 2, n, k, params, "ciphertext", prefix=True)
    if not 2 <= t < math.prod(params.q_primes[:k]):
        raise HeParamsError(f"malformed ciphertext header: t={t}")
    if not math.isfinite(noise):
        raise HeParamsError(f"malformed ciphertext header: noise estimate {noise}")
    return HeCiphertext(params, t, (c0, c1), noise)


def _key_to_bytes(magic: bytes, params: HeParams, seed: bytes, b_ntt: np.ndarray) -> bytes:
    """A public or relinearization key: its header with the seed of its a
    halves, then its NTT-form b rows in coefficient form."""
    head = magic + _KEY_HEAD.pack(
        _KEY_VERSION, params.param_hash, params.n, len(params.q_primes), seed
    )
    return head + _pack_rows(params.ntt.inverse(b_ntt))


def _key_from_bytes(data: bytes, magic: bytes, params: HeParams, what: str, count: int):
    """The seed and the ``count`` b rows, in the transform domain, of a key."""
    (n, k, seed), body = _read(data, magic, _KEY_HEAD, params, what, _KEY_VERSION)
    return seed, params.ntt.forward(_read_rows(body, count, n, k, params, what))


def public_key_to_bytes(pk: PublicKey) -> bytes:
    return _key_to_bytes(_PK_MAGIC, pk.params, pk.seed, pk.pk0_ntt[None])


def public_key_from_bytes(data: bytes, params: HeParams) -> PublicKey:
    seed, (b,) = _key_from_bytes(data, _PK_MAGIC, params, "public key", 1)
    return PublicKey(params, seed, b, _expand_uniform(seed, 0, params.n, params.q_primes))


def relin_key_to_bytes(rk: RelinKey) -> bytes:
    return _key_to_bytes(_RK_MAGIC, rk.params, rk.seed, np.stack([b for b, _ in rk.pairs]))


def relin_key_from_bytes(data: bytes, params: HeParams) -> RelinKey:
    n, primes = params.n, params.q_primes
    seed, bs = _key_from_bytes(data, _RK_MAGIC, params, "relin key", len(primes))
    return RelinKey(
        params, seed, tuple((b, _expand_uniform(seed, i, n, primes)) for i, b in enumerate(bs))
    )
