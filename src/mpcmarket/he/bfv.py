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
slot order.

Multiplication takes a signed sum of products, a*b or a*b - c*d. It
extends the operands' centered lifts from q to an extended prime basis by
exact RNS base conversion, accumulates the tensor of every product there
(a square transforms its operand once), then scale-rounds by t/q in RNS
and relinearizes with a hybrid key-switching key (below) once for the
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
the operand with more primes down to the other's count.

Relinearization is hybrid key switching over q P (Gentry, Halevi and
Smart, CRYPTO 2012; Kim, Polyakov and Zucca, ASIACRYPT 2021), P the
special prime (:attr:`HeParams.special_prime`). q's primes form digits of
two, Q_j = p_2j p_2j+1 (the last holds one prime when K is odd), and key
pair j encrypts P (q/Q_j) s^2 under q's primes and P. A product under the
first k primes takes the digits cut to those k: digit j is
[x (q/Q_j)^-1]_Qj for its s^2 component x, with the full q's constants
also where the cut leaves one prime of a pair. Each digit is extended
exactly onto the other primes and P and multiplied into its key rows;
the sum is divided by P and rounded (the one-prime drop that
:func:`mod_switch` takes too), which leaves x s^2 plus noise near
n max Q_j / P.

A ciphertext whose reader needs coefficient 0 alone takes the
constant-term form (:func:`keep_constant`): c0 keeps only its constant
coefficient and c1 stays whole, since (c1 s)_0 = c1_0 s_0 - sum_{j>=1}
c1_j s_{n-j} needs every coefficient of c1 but no other of c0. It
decrypts with no transform. It takes the operations that act coefficient
by coefficient: a sum or difference (a whole operand is cut to the form
first), a plaintext add (at coefficient 0), a multiply by a constant and
a modulus switch; no ciphertext multiply and no multiply by any other
plaintext. A plaintext multiply returns the form directly with
``constant_term=True``: coefficient 0 of c0 p is one dot product per
prime with the negacyclic reversal of p, as (c1 s)_0 is
(:func:`_constant_coefficient`), so c0's other coefficients are never
computed, and c1 p takes one forward and one inverse transform against
the plaintext's kept transform (:meth:`HePlaintext.transformed`).

Keys and ciphertexts serialize as their (k, n) arrays, prime-major, each
residue in w bits, w the bit length of the largest prime the blob's rows
hold (30 at n=8192, 27 below, for the default primes): residue j of the
body sits at bits [w j, w j + w) of the body read as one little-endian
integer (:func:`_pack_rows`). A constant-term ciphertext packs c1's rows,
then c0's k residues and zero residues up to a whole group of 8.
Ciphertexts travel in coefficient form and keys in the transform domain,
in its natural order, so no party transforms a key to send or receive
it. The decoders take exactly one such buffer, check n and k against the
parameters (a ciphertext may hold the first k of the K primes), every
residue against its prime and every pad residue against 0, and raise
:class:`HeParamsError` on anything else. A public or
relinearization key sends only its b rows and a 32-byte seed: its uniform
a halves are public, so every party expands them from the seed
(:func:`_expand_uniform`), as SEAL's seeded serialization does. A
relinearization key's rows include P's, so its residues are checked
against P there.

Noise is tracked two ways: a conservative running estimate carried on every
ciphertext (used to flag budget exhaustion eagerly, the scheme's bottom
element), and an exact secret-key measurement via :func:`noise_budget`.
One :class:`NoiseRules` decides every value's estimate, level and form,
and both the operations and the computation planner run it: the budget
check after every operation (and before decryption), the level and form
at which operands meet, the bounds of a switch, and five formulas (Fan
and Vercauteren, 2012; v and t as log2 values, a (+) b = log2(2^a +
2^b)):

- a sum or difference adds the noises;
- a relinearized sum of products follows :func:`mul_noise_log2`, then
  switches to the prime count :func:`settle_primes` gives;
- a multiply by a plaintext p (its centered representative) gives
  |p|_1 * (v + t), the t term covering the r_t(q) wrap; the planner takes
  |p|_1 from the constant or weights (:func:`centered_l1`), not from p;
- adding a plaintext gives v (+) t, since Delta m differs from m q / t by
  less than t;
- a switch from q to q' gives (v - log2(q/q')) (+) t (+) log2((1 + n)/2):
  the scaled noise, the wrap of Delta' against q'/t, and the rounding
  error r0 + r1 s with |r_i| <= 1/2 and s ternary.

Both the estimate and :func:`noise_budget` measure against Delta =
floor(q/t), so they count the wrap r_t(q) m / t (below t) as noise. Where
q/t is small the exact budget can therefore read below 0 while decryption
is still exact.

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

from .ntt import _LIMB, NttPlan, _join, canonical, dot_mod, get_plan, is_prime, split_limbs

VALID_DEGREES = (1024, 2048, 4096, 8192)

# q-prime bit layout per degree, loosely following the usual 128-bit-security
# modulus budgets (109 bits at n=4096, 218 at n=8192). A relinearization key
# lives under q P, one special prime more (HeParams.special_prime): 210 of
# the 218 bits at n=8192. At n <= 4096 such a key exceeds the budget by
# that prime (135 bits against 109 at n=4096); no plan of the shipped
# computations relinearizes there: the planner rejects LD below n=8192, and
# LR multiplies no ciphertexts.
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
    """Ring degree, RNS coefficient modulus, plaintext modulus; noise width
    NOISE_SIGMA. A relinearization key adds :attr:`special_prime` to q's
    primes: q P has 210 bits for ``default(8192)``, inside the 218 of the
    128-bit budget; at n <= 4096 it exceeds the budget by that one prime,
    and no shipped plan relinearizes there (``_DEFAULT_Q_BITS``)."""

    n: int
    q_primes: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        # Any sequence of primes is kept as a tuple, so the params hash.
        object.__setattr__(self, "q_primes", tuple(self.q_primes))
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

    @property
    def special_prime(self) -> int:
        """P of key switching: the largest prime of q's widest bit width with
        P = 1 (mod 2n) that is not in q."""
        return _special_prime(self.n, self.q_primes)

    def residues(self, x: int) -> np.ndarray:
        """The (k, 1) column of x mod each coefficient prime."""
        return np.array([x % p for p in self.q_primes], dtype=np.int64)[:, None]

    def fresh_noise_log2(self, t: int) -> float:
        """Noise estimate (log2) of a fresh encryption under plaintext
        modulus ``t``: e u + e1 + e2 s, each error below 6 sigma, plus t,
        the plaintext-add rule's bound on Delta m against m q / t, which a
        plaintext whose centered representative is negative reaches."""
        bound = 6 * NOISE_SIGMA
        return plain_add_noise_log2(math.log2(2 * self.n * bound + bound), t)

    def budget_capacity(self, t: int | None = None, k: int | None = None) -> float:
        """log2(q / 2t): the noise (log2) at which decryption under t
        (default ``self.t``) and the first k primes (default all) fails."""
        log2_q = sum(math.log2(p) for p in self.q_primes[:k])
        return log2_q - math.log2(2 * (self.t if t is None else t))

    def fresh_budget(self) -> float:
        return self.budget_capacity() - self.fresh_noise_log2(self.t)

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


@lru_cache(maxsize=32)
def _special_prime(n: int, q_primes: tuple[int, ...]) -> int:
    """See :attr:`HeParams.special_prime`. At n=8192 it is the first
    extension prime of :func:`_mul_basis`, so it shares that prime's NTT
    tables."""
    bits = max(p.bit_length() for p in q_primes)
    return find_ntt_primes(bits, n, 1, exclude=q_primes)[0]


def _digits(primes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The key-switching digits of ``primes``: leading pairs, the last one
    cut to one prime when their count is odd. The digits of a prefix of q
    are q's own digits cut to it."""
    return [primes[i : i + 2] for i in range(0, len(primes), 2)]


@lru_cache(maxsize=32)
def _digit_inv(q_primes: tuple[int, ...]) -> np.ndarray:
    """The (K, 1) column of (q/Q_j)^-1 mod p_i, Q_j the digit of q that holds
    p_i."""
    q = math.prod(q_primes)
    inv = [pow(q // math.prod(d) % p, -1, p) for d in _digits(q_primes) for p in d]
    return np.array(inv, dtype=np.int64)[:, None]


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
    """Hybrid key-switching key for s^2 -> s: one (b, a) pair per digit of
    q (ceil(K/2) pairs of two primes), each of (K + 1, n) arrays in the
    transform domain under q's primes and then the special prime P. Pair
    j's b encrypts P (q/Q_j) s^2, and its a is half j of ``seed``."""

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
    _transforms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def centered(self) -> np.ndarray:
        """The coefficients as representatives in (-t/2, t/2]."""
        return np.where(self.poly > self.t // 2, self.poly - self.t, self.poly)

    def transformed(self, primes: tuple[int, ...]) -> np.ndarray:
        """The centered representative in the transform domain of ``primes``,
        reduced below each prime first (it exceeds 2^30 for t > 2^31). It is
        computed once per tuple and kept, so a plaintext that multiplies
        many ciphertexts is transformed once."""
        out = self._transforms.get(primes)
        if out is None:
            plan = get_plan(len(self.poly), primes)
            out = self._transforms[primes] = plan.forward(self.centered() % plan.mod)
        return out


@dataclass
class HeCiphertext:
    """RNS ciphertext (c0, c1) of two (k, n) polys; relinearization keeps
    every product a pair (Fan and Vercauteren, 2012).

    ``noise_log2`` is the conservative running noise estimate used for eager
    budget checks. ``t`` travels with the ciphertext: one keypair serves any
    plaintext modulus over the same ring, which the CRT computation plans
    rely on. The polys hold one row per prime of ``primes``, a leading
    prefix of q's primes (all of them when fresh); in the constant-term
    form c0 is the (k, 1) column of its coefficient 0.
    """

    params: HeParams
    t: int
    polys: tuple[np.ndarray, np.ndarray]
    noise_log2: float

    @property
    def primes(self) -> tuple[int, ...]:
        return self.params.q_primes[: len(self.polys[0])]

    @property
    def constant_term(self) -> bool:
        """Whether this is the constant-term form (:func:`keep_constant`)."""
        return self.polys[0].shape[-1] == 1

    @property
    def plan(self) -> NttPlan:
        """The transform over ``primes``; ``plan.mod`` is their (k, 1) column."""
        return get_plan(self.params.n, self.primes)

    @property
    def budget_estimate(self) -> float:
        return self.params.budget_capacity(self.t, len(self.primes)) - self.noise_log2

    @property
    def estimate(self) -> Estimate:
        """What :class:`NoiseRules` reads of this ciphertext."""
        return Estimate(self.noise_log2, len(self.primes), self.constant_term)


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
    product adds its tensor noise, and the key switch adds its own once.
    That is d digits below max Q_j each, times key errors below 6 sigma,
    over n terms, divided by P; then the rounding of that division, r0 +
    r1 s with |r_i| <= 1/2, at most (1 + n)/2 for a ternary s."""
    base = reduce(add_noise_log2, (add_noise_log2(va, vb) for va, vb in products))
    mult = math.log2(t) + math.log2(params.n) + 2 + base
    digits = _digits(params.q_primes[:k])
    relin = (
        math.log2(len(digits))
        + math.log2(params.n)
        + max(sum(map(math.log2, d)) for d in digits)
        - math.log2(params.special_prime)
        + math.log2(6 * NOISE_SIGMA)
    )
    return add_noise_log2(mult, add_noise_log2(relin, math.log2((1 + params.n) / 2)))


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


class Estimate(NamedTuple):
    """What the noise rules know of a value: its noise estimate (log2), the
    number of leading primes of q it holds, and whether it is in the
    constant-term form (:func:`keep_constant`)."""

    log2: float
    primes: int
    constant: bool = False


class NoiseRules:
    """Every value's estimate, level and form under ``params`` and plaintext
    modulus ``t``, from its operands' :class:`Estimate` values. The bfv
    operations take each result's estimate and prime count from these
    rules, and the computation planner replays a circuit on them alone.
    Each rule raises :attr:`exhausted` where a value would leave no budget,
    and :attr:`invalid` for a switch out of range or a constant-term
    operand of an operation that takes whole ciphertexts."""

    exhausted: type[Exception] = NoiseBudgetExhausted
    invalid: type[Exception] = HeParamsError

    def __init__(self, params: HeParams, t: int) -> None:
        self.params, self.t = params, t

    def fit(self, v: float, k: int, constant: bool = False) -> Estimate:
        """The budget check: noise ``v`` under the first ``k`` primes."""
        capacity = self.params.budget_capacity(self.t, k)
        if capacity - v <= 0:
            raise self.exhausted(
                f"~{v:.1f} noise bits exhaust the {capacity:.1f} that t={self.t} leaves "
                f"under {k} primes at n={self.params.n}"
            )
        return Estimate(v, k, constant)

    def align(self, *xs: Estimate, whole: bool = False) -> list[Estimate]:
        """The operands as they meet: under their fewest primes, and all in
        the constant-term form if one is. With ``whole``, for a ciphertext
        or polynomial multiply, a constant-term operand is rejected."""
        constant = any(x.constant for x in xs)
        if constant and whole:
            raise self.invalid(
                "a constant-term value, as a dot product leaves it, takes no ciphertext "
                "or polynomial multiply, so no second dot product"
            )
        k = min(x.primes for x in xs)
        return [self.switch(x._replace(constant=constant), k) for x in xs]

    def switch(self, x: Estimate, k: int) -> Estimate:
        """:func:`mod_switch` to the first ``k`` of the primes ``x`` holds."""
        if not 1 <= k <= x.primes:
            raise self.invalid(f"cannot switch to {k} of {x.primes} primes")
        if k == x.primes:
            return x
        v = switch_noise_log2(self.params, self.t, x.log2, k, x.primes)
        return self.fit(v, k, x.constant)

    def add(self, a: Estimate, b: Estimate) -> Estimate:
        """A sum or difference."""
        a, b = self.align(a, b)
        return self.fit(add_noise_log2(a.log2, b.log2), a.primes, a.constant)

    def add_plain(self, a: Estimate) -> Estimate:
        return self.fit(plain_add_noise_log2(a.log2, self.t), a.primes, a.constant)

    def mul_plain(self, a: Estimate, l1: int, whole=False, constant=False) -> Estimate:
        """A multiply by a plaintext whose centered l1 norm is ``l1``: with
        ``whole`` one that is not a constant, and with ``constant`` into the
        constant-term form."""
        (a,) = self.align(a, whole=whole)
        return self.fit(plain_mul_noise_log2(a.log2, l1, self.t), a.primes, a.constant or constant)

    def product(self, *xs: Estimate) -> tuple[Estimate, int]:
        """The relinearized product x0*x1, or x0*x1 - x2*x3, where its
        operands meet, and the prime count it settles to
        (:func:`settle_primes`)."""
        xs = self.align(*xs, whole=True)
        k = xs[0].primes
        pairs = [(x.log2, y.log2) for x, y in zip(xs[::2], xs[1::2])]
        v = self.fit(mul_noise_log2(self.params, self.t, k, pairs), k)
        return v, settle_primes(self.params, self.t, v.log2, k)


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

    s = _sample_ternary(rng, n)
    s_ntt = plan.forward(s)

    def rlwe(
        seed: bytes, half: int, body_ntt: np.ndarray, s_ntt: np.ndarray, primes: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(b, a) under ``primes`` in the transform domain with b = body - a s."""
        q = get_plan(n, primes).mod
        a_ntt = _expand_uniform(seed, half, n, primes)
        return (body_ntt - dot_mod((a_ntt,), (s_ntt,), q)) % q, a_ntt

    pk_seed = rng.bytes(32)
    pk_body = plan.forward(-_sample_gaussian(rng, n))
    pk = PublicKey(params, pk_seed, *rlwe(pk_seed, 0, pk_body, s_ntt, primes))
    sk = SecretKey(params, s, s_ntt)
    if not relin:
        return sk, pk, None

    # Pair j: b = P (q/Q_j) s^2 + e - a s under q's primes and P.
    rk_seed = rng.bytes(32)
    special = params.special_prime
    key_primes = primes + (special,)
    ext = get_plan(n, key_primes)
    s_ext = np.concatenate((s_ntt, get_plan(n, (special,)).forward(s)))
    s2_ext = dot_mod((s_ext,), (s_ext,), ext.mod)
    pairs = []
    for j, d in enumerate(_digits(primes)):
        factor = special * (params.q // math.prod(d))
        body = np.array([factor % p for p in key_primes])[:, None] * s2_ext
        body += ext.forward(_sample_gaussian(rng, n))
        pairs.append(rlwe(rk_seed, j, body, s_ext, key_primes))
    return sk, pk, RelinKey(params, rk_seed, tuple(pairs))


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
    return HeCiphertext(params, pt.t, (c0, c1), params.fresh_noise_log2(pt.t))


def keep_constant(ct: HeCiphertext) -> HeCiphertext:
    """The constant-term form of ``ct``: c0's coefficient 0 and all of c1,
    which is all that decrypting coefficient 0 reads. A ciphertext already
    in the form is returned as it is."""
    if ct.constant_term:
        return ct
    c0, c1 = ct.polys
    return HeCiphertext(ct.params, ct.t, (c0[:, :1].copy(), c1), ct.noise_log2)


def _constant_coefficient(c: np.ndarray, p: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The (k, 1) column of coefficient 0 of c p mod each prime of the
    (k, 1) ``col``, for c (k, n) residues below 2^30 in magnitude and p
    (n,) any int64 polynomial, with no transform: (c p)_0 = c_0 p_0 -
    sum_{j>=1} c_j p_{n-j}, one dot product per prime of c's row with the
    negacyclic reversal (p_0, -p_{n-1}, ..., -p_1) of p. c enters as its
    15-bit limbs, so each limb's sum stays below 2^15 2^34 n <= 2^62, exact
    in int64, for a reversal below 2^34; a wider one is first reduced below
    each prime."""
    r = np.concatenate((p[:1], -p[:0:-1]))
    if np.abs(r).max() >> 34:
        r = r % col
    lo = ((c & ((1 << _LIMB) - 1)) * r).sum(axis=-1, keepdims=True) % col
    hi = ((c >> _LIMB) * r).sum(axis=-1, keepdims=True) % col
    return (lo + (hi << _LIMB)) % col


def _dot_secret(ct: HeCiphertext, sk: SecretKey) -> np.ndarray:
    """Residues of c0 + c1*s mod the ciphertext's primes, (k, n); for a
    constant-term ciphertext the (k, 1) column of coefficient 0, with no
    transform (:func:`_constant_coefficient`)."""
    c0, c1 = ct.polys
    if ct.constant_term:
        col = _rns(ct.primes).col
        return (c0 + _constant_coefficient(c1, sk.s_coeff, col)) % col
    plan = get_plan(ct.params.n, ct.primes)
    q = plan.mod
    s_ntt = sk.s_ntt[: len(ct.primes)]  # each row transforms under its own prime
    return (c0 + plan.inverse(dot_mod((plan.forward(c1),), (s_ntt,), q))) % q


def decrypt(sk: SecretKey, ct: HeCiphertext) -> HePlaintext:
    """Decrypt; raises :class:`NoiseBudgetExhausted`, a
    :class:`DecryptionFailure`, when the tracked noise estimate says the
    result would be garbage (the scheme's bottom element). A constant-term
    ciphertext gives the one-coefficient plaintext of its coefficient 0."""
    if sk.params != ct.params:
        raise HeParamsError("secret key / ciphertext parameter mismatch")
    NoiseRules(ct.params, ct.t).fit(ct.noise_log2, len(ct.primes))
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
    Delta = floor(q/t), over every coefficient (coefficient 0 alone for a
    constant-term ciphertext)."""
    x = _dot_secret(ct, sk)
    w = _exact_columns(x, np.ones(x.shape[-1], bool), ct.primes)
    q, t = math.prod(ct.primes), ct.t
    v = w - (2 * t * w + q) // (2 * q) * (q // t)
    vmax = int(np.abs(v).max()) or 1
    return math.floor(math.log2(q) - math.log2(2 * t) - math.log2(vmax))


# -- homomorphic operations -----------------------------------------------------


def _align(*cts: HeCiphertext, whole: bool = False) -> tuple[NoiseRules, list[HeCiphertext]]:
    """The noise rules of the ciphertext operands of a homomorphic
    operation, every one of which passes through here: they share
    parameters and plaintext modulus. Then the operands in the form and
    under the primes that :meth:`NoiseRules.align` gives them, each one
    switched once, however often it appears."""
    if len({(c.params, c.t) for c in cts}) > 1:
        raise HeParamsError("ciphertext parameter/modulus mismatch")
    rules = NoiseRules(cts[0].params, cts[0].t)
    met = {}
    for c, x in zip(cts, rules.align(*(c.estimate for c in cts), whole=whole)):
        if id(c) not in met:
            met[id(c)] = mod_switch(keep_constant(c) if x.constant else c, x.primes)
    return rules, [met[id(c)] for c in cts]


def _add_or_sub(a: HeCiphertext, b: HeCiphertext, op) -> HeCiphertext:
    """Component-wise ``op``; noise grows by at most one bit."""
    rules, (a, b) = _align(a, b)
    est = rules.add(a.estimate, b.estimate)
    q = a.plan.mod
    polys = tuple(op(x, y) % q for x, y in zip(a.polys, b.polys))
    return HeCiphertext(a.params, a.t, polys, est.log2)


def he_add(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    """Slot/coefficient-wise sum."""
    return _add_or_sub(a, b, np.add)


def he_sub(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    return _add_or_sub(a, b, np.subtract)


def he_add_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    """Add Delta m, Delta = floor(q/t) for the q of the ciphertext's primes;
    to a constant-term ciphertext, at coefficient 0 alone."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    est = NoiseRules(ct.params, ct.t).add_plain(ct.estimate)
    q = ct.plan.mod
    delta = math.prod(ct.primes) // ct.t
    delta_q = np.array([delta % p for p in ct.primes], dtype=np.int64)[:, None]
    c0 = ct.polys[0]
    c0 = (c0 + delta_q * (pt.poly[: c0.shape[-1]] % q)) % q
    return HeCiphertext(params=ct.params, t=ct.t, polys=(c0, ct.polys[1]), noise_log2=est.log2)


def he_mul_plain(ct: HeCiphertext, pt: HePlaintext, constant_term: bool = False) -> HeCiphertext:
    """Multiply by a plaintext polynomial, taken as its centered
    representative (no relinearization needed). A constant polynomial
    multiplies each residue row by its residue, takes no transform and
    takes a constant-term ``ct`` too. Any other polynomial multiplies in
    the transform domain against its kept transform
    (:meth:`HePlaintext.transformed`). With ``constant_term`` the product
    comes in that form, as :func:`keep_constant` would leave it: c0's
    column is one dot product per prime (:func:`_constant_coefficient`),
    so only c1 takes a forward and an inverse transform."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    m = pt.centered()
    scalar = not m[1:].any()
    l1 = int(np.abs(m).sum())
    rules = NoiseRules(ct.params, ct.t)
    est = rules.mul_plain(ct.estimate, l1, whole=not scalar, constant=constant_term)
    plan = ct.plan
    q = plan.mod
    if scalar:
        # The centered plaintext exceeds 2^30 for t > 2^31; reduce it once.
        polys = tuple(c * (m[:1] % q) % q for c in ct.polys)
    else:
        m_ntt = pt.transformed(ct.primes)

        def times(c: np.ndarray) -> np.ndarray:
            return plan.inverse(dot_mod((plan.forward(c),), (m_ntt,), q))

        c0, c1 = ct.polys
        polys = (_constant_coefficient(c0, m, q) if constant_term else times(c0), times(c1))
    product = HeCiphertext(params=ct.params, t=ct.t, polys=polys, noise_log2=est.log2)
    return keep_constant(product) if constant_term else product


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
    rules, cts = _align(a, b, *(minus or ()), whole=True)
    if rk.params != cts[0].params:
        raise HeParamsError("relinearization key parameter mismatch")
    est, settled = rules.product(*(c.estimate for c in cts))
    params, t, primes = rules.params, rules.t, cts[0].primes
    n, k = params.n, est.primes
    products = list(zip(cts[::2], cts[1::2]))

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

    Q = cts[0].plan.mod
    s0, s1 = _key_switch(e2, rk, k)
    polys = ((e0 + s0) % Q, (e1 + s1) % Q)
    return mod_switch(HeCiphertext(params, t, polys, est.log2), settled)


def _key_switch(x: np.ndarray, rk: RelinKey, k: int) -> list[np.ndarray]:
    """The pair of (k, n) arrays, in coefficient form under the first ``k``
    primes, that decrypts to x s^2 plus the key switch's noise, for x
    (k, n): the digits of q cut to the first k primes, each
    [x (q/Q_j)^-1]_Qj with the full q's constants (the key encrypts
    P (q/Q_j) s^2 for the full q), extended exactly onto the other primes
    and P, multiplied into the key rows of those primes, and divided by P."""
    params = rk.params
    primes, big_k = params.q_primes[:k], len(params.q_primes)
    basis = primes + (params.special_prime,)
    plan = get_plan(params.n, basis)
    x = x * _digit_inv(params.q_primes)[:k] % plan.mod[:k]
    digits = []
    for lo in range(0, k, 2):
        d = x[lo : lo + 2]
        hi = lo + len(d)
        up = _extend(d, _conversion(primes[lo:hi], primes[:lo] + basis[hi:]))
        digits.append(np.concatenate((up[:lo], d, up[lo:])))
    rows = slice(None) if k == big_k else np.r_[:k, big_k]
    digits_ntt = plan.forward(np.stack(digits))
    keys = rk.pairs[: len(digits)]
    # One half at a time, as he_mul's RNS steps: a stacked pair's
    # temporaries made the drop of P about twice as slow.
    halves = (dot_mod(digits_ntt, [key[half][rows] for key in keys], plan.mod) for half in (0, 1))
    return [_drop_last(plan.inverse(acc), basis) for acc in halves]


def mod_switch(ct: HeCiphertext, k: int) -> HeCiphertext:
    """The ciphertext under the first ``k`` of its primes: c' = (c - [c]_D)
    / D for the product D of the dropped primes, [c]_D the centered lift of
    the dropped residues, which rounds c q'/q to the nearest integer.
    Noise follows :func:`switch_noise_log2`; keeping every prime returns
    ``ct`` itself. Row by row, so a constant-term ``ct`` switches too."""
    est = NoiseRules(ct.params, ct.t).switch(ct.estimate, k)
    held = len(ct.primes)
    if k == held:
        return ct
    if held - k == 1:
        polys = tuple(_drop_last(c, ct.primes) for c in ct.polys)
    else:
        conv = _conversion(ct.primes[k:], ct.primes[:k])
        q = conv.dst.col
        polys = tuple((c[:k] - _extend(c[k:], conv)) * conv.q_inv_dst % q for c in ct.polys)
    return HeCiphertext(ct.params, ct.t, polys, est.log2)


def _drop_last(c: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """round(c / p) under the other primes for c (..., k + 1, n) under
    ``primes``, p the last: (c - [c]_p) p^-1 with [c]_p the residue mod p,
    centered. Each difference lies within p/2 of [0, q_i), below
    2^30 + 2^29, so dot_mod's int64 product and its quotient estimate stay
    exact."""
    p = primes[-1]
    conv = _conversion((p,), primes[:-1])
    q = conv.dst.col
    top = c[..., -1:, :]
    lifted = c[..., :-1, :] - np.where(top > p // 2, top - p, top)
    return canonical(dot_mod((lifted,), (conv.q_inv_dst,), q), q)


# -- serialization ---------------------------------------------------------------


# (magic, version) of a ciphertext blob, by whether it is constant-term.
_CT_FORMATS = {False: (b"HECT", 5), True: (b"HECX", 1)}
# (magic, version) of a public and of a relinearization key blob.
_PK_FORMAT = (b"HEPK", 4)
_RK_FORMAT = (b"HERK", 5)
_CT_HEAD = struct.Struct(">B8sQIBd")
_KEY_HEAD = struct.Struct(">B8sIB32s")


def _windows(w: int) -> list[tuple[int, int]]:
    """For residue i of a group of 8 in w bytes: the byte at which a
    uint64 that holds it starts, and the residue's bit within that uint64.
    The last windows end at the group's end, so none reaches past it."""
    starts = [min(w * i // 8, w - 8) for i in range(8)]
    return [(at, w * i - 8 * at) for i, at in enumerate(starts)]


def _words(buf: np.ndarray, at: int, w: int, groups: int) -> np.ndarray:
    """The little-endian uint64 at byte ``at`` of each w-byte group of buf."""
    return np.ndarray((groups,), "<u8", buf, at, (w,))


def _pack_rows(head: bytes, polys, primes: Sequence[int]) -> bytes:
    """``head``, then the (k, n) polynomials ``polys``, residues below
    ``primes``, in w bits a residue, w the bit length of the largest prime.
    Every n is a multiple of 8, so the residues form groups of 8 in w
    bytes, and each residue, shifted to its bit, fits one uint64 of its
    group."""
    w = max(p.bit_length() for p in primes)
    r = np.ascontiguousarray(np.stack(polys), dtype=np.int64).reshape(-1, 8).view(np.uint64)
    out = np.zeros(len(head) + len(r) * w, np.uint8)
    out[: len(head)] = np.frombuffer(head, np.uint8)
    for i, (at, shift) in enumerate(_windows(w)):
        v = _words(out, len(head) + at, w, len(r))
        v |= r[:, i] << np.uint64(shift)
    return out.tobytes()


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
    body: bytes,
    count: int,
    n: int,
    k: int,
    params: HeParams,
    what: str,
    prefix: bool = False,
    column: bool = False,
    special: bool = False,
):
    """Exactly ``count`` polynomials of residues packed by
    :func:`_pack_rows`, each below its prime: (k, n) under all K primes,
    or with ``prefix`` under the first 1 <= k <= K, or with ``special``
    (K + 1, n) under all K primes and then the special prime. With
    ``column`` the body ends in a (k, 1) column of residues and zero
    residues up to a whole group of 8, and the column comes first in what
    is returned."""
    big_k = len(params.q_primes)
    if n != params.n or not (1 <= k <= big_k if prefix else k == big_k):
        raise HeParamsError(f"{what} has n={n}, k={k}; params have n={params.n}, k={big_k}")
    primes = params.q_primes[:k] + ((params.special_prime,) if special else ())
    w = max(p.bit_length() for p in primes)
    rows_k = len(primes)
    size = count * rows_k * n
    groups = (size + (k + -k % 8 if column else 0)) // 8
    if len(body) != groups * w:
        raise HeParamsError(f"{what} body is {len(body)} bytes, expected {groups * w}")
    buf = np.frombuffer(body, np.uint8)
    flat = np.empty((groups, 8), np.int64)
    u = flat.view(np.uint64)
    for i, (at, shift) in enumerate(_windows(w)):
        np.right_shift(_words(buf, at, w, groups), np.uint64(shift), out=u[:, i])
    u &= np.uint64((1 << w) - 1)
    flat = flat.reshape(-1)
    q = np.array(primes, dtype=np.int64)[:, None]
    rows, col = flat[:size].reshape(count, rows_k, n), flat[size : size + k, None]
    if flat[size + k :].any():
        raise HeParamsError(f"{what} pad residue is not zero")
    if not (rows < q).all() or (column and not (col < q).all()):
        raise HeParamsError(f"{what} residue out of range")
    return (col, *rows) if column else rows


def ciphertext_to_bytes(ct: HeCiphertext) -> bytes:
    params, k = ct.params, len(ct.primes)
    magic, version = _CT_FORMATS[ct.constant_term]
    head = magic + _CT_HEAD.pack(version, params.param_hash, ct.t, params.n, k, ct.noise_log2)
    if not ct.constant_term:
        return _pack_rows(head, ct.polys, ct.primes)
    c0, c1 = ct.polys
    body = np.concatenate((c1.reshape(-1), c0[:, 0], np.zeros(-k % 8, np.int64)))
    return _pack_rows(head, [body], ct.primes)


def ciphertext_from_bytes(data: bytes, params: HeParams) -> HeCiphertext:
    """A ciphertext under the first k of the session's primes, k from its
    header: whole, or the constant-term form under its own magic."""
    constant = data[:4] == _CT_FORMATS[True][0]
    magic, version = _CT_FORMATS[constant]
    (t, n, k, noise), body = _read(data, magic, _CT_HEAD, params, "ciphertext", version)
    c0, c1 = _read_rows(
        body, 2 - constant, n, k, params, "ciphertext", prefix=True, column=constant
    )
    if not 2 <= t < math.prod(params.q_primes[:k]):
        raise HeParamsError(f"malformed ciphertext header: t={t}")
    if not math.isfinite(noise):
        raise HeParamsError(f"malformed ciphertext header: noise estimate {noise}")
    return HeCiphertext(params, t, (c0, c1), noise)


def _key_to_bytes(fmt: tuple[bytes, int], params: HeParams, seed: bytes, b_ntt: Sequence) -> bytes:
    """A public or relinearization key: its header with n, K and the seed of
    its a halves, then its b rows as they are, in the transform domain, in
    the bit length of q's widest prime, which the special prime shares."""
    magic, version = fmt
    head = magic + _KEY_HEAD.pack(version, params.param_hash, params.n, len(params.q_primes), seed)
    return _pack_rows(head, b_ntt, params.q_primes)


def _key_from_bytes(
    data: bytes,
    fmt: tuple[bytes, int],
    params: HeParams,
    what: str,
    count: int,
    special: bool = False,
):
    """The seed and the ``count`` b rows, in the transform domain, of a key;
    with ``special`` each holds a last row under the special prime."""
    (n, k, seed), body = _read(data, fmt[0], _KEY_HEAD, params, what, fmt[1])
    return seed, _read_rows(body, count, n, k, params, what, special=special)


def public_key_to_bytes(pk: PublicKey) -> bytes:
    return _key_to_bytes(_PK_FORMAT, pk.params, pk.seed, [pk.pk0_ntt])


def public_key_from_bytes(data: bytes, params: HeParams) -> PublicKey:
    seed, (b,) = _key_from_bytes(data, _PK_FORMAT, params, "public key", 1)
    return PublicKey(params, seed, b, _expand_uniform(seed, 0, params.n, params.q_primes))


def relin_key_to_bytes(rk: RelinKey) -> bytes:
    return _key_to_bytes(_RK_FORMAT, rk.params, rk.seed, [b for b, _ in rk.pairs])


def relin_key_from_bytes(data: bytes, params: HeParams) -> RelinKey:
    n, primes = params.n, params.q_primes + (params.special_prime,)
    count = len(_digits(params.q_primes))
    seed, bs = _key_from_bytes(data, _RK_FORMAT, params, "relin key", count, special=True)
    return RelinKey(
        params, seed, tuple((b, _expand_uniform(seed, j, n, primes)) for j, b in enumerate(bs))
    )
