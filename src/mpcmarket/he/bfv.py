"""Textbook BFV: keygen, encrypt/decrypt, add, multiply-with-relinearization,
scalar and batched encodings, and noise-budget tracking.

Representation: every polynomial is one (k, n) int64 array in RNS form,
one residue row per coefficient-modulus prime, and every operation is one
broadcast against the (k, 1) column of primes (``HeParams.ntt.mod``); one
NTT call transforms all k rows. The coefficient modulus q is a product of
30-bit NTT-friendly primes (kept word-sized so numpy int64 products never
overflow). Multiplication lifts operands to exact centered integers, runs
the tensor product in an extended prime basis, scale-rounds by t/q, and
relinearizes with an RNS-decomposed key-switching key.

Keys and ciphertexts serialize as their (k, n) arrays in coefficient form,
prime-major, little-endian int64; the decoders take exactly one such
buffer, check n and k against the parameters and every residue against its
prime, and raise :class:`HeParamsError` on anything else.

Noise is tracked two ways: a conservative running estimate carried on every
ciphertext (used to flag budget exhaustion eagerly, the scheme's bottom
element), and an exact secret-key measurement via :func:`noise_budget`.
The estimate follows three rules, which the operations and the computation
planner share: a sum or difference adds the noises; a relinearized product
follows :func:`mul_noise_log2`; a multiply by a plaintext p (its centered
representative) gives |p|_1 * (v + t), the t term covering the r_t(q) wrap.

Parameter sets here are desk-scale and not production-audited.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .ntt import NttPlan, find_ntt_primes, get_plan, is_prime

VALID_DEGREES = (1024, 2048, 4096, 8192)

# q-prime bit layout per degree, loosely following the usual 128-bit-security
# modulus budgets (109 bits at n=4096, ~180 of the 218 available at n=8192).
_DEFAULT_Q_BITS = {
    1024: (27, 27),
    2048: (27, 27),
    4096: (27, 27, 27, 27),
    8192: (30, 30, 30, 30, 30, 30),
}

SECURITY_NOTE = "desk-scale parameters, not production-audited"


class HeParamsError(ValueError):
    """Invalid or mismatched encryption parameters."""


class DecryptionFailure(RuntimeError):
    """The scheme's bottom element: noise exceeded the decryptable budget."""


class NoiseBudgetExhausted(DecryptionFailure):
    """Raised eagerly when an operation would push estimated budget to <= 0."""


def find_plain_primes(n: int, bits: int, count: int = 1) -> list[int]:
    """Batching-compatible plaintext moduli: primes = 1 (mod 2n)."""
    two_n = 2 * n
    found: list[int] = []
    p = ((1 << bits) - 1) // two_n * two_n + 1
    while p.bit_length() == bits and len(found) < count:
        if is_prime(p):
            found.append(p)
        p -= two_n
    if len(found) < count:
        raise HeParamsError(f"not enough {bits}-bit plaintext primes for n={n}")
    return found


@dataclass(frozen=True)
class HeParams:
    """Ring degree, RNS coefficient modulus, plaintext modulus, noise width."""

    n: int
    q_primes: tuple[int, ...]
    t: int
    noise_sigma: float = 3.2

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
                f"no fresh noise budget at n={self.n}, log2(q)={self.log2_q:.0f}, t={self.t}"
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

    @property
    def log2_q(self) -> float:
        return sum(math.log2(p) for p in self.q_primes)

    @property
    def supports_batching(self) -> bool:
        return is_prime(self.t) and (self.t - 1) % (2 * self.n) == 0

    def fresh_noise_log2(self) -> float:
        bound = 6 * self.noise_sigma
        return math.log2(2 * self.n * bound + bound)

    def budget_capacity(self, t: int | None = None) -> float:
        """log2(q / 2t): the noise (log2) at which decryption under t
        (default ``self.t``) fails."""
        return self.log2_q - math.log2(2 * (self.t if t is None else t))

    def fresh_budget(self) -> float:
        return self.budget_capacity() - self.fresh_noise_log2()

    def canonical_repr(self) -> str:
        qs = ",".join(str(p) for p in self.q_primes)
        return f"bfv:n={self.n}:q={qs}:t={self.t}:sigma={self.noise_sigma}"

    @property
    def param_hash(self) -> bytes:
        return hashlib.sha256(self.canonical_repr().encode()).digest()[:8]

    @classmethod
    def default(cls, n: int, t_bits: int = 20, t: int | None = None) -> "HeParams":
        bits = _DEFAULT_Q_BITS.get(n)
        if bits is None:
            raise HeParamsError(f"no default parameters for n={n}")
        primes: list[int] = []
        for b in sorted(set(bits)):
            want = bits.count(b)
            primes.extend(find_ntt_primes(b, n, want, exclude=tuple(primes)))
        if t is None:
            t = find_plain_primes(n, t_bits)[0]
        return cls(n=n, q_primes=tuple(primes), t=t)


@lru_cache(maxsize=32)
def _crt_consts(q_primes: tuple[int, ...]):
    """Per-prime CRT lifting constants L_i = q_hat_i * (q_hat_i^-1 mod p_i)."""
    q = math.prod(q_primes)
    hat_invs = [pow(q // p % p, -1, p) for p in q_primes]
    lifts = tuple(q // p * inv for p, inv in zip(q_primes, hat_invs))
    return q, lifts, np.array(hat_invs, dtype=np.int64)[:, None]


@lru_cache(maxsize=8)
def _mul_basis(n: int, q_primes: tuple[int, ...]) -> tuple[int, ...]:
    """Extended prime basis large enough for the exact integer tensor product."""
    q = math.prod(q_primes)
    need = 4 * n * (q // 2) ** 2
    basis = list(q_primes)
    prod = q
    bits = 30
    while prod < need:
        extra = find_ntt_primes(bits, n, 1, exclude=tuple(basis))
        basis.extend(extra)
        prod *= extra[0]
    return tuple(basis)


def _lift_centered(residues: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """Exact CRT reconstruction of (k, n) residues to centered big integers
    (object dtype)."""
    q, lifts, _ = _crt_consts(primes)
    acc = residues[0].astype(object) * lifts[0]
    for row, lift in zip(residues[1:], lifts[1:]):
        acc += row.astype(object) * lift
    acc %= q
    return np.where(acc > q // 2, acc - q, acc)


@dataclass(frozen=True)
class SecretKey:
    params: HeParams
    s_coeff: np.ndarray  # ternary, int64
    s_ntt: np.ndarray = field(repr=False)  # (k, n)


@dataclass(frozen=True)
class PublicKey:
    params: HeParams
    pk0_ntt: np.ndarray = field(repr=False)  # (k, n)
    pk1_ntt: np.ndarray = field(repr=False)  # (k, n)


@dataclass(frozen=True)
class RelinKey:
    """Key-switching key for s^2 -> s, RNS-decomposed: one (b, a) pair of
    (k, n) arrays per coefficient prime, stored in the transform domain."""

    params: HeParams
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)


@dataclass(frozen=True)
class HePlaintext:
    """Polynomial mod t; scalar encoding keeps the value in the constant
    coefficient, batched encoding holds one value per slot."""

    poly: np.ndarray
    t: int
    n: int
    encoding: str  # "scalar" | "batch"

    def centered(self) -> np.ndarray:
        """The coefficients as representatives in (-t/2, t/2]."""
        return np.where(self.poly > self.t // 2, self.poly - self.t, self.poly)


@dataclass
class HeCiphertext:
    """RNS ciphertext: 2 (k, n) polys when fresh/relinearized, 3 after a raw
    multiply.

    ``noise_log2`` is the conservative running noise estimate used for eager
    budget checks; ``level`` counts consumed multiplicative depth. ``t`` and
    ``encoding`` travel with the ciphertext: one keypair serves any plaintext
    modulus over the same ring, which the CRT computation plans rely on.
    """

    params: HeParams
    t: int
    polys: tuple[np.ndarray, ...]
    noise_log2: float
    level: int = 0
    encoding: str = "scalar"

    def __post_init__(self) -> None:
        if len(self.polys) not in (2, 3):
            raise HeParamsError("ciphertext must have 2 or 3 components")

    @property
    def budget_estimate(self) -> float:
        return self.params.budget_capacity(self.t) - self.noise_log2

    def _lift(self) -> tuple[np.ndarray, ...]:
        cached = getattr(self, "_lift_cache", None)
        if cached is None:
            cached = tuple(
                _lift_centered(comp, self.params.q_primes) for comp in self.polys
            )
            object.__setattr__(self, "_lift_cache", cached)
        return cached


# -- noise rules ------------------------------------------------------------------


def add_noise_log2(va: float, vb: float) -> float:
    """Noise estimate (log2) of a sum or difference of two noises."""
    return float(np.logaddexp2(va, vb))


def mul_noise_log2(params: HeParams, t: int, va: float, vb: float) -> float:
    """Noise estimate (log2) after a relinearized product of two ciphertexts
    under plaintext modulus ``t`` whose estimates are ``va`` and ``vb``."""
    base = add_noise_log2(va, vb)
    mult = math.log2(t) + math.log2(params.n) + 2 + base
    relin = (
        math.log2(len(params.q_primes))
        + math.log2(params.n)
        + max(math.log2(p) for p in params.q_primes)
        + math.log2(6 * params.noise_sigma)
    )
    return add_noise_log2(mult, relin)


def plain_mul_noise_log2(v: float, pt: HePlaintext) -> float:
    """Noise estimate (log2) after multiplying noise ``v`` by ``pt``'s centered
    representative p: |p|_1 * (v + t). The t term bounds the wrap
    r_t(q) * floor(x*p / t), where Delta * t = q - r_t(q) and r_t(q) < t
    (Fan and Vercauteren, "Somewhat Practical Fully Homomorphic Encryption",
    2012)."""
    l1 = int(np.abs(pt.centered()).sum())
    return math.log2(max(l1, 1)) + add_noise_log2(v, math.log2(pt.t))


# -- sampling -----------------------------------------------------------------


def _rng_from_seed(seed) -> np.random.Generator:
    if isinstance(seed, (bytes, bytearray)):
        seed = int.from_bytes(seed, "big")
    return np.random.default_rng(seed)


def _sample_ternary(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1, 2, n, dtype=np.int64)


def _sample_gaussian(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    bound = math.ceil(6 * sigma)
    e = np.rint(rng.normal(0.0, sigma, n)).astype(np.int64)
    return np.clip(e, -bound, bound)


def _sample_uniform_rns(rng: np.random.Generator, n: int, primes) -> np.ndarray:
    return np.stack([rng.integers(0, p, n, dtype=np.int64) for p in primes])


# -- key generation -----------------------------------------------------------


def keygen(
    params: HeParams, seed=None, relin: bool = True
) -> tuple[SecretKey, PublicKey, RelinKey | None]:
    """Generate (sk, pk, rk); deterministic under a fixed seed. With
    ``relin=False`` no relinearization key is built and rk is None; rk is
    sampled last, so sk and pk are the same either way."""
    rng = _rng_from_seed(seed)
    n, primes = params.n, params.q_primes
    plan = params.ntt
    q = plan.mod

    s = _sample_ternary(rng, n)
    s_ntt = plan.forward(s)

    e = _sample_gaussian(rng, n, params.noise_sigma)
    a_ntt = plan.forward(_sample_uniform_rns(rng, n, primes))
    b_ntt = plan.forward(-plan.inverse(a_ntt * s_ntt % q) - e)
    pk = PublicKey(params, b_ntt, a_ntt)
    sk = SecretKey(params, s, s_ntt)
    if not relin:
        return sk, pk, None

    # s^2 mod every prime.
    s2 = plan.inverse(s_ntt * s_ntt % q)
    pairs = []
    for p_i in primes:
        e_i = _sample_gaussian(rng, n, params.noise_sigma)
        a_ntt = plan.forward(_sample_uniform_rns(rng, n, primes))
        body = params.residues(params.q // p_i) * s2 + e_i
        b_ntt = plan.forward(-plan.inverse(a_ntt * s_ntt % q) + body)
        pairs.append((b_ntt, a_ntt))
    return sk, pk, RelinKey(params, tuple(pairs))


# -- encodings ----------------------------------------------------------------


def encode_scalar(value: int, params: HeParams, t: int | None = None) -> HePlaintext:
    t = params.t if t is None else t
    poly = np.zeros(params.n, dtype=np.int64)
    poly[0] = value % t
    return HePlaintext(poly, t, params.n, "scalar")


def decode_scalar(pt: HePlaintext) -> int:
    return int(pt.poly[0]) % pt.t


def batch_encode(values: Sequence[int], params: HeParams, t: int | None = None) -> HePlaintext:
    """Pack up to n integers into slots (CRT/NTT packing over R_t)."""
    t = params.t if t is None else t
    if t.bit_length() > 30 or (t - 1) % (2 * params.n) or not is_prime(t):
        raise HeParamsError(f"t={t} incompatible with batching at n={params.n}")
    if len(values) > params.n:
        raise HeParamsError(f"too many values to batch: {len(values)} > {params.n}")
    slots = np.zeros(params.n, dtype=np.int64)
    slots[: len(values)] = np.mod(np.asarray(values, dtype=object), t).astype(np.int64)
    plan = get_plan(params.n, t)
    return HePlaintext(plan.inverse(slots), t, params.n, "batch")


def batch_decode(pt: HePlaintext, count: int | None = None) -> list[int]:
    if pt.encoding != "batch":
        raise HeParamsError("plaintext is not batch-encoded")
    slots = get_plan(pt.n, pt.t).forward(pt.poly)
    return [int(v) for v in slots[: count if count is not None else pt.n]]


# -- encryption / decryption ---------------------------------------------------


def encrypt(pk: PublicKey, pt: HePlaintext, rng: np.random.Generator | None = None) -> HeCiphertext:
    """Randomized public-key encryption of a plaintext polynomial."""
    params = pk.params
    if pt.n != params.n:
        raise HeParamsError("plaintext/parameter ring mismatch")
    if rng is None:
        rng = np.random.default_rng()
    n, plan = params.n, params.ntt
    q = plan.mod
    u = _sample_ternary(rng, n)
    e1 = _sample_gaussian(rng, n, params.noise_sigma)
    e2 = _sample_gaussian(rng, n, params.noise_sigma)
    u_ntt = plan.forward(u)
    delta = params.residues(params.q // pt.t)
    c0 = (plan.inverse(pk.pk0_ntt * u_ntt % q) + e1 + delta * pt.poly) % q
    c1 = (plan.inverse(pk.pk1_ntt * u_ntt % q) + e2) % q
    return HeCiphertext(
        params=params,
        t=pt.t,
        polys=(c0, c1),
        noise_log2=params.fresh_noise_log2(),
        encoding=pt.encoding,
    )


def _dot_secret(ct: HeCiphertext, sk: SecretKey) -> np.ndarray:
    """Centered lift of c0 + c1*s (+ c2*s^2) mod q."""
    plan = ct.params.ntt
    q = plan.mod
    w = (ct.polys[0] + plan.inverse(plan.forward(ct.polys[1]) * sk.s_ntt % q)) % q
    if len(ct.polys) == 3:
        s2_ntt = sk.s_ntt * sk.s_ntt % q
        w = (w + plan.inverse(plan.forward(ct.polys[2]) * s2_ntt % q)) % q
    return _lift_centered(w, ct.params.q_primes)


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
    q, t = ct.params.q, ct.t
    m = (2 * t * w + q) // (2 * q)
    poly = np.mod(m, t).astype(np.int64)
    return HePlaintext(poly, t, ct.params.n, ct.encoding)


def noise_budget(sk: SecretKey, ct: HeCiphertext) -> int:
    """Exact remaining budget in bits: floor(log2(q / (2 t |noise|)))."""
    w = _dot_secret(ct, sk)
    q, t = ct.params.q, ct.t
    m = (2 * t * w + q) // (2 * q)
    v = w - m * (q // t)
    vmax = int(max(abs(int(x)) for x in v))
    if vmax == 0:
        vmax = 1
    return math.floor(math.log2(q) - math.log2(2 * t) - math.log2(vmax))


# -- homomorphic operations -----------------------------------------------------


def _within_budget(params: HeParams, t: int, est: float, what: str) -> None:
    """Raise unless noise ``est`` leaves some budget under ``t``."""
    capacity = params.budget_capacity(t)
    if capacity - est <= 0:
        raise NoiseBudgetExhausted(
            f"{what} would exhaust the noise budget (estimate {est:.1f} bits of {capacity:.1f})"
        )


def _check_compat(a: HeCiphertext, b: HeCiphertext) -> None:
    if a.params != b.params or a.t != b.t:
        raise HeParamsError("ciphertext parameter/modulus mismatch")
    if a.encoding != b.encoding:
        raise HeParamsError(
            f"ciphertext encoding mismatch: {a.encoding} vs {b.encoding}"
        )


def _add_or_sub(a: HeCiphertext, b: HeCiphertext, op) -> HeCiphertext:
    """Component-wise ``op`` (a missing third component counts as zero);
    noise grows by at most one bit."""
    _check_compat(a, b)
    q = a.params.ntt.mod
    return HeCiphertext(
        params=a.params,
        t=a.t,
        polys=tuple(op(x, y) % q for x, y in zip_longest(a.polys, b.polys, fillvalue=0)),
        noise_log2=add_noise_log2(a.noise_log2, b.noise_log2),
        level=max(a.level, b.level),
        encoding=a.encoding,
    )


def he_add(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    """Slot/coefficient-wise sum."""
    return _add_or_sub(a, b, np.add)


def he_sub(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    return _add_or_sub(a, b, np.subtract)


def he_add_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    params = ct.params
    c0 = (ct.polys[0] + params.residues(params.q // ct.t) * pt.poly) % params.ntt.mod
    return HeCiphertext(
        params=params,
        t=ct.t,
        polys=(c0,) + ct.polys[1:],
        noise_log2=add_noise_log2(ct.noise_log2, math.log2(ct.t)),
        level=ct.level,
        encoding=ct.encoding,
    )


def he_mul_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    """Multiply by a plaintext polynomial, taken as its centered
    representative (no relinearization needed)."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    params = ct.params
    est = plain_mul_noise_log2(ct.noise_log2, pt)
    _within_budget(params, ct.t, est, "plaintext multiply")
    plan = params.ntt
    m_ntt = plan.forward(pt.centered())
    return HeCiphertext(
        params=params,
        t=ct.t,
        polys=tuple(plan.inverse(plan.forward(c) * m_ntt % plan.mod) for c in ct.polys),
        noise_log2=est,
        level=ct.level,
        encoding=ct.encoding,
    )


def he_mul(a: HeCiphertext, b: HeCiphertext, rk: RelinKey) -> HeCiphertext:
    """Relinearized homomorphic product: exact integer tensor in an extended
    prime basis, scale-round by t/q, then key-switch the s^2 component."""
    _check_compat(a, b)
    if rk.params != a.params:
        raise HeParamsError("relinearization key parameter mismatch")
    if len(a.polys) != 2 or len(b.polys) != 2:
        raise HeParamsError("he_mul expects relinearized (2-component) inputs")
    params = a.params
    n, q, t = params.n, params.q, a.t
    est = mul_noise_log2(params, t, a.noise_log2, b.noise_log2)
    _within_budget(params, t, est, "multiplication")

    basis = _mul_basis(n, params.q_primes)
    ext = get_plan(n, basis)
    P = ext.mod
    fa0, fa1 = (ext.forward(x) for x in a._lift())
    fb0, fb1 = (ext.forward(x) for x in b._lift())
    tensor = (
        fa0 * fb0 % P,
        (fa0 * fb1 % P + fa1 * fb0 % P) % P,
        fa1 * fb1 % P,
    )

    # Exact integers via CRT over the extended basis, then round(t*x/q) mod q.
    plan = params.ntt
    Q = plan.mod
    e0, e1, e2 = (
        np.mod((2 * t * _lift_centered(ext.inverse(d), basis) + q) // (2 * q) % q, Q)
        .astype(np.int64)
        for d in tensor
    )

    # Relinearize e2 with the RNS-digit key-switching key: digit i is
    # row i of e2 * q_hat_i^-1, spread onto every prime by the transform.
    _, _, hat_invs = _crt_consts(params.q_primes)
    digits_ntt = plan.forward((e2 * hat_invs % Q)[:, None, :])
    acc0 = sum(d * b_i % Q for d, (b_i, _) in zip(digits_ntt, rk.pairs))
    acc1 = sum(d * a_i % Q for d, (_, a_i) in zip(digits_ntt, rk.pairs))
    return HeCiphertext(
        params=params,
        t=t,
        polys=((e0 + plan.inverse(acc0)) % Q, (e1 + plan.inverse(acc1)) % Q),
        noise_log2=est,
        level=max(a.level, b.level) + 1,
        encoding=a.encoding,
    )


# -- serialization ---------------------------------------------------------------


_CT_MAGIC = b"HECT"
_PK_MAGIC = b"HEPK"
_SK_MAGIC = b"HESK"
_RK_MAGIC = b"HERK"
_CT_HEAD = struct.Struct(">B8sQIBBdBB")
_KEY_HEAD = struct.Struct(">B8sIB")
_SK_HEAD = struct.Struct(">B8sI")


def _pack_rows(polys) -> bytes:
    return np.ascontiguousarray(np.stack(polys), dtype="<i8").tobytes()


def _read(data: bytes, magic: bytes, head: struct.Struct, params: HeParams, what: str):
    """Check a blob's magic, version and parameter hash; return the other
    header fields and the body."""
    if len(data) < 4 + head.size or data[:4] != magic:
        raise HeParamsError(f"bad {what} header")
    ver, ph, *fields = head.unpack_from(data, 4)
    if ver != 1:
        raise HeParamsError(f"unsupported {what} version {ver}")
    if ph != params.param_hash:
        raise HeParamsError(f"{what} was produced under different parameters")
    return fields, data[4 + head.size :]


def _read_rows(
    body: bytes, count: int, n: int, k: int, params: HeParams, what: str
) -> np.ndarray:
    """Exactly ``count`` (k, n) polynomials of residues, each below its prime."""
    if (n, k) != (params.n, len(params.q_primes)):
        raise HeParamsError(
            f"{what} has n={n}, k={k}; params have n={params.n}, k={len(params.q_primes)}"
        )
    size = 8 * count * k * n
    if len(body) != size:
        raise HeParamsError(f"{what} body is {len(body)} bytes, expected {size}")
    rows = np.frombuffer(body, dtype="<i8").astype(np.int64).reshape(count, k, n)
    if not ((rows >= 0) & (rows < params.ntt.mod)).all():
        raise HeParamsError(f"{what} residue out of range")
    return rows


def ciphertext_to_bytes(ct: HeCiphertext) -> bytes:
    head = _CT_MAGIC + _CT_HEAD.pack(
        1,
        ct.params.param_hash,
        ct.t,
        ct.params.n,
        len(ct.params.q_primes),
        len(ct.polys),
        ct.noise_log2,
        ct.level,
        1 if ct.encoding == "batch" else 0,
    )
    return head + _pack_rows(ct.polys)


def ciphertext_from_bytes(data: bytes, params: HeParams) -> HeCiphertext:
    fields, body = _read(data, _CT_MAGIC, _CT_HEAD, params, "ciphertext")
    t, n, k, ncomp, noise, level, enc = fields
    if ncomp not in (2, 3) or enc not in (0, 1) or not 2 <= t < params.q:
        raise HeParamsError(f"malformed ciphertext header: t={t}, {ncomp} parts, encoding {enc}")
    if not math.isfinite(noise):
        raise HeParamsError(f"malformed ciphertext header: noise estimate {noise}")
    polys = tuple(_read_rows(body, ncomp, n, k, params, "ciphertext"))
    return HeCiphertext(params, t, polys, noise, level, "batch" if enc else "scalar")


def public_key_to_bytes(pk: PublicKey) -> bytes:
    params = pk.params
    head = _PK_MAGIC + _KEY_HEAD.pack(1, params.param_hash, params.n, len(params.q_primes))
    return head + _pack_rows(params.ntt.inverse(np.stack((pk.pk0_ntt, pk.pk1_ntt))))


def public_key_from_bytes(data: bytes, params: HeParams) -> PublicKey:
    (n, k), body = _read(data, _PK_MAGIC, _KEY_HEAD, params, "public key")
    pk0, pk1 = params.ntt.forward(_read_rows(body, 2, n, k, params, "public key"))
    return PublicKey(params, pk0, pk1)


def relin_key_to_bytes(rk: RelinKey) -> bytes:
    params = rk.params
    head = _RK_MAGIC + _KEY_HEAD.pack(1, params.param_hash, params.n, len(params.q_primes))
    rows = np.stack([x for pair in rk.pairs for x in pair])
    return head + _pack_rows(params.ntt.inverse(rows))


def relin_key_from_bytes(data: bytes, params: HeParams) -> RelinKey:
    (n, k), body = _read(data, _RK_MAGIC, _KEY_HEAD, params, "relin key")
    rows = params.ntt.forward(_read_rows(body, 2 * k, n, k, params, "relin key"))
    return RelinKey(params, tuple(zip(rows[0::2], rows[1::2])))


def secret_key_to_bytes(sk: SecretKey) -> bytes:
    head = _SK_MAGIC + _SK_HEAD.pack(1, sk.params.param_hash, sk.params.n)
    return head + np.ascontiguousarray(sk.s_coeff, dtype="<i1").tobytes()


def secret_key_from_bytes(data: bytes, params: HeParams) -> SecretKey:
    (n,), body = _read(data, _SK_MAGIC, _SK_HEAD, params, "secret key")
    if n != params.n or len(body) != n:
        raise HeParamsError(f"secret key must hold {params.n} coefficients")
    s = np.frombuffer(body, dtype="<i1").astype(np.int64)
    if (np.abs(s) > 1).any():
        raise HeParamsError("secret key coefficient is not ternary")
    return SecretKey(params, s, params.ntt.forward(s))
