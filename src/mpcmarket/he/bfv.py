"""Textbook BFV: keygen, encrypt/decrypt, add, multiply-with-relinearization,
scalar and batched encodings, and noise-budget tracking.

Representation: polynomials are held in RNS form, one int64 residue array
per coefficient-modulus prime. The coefficient modulus q is a product of
30-bit NTT-friendly primes (kept word-sized so numpy int64 products never
overflow). Multiplication lifts operands to exact centered integers, runs
the tensor product in an extended prime basis, scale-rounds by t/q, and
relinearizes with an RNS-decomposed key-switching key.

Noise is tracked two ways: a conservative running estimate carried on every
ciphertext (used to flag budget exhaustion eagerly, the scheme's bottom
element), and an exact secret-key measurement via :func:`noise_budget`.

Parameter sets here are desk-scale and not production-audited.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ntt import find_ntt_primes, get_plan, is_prime

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
        q = 1
        for p in self.q_primes:
            q *= p
        return q

    @property
    def log2_q(self) -> float:
        return sum(math.log2(p) for p in self.q_primes)

    @property
    def delta(self) -> int:
        return self.q // self.t

    @property
    def supports_batching(self) -> bool:
        return is_prime(self.t) and (self.t - 1) % (2 * self.n) == 0

    def fresh_noise_log2(self) -> float:
        bound = 6 * self.noise_sigma
        return math.log2(2 * self.n * bound + bound)

    def budget_capacity(self) -> float:
        return self.log2_q - math.log2(2 * self.t)

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
    q = 1
    for p in q_primes:
        q *= p
    lifts = []
    hat_invs = []
    for p in q_primes:
        q_hat = q // p
        inv = pow(q_hat % p, -1, p)
        lifts.append(q_hat * inv)
        hat_invs.append(inv)
    return q, tuple(lifts), tuple(hat_invs)


@lru_cache(maxsize=8)
def _mul_basis(n: int, q_primes: tuple[int, ...]) -> tuple[int, ...]:
    """Extended prime basis large enough for the exact integer tensor product."""
    q = 1
    for p in q_primes:
        q *= p
    need = 4 * n * (q // 2) ** 2
    basis = list(q_primes)
    prod = q
    bits = 30
    while prod < need:
        extra = find_ntt_primes(bits, n, 1, exclude=tuple(basis))
        basis.extend(extra)
        prod *= extra[0]
    return tuple(basis)


def _rns_residues(coeffs_centered: np.ndarray, primes: Sequence[int]) -> list[np.ndarray]:
    return [np.mod(coeffs_centered, p).astype(np.int64) for p in primes]


def _lift_centered(residues: Sequence[np.ndarray], q_primes: tuple[int, ...]) -> np.ndarray:
    """Exact CRT reconstruction to centered big integers (object dtype)."""
    q, lifts, _ = _crt_consts(q_primes)
    acc = residues[0].astype(object) * lifts[0]
    for r, lift in zip(residues[1:], lifts[1:]):
        acc = acc + r.astype(object) * lift
    acc %= q
    return np.where(acc > q // 2, acc - q, acc)


@dataclass(frozen=True)
class SecretKey:
    params: HeParams
    s_coeff: np.ndarray  # ternary, int64
    s_ntt: tuple[np.ndarray, ...] = field(repr=False)


@dataclass(frozen=True)
class PublicKey:
    params: HeParams
    pk0_ntt: tuple[np.ndarray, ...] = field(repr=False)
    pk1_ntt: tuple[np.ndarray, ...] = field(repr=False)


@dataclass(frozen=True)
class RelinKey:
    """Key-switching key for s^2 -> s, RNS-decomposed: one (b, a) pair per
    coefficient prime, stored in the transform domain."""

    params: HeParams
    pairs: tuple[tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]], ...] = field(repr=False)


@dataclass(frozen=True)
class HePlaintext:
    """Polynomial mod t; scalar encoding keeps the value in the constant
    coefficient, batched encoding holds one value per slot."""

    poly: np.ndarray
    t: int
    n: int
    encoding: str  # "scalar" | "batch"

    def max_abs_centered(self) -> int:
        c = self.poly.astype(object)
        c = np.where(c > self.t // 2, c - self.t, c)
        return int(max(abs(int(v)) for v in c)) if len(c) else 0


@dataclass
class HeCiphertext:
    """RNS ciphertext: 2 polys when fresh/relinearized, 3 after a raw multiply.

    ``noise_log2`` is the conservative running noise estimate used for eager
    budget checks; ``level`` counts consumed multiplicative depth. ``t`` and
    ``encoding`` travel with the ciphertext: one keypair serves any plaintext
    modulus over the same ring, which the CRT computation plans rely on.
    """

    params: HeParams
    t: int
    polys: tuple[tuple[np.ndarray, ...], ...]
    noise_log2: float
    level: int = 0
    encoding: str = "scalar"

    def __post_init__(self) -> None:
        if len(self.polys) not in (2, 3):
            raise HeParamsError("ciphertext must have 2 or 3 components")

    @property
    def budget_estimate(self) -> float:
        return self.params.log2_q - math.log2(2 * self.t) - self.noise_log2

    def _lift(self) -> tuple[np.ndarray, ...]:
        cached = getattr(self, "_lift_cache", None)
        if cached is None:
            cached = tuple(
                _lift_centered(comp, self.params.q_primes) for comp in self.polys
            )
            object.__setattr__(self, "_lift_cache", cached)
        return cached


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


def _sample_uniform_rns(rng: np.random.Generator, n: int, primes) -> list[np.ndarray]:
    return [rng.integers(0, p, n, dtype=np.int64) for p in primes]


# -- key generation -----------------------------------------------------------


def keygen(
    params: HeParams, seed=None, relin: bool = True
) -> tuple[SecretKey, PublicKey, RelinKey | None]:
    """Generate (sk, pk, rk); deterministic under a fixed seed. With
    ``relin=False`` no relinearization key is built and rk is None; rk is
    sampled last, so sk and pk are the same either way."""
    rng = _rng_from_seed(seed)
    n, primes = params.n, params.q_primes
    plans = [get_plan(n, p) for p in primes]

    s = _sample_ternary(rng, n)
    s_ntt = tuple(plan.forward(s) for plan in plans)

    e = _sample_gaussian(rng, n, params.noise_sigma)
    a_rns = _sample_uniform_rns(rng, n, primes)
    pk0 = []
    pk1 = []
    for plan, a_p, s_p in zip(plans, a_rns, s_ntt):
        a_ntt = plan.forward(a_p)
        b_ntt = plan.forward(np.mod(-plan.inverse(a_ntt * s_p % plan.p) - e, plan.p))
        pk0.append(b_ntt)
        pk1.append(a_ntt)
    pk = PublicKey(params, tuple(pk0), tuple(pk1))
    sk = SecretKey(params, s, s_ntt)
    if not relin:
        return sk, pk, None

    # s^2 has coefficients bounded by n, so one prime recovers it exactly.
    p0 = plans[0]
    s2 = p0.inverse(s_ntt[0] * s_ntt[0] % p0.p)
    s2 = np.where(s2 > p0.p // 2, s2 - p0.p, s2).astype(np.int64)

    q = params.q
    pairs = []
    for i, p_i in enumerate(primes):
        q_hat = q // p_i
        e_i = _sample_gaussian(rng, n, params.noise_sigma)
        a_i = _sample_uniform_rns(rng, n, primes)
        b_i = []
        a_ntt_i = []
        for plan, a_p, s_p in zip(plans, a_i, s_ntt):
            a_ntt = plan.forward(a_p)
            body = np.mod((q_hat % plan.p) * s2 + e_i, plan.p)
            b_ntt = plan.forward(
                np.mod(-plan.inverse(a_ntt * s_p % plan.p) + body, plan.p)
            )
            b_i.append(b_ntt)
            a_ntt_i.append(a_ntt)
        pairs.append((tuple(b_i), tuple(a_ntt_i)))
    return sk, pk, RelinKey(params, tuple(pairs))


# -- encodings ----------------------------------------------------------------


def encode_scalar(value: int, params: HeParams, t: int | None = None) -> HePlaintext:
    t = params.t if t is None else t
    poly = np.zeros(params.n, dtype=np.int64)
    poly[0] = value % t
    return HePlaintext(poly, t, params.n, "scalar")


def decode_scalar(pt: HePlaintext, signed: bool = False) -> int:
    v = int(pt.poly[0]) % pt.t
    if signed and v > pt.t // 2:
        v -= pt.t
    return v


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


def batch_decode(pt: HePlaintext, count: int | None = None, signed: bool = False) -> list[int]:
    if pt.encoding != "batch":
        raise HeParamsError("plaintext is not batch-encoded")
    plan = get_plan(pt.n, pt.t)
    slots = plan.forward(pt.poly)
    out = [int(v) for v in slots[: count if count is not None else pt.n]]
    if signed:
        out = [v - pt.t if v > pt.t // 2 else v for v in out]
    return out


# -- encryption / decryption ---------------------------------------------------


def encrypt(pk: PublicKey, pt: HePlaintext, rng: np.random.Generator | None = None) -> HeCiphertext:
    """Randomized public-key encryption of a plaintext polynomial."""
    params = pk.params
    if pt.n != params.n:
        raise HeParamsError("plaintext/parameter ring mismatch")
    if rng is None:
        rng = np.random.default_rng()
    n, primes = params.n, params.q_primes
    plans = [get_plan(n, p) for p in primes]
    u = _sample_ternary(rng, n)
    e1 = _sample_gaussian(rng, n, params.noise_sigma)
    e2 = _sample_gaussian(rng, n, params.noise_sigma)
    delta = params.q // pt.t
    m = pt.poly
    c0 = []
    c1 = []
    for plan, b_ntt, a_ntt in zip(plans, pk.pk0_ntt, pk.pk1_ntt):
        p = plan.p
        u_ntt = plan.forward(u)
        c0.append(np.mod(plan.inverse(b_ntt * u_ntt % p) + e1 + (delta % p) * m, p))
        c1.append(np.mod(plan.inverse(a_ntt * u_ntt % p) + e2, p))
    return HeCiphertext(
        params=params,
        t=pt.t,
        polys=(tuple(c0), tuple(c1)),
        noise_log2=params.fresh_noise_log2(),
        encoding=pt.encoding,
    )


def _dot_secret(ct: HeCiphertext, sk: SecretKey) -> np.ndarray:
    """Centered lift of c0 + c1*s (+ c2*s^2) mod q."""
    params = ct.params
    plans = [get_plan(params.n, p) for p in params.q_primes]
    acc = []
    for i, plan in enumerate(plans):
        p = plan.p
        w = ct.polys[0][i].copy()
        c1_ntt = plan.forward(ct.polys[1][i])
        w = (w + plan.inverse(c1_ntt * sk.s_ntt[i] % p)) % p
        if len(ct.polys) == 3:
            c2_ntt = plan.forward(ct.polys[2][i])
            s2_ntt = sk.s_ntt[i] * sk.s_ntt[i] % p
            w = (w + plan.inverse(c2_ntt * s2_ntt % p)) % p
        acc.append(w)
    return _lift_centered(acc, params.q_primes)


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


def _check_compat(a: HeCiphertext, b: HeCiphertext) -> None:
    if a.params != b.params or a.t != b.t:
        raise HeParamsError("ciphertext parameter/modulus mismatch")
    if a.encoding != b.encoding:
        raise HeParamsError(
            f"ciphertext encoding mismatch: {a.encoding} vs {b.encoding}"
        )


def _pad(polys: tuple, k: int, n: int, primes) -> list:
    comps = list(polys)
    while len(comps) < k:
        comps.append(tuple(np.zeros(n, dtype=np.int64) for _ in primes))
    return comps


def he_add(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    """Slot/coefficient-wise sum; noise grows by at most one bit."""
    _check_compat(a, b)
    k = max(len(a.polys), len(b.polys))
    pa = _pad(a.polys, k, a.params.n, a.params.q_primes)
    pb = _pad(b.polys, k, b.params.n, b.params.q_primes)
    polys = tuple(
        tuple((x + y) % p for x, y, p in zip(ca, cb, a.params.q_primes))
        for ca, cb in zip(pa, pb)
    )
    return HeCiphertext(
        params=a.params,
        t=a.t,
        polys=polys,
        noise_log2=float(np.logaddexp2(a.noise_log2, b.noise_log2)),
        level=max(a.level, b.level),
        encoding=a.encoding,
    )


def he_sub(a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
    _check_compat(a, b)
    k = max(len(a.polys), len(b.polys))
    pa = _pad(a.polys, k, a.params.n, a.params.q_primes)
    pb = _pad(b.polys, k, b.params.n, b.params.q_primes)
    polys = tuple(
        tuple((x - y) % p for x, y, p in zip(ca, cb, a.params.q_primes))
        for ca, cb in zip(pa, pb)
    )
    return HeCiphertext(
        params=a.params,
        t=a.t,
        polys=polys,
        noise_log2=float(np.logaddexp2(a.noise_log2, b.noise_log2)),
        level=max(a.level, b.level),
        encoding=a.encoding,
    )


def he_add_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    delta = ct.params.q // ct.t
    c0 = tuple(
        (c + (delta % p) * pt.poly) % p
        for c, p in zip(ct.polys[0], ct.params.q_primes)
    )
    return HeCiphertext(
        params=ct.params,
        t=ct.t,
        polys=(c0,) + ct.polys[1:],
        noise_log2=float(np.logaddexp2(ct.noise_log2, math.log2(ct.t))),
        level=ct.level,
        encoding=ct.encoding,
    )


def he_mul_plain(ct: HeCiphertext, pt: HePlaintext) -> HeCiphertext:
    """Multiply by a plaintext polynomial (no relinearization needed)."""
    if pt.t != ct.t:
        raise HeParamsError("plaintext modulus mismatch")
    params = ct.params
    plans = [get_plan(params.n, p) for p in params.q_primes]
    m_ntts = [plan.forward(pt.poly) for plan in plans]
    polys = tuple(
        tuple(
            plan.inverse(plan.forward(c) * m_ntt % plan.p)
            for c, plan, m_ntt in zip(comp, plans, m_ntts)
        )
        for comp in ct.polys
    )
    scale = max(pt.max_abs_centered(), 1)
    nonzero = int(np.count_nonzero(pt.poly))
    growth = math.log2(scale) + (math.log2(nonzero) if nonzero > 1 else 0.0)
    out = HeCiphertext(
        params=params,
        t=ct.t,
        polys=polys,
        noise_log2=ct.noise_log2 + growth,
        level=ct.level,
        encoding=ct.encoding,
    )
    if out.budget_estimate <= 0:
        raise NoiseBudgetExhausted(
            f"plaintext multiply would exhaust budget ({out.budget_estimate:.1f} bits)"
        )
    return out


def _mul_noise_estimate(a: HeCiphertext, b: HeCiphertext) -> float:
    params = a.params
    base = float(np.logaddexp2(a.noise_log2, b.noise_log2))
    mult = math.log2(params.t) + math.log2(params.n) + 2 + base
    relin = (
        math.log2(len(params.q_primes))
        + math.log2(params.n)
        + max(math.log2(p) for p in params.q_primes)
        + math.log2(6 * params.noise_sigma)
    )
    return float(np.logaddexp2(mult, relin))


def he_mul(a: HeCiphertext, b: HeCiphertext, rk: RelinKey) -> HeCiphertext:
    """Relinearized homomorphic product: exact integer tensor in an extended
    prime basis, scale-round by t/q, then key-switch the s^2 component."""
    _check_compat(a, b)
    if rk.params != a.params:
        raise HeParamsError("relinearization key parameter mismatch")
    if len(a.polys) != 2 or len(b.polys) != 2:
        raise HeParamsError("he_mul expects relinearized (2-component) inputs")
    params = a.params
    est = _mul_noise_estimate(a, b)
    if params.log2_q - math.log2(2 * a.t) - est <= 0:
        raise NoiseBudgetExhausted(
            f"multiplication would exhaust noise budget (estimate {est:.1f} bits "
            f"of {params.log2_q - math.log2(2 * a.t):.1f})"
        )

    n, q, t = params.n, params.q, a.t
    basis = _mul_basis(n, params.q_primes)
    plans = [get_plan(n, p) for p in basis]

    a0, a1 = a._lift()
    b0, b1 = b._lift()
    fa0 = [plan.forward(np.mod(a0, plan.p).astype(np.int64)) for plan in plans]
    fa1 = [plan.forward(np.mod(a1, plan.p).astype(np.int64)) for plan in plans]
    fb0 = [plan.forward(np.mod(b0, plan.p).astype(np.int64)) for plan in plans]
    fb1 = [plan.forward(np.mod(b1, plan.p).astype(np.int64)) for plan in plans]

    d_rns = []
    for pick in ("00", "01+10", "11"):
        comp = []
        for i, plan in enumerate(plans):
            p = plan.p
            if pick == "00":
                prod = fa0[i] * fb0[i] % p
            elif pick == "11":
                prod = fa1[i] * fb1[i] % p
            else:
                prod = (fa0[i] * fb1[i] % p + fa1[i] * fb0[i] % p) % p
            comp.append(plan.inverse(prod))
        d_rns.append(comp)

    # Exact integers via CRT over the extended basis, then round(t*x/q) mod q.
    e_polys = []
    for comp in d_rns:
        x = _lift_centered(comp, basis)
        y = (2 * t * x + q) // (2 * q)
        y %= q
        e_polys.append(_rns_residues(y, params.q_primes))

    # Relinearize e2 with the RNS-digit key-switching key.
    q_plans = [get_plan(n, p) for p in params.q_primes]
    _, _, hat_invs = _crt_consts(params.q_primes)
    acc0 = [np.zeros(n, dtype=np.int64) for _ in params.q_primes]
    acc1 = [np.zeros(n, dtype=np.int64) for _ in params.q_primes]
    for i, p_i in enumerate(params.q_primes):
        digit = e_polys[2][i] * hat_invs[i] % p_i
        b_i, a_i = rk.pairs[i]
        for j, plan in enumerate(q_plans):
            dig_ntt = plan.forward(np.mod(digit, plan.p).astype(np.int64))
            acc0[j] = (acc0[j] + dig_ntt * b_i[j]) % plan.p
            acc1[j] = (acc1[j] + dig_ntt * a_i[j]) % plan.p

    c0 = tuple(
        (e_polys[0][j] + plan.inverse(acc0[j])) % plan.p
        for j, plan in enumerate(q_plans)
    )
    c1 = tuple(
        (e_polys[1][j] + plan.inverse(acc1[j])) % plan.p
        for j, plan in enumerate(q_plans)
    )
    return HeCiphertext(
        params=params,
        t=t,
        polys=(c0, c1),
        noise_log2=est,
        level=max(a.level, b.level) + 1,
        encoding=a.encoding,
    )


# -- serialization ---------------------------------------------------------------


_CT_MAGIC = b"HECT"
_PK_MAGIC = b"HEPK"
_SK_MAGIC = b"HESK"
_RK_MAGIC = b"HERK"


def _pack_arrays(arrays) -> bytes:
    out = bytearray()
    for arr in arrays:
        out += np.ascontiguousarray(arr, dtype="<i8").tobytes()
    return bytes(out)


def ciphertext_to_bytes(ct: HeCiphertext) -> bytes:
    head = _CT_MAGIC + struct.pack(
        ">B8sQIBBdBB",
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
    body = b"".join(_pack_arrays(comp) for comp in ct.polys)
    return head + body


def ciphertext_from_bytes(data: bytes, params: HeParams) -> HeCiphertext:
    if data[:4] != _CT_MAGIC:
        raise HeParamsError("bad ciphertext magic")
    ver, ph, t, n, k, ncomp, noise, level, enc = struct.unpack(
        ">B8sQIBBdBB", data[4:37]
    )
    if ver != 1:
        raise HeParamsError(f"unsupported ciphertext version {ver}")
    if ph != params.param_hash:
        raise HeParamsError("ciphertext was produced under different parameters")
    off = 37
    polys = []
    for _ in range(ncomp):
        comp = []
        for _ in range(k):
            arr = np.frombuffer(data[off : off + 8 * n], dtype="<i8").astype(np.int64)
            comp.append(arr)
            off += 8 * n
        polys.append(tuple(comp))
    return HeCiphertext(params, t, tuple(polys), noise, level, "batch" if enc else "scalar")


def public_key_to_bytes(pk: PublicKey) -> bytes:
    params = pk.params
    plans = [get_plan(params.n, p) for p in params.q_primes]
    coeff0 = [plan.inverse(c) for plan, c in zip(plans, pk.pk0_ntt)]
    coeff1 = [plan.inverse(c) for plan, c in zip(plans, pk.pk1_ntt)]
    head = _PK_MAGIC + struct.pack(
        ">B8sIB", 1, params.param_hash, params.n, len(params.q_primes)
    )
    return head + _pack_arrays(coeff0) + _pack_arrays(coeff1)


def public_key_from_bytes(data: bytes, params: HeParams) -> PublicKey:
    if data[:4] != _PK_MAGIC:
        raise HeParamsError("bad public key magic")
    ver, ph, n, k = struct.unpack(">B8sIB", data[4:18])
    if ph != params.param_hash:
        raise HeParamsError("public key was produced under different parameters")
    off = 18
    arrays = []
    for _ in range(2 * k):
        arrays.append(np.frombuffer(data[off : off + 8 * n], dtype="<i8").astype(np.int64))
        off += 8 * n
    plans = [get_plan(n, p) for p in params.q_primes]
    pk0 = tuple(plan.forward(a) for plan, a in zip(plans, arrays[:k]))
    pk1 = tuple(plan.forward(a) for plan, a in zip(plans, arrays[k:]))
    return PublicKey(params, pk0, pk1)


def relin_key_to_bytes(rk: RelinKey) -> bytes:
    params = rk.params
    plans = [get_plan(params.n, p) for p in params.q_primes]
    head = _RK_MAGIC + struct.pack(
        ">B8sIB", 1, params.param_hash, params.n, len(params.q_primes)
    )
    chunks = [head]
    for b_i, a_i in rk.pairs:
        chunks.append(_pack_arrays(plan.inverse(c) for plan, c in zip(plans, b_i)))
        chunks.append(_pack_arrays(plan.inverse(c) for plan, c in zip(plans, a_i)))
    return b"".join(chunks)


def relin_key_from_bytes(data: bytes, params: HeParams) -> RelinKey:
    if data[:4] != _RK_MAGIC:
        raise HeParamsError("bad relin key magic")
    ver, ph, n, k = struct.unpack(">B8sIB", data[4:18])
    if ph != params.param_hash:
        raise HeParamsError("relin key was produced under different parameters")
    plans = [get_plan(n, p) for p in params.q_primes]
    off = 18
    pairs = []
    for _ in range(k):
        comps = []
        for _ in range(2):
            arrs = []
            for plan in plans:
                raw = np.frombuffer(data[off : off + 8 * n], dtype="<i8").astype(np.int64)
                arrs.append(plan.forward(raw))
                off += 8 * n
            comps.append(tuple(arrs))
        pairs.append((comps[0], comps[1]))
    return RelinKey(params, tuple(pairs))


def secret_key_to_bytes(sk: SecretKey) -> bytes:
    head = _SK_MAGIC + struct.pack(">B8sI", 1, sk.params.param_hash, sk.params.n)
    return head + np.ascontiguousarray(sk.s_coeff, dtype="<i1").tobytes()


def secret_key_from_bytes(data: bytes, params: HeParams) -> SecretKey:
    if data[:4] != _SK_MAGIC:
        raise HeParamsError("bad secret key magic")
    ver, ph, n = struct.unpack(">B8sI", data[4:17])
    if ph != params.param_hash:
        raise HeParamsError("secret key was produced under different parameters")
    s = np.frombuffer(data[17 : 17 + n], dtype="<i1").astype(np.int64)
    plans = [get_plan(n, p) for p in params.q_primes]
    return SecretKey(params, s, tuple(plan.forward(s) for plan in plans))
