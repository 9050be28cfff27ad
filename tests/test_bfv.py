"""BFV scheme: NTT arithmetic, keygen/encrypt/decrypt, homomorphic ops,
noise budgets, batching, serialization."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmarket.he import bfv
from mpcmarket.he.bfv import find_ntt_primes
from mpcmarket.he.ntt import (
    NttPlan,
    _primitive_2n_root,
    dot_mod,
    get_plan,
    is_prime,
    schoolbook_negacyclic,
)
from mpcmarket.protocol.computations import CiphertextOps


def ntt_mul(a, b, n: int, p: int) -> list[int]:
    """a * b mod (X^n + 1, p) through a one-prime plan."""
    plan = get_plan(n, (p,))
    return list(map(int, plan.inverse(plan.forward(a) * plan.forward(b) % plan.mod)[0]))


class TestNtt:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_schoolbook_negacyclic(self, n):
        p = find_ntt_primes(30, n, 1)[0]
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = rng.integers(0, p, n, dtype=np.int64)
            b = rng.integers(0, p, n, dtype=np.int64)
            assert ntt_mul(a, b, n, p) == schoolbook_negacyclic(a, b, p)

    def test_forward_inverse_identity(self):
        n, p = 1024, find_ntt_primes(30, 1024, 1)[0]
        plan = get_plan(n, (p,))
        rng = np.random.default_rng(7)
        a = rng.integers(0, p, n, dtype=np.int64)
        assert np.array_equal(plan.inverse(plan.forward(a))[0], a)

    def test_rejects_non_ntt_modulus(self):
        with pytest.raises(ValueError):
            get_plan(64, (97,))  # 96 not divisible by 128

    @pytest.mark.parametrize("n", bfv.VALID_DEGREES)
    def test_four_step_matches_schoolbook_at_every_degree(self, n):
        # One factor is sparse (nonzero at both ends, the middle and a few
        # random places), which keeps the quadratic oracle cheap at n=8192
        # while every output coefficient still depends on the dense factor.
        p = find_ntt_primes(30, n, 1)[0]
        rng = np.random.default_rng(n)
        a = np.zeros(n, dtype=np.int64)
        where = [0, 1, n // 2, n - 1, *rng.integers(0, n, 4)]
        a[where] = rng.integers(1, p, len(where))
        b = rng.integers(0, p, n, dtype=np.int64)
        assert ntt_mul(a, b, n, p) == schoolbook_negacyclic(a, b, p)

    def test_extreme_rows_at_the_multiply_basis(self, params8192):
        # Every residue p - 1, the most negative input the transforms take,
        # and the two alternating: the largest limb sums and joins. Output
        # position r holds the evaluation at psi^(2 r + 1), checked in Python
        # integers at a handful of positions; the inverse returns the input
        # reduced mod p.
        n = params8192.n
        basis = bfv._mul_basis(n, params8192.q_primes)
        plan = get_plan(n, basis)
        p = plan.mod
        low = -((1 << 30) - 1)
        rows = np.stack([
            np.broadcast_to(p - 1, (len(basis), n)),
            np.full((len(basis), n), low),
            np.where(np.arange(n) % 2 == 0, p - 1, low),
        ])
        got = plan.forward(rows)
        assert np.array_equal(plan.inverse(got), rows % p)
        for i, q in enumerate(basis):
            psi = _primitive_2n_root(q, n)
            coeffs = [list(map(int, row)) for row in rows[:, i]]
            for r in (0, 1, 2, n // 2 - 1, n // 2, n - 2, n - 1):
                x, powers = pow(psi, 2 * r + 1, q), [1]
                for _ in range(n - 1):
                    powers.append(powers[-1] * x % q)
                want = [sum(c * w for c, w in zip(row, powers)) % q for row in coeffs]
                assert got[:, i, r].tolist() == want

    def test_rejects_primes_of_31_bits_and_wide_splits(self):
        n = 64
        p31 = next(p for p in range((1 << 30) + 1, 1 << 31, 2 * n) if is_prime(p))
        with pytest.raises(ValueError, match="2\\^30"):
            NttPlan(n, (p31,))
        with pytest.raises(ValueError, match="n2"):
            NttPlan(1 << 15, (65537,))


def _residues(values, primes) -> np.ndarray:
    return np.array([[v % p for v in values] for p in primes], dtype=np.int64)


@pytest.fixture
def fallback(monkeypatch):
    """Records the column mask of every exact Python-integer recomputation."""
    seen = []
    exact = bfv._exact_columns

    def spy(x, mask, primes):
        seen.append(mask.tolist())
        return exact(x, mask, primes)

    monkeypatch.setattr(bfv, "_exact_columns", spy)
    return seen


class TestExactRounding:
    """The int64/float64 lift and scale-and-round on crafted columns, against
    Python integers. Float sums near a rounding boundary must take the exact
    fallback; columns away from every boundary (w_q near 0 or near q) must
    come out exact without it."""

    def test_lift_at_the_centering_boundary(self, params8192, fallback):
        qp, q = params8192.q_primes, params8192.q
        pp = bfv._mul_basis(params8192.n, qp)[len(qp) :]
        boundary = [(q - 1) // 2 - j for j in range(4)] + [(q + 1) // 2 + j for j in range(4)]
        xs = boundary + [0, 1, q - 1]
        got = bfv._extend(_residues(xs, qp), bfv._conversion(qp, pp))
        centered = [x - q if x > q // 2 else x for x in xs]
        assert np.array_equal(got, _residues(centered, pp))
        assert fallback == [[x in boundary for x in xs]]

    @pytest.mark.parametrize("case", ["centering", "half"])
    def test_scale_round(self, params8192, fallback, case):
        n, qp, q, t = params8192.n, params8192.q_primes, params8192.q, params8192.t
        basis = bfv._mul_basis(n, qp)
        if case == "centering":
            boundary = [(q - 1) // 2, (q + 1) // 2]
        else:  # t w_q / q just below and just above m + 1/2
            ms = (0, 1, t // 2, t - 1)
            boundary = [(2 * m + 1) * q // (2 * t) + d for m in ms for d in (0, 1)]
        w_q = boundary + [0, 1, q - 1, q - 2]
        hs = [0, 3, -3, n * q // 4, -(n * q // 4)]
        ws = [x + q * h for h in hs for x in w_q]
        got = bfv._scale_round(_residues(ws, basis), basis, len(qp), t)
        want = [(2 * t * w + q) // (2 * q) for w in ws]
        assert np.array_equal(got, _residues(want, qp))
        assert fallback == [[x in boundary for _ in hs for x in w_q]]

    def test_decrypt_rounds_exactly(self, params8192, keys8192, fallback):
        sk = keys8192[0]
        n, qp, q, t = params8192.n, params8192.q_primes, params8192.q, params8192.t
        # t is odd, so t (q - 1) / 2q lies just below t / 2, a half-integer.
        boundary = [(2 * m + 1) * q // (2 * t) + d for m in (0, 5, t - 1) for d in (0, 1)]
        boundary.append((q - 1) // 2)
        xs = boundary + [0, 1, q - 1]
        c0 = _residues(xs + [0] * (n - len(xs)), qp)
        ct = bfv.HeCiphertext(params8192, t, (c0, np.zeros_like(c0)), params8192.fresh_noise_log2())
        got = bfv.decrypt(sk, ct).poly[: len(xs)]
        assert list(got) == [(2 * t * x + q) // (2 * q) % t for x in xs]
        (mask,) = fallback
        assert mask[: len(xs)] == [x in boundary for x in xs] and not any(mask[len(xs) :])

    def test_wide_plaintext_modulus_takes_the_exact_path(self, params4096, keys4096, fallback):
        t = find_ntt_primes(34, 4096)[0]  # t y_i may overflow int64
        params = bfv.HeParams(n=4096, q_primes=params4096.q_primes, t=t)
        sk, pk, rk = bfv.keygen(params, seed=5)
        rng = np.random.default_rng(6)
        a = bfv.encrypt(pk, bfv.encode_scalar(123456789, params), rng)
        b = bfv.encrypt(pk, bfv.encode_scalar(987654321, params), rng)
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(a, b, rk))) == 123456789 * 987654321 % t
        assert fallback and all(all(mask) for mask in fallback)


class TestParams:
    def test_defaults_valid(self, params4096, params8192):
        assert params4096.n == 4096 and params8192.n == 8192
        assert params4096.fresh_budget() > 0
        assert bfv.batch_decode(bfv.batch_encode([1, 2], params8192), 2) == [1, 2]

    def test_invalid_degree(self):
        with pytest.raises(bfv.HeParamsError):
            bfv.HeParams(n=3000, q_primes=(1032193,), t=17)

    def test_t_at_least_two_below_q(self, params4096):
        with pytest.raises(bfv.HeParamsError):
            bfv.HeParams(n=4096, q_primes=params4096.q_primes, t=params4096.q + 1)

    def test_param_hash_stable(self, params4096):
        again = bfv.HeParams(
            n=4096, q_primes=params4096.q_primes, t=params4096.t
        )
        assert again.param_hash == params4096.param_hash


class TestKeygenRoundTrip:
    def test_zero_roundtrip(self, params4096, keys4096):
        sk, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(0, params4096))
        assert bfv.decode_scalar(bfv.decrypt(sk, ct)) == 0

    def test_hundred_random_roundtrips(self, params4096, keys4096):
        sk, pk, _ = keys4096
        rng = np.random.default_rng(2)
        prng = random.Random(2)
        for _ in range(100):
            m = prng.randrange(params4096.t)
            ct = bfv.encrypt(pk, bfv.encode_scalar(m, params4096), rng)
            assert bfv.decode_scalar(bfv.decrypt(sk, ct)) == m

    def test_keygen_deterministic_under_seed(self, params4096):
        sk1, pk1, rk1 = bfv.keygen(params4096, seed=99)
        sk2, pk2, rk2 = bfv.keygen(params4096, seed=99)
        assert np.array_equal(sk1.s_coeff, sk2.s_coeff)
        assert bfv.public_key_to_bytes(pk1) == bfv.public_key_to_bytes(pk2)
        assert bfv.relin_key_to_bytes(rk1) == bfv.relin_key_to_bytes(rk2)

    def test_keygen_without_relin_key_keeps_sk_and_pk(self, params4096):
        sk1, pk1, rk1 = bfv.keygen(params4096, seed=99)
        sk2, pk2, rk2 = bfv.keygen(params4096, seed=99, relin=False)
        assert rk1 is not None and rk2 is None
        assert np.array_equal(sk1.s_coeff, sk2.s_coeff)
        assert bfv.public_key_to_bytes(pk1) == bfv.public_key_to_bytes(pk2)

    def test_encryption_randomized(self, params4096, keys4096):
        _, pk, _ = keys4096
        pt = bfv.encode_scalar(5, params4096)
        c1 = bfv.encrypt(pk, pt)
        c2 = bfv.encrypt(pk, pt)
        assert bfv.ciphertext_to_bytes(c1) != bfv.ciphertext_to_bytes(c2)


class TestHomomorphicOps:
    def test_square_equals_product_with_a_copy(self, params4096, keys4096):
        # he_mul(a, a) transforms a's polynomials once and forms
        # (f0^2, 2 f0 f1, f1^2); the bytes match the general product.
        sk, pk, rk = keys4096
        a = bfv.encrypt(pk, bfv.encode_scalar(1234, params4096), np.random.default_rng(9))
        copy = bfv.HeCiphertext(a.params, a.t, tuple(x.copy() for x in a.polys), a.noise_log2)
        square = bfv.he_mul(a, a, rk)
        assert bfv.ciphertext_to_bytes(square) == bfv.ciphertext_to_bytes(bfv.he_mul(a, copy, rk))
        assert bfv.decode_scalar(bfv.decrypt(sk, square)) == 1234 * 1234 % params4096.t

    def test_add_examples(self, params4096, keys4096):
        sk, pk, _ = keys4096
        rng = np.random.default_rng(3)
        c3 = bfv.encrypt(pk, bfv.encode_scalar(3, params4096), rng)
        c4 = bfv.encrypt(pk, bfv.encode_scalar(4, params4096), rng)
        c0 = bfv.encrypt(pk, bfv.encode_scalar(0, params4096), rng)
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_add(c3, c4))) == 7
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_add(c3, c0))) == 3

    def test_mul_examples(self, params4096, keys4096):
        sk, pk, rk = keys4096
        rng = np.random.default_rng(4)
        c3 = bfv.encrypt(pk, bfv.encode_scalar(3, params4096), rng)
        c5 = bfv.encrypt(pk, bfv.encode_scalar(5, params4096), rng)
        c1 = bfv.encrypt(pk, bfv.encode_scalar(1, params4096), rng)
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(c3, c5, rk))) == 15
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(c3, c1, rk))) == 3

    def test_random_add_mul_against_native(self, params4096, keys4096):
        sk, pk, rk = keys4096
        rng = np.random.default_rng(5)
        prng = random.Random(5)
        t = params4096.t
        for _ in range(10):
            ma, mb = prng.randrange(t), prng.randrange(t)
            ca = bfv.encrypt(pk, bfv.encode_scalar(ma, params4096), rng)
            cb = bfv.encrypt(pk, bfv.encode_scalar(mb, params4096), rng)
            assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_add(ca, cb))) == (ma + mb) % t
            assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(ca, cb, rk))) == (ma * mb) % t

    def test_sum_of_hundred_ones(self, params4096, keys4096):
        sk, pk, _ = keys4096
        rng = np.random.default_rng(6)
        one = bfv.encode_scalar(1, params4096)
        acc = bfv.encrypt(pk, one, rng)
        for _ in range(99):
            acc = bfv.he_add(acc, bfv.encrypt(pk, one, rng))
        assert bfv.decode_scalar(bfv.decrypt(sk, acc)) == 100 % params4096.t

    def test_sub_and_plain_ops(self, params4096, keys4096):
        sk, pk, _ = keys4096
        rng = np.random.default_rng(7)
        c9 = bfv.encrypt(pk, bfv.encode_scalar(9, params4096), rng)
        c4 = bfv.encrypt(pk, bfv.encode_scalar(4, params4096), rng)
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_sub(c9, c4))) == 5
        pt7 = bfv.encode_scalar(7, params4096)
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul_plain(c9, pt7))) == 63
        assert bfv.decode_scalar(bfv.decrypt(sk, bfv.he_add_plain(c9, pt7))) == 16

    def test_params_mismatch_rejected(self, params4096, params8192, keys4096, keys8192):
        _, pk4, _ = keys4096
        _, pk8, _ = keys8192
        a = bfv.encrypt(pk4, bfv.encode_scalar(1, params4096))
        b = bfv.encrypt(pk8, bfv.encode_scalar(1, params8192))
        with pytest.raises(bfv.HeParamsError):
            bfv.he_add(a, b)


class TestDepthAndBudget:
    def test_depth3_chain_at_8192(self, params8192, keys8192):
        sk, pk, rk = keys8192
        rng = np.random.default_rng(8)
        t = params8192.t
        vals = [123457, 54321, 77, 991]
        cts = [bfv.encrypt(pk, bfv.encode_scalar(v, params8192), rng) for v in vals]
        prod = cts[0]
        for c in cts[1:]:
            prod = bfv.he_mul(prod, c, rk)
        expected = 1
        for v in vals:
            expected = expected * v % t
        assert bfv.decode_scalar(bfv.decrypt(sk, prod)) == expected
        assert bfv.noise_budget(sk, prod) > 0

    def test_budget_strictly_decreases_under_mul(self, params8192, keys8192):
        sk, pk, rk = keys8192
        rng = np.random.default_rng(9)
        c = bfv.encrypt(pk, bfv.encode_scalar(2, params8192), rng)
        d = bfv.encrypt(pk, bfv.encode_scalar(3, params8192), rng)
        b0 = bfv.noise_budget(sk, c)
        prod = bfv.he_mul(c, d, rk)
        b1 = bfv.noise_budget(sk, prod)
        assert b1 < min(b0, bfv.noise_budget(sk, d))

    def test_budget_curve_and_exhaustion(self, params4096, keys4096):
        # multiply until the eager estimate trips; the measured curve must be
        # strictly decreasing and roughly linear per level
        sk, pk, rk = keys4096
        rng = np.random.default_rng(10)
        c = bfv.encrypt(pk, bfv.encode_scalar(2, params4096), rng)
        budgets = [bfv.noise_budget(sk, c)]
        with pytest.raises(bfv.DecryptionFailure):
            for _ in range(10):
                c = bfv.he_mul(c, bfv.encrypt(pk, bfv.encode_scalar(1, params4096), rng), rk)
                budgets.append(bfv.noise_budget(sk, c))
        print(f"budget curve: {budgets}")
        assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))
        drops = [b1 - b2 for b1, b2 in zip(budgets, budgets[1:])]
        assert max(drops) <= 2.5 * min(drops)

    def test_estimate_is_conservative(self, params4096, keys4096):
        sk, pk, rk = keys4096
        rng = np.random.default_rng(11)
        a = bfv.encrypt(pk, bfv.encode_scalar(11, params4096), rng)
        b = bfv.encrypt(pk, bfv.encode_scalar(13, params4096), rng)
        prod = bfv.he_mul(a, b, rk)
        assert prod.budget_estimate <= bfv.noise_budget(sk, prod)


class TestModSwitch:
    """mod_switch keeps the first k of q's primes; switch_noise_log2 is its
    noise rule, shared with the computation planner."""

    def test_switched_product_decrypts_within_its_estimate(self, params8192, keys8192):
        sk, pk, rk = keys8192
        rng = np.random.default_rng(21)
        t = params8192.t
        va, vb = [rng.integers(t) for _ in range(64)], [rng.integers(t) for _ in range(64)]
        ca = bfv.encrypt(pk, bfv.batch_encode(va, params8192), rng)
        cb = bfv.encrypt(pk, bfv.batch_encode(vb, params8192), rng)
        prod = bfv.he_mul(bfv.he_mul(ca, cb, rk), ca, rk)
        want = [int(x) * int(y) * int(x) % t for x, y in zip(va, vb)]
        # Each product settled one prime lower; a switch takes the rest.
        assert prod.primes == params8192.q_primes[:4]
        for k in (2, 3, 4):
            sw = bfv.mod_switch(prod, k)
            assert sw.primes == params8192.q_primes[:k]
            assert bfv.batch_decode(bfv.decrypt(sk, sw), 64) == want
            assert 0 < sw.budget_estimate <= bfv.noise_budget(sk, sw)

    def test_switch_rounds_exactly(self, params4096, keys4096):
        # c' = round(c q'/q) mod q' per coefficient, from the integers c in
        # [0, q) rebuilt in Python; ties (c/D half-integral) cannot occur,
        # since D is odd. Dropping one prime (k = 3) takes its own path.
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(9, params4096), np.random.default_rng(22))
        primes, q = params4096.q_primes, params4096.q
        for k in (2, 3):
            d = math.prod(primes[k:])
            sw = bfv.mod_switch(ct, k)
            for poly, out in zip(ct.polys, sw.polys):
                for j in range(0, params4096.n, 97):
                    residues = zip(map(int, poly[:, j]), primes)
                    c = sum(r * (q // p) * pow(q // p, -1, p) for r, p in residues) % q
                    c_new = (2 * c + d) // (2 * d)
                    assert [int(x) for x in out[:, j]] == [c_new % p for p in primes[:k]]

    def test_noise_rule(self, params8192):
        n, t, primes = params8192.n, params8192.t, params8192.q_primes
        assert bfv.switch_noise_log2(params8192, t, 140.0, len(primes)) == 140.0
        dropped = sum(math.log2(p) for p in primes[2:])
        want = math.log2(2 ** (140.0 - dropped) + t + (1 + n) / 2)
        assert bfv.switch_noise_log2(params8192, t, 140.0, 2) == pytest.approx(want)

    def test_all_primes_is_no_switch_and_the_count_is_checked(self, params4096, keys4096):
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(3, params4096))
        assert bfv.mod_switch(ct, len(params4096.q_primes)) is ct
        for k in (0, len(params4096.q_primes) + 1):
            with pytest.raises(bfv.HeParamsError):
                bfv.mod_switch(ct, k)

    def test_switch_without_budget_rejected(self, params4096, keys4096):
        # One 27-bit prime leaves log2(p/2t) = 10 bits, below t = 2^16.
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(3, params4096))
        with pytest.raises(bfv.NoiseBudgetExhausted):
            bfv.mod_switch(ct, 1)

    def test_switched_ciphertext_takes_every_op(self, params4096, keys4096):
        # A switched ciphertext is an ordinary operand; the other operand
        # meets it at its 3 primes. Only a count outside 1 up to the primes
        # it holds is rejected.
        sk, pk, rk = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(3, params4096))
        sw = bfv.mod_switch(ct, 3)
        pt = bfv.encode_scalar(2, params4096)
        for got, want in (
            (bfv.he_add(sw, ct), 6),
            (bfv.he_sub(ct, sw), 0),
            (bfv.he_add(sw, sw), 6),
            (bfv.he_mul(sw, sw, rk), 9),
            (bfv.he_mul_plain(sw, pt), 6),
            (bfv.he_add_plain(sw, pt), 5),
            (bfv.mod_switch(sw, 2), 3),
        ):
            assert len(got.primes) <= 3
            assert bfv.decode_scalar(bfv.decrypt(sk, got)) == want
        for c, k in ((ct, 0), (ct, 5), (sw, 0), (sw, 4), (sw, 5)):
            with pytest.raises(bfv.HeParamsError, match=f"cannot switch to {k} of {len(c.primes)}"):
                bfv.mod_switch(c, k)

    @pytest.mark.parametrize("c", [0, 1000, 3841, -7, "t-1"])
    def test_constant_plaintext_multiply_takes_no_transform(
        self, params8192, keys8192, monkeypatch, c
    ):
        # Each residue row times c mod p_i equals the transform route
        # bit for bit, and the noise rule is the plaintext multiply's.
        _, pk, _ = keys8192
        c = params8192.t - 1 if c == "t-1" else c
        ct = bfv.encrypt(pk, bfv.batch_encode([5, 6, 7], params8192), np.random.default_rng(23))
        pt = bfv.encode_scalar(c, params8192)
        plan = params8192.ntt
        q = plan.mod
        m_ntt = plan.forward(pt.centered() % q)
        want = [plan.inverse(dot_mod((plan.forward(x),), (m_ntt,), q)) for x in ct.polys]

        def no_transform(*args):
            raise AssertionError("a constant multiply ran a transform")

        monkeypatch.setattr(NttPlan, "forward", no_transform)
        monkeypatch.setattr(NttPlan, "inverse", no_transform)
        got = CiphertextOps(params8192, params8192.t, None).mul_const(ct, c)
        assert all(np.array_equal(a, b) for a, b in zip(got.polys, want))
        t = params8192.t
        assert got.noise_log2 == bfv.plain_mul_noise_log2(ct.noise_log2, bfv.centered_l1([c], t), t)


class TestLevels:
    """he_mul takes a*b or a*b - c*d with one relinearization under any
    leading prefix of the key's primes, and settles its result."""

    @pytest.fixture(scope="class")
    def operands(self, params8192, keys8192):
        _, pk, _ = keys8192
        rng = np.random.default_rng(31)
        t = params8192.t
        values = [[int(v) for v in rng.integers(t, size=32)] for _ in range(4)]
        cts = [bfv.encrypt(pk, bfv.batch_encode(v, params8192), rng) for v in values]
        return values, cts

    @pytest.mark.parametrize("k", [6, 5, 4])
    def test_difference_of_products_decrypts_exactly(self, params8192, keys8192, operands, k):
        sk, _, rk = keys8192
        (va, vb, vc, vd), cts = operands
        a, b, c, d = (bfv.mod_switch(x, k) for x in cts)
        got = bfv.he_mul(a, b, rk, minus=(c, d))
        t = params8192.t
        want = [(w * x - y * z) % t for w, x, y, z in zip(va, vb, vc, vd)]
        assert bfv.batch_decode(bfv.decrypt(sk, got), 32) == want
        assert 0 < got.budget_estimate <= bfv.noise_budget(sk, got)
        est = bfv.mul_noise_log2(
            params8192, t, k, [(a.noise_log2, b.noise_log2), (c.noise_log2, d.noise_log2)]
        )
        assert len(got.primes) == bfv.settle_primes(params8192, t, est, k) < k

    def test_multiply_basis_holds_a_difference_of_products(self, params4096, params8192):
        # |a*b - c*d| < n q^2 for centered operands, so the whole basis
        # exceeds 2 n q^2 under every prefix; at n=4096 under all 4 primes
        # that takes one more extension prime than a single product.
        for params in (params4096, params8192):
            for k in range(1, len(params.q_primes) + 1):
                primes = params.q_primes[:k]
                q = math.prod(primes)
                basis = bfv._mul_basis(params.n, primes)
                assert basis[:k] == primes and math.prod(basis) > 2 * params.n * q * q

    def test_prefix_square_relinearizes_with_the_sliced_key(self, params8192, keys8192):
        # The key rows encrypt (q/p_i) s^2 for the full q, so the digits of
        # a 5-prime product take the full q's q_hat_i^-1 mod p_i; the
        # prefix's own constants would decrypt to garbage.
        sk, pk, rk = keys8192
        x = bfv.encrypt(pk, bfv.encode_scalar(1234, params8192), np.random.default_rng(32))
        x5 = bfv.mod_switch(x, 5)
        square = bfv.he_mul(x5, x5, rk)
        assert bfv.decode_scalar(bfv.decrypt(sk, square)) == 1234 * 1234 % params8192.t
        assert 0 < square.budget_estimate <= bfv.noise_budget(sk, square)

    def test_operands_at_different_prefixes_are_aligned(self, params8192, keys8192, operands):
        # The operand holding more primes is switched down first: the result
        # is the one from switching it by hand.
        _, _, rk = keys8192
        _, (a, b, c, d) = operands
        b4, c5 = bfv.mod_switch(b, 4), bfv.mod_switch(c, 5)
        cases = (
            (bfv.he_add(a, b4), bfv.he_add(bfv.mod_switch(a, 4), b4)),
            (bfv.he_sub(c5, a), bfv.he_sub(c5, bfv.mod_switch(a, 5))),
            (
                bfv.he_mul(a, c5, rk, minus=(b4, d)),
                bfv.he_mul(*(bfv.mod_switch(x, 4) for x in (a, c5)), rk,
                           minus=(b4, bfv.mod_switch(d, 4))),
            ),
        )
        for got, want in cases:
            assert bfv.ciphertext_to_bytes(got) == bfv.ciphertext_to_bytes(want)

    def test_settling_loses_less_than_a_bit(self, params8192):
        # Dropping a prime costs about nothing while the scaled noise is far
        # above t and (1 + n)/2, and a switch further down costs more than
        # a bit: 60 bits under 6 primes settle to 5, 90 bits to 4.
        t = params8192.t
        for v, j in ((60.0, 5), (90.0, 4), (20.0, 6)):
            assert bfv.settle_primes(params8192, t, v, 6) == j
            budget = params8192.budget_capacity(t, 6) - v
            after = params8192.budget_capacity(t, j) - bfv.switch_noise_log2(params8192, t, v, j)
            assert budget - 1 < after <= budget
            if j > 1:
                below = bfv.switch_noise_log2(params8192, t, v, j - 1)
                assert params8192.budget_capacity(t, j - 1) - below <= budget - 1


class TestBatching:
    def test_encode_decode_identity(self, params8192):
        values = list(range(1, 17))
        pt = bfv.batch_encode(values, params8192)
        assert bfv.batch_decode(pt, 16) == values

    def test_slotwise_products(self, params8192, keys8192):
        sk, pk, rk = keys8192
        rng = np.random.default_rng(12)
        prng = random.Random(12)
        t = params8192.t
        va = [prng.randrange(t) for _ in range(100)]
        vb = [prng.randrange(t) for _ in range(100)]
        ca = bfv.encrypt(pk, bfv.batch_encode(va, params8192), rng)
        cb = bfv.encrypt(pk, bfv.batch_encode(vb, params8192), rng)
        got = bfv.batch_decode(bfv.decrypt(sk, bfv.he_mul(ca, cb, rk)), 100)
        assert got == [(x * y) % t for x, y in zip(va, vb)]

    def test_slot0_matches_scalar_path(self, params8192, keys8192):
        sk, pk, rk = keys8192
        rng = np.random.default_rng(13)
        t = params8192.t
        ma, mb = 31415, 92653
        sa = bfv.encrypt(pk, bfv.encode_scalar(ma, params8192), rng)
        sb = bfv.encrypt(pk, bfv.encode_scalar(mb, params8192), rng)
        scalar = bfv.decode_scalar(bfv.decrypt(sk, bfv.he_mul(sa, sb, rk)))
        ba = bfv.encrypt(pk, bfv.batch_encode([ma], params8192), rng)
        bb = bfv.encrypt(pk, bfv.batch_encode([mb], params8192), rng)
        slot0 = bfv.batch_decode(bfv.decrypt(sk, bfv.he_mul(ba, bb, rk)), 1)[0]
        assert slot0 == scalar == (ma * mb) % t

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(data=st.data())
    def test_plaintext_product_multiplies_slots(self, params4096, data):
        # For any two slot vectors, the negacyclic product of their
        # encodings (np.convolve, exact in int64 here) decodes to the
        # slotwise product: the slot order is the same on both sides.
        n, t = params4096.n, params4096.t
        vec = st.lists(st.integers(-(1 << 40), 1 << 40), max_size=n)
        v, w = data.draw(vec), data.draw(vec)
        pv = bfv.batch_encode(v, params4096).poly
        pw = bfv.batch_encode(w, params4096).poly
        full = np.convolve(pv, pw)
        prod = (full[:n] - np.append(full[n:], 0)) % t
        got = bfv.batch_decode(bfv.HePlaintext(prod, t))
        v, w = v + [0] * (n - len(v)), w + [0] * (n - len(w))
        assert got == [x * y % t for x, y in zip(v, w)]

    def test_incompatible_modulus_rejected(self, params8192):
        with pytest.raises(bfv.HeParamsError):
            bfv.batch_encode([1, 2, 3], params8192, t=12289)  # 12288 % 16384 != 0

    def test_too_many_values(self, params4096):
        with pytest.raises(bfv.HeParamsError):
            bfv.batch_encode(list(range(params4096.n + 1)), params4096)


class TestSerialization:
    def test_ciphertext_roundtrip(self, params4096, keys4096):
        sk, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(777, params4096))
        back = bfv.ciphertext_from_bytes(bfv.ciphertext_to_bytes(ct), params4096)
        assert bfv.decode_scalar(bfv.decrypt(sk, back)) == 777

    def test_key_roundtrips(self, params4096, keys4096):
        sk, pk, rk = keys4096
        pk2 = bfv.public_key_from_bytes(bfv.public_key_to_bytes(pk), params4096)
        rk2 = bfv.relin_key_from_bytes(bfv.relin_key_to_bytes(rk), params4096)
        ct = bfv.encrypt(pk2, bfv.encode_scalar(42, params4096))
        prod = bfv.he_mul(ct, bfv.encrypt(pk2, bfv.encode_scalar(2, params4096)), rk2)
        assert bfv.decode_scalar(bfv.decrypt(sk, prod)) == 84

    def test_wrong_params_detected(self, params4096, params8192, keys4096):
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(1, params4096))
        blob = bfv.ciphertext_to_bytes(ct)
        with pytest.raises(bfv.HeParamsError):
            bfv.ciphertext_from_bytes(blob, params8192)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """SHA-256 of key and ciphertext bytes under fixed seeds, recorded from
    the per-prime residue layout that the (k, n) residue arrays replaced.
    The he_mul_plain digest was re-recorded when the plaintext-multiply
    noise rule became |p|_1 * (v + t): only its 8-byte noise field moved.
    The ciphertext digests were re-recorded for ciphertext version 2: each
    blob is the version 1 blob with byte 4 set to 2 and the part-count,
    level and encoding bytes (26, 35 and 36) removed. Every digest was
    re-recorded for ciphertext version 3 and key version 2: each blob is
    the previous one with its version byte (byte 4) raised by one and the
    same residues packed as little-endian uint32 instead of int64. The
    public and relinearization key digests, and with them every ciphertext
    digest (each encrypts under the public key), were re-recorded for key
    version 3, whose uniform halves come from a 32-byte seed: the secret
    key digest, recorded before that change, did not move. The ciphertext
    digests were re-recorded for ciphertext version 4, whose header k counts
    the leading primes a (modulus-switched) ciphertext holds: each blob is
    the version 3 blob with byte 4 set to 4. The he_mul_plain blob, whose
    constant plaintext now takes no transform, did not move otherwise. The
    he_mul digest was re-recorded when every product began to settle to
    the fewest primes that lose less than a bit of budget: the blob is the
    previous product modulus-switched from 4 to 3 primes, bit for bit
    (noise field included). The secret key has no codec: its digest is of
    its coefficients as int8 bytes, the old secret-key blob without its
    17-byte header."""

    def test_keys(self, keys4096):
        sk, pk, rk = keys4096
        assert _sha(sk.s_coeff.astype("<i1").tobytes()) == (
            "7e6fc472c653669dad7f47d45131ca688b015f8efb7ec4d2f4e86071666a029c"
        )
        assert _sha(bfv.public_key_to_bytes(pk)) == (
            "5dd39c644db02e667288e6ac5f8c0916601732ecabb9e486912b3a208b206d3a"
        )
        assert _sha(bfv.relin_key_to_bytes(rk)) == (
            "2e225243f0e8f402f35e4cdab1204fe3791dd01598440b467649db8456c83296"
        )

    def test_batch_encode(self, params4096, params8192):
        # Recorded when the slot permutation moved out of the transforms and
        # into batch_encode/batch_decode: the polynomials did not change.
        got = {}
        for params in (params4096, params8192):
            values = [(i * 7919) % 2001 - 1000 for i in range(params.n)]
            got[params.n] = _sha(bfv.batch_encode(values, params).poly.astype("<i8").tobytes())
        assert got == {
            4096: "19f5423fc0969b89ff5e30197226336686fb9d8496581b98712749bd90b372ba",
            8192: "039ead503e030dac33b849a765eff082592939b0dbe4c2bba228ebcbfc8721bf",
        }

    def test_ciphertexts(self, params4096, keys4096):
        _, pk, rk = keys4096
        rng = np.random.default_rng(2024)
        a = bfv.encrypt(pk, bfv.encode_scalar(1234, params4096), rng)
        b = bfv.encrypt(pk, bfv.encode_scalar(4321, params4096), rng)
        got = {
            "encrypt": a,
            "he_add": bfv.he_add(a, b),
            "he_sub": bfv.he_sub(a, b),
            "he_mul_plain": bfv.he_mul_plain(a, bfv.encode_scalar(77, params4096)),
            "he_mul": bfv.he_mul(a, b, rk),
        }
        assert {k: _sha(bfv.ciphertext_to_bytes(v)) for k, v in got.items()} == {
            "encrypt": "77c1a2ae5915ede57ceb84284e0e79b6676c05c0cd1d23b3a3b5144d75677a2f",
            "he_add": "20880f7d59c5a6237c092322f2364d747ebd8cd6db3f1b2505a8e65efb851d99",
            "he_sub": "c2f13f206c35cc423915a9c660d9f7e144349de6e4d6c83dc5cf99e6f4145b38",
            "he_mul_plain": "ad0b30e60bbc7649f8e8bc0c4a7b0db91be9e2e0ad8516419af12ad23d43a23e",
            "he_mul": "0dc7734eec239c006ca5e5962547762800a8d97db0fbb2ba9b0c8c899a820b5b",
        }


class TestSeededKeys:
    """Key version 3: each key blob carries a 32-byte seed in place of its
    uniform a halves, which :func:`bfv._expand_uniform` rebuilds."""

    def test_expansion_pinned(self, params4096):
        a = bfv._expand_uniform(bytes(32), 0, 4096, params4096.q_primes)
        assert _sha(a.astype("<u4").tobytes()) == (
            "acb1ff5f0a8e555a5bd1b298135b25341dec9669f1ed79ef5ce1939ab8beac64"
        )

    def test_expansion_rule(self, params4096):
        # Row i: the words of SHAKE-128(seed, half, i), masked to p_i's
        # bit length, that fall below p_i.
        seed, primes = bytes(range(32)), params4096.q_primes
        a = bfv._expand_uniform(seed, 2, 64, primes)
        for i, p in enumerate(primes):
            stream = hashlib.shake_128(seed + bytes((2, i))).digest(4 * 256)
            words = [int.from_bytes(stream[j : j + 4], "little") for j in range(0, len(stream), 4)]
            masked = [w & ((1 << p.bit_length()) - 1) for w in words]
            assert a[i].tolist() == [w for w in masked if w < p][:64]

    def test_residues_below_their_primes(self, params8192):
        for half in range(3):
            a = bfv._expand_uniform(b"\x07" * 32, half, params8192.n, params8192.q_primes)
            assert a.shape == (len(params8192.q_primes), params8192.n)
            assert (a >= 0).all() and (a < params8192.ntt.mod).all()

    def test_halves_of_one_key_differ(self, keys4096):
        _, pk, rk = keys4096
        halves = [pk.pk1_ntt] + [a for _, a in rk.pairs]
        rows = {row.tobytes() for half in halves for row in half}
        assert len(rows) == len(halves) * len(halves[0])
        assert pk.seed != rk.seed

    def test_decoded_keys_equal_keygen(self, params4096, keys4096):
        _, pk, rk = keys4096
        pk2 = bfv.public_key_from_bytes(bfv.public_key_to_bytes(pk), params4096)
        rk2 = bfv.relin_key_from_bytes(bfv.relin_key_to_bytes(rk), params4096)
        assert pk2.seed == pk.seed and rk2.seed == rk.seed
        assert np.array_equal(pk2.pk0_ntt, pk.pk0_ntt)
        assert np.array_equal(pk2.pk1_ntt, pk.pk1_ntt)
        assert len(rk2.pairs) == len(rk.pairs)
        for (b2, a2), (b, a) in zip(rk2.pairs, rk.pairs):
            assert np.array_equal(b2, b) and np.array_equal(a2, a)

    def test_blob_lengths(self, params4096, keys4096):
        _, pk, rk = keys4096
        n, k = params4096.n, len(params4096.q_primes)
        assert len(bfv.public_key_to_bytes(pk)) == 50 + k * n * 4
        assert len(bfv.relin_key_to_bytes(rk)) == 50 + k * k * n * 4

    def test_seed_travels_in_the_header(self, params4096, keys4096):
        _, pk, rk = keys4096
        for blob, key, decode in (
            (bfv.public_key_to_bytes(pk), pk, bfv.public_key_from_bytes),
            (bfv.relin_key_to_bytes(rk), rk, bfv.relin_key_from_bytes),
        ):
            assert blob[18:50] == key.seed
            for cut in (18, 34, 49):
                with pytest.raises(bfv.HeParamsError, match="header"):
                    decode(blob[:cut], params4096)


class TestMalformedBlobs:
    """Every key and ciphertext decoder reads one exact-length buffer and
    raises HeParamsError on anything else."""

    @pytest.fixture(scope="class")
    def blobs(self, params4096, keys4096):
        _, pk, rk = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(5, params4096), np.random.default_rng(1))
        return {
            bfv.ciphertext_from_bytes: (bfv.ciphertext_to_bytes(ct), 34),
            bfv.public_key_from_bytes: (bfv.public_key_to_bytes(pk), 50),
            bfv.relin_key_from_bytes: (bfv.relin_key_to_bytes(rk), 50),
        }

    def test_truncations_and_trailing_byte(self, params4096, blobs):
        for decode, (blob, head) in blobs.items():
            decode(blob, params4096)
            for cut in (0, 3, head - 1, head, head + 1, len(blob) - 8, len(blob) - 1):
                with pytest.raises(bfv.HeParamsError):
                    decode(blob[:cut], params4096)
            with pytest.raises(bfv.HeParamsError):
                decode(blob + b"\x00", params4096)

    @pytest.mark.parametrize("value", ["prime", 2**62, -1])
    def test_residue_out_of_range(self, params4096, blobs, value):
        for decode, (blob, head) in blobs.items():
            residue = params4096.q_primes[0] if value == "prime" else value
            bad = blob[:head] + residue.to_bytes(8, "little", signed=True) + blob[head + 8 :]
            with pytest.raises(bfv.HeParamsError):
                decode(bad, params4096)

    @pytest.mark.parametrize("first", [True, False])
    def test_four_byte_residue_at_or_above_its_prime(self, params4096, blobs, first):
        # Residues travel as little-endian uint32; the first residue is
        # checked against the first prime, the last against the last.
        prime = params4096.q_primes[0 if first else -1]
        for decode, (blob, head) in blobs.items():
            at = head if first else len(blob) - 4
            for residue in (prime, 0xFFFFFFFF):
                bad = blob[:at] + residue.to_bytes(4, "little") + blob[at + 4 :]
                with pytest.raises(bfv.HeParamsError, match="out of range"):
                    decode(bad, params4096)

    def test_previous_versions_rejected(self, params4096, blobs):
        # Ciphertext version 3 held all K primes whatever its header k said;
        # key version 2 sent the uniform halves in place of their seed.
        for decode, old in (
            (bfv.ciphertext_from_bytes, 3),
            (bfv.public_key_from_bytes, 2),
            (bfv.relin_key_from_bytes, 2),
        ):
            blob, _ = blobs[decode]
            assert blob[4] == old + 1
            with pytest.raises(bfv.HeParamsError, match=f"version {old}"):
                decode(blob[:4] + bytes([old]) + blob[5:], params4096)

    @pytest.fixture(scope="class")
    def switched(self, params4096, keys4096):
        """A ciphertext under the first 2 of the 4 primes, and its blob."""
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(5, params4096), np.random.default_rng(2))
        sw = bfv.mod_switch(ct, 2)
        return sw, bfv.ciphertext_to_bytes(sw)

    def test_prime_count_travels_in_the_header(self, params4096, keys4096, switched):
        ct, blob = switched
        assert blob[25] == 2 and len(blob) == 34 + 2 * 2 * params4096.n * 4
        back = bfv.ciphertext_from_bytes(blob, params4096)
        assert back.primes == params4096.q_primes[:2]
        assert back.noise_log2 == ct.noise_log2
        assert all(np.array_equal(a, b) for a, b in zip(back.polys, ct.polys))
        assert bfv.decode_scalar(bfv.decrypt(keys4096[0], back)) == 5

    @pytest.mark.parametrize("k", [0, 5, 255])
    def test_prime_count_outside_one_to_k_rejected(self, params4096, switched, k):
        _, blob = switched
        with pytest.raises(bfv.HeParamsError):
            bfv.ciphertext_from_bytes(blob[:25] + bytes([k]) + blob[26:], params4096)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_body_sized_for_another_prime_count_rejected(self, params4096, switched, k):
        # A 2-prime body under a header claiming k primes, and a 2-prime
        # header over a body of k primes' rows.
        _, blob = switched
        n = params4096.n
        with pytest.raises(bfv.HeParamsError, match="body"):
            bfv.ciphertext_from_bytes(blob[:25] + bytes([k]) + blob[26:], params4096)
        rows = np.zeros((2, k, n), dtype="<u4").tobytes()
        with pytest.raises(bfv.HeParamsError, match="body"):
            bfv.ciphertext_from_bytes(blob[:34] + rows, params4096)

    def test_last_kept_row_checked_against_its_own_prime(self, params4096, switched):
        # The last residue belongs to row 1, whose prime p_1 lies below p_0:
        # p_1 - 1 decodes, and p_1 is out of range although below p_0.
        _, blob = switched
        p0, p1 = params4096.q_primes[:2]
        assert p1 < p0
        at = len(blob) - 4
        bfv.ciphertext_from_bytes(blob[:at] + (p1 - 1).to_bytes(4, "little"), params4096)
        with pytest.raises(bfv.HeParamsError, match="out of range"):
            bfv.ciphertext_from_bytes(blob[:at] + p1.to_bytes(4, "little"), params4096)

    def test_header_fields_checked(self, params4096, blobs):
        ct_blob, _ = blobs[bfv.ciphertext_from_bytes]
        # version, t, k, noise estimate (+inf or NaN)
        for offset, value in ((4, b"\x01"), (13, bytes(8)), (25, b"\x03"), (26, b"\x7f\xf0")):
            bad = bytearray(ct_blob)
            bad[offset : offset + len(value)] = value
            with pytest.raises(bfv.HeParamsError):
                bfv.ciphertext_from_bytes(bytes(bad), params4096)
        pk_blob, _ = blobs[bfv.public_key_from_bytes]
        bad = bytearray(pk_blob)
        bad[17] = len(params4096.q_primes) - 1  # k
        with pytest.raises(bfv.HeParamsError):
            bfv.public_key_from_bytes(bytes(bad), params4096)
