"""BFV scheme: NTT arithmetic, keygen/encrypt/decrypt, homomorphic ops,
noise budgets, batching, serialization."""

import random

import numpy as np
import pytest

from mpcmarket.he import bfv
from mpcmarket.he.ntt import find_ntt_primes, get_plan, negacyclic_mul, schoolbook_negacyclic


class TestNtt:
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_matches_schoolbook_negacyclic(self, n):
        p = find_ntt_primes(30, n, 1)[0]
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = rng.integers(0, p, n, dtype=np.int64)
            b = rng.integers(0, p, n, dtype=np.int64)
            assert list(map(int, negacyclic_mul(a, b, n, p))) == schoolbook_negacyclic(a, b, p)

    def test_forward_inverse_identity(self):
        n, p = 1024, find_ntt_primes(30, 1024, 1)[0]
        plan = get_plan(n, p)
        rng = np.random.default_rng(7)
        a = rng.integers(0, p, n, dtype=np.int64)
        assert np.array_equal(plan.inverse(plan.forward(a)), a)

    def test_rejects_non_ntt_modulus(self):
        with pytest.raises(ValueError):
            get_plan(64, 97)  # 96 not divisible by 128


class TestParams:
    def test_defaults_valid(self, params4096, params8192):
        assert params4096.n == 4096 and params8192.n == 8192
        assert params4096.fresh_budget() > 0
        assert params8192.supports_batching

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
        assert bfv.secret_key_to_bytes(sk1) == bfv.secret_key_to_bytes(sk2)
        assert bfv.public_key_to_bytes(pk1) == bfv.public_key_to_bytes(pk2)

    def test_encryption_randomized(self, params4096, keys4096):
        _, pk, _ = keys4096
        pt = bfv.encode_scalar(5, params4096)
        c1 = bfv.encrypt(pk, pt)
        c2 = bfv.encrypt(pk, pt)
        assert bfv.ciphertext_to_bytes(c1) != bfv.ciphertext_to_bytes(c2)


class TestHomomorphicOps:
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

    def test_encoding_mismatch_rejected(self, params8192, keys8192):
        _, pk, _ = keys8192
        a = bfv.encrypt(pk, bfv.encode_scalar(1, params8192))
        b = bfv.encrypt(pk, bfv.batch_encode([1], params8192))
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
        sk2 = bfv.secret_key_from_bytes(bfv.secret_key_to_bytes(sk), params4096)
        ct = bfv.encrypt(pk2, bfv.encode_scalar(42, params4096))
        prod = bfv.he_mul(ct, bfv.encrypt(pk2, bfv.encode_scalar(2, params4096)), rk2)
        assert bfv.decode_scalar(bfv.decrypt(sk2, prod)) == 84

    def test_wrong_params_detected(self, params4096, params8192, keys4096):
        _, pk, _ = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(1, params4096))
        blob = bfv.ciphertext_to_bytes(ct)
        with pytest.raises(bfv.HeParamsError):
            bfv.ciphertext_from_bytes(blob, params8192)
