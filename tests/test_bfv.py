"""BFV scheme: NTT arithmetic, keygen/encrypt/decrypt, homomorphic ops,
noise budgets, batching, serialization."""

import hashlib
import random

import numpy as np
import pytest

from mpcmarket.he import bfv
from mpcmarket.he.bfv import find_ntt_primes
from mpcmarket.he.ntt import NttPlan, get_plan, is_prime, schoolbook_negacyclic


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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    """SHA-256 of key and ciphertext bytes under fixed seeds, recorded from
    the per-prime residue layout that the (k, n) residue arrays replaced.
    The he_mul_plain digest was re-recorded when the plaintext-multiply
    noise rule became |p|_1 * (v + t): only its 8-byte noise field moved."""

    def test_keys(self, keys4096):
        _, pk, rk = keys4096
        assert _sha(bfv.public_key_to_bytes(pk)) == (
            "100d6d0f5119bf859095624f94d199c9dbc101a7aedf8a79743fa8901f9bccad"
        )
        assert _sha(bfv.relin_key_to_bytes(rk)) == (
            "b64c1ead773675aac65efd7229cb3f8bd14c0a1432ff2497b0d9c545a03666be"
        )

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
            "encrypt": "3363fe2c4675b386e8f150b4f24f4e118f9c68fc3406c71859f5011226228aa4",
            "he_add": "ce13e9a732fc990d3b0163c934a1d88bd09440a07a601b22ed55ec3178620be2",
            "he_sub": "eff314d75b070dce5b1e990305aff64eb5c2f46fdc5709510a2c045274974933",
            "he_mul_plain": "1990e3d3ddda16026efb5945dfd9c042fcad4246cd70b951c68110d986ad2d60",
            "he_mul": "8962f94b190678baae2e9f27d1556057a92d682c683e77d26a71b20d9b78d368",
        }


class TestMalformedBlobs:
    """Every key and ciphertext decoder reads one exact-length buffer and
    raises HeParamsError on anything else."""

    @pytest.fixture(scope="class")
    def blobs(self, params4096, keys4096):
        sk, pk, rk = keys4096
        ct = bfv.encrypt(pk, bfv.encode_scalar(5, params4096), np.random.default_rng(1))
        return {
            bfv.ciphertext_from_bytes: (bfv.ciphertext_to_bytes(ct), 37),
            bfv.public_key_from_bytes: (bfv.public_key_to_bytes(pk), 18),
            bfv.relin_key_from_bytes: (bfv.relin_key_to_bytes(rk), 18),
            bfv.secret_key_from_bytes: (bfv.secret_key_to_bytes(sk), 17),
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
            if decode is bfv.secret_key_from_bytes:
                continue
            residue = params4096.q_primes[0] if value == "prime" else value
            bad = blob[:head] + residue.to_bytes(8, "little", signed=True) + blob[head + 8 :]
            with pytest.raises(bfv.HeParamsError):
                decode(bad, params4096)

    def test_secret_key_not_ternary(self, params4096, blobs):
        blob, head = blobs[bfv.secret_key_from_bytes]
        with pytest.raises(bfv.HeParamsError):
            bfv.secret_key_from_bytes(blob[:head] + b"\x02" + blob[head + 1 :], params4096)

    def test_header_fields_checked(self, params4096, blobs):
        ct_blob, _ = blobs[bfv.ciphertext_from_bytes]
        for offset, value in ((4, 2), (25, 3), (26, 4), (36, 2)):  # version, k, ncomp, encoding
            bad = bytearray(ct_blob)
            bad[offset] = value
            with pytest.raises(bfv.HeParamsError):
                bfv.ciphertext_from_bytes(bytes(bad), params4096)
        pk_blob, _ = blobs[bfv.public_key_from_bytes]
        bad = bytearray(pk_blob)
        bad[17] = len(params4096.q_primes) - 1  # k
        with pytest.raises(bfv.HeParamsError):
            bfv.public_key_from_bytes(bytes(bad), params4096)
