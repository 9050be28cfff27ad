"""LR on HE as one packed dot product: exactness, what the CSP sees, and
the plans the planner must reject before any key exists."""

import math
import random

import numpy as np
import pytest

from mpcmarket.analytics.ld import PlanRejected
from mpcmarket.analytics.lr import LrModel, lr_accumulator_range, lr_affine_fixed
from mpcmarket.circuits.ir import FixedPointSpec
from mpcmarket.he import bfv
from mpcmarket.he.bfv import HeParams
from mpcmarket.protocol import LdComputation, LrComputation
from mpcmarket.protocol.computations import CiphertextOps, NoiseOps, _dot_plaintext
from mpcmarket.protocol.messages import ProtocolError
from mpcmarket.protocol.parties import Csp

SPEC = FixedPointSpec(total_bits=16, frac_bits=8)
W = (1 << 15) - 1  # the widest 16-bit weight magnitude
X_MIN, X_MAX = -(1 << 15), (1 << 15) - 1


def _bits(row):
    return {f"x{j}": v & 0xFFFF for j, v in enumerate(row)}


def _session(comp, params, keys, maker, seed=0):
    """The plan, one maker's packed listing and the buyer's request entries."""
    _, pk, _ = keys
    plan = comp.he_plan(params)
    rng = np.random.default_rng(seed)
    listing = [(0, tag, blob) for tag, blob in comp.he_encrypt_inputs(pk, plan, maker, rng)]
    return plan, listing, comp.he_evaluate(params, None, plan, listing)


def _extreme_and_mixed(d):
    """(weights, bias, features) for z at the top and at the bottom of its
    range, and a mix of every weight and feature sign."""
    r = random.Random(d)
    mixed = (
        [r.choice((-W, W, r.randint(-W, W))) for _ in range(d)],
        r.randint(-W, W),
        [r.choice((X_MIN, X_MAX, r.randint(X_MIN, X_MAX))) for _ in range(d)],
    )
    return [([-W] * d, W, [X_MIN] * d), ([W] * d, -W, [X_MIN] * d), mixed]


@pytest.fixture(scope="module", params=[1024, 4096])
def wide_ring(request):
    """A ring whose five 30-bit primes leave room for 16-bit weights over
    n features (test-only parameters), and its keys."""
    n = request.param
    params = HeParams(n, tuple(bfv.find_ntt_primes(30, n, 5)), bfv.find_ntt_primes(20, n)[0])
    return params, bfv.keygen(params, seed=n, relin=False)


@pytest.mark.parametrize("dim", ["one", "n"])
def test_packed_inner_product_is_exact(wide_ring, dim):
    params, keys = wide_ring
    d = 1 if dim == "one" else params.n
    for k, (weights, bias, row) in enumerate(_extreme_and_mixed(d)):
        model = LrModel(tuple(weights), bias, SPEC)
        comp = LrComputation(model=model)
        z = lr_affine_fixed(model, row)
        lo, hi = lr_accumulator_range(model)
        if k < 2:
            assert z == (hi if k == 0 else lo)
        plan, _, out = _session(comp, params, keys, _bits(row), seed=k)
        # One modulus above 2|z|max carries every z in [lo, hi].
        (t,) = plan.moduli
        assert plan.packed and t > 2 * max(-lo, hi)
        ((_, blob),) = out
        got = bfv.decode_scalar(bfv.decrypt(keys[0], bfv.ciphertext_from_bytes(blob, params)))
        assert (got - t if got > t // 2 else got) == z
        assert comp.he_finish(keys[0], plan, out) == comp.oracle(_bits(row))


class _WholeOps(CiphertextOps):
    """The buyer's op set with a dot product that keeps every coefficient."""

    def dot_const(self, a, weights):
        return bfv.he_mul_plain(a, _dot_plaintext(tuple(weights), self.params, self.t))


class TestWhatTheCspSees:
    """A packed output goes to the CSP in the constant-term form: c0's
    coefficient 0 and all of c1. The partial cross sums x_i w_j that the
    whole product would leave in c0's other coefficients are never computed."""

    @pytest.fixture(scope="class")
    def lr(self, bundled_model, bundled_dataset, params4096):
        rows, _ = bundled_dataset
        comp = LrComputation(model=bundled_model, range_bits=10)
        keys = bfv.keygen(params4096, seed=7, relin=False)
        return comp, rows[0], keys

    def _decrypt(self, keys, params, entries):
        ((_, blob),) = entries
        return bfv.decrypt(keys[0], bfv.ciphertext_from_bytes(blob, params)).poly

    def _full_output(self, comp, params, plan, listing):
        """The whole ciphertext whose constant-term form the buyer's circuit
        outputs on ``listing``."""
        ((_, _, blob),) = listing
        (t,) = plan.moduli
        x = {"x": bfv.ciphertext_from_bytes(blob, params)}
        return comp.he_circuit(_WholeOps(params, t, None), x)["z"]

    def test_rows_with_one_z_send_identical_bytes(self, lr, params4096):
        # x' moves features 0 and 2 along w_2 and -w_0 (over their gcd), so
        # x'.w = x.w, and keeps every feature's sign, so the wrap term of
        # the plaintext multiply is the same too. Under the same seeds the
        # DecryptRequest entries are then byte-identical: what the CSP
        # receives is a function of z alone. The whole ciphertexts differ,
        # and a row with another z sends other bytes.
        comp, row, keys = lr
        w = comp.model.weights
        g = math.gcd(w[0], w[2])
        moved = list(row)
        moved[0] += w[2] // g
        moved[2] -= w[0] // g
        other = list(row)
        other[0] += 1
        assert moved != row
        assert lr_affine_fixed(comp.model, moved) == lr_affine_fixed(comp.model, row)
        assert lr_affine_fixed(comp.model, other) != lr_affine_fixed(comp.model, row)
        assert all((a < 0) == (b < 0) and X_MIN <= b <= X_MAX for a, b in zip(row, moved))
        plan, listing, out = _session(comp, params4096, keys, _bits(row))
        _, moved_listing, moved_out = _session(comp, params4096, keys, _bits(moved))
        _, _, other_out = _session(comp, params4096, keys, _bits(other))
        assert moved_out == out
        assert other_out != out
        full, moved_full = (
            bfv.ciphertext_to_bytes(self._full_output(comp, params4096, plan, x))
            for x in (listing, moved_listing)
        )
        assert full != moved_full
        assert comp.he_finish(keys[0], plan, out) == comp.oracle(_bits(row))

    def test_constant_term_is_coefficient_zero_of_the_full_product(self, lr, params4096):
        comp, row, keys = lr
        plan, listing, out = _session(comp, params4096, keys, _bits(row))
        full = self._full_output(comp, params4096, plan, listing)
        poly = bfv.decrypt(keys[0], full).poly
        (t,) = plan.moduli
        n, w, d = params4096.n, comp.model.weights, comp.model.dim
        want = [0] * n
        want[0] = lr_affine_fixed(comp.model, row)
        for k in range(1, d):
            # x(X) w'(X): x_{j+k} w_j lands on X^k, x_j w_{j+k} on -X^(n-k).
            want[k] = sum(row[j + k] * w[j] for j in range(d - k))
            want[n - k] = -sum(row[j] * w[j + k] for j in range(d - k))
        assert [int(c) for c in poly] == [v % t for v in want]
        # The buyer sends coefficient 0 alone: c0's (k, 1) column and c1.
        ((_, blob),) = out
        sent = bfv.ciphertext_from_bytes(blob, params4096)
        k = plan.output_primes
        assert blob[:4] == b"HECX" and sent.constant_term
        assert sent.polys[0].shape == (k, 1) and sent.polys[1].shape == (k, n)
        assert len(blob) == 34 + (k * n + 8) * 27 // 8
        assert self._decrypt(keys, params4096, out).tolist() == [poly[0]]
        assert bfv.decrypt(keys[0], bfv.keep_constant(full)).poly.tolist() == [poly[0]]

    @pytest.fixture(scope="class")
    def ld(self, params8192, keys8192):
        """A batched LD plan and the buyer's request entries."""
        comp = LdComputation(count_bits=11, m_instances=2)
        plan = comp.he_plan(params8192)
        counts = {f"i{i}.{k}": 25 for i in range(2) for k in ("n_AB", "n_Ab", "n_aB", "n_ab")}
        enc = comp.he_encrypt_inputs(keys8192[1], plan, counts, np.random.default_rng(3))
        return comp, plan, comp.he_evaluate(params8192, keys8192[2], plan, [(0, *e) for e in enc])

    def test_batched_ld_outputs_keep_every_coefficient(self, ld, params8192, keys8192):
        comp, plan, out = ld
        assert plan.batched and not plan.packed
        for _, blob in out:
            ct = bfv.ciphertext_from_bytes(blob, params8192)
            assert blob[:4] == b"HECT" and not ct.constant_term
            assert ct.polys[0].shape == ct.polys[1].shape == (plan.output_primes, params8192.n)
        assert comp.he_finish(keys8192[0], plan, out) == {"decisions": [False, False]}

    def test_finish_takes_only_the_plan_s_form(self, lr, ld, params4096, params8192, keys8192):
        # A whole ciphertext for a packed plan, and a constant-term one for
        # a batched plan, are protocol errors.
        comp, row, keys = lr
        plan, listing, _ = _session(comp, params4096, keys, _bits(row))
        (t,) = plan.moduli
        full = self._full_output(comp, params4096, plan, listing)
        full = bfv.mod_switch(full, plan.output_primes)
        whole = [(f"z:{t}", bfv.ciphertext_to_bytes(full))]
        with pytest.raises(ProtocolError, match="only the constant term"):
            comp.he_finish(keys[0], plan, whole)
        ld_comp, ld_plan, out = ld
        tag, blob = out[0]
        ct = bfv.ciphertext_from_bytes(blob, params8192)
        constant = bfv.ciphertext_to_bytes(bfv.keep_constant(ct))
        with pytest.raises(ProtocolError, match="every coefficient"):
            ld_comp.he_finish(keys8192[0], ld_plan, [(tag, constant), *out[1:]])


class TestConstantTermProduct:
    """The plaintext multiply that returns the constant-term form equals
    the whole product cut to that form, residue for residue and with the
    same noise field, and so do a plaintext add and a switch after it."""

    # Above 2^31, centered coefficients exceed 2^30; above 2^35 they exceed
    # 2^34, where the dot product reduces them below each prime first.
    T_WIDE = {"wide": (1 << 33) + 17, "wider": (1 << 40) + 15}

    @pytest.fixture(scope="class", params=[1024, 4096, 8192])
    def ring(self, request):
        n = request.param
        params = HeParams(n, tuple(bfv.find_ntt_primes(30, n, 5)), bfv.find_ntt_primes(20, n)[0])
        return params, bfv.keygen(params, seed=n, relin=False)

    @staticmethod
    def _same(got, want):
        assert got.constant_term and got.noise_log2 == want.noise_log2
        assert all(np.array_equal(x, y) for x, y in zip(got.polys, want.polys, strict=True))

    @pytest.mark.parametrize("t_bits", [20, 30, "wide", "wider"])
    @pytest.mark.parametrize("w", ["sparse", "dense", "extreme"])
    def test_matches_the_whole_product(self, ring, t_bits, w):
        params, (sk, pk, _) = ring
        n = params.n
        t = self.T_WIDE.get(t_bits) or bfv.find_ntt_primes(t_bits, n)[0]
        rng = np.random.default_rng(n + len(w))
        if w == "sparse":
            pt = _dot_plaintext(tuple(rng.integers(-W, W + 1, 30).tolist()), params, t)
        else:
            # Every coefficient nonzero: at random, or each at -t/2, so that
            # every term of the negacyclic reversal has the same sign.
            dense = rng.integers(1, t, n) if w == "dense" else np.full(n, t - t // 2)
            pt = bfv.encode_coeffs(dense.tolist(), params, t)
        assert pt.poly.all() == (w != "sparse")
        ct = bfv.encrypt(pk, bfv.encode_coeffs(rng.integers(0, t, n).tolist(), params, t), rng)
        whole = bfv.he_mul_plain(ct, pt)
        got = bfv.he_mul_plain(ct, pt, constant_term=True)
        self._same(got, bfv.keep_constant(whole))
        assert bfv.decrypt(sk, got).poly.tolist() == [bfv.decrypt(sk, whole).poly[0]]
        c = bfv.encode_scalar(-12345, params, t)
        self._same(bfv.he_add_plain(got, c), bfv.keep_constant(bfv.he_add_plain(whole, c)))
        # One prime dropped, and several: down to the fewest primes with
        # budget left (2 or 3 of the 5 here).
        fewest = min(
            k
            for k in range(1, 4)
            if bfv.switch_noise_log2(params, t, got.noise_log2, k) < params.budget_capacity(t, k)
        )
        for k in (4, fewest):
            self._same(bfv.mod_switch(got, k), bfv.keep_constant(bfv.mod_switch(whole, k)))


class _DotThenMultiply(LrComputation):
    def he_circuit(self, ops, x):
        z = ops.dot_const(x["x"], self.model.weights)
        return {"z": ops.mul(z, z)}


class _MultiplyThenDot(LrComputation):
    def he_circuit(self, ops, x):
        return {"z": ops.dot_const(ops.mul(x["x"], x["x"]), self.model.weights)}


@pytest.fixture
def no_keygen(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("keys generated for a plan that cannot run")

    monkeypatch.setattr(bfv, "keygen", fail)


@pytest.mark.parametrize("circuit", [_DotThenMultiply, _MultiplyThenDot])
def test_plan_rejects_a_dot_product_with_a_ciphertext_multiply(
    circuit, bundled_model, params8192, no_keygen
):
    comp = circuit(model=bundled_model)
    with pytest.raises(PlanRejected, match="dot product"):
        comp.he_plan(params8192)
    with pytest.raises(PlanRejected, match="dot product"):
        Csp(comp, seed=0).he_setup(params8192, 1)


class _DotThenDot(LrComputation):
    def he_circuit(self, ops, x):
        z = ops.dot_const(x["x"], self.model.weights)
        return {"z": ops.dot_const(z, self.model.weights)}


def test_plan_rejects_a_dot_product_of_a_dot_product(bundled_model, params8192, no_keygen):
    # A dot product's value is in the constant-term form, which holds
    # coefficient 0 alone, so no second dot product can read it.
    comp = _DotThenDot(model=bundled_model)
    with pytest.raises(PlanRejected, match="second dot product"):
        comp.he_plan(params8192)
    with pytest.raises(PlanRejected, match="second dot product"):
        Csp(comp, seed=0).he_setup(params8192, 1)


class _SumOfDots(LrComputation):
    def he_circuit(self, ops, x):
        w = self.model.weights
        z = ops.sub(ops.add(ops.dot_const(x["x"], w), x["x"]), ops.dot_const(x["x"], w))
        z = ops.add(ops.dot_const(x["x"], w), ops.sub(z, x["x"]))
        return {"z": ops.add_const(z, self.model.bias << self.model.spec.frac_bits)}


def test_dot_products_take_sums_with_each_other_and_with_whole_values(
    bundled_model, bundled_dataset, params4096
):
    # Sums and differences act coefficient by coefficient, so a plan that
    # adds dot products to each other and to a whole input runs: z = w.x +
    # x - w.x + w.x - x + b, read at coefficient 0.
    rows, _ = bundled_dataset
    comp = _SumOfDots(model=bundled_model)
    keys = bfv.keygen(params4096, seed=9, relin=False)
    for row in rows[:3]:
        plan, _, out = _session(comp, params4096, keys, _bits(row))
        assert comp.he_finish(keys[0], plan, out) == comp.oracle(_bits(row))


def test_plan_rejects_a_packed_vector_longer_than_n(no_keygen):
    params = HeParams.default(1024)
    comp = LrComputation(model=LrModel((1,) * 1025, 0, SPEC))
    with pytest.raises(PlanRejected, match="1025 slots do not fit"):
        comp.he_plan(params)
    with pytest.raises(PlanRejected, match="1025 slots do not fit"):
        Csp(comp, seed=0).he_setup(params, 1)
    with pytest.raises(PlanRejected, match="1025 weights exceed"):
        NoiseOps(params, params.t).dot_const(0.0, [1] * 1025)


def test_planner_l1_is_that_of_the_multiplied_plaintext(
    monkeypatch, bundled_model, params4096, params8192
):
    # NoiseOps takes |p|_1 from the constant or the weights (centered_l1);
    # it must equal the l1 of the plaintext that CiphertextOps multiplies by.
    built = []
    monkeypatch.setattr(bfv, "he_mul_plain", lambda ct, pt, **kwargs: built.append(pt))

    def check(params, t, constants=(), vectors=()):
        ops = CiphertextOps(params, t, None)
        for c in constants:
            ops.mul_const(None, c)
            assert bfv.centered_l1([c], t) == int(np.abs(built.pop().centered()).sum())
        for w in vectors:
            ops.dot_const(None, w)
            assert bfv.centered_l1(w, t) == int(np.abs(built.pop().centered()).sum())

    ld = LdComputation()
    for t in ld.he_plan(params8192).moduli:
        check(params8192, t, constants=(ld.threshold_num, ld.threshold_den))
    lr = LrComputation(model=bundled_model)
    for t in lr.he_plan(params4096).moduli:
        check(params4096, t, vectors=[bundled_model.weights])
    for t in (65537, 1 << 16):  # odd, and even with t/2 its own negation
        h = t // 2
        extreme = [-1, -W, h, h + 1, -h, -h - 1, t - 1, t, 3 * t + 5]
        check(params4096, t, constants=extreme, vectors=[extreme, [-w for w in extreme]])
