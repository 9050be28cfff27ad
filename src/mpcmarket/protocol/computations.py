"""Registered computations: what a buyer may query and how each backend
realizes it. The runner hands every role the same computation object, so
a buyer's query names none. Ad-hoc circuit upload is deliberately
unsupported.

Both computations offer the same interface: ``input_schema`` (input-group
name -> bit width, the same for both backends), ``check_promise`` (what the
inputs must satisfy beyond their widths), ``oracle``, the GC side
(``circuit``, ``decode_output``) and the HE side, one :class:`HePipeline`
(``he_plan(params, makers)``, ``he_encrypt_inputs``, ``he_evaluate``, ``he_finish``)
over what each computation states: its HE inputs, its integer circuit, its
output range and its result. The HE plan follows from the public
(computation, params) pair, so every role derives it on its own, once per
pair; the CSP also checks it for the session's number of makers, which
changes no field of the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from ..analytics.ld import (
    HaplotypeCounts,
    PlanRejected,
    build_ld_circuit,
    crt_combine,
    ld_decide_plain,
    ld_group_names,
    ld_value_bounds,
)
from ..analytics.lr import (
    LrModel,
    SigmoidTable,
    build_lr_circuit,
    build_sigmoid_table,
    check_range_bits,
    lr_accumulator_range,
    lr_predict_fixed,
)
from ..circuits.ir import Circuit, int_from_bits
from ..he import bfv
from ..he.bfv import Estimate, HeCiphertext, HeParams, PublicKey, RelinKey, SecretKey
from .messages import ProtocolError

MakerInput = Mapping[str, int]  # input-group name -> integer value


@dataclass(frozen=True)
class HePlan:
    """What every role derives from the public (computation, params): the
    plaintext moduli the circuit runs under, its input and output names, the
    values per input (``slots``), whether it multiplies ciphertexts (so the
    evaluator needs the relinearization key), whether it takes a dot
    product (``packed``), how many leading primes of q the session's keys
    and listings use (``key_primes``), and how many of those each output
    keeps when it goes to the CSP (``output_primes``).

    The layout follows: a packed plan encodes each input's values as
    coefficients and yields one value per output, read from coefficient 0;
    more than one slot without a dot product is batched, one value per slot;
    one slot is a scalar, the one-coefficient case of the packed encoding."""

    moduli: tuple[int, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    slots: int
    relin: bool
    packed: bool
    output_primes: int
    key_primes: int

    @property
    def batched(self) -> bool:
        return self.slots > 1 and not self.packed

    def key_params(self, params: HeParams) -> HeParams:
        """The session's parameters: ``params`` under its first ``key_primes``
        primes, for keygen, the key and ciphertext codecs and evaluation."""
        return _prefix(params, self.key_primes)

    def encode(self, values: Sequence[int], params: HeParams, t: int) -> bfv.HePlaintext:
        if self.batched:
            return bfv.batch_encode(values, params, t)
        return bfv.encode_coeffs(values, params, t)

    def decode(self, pt: bfv.HePlaintext) -> list[int]:
        return bfv.batch_decode(pt, self.slots) if self.batched else [bfv.decode_scalar(pt)]


@lru_cache(maxsize=16)
def _dot_plaintext(weights: tuple[int, ...], params: HeParams, t: int) -> bfv.HePlaintext:
    """The negacyclic reversal w'(X) = w_0 - sum_{j>=1} w_j X^(n-j): for x(X)
    = sum x_j X^j, coefficient 0 of x(X) w'(X) mod X^n + 1 is x.w (Huang,
    Lu, Hong and Ding, "Cheetah", USENIX Security 2022). Cached, so w'(X)
    is built and transformed (:meth:`bfv.HePlaintext.transformed`) once per
    (weights, params, t), not once per session."""
    coeffs = [weights[0]] + [0] * (params.n - len(weights)) + [-w for w in weights[:0:-1]]
    pt = bfv.encode_coeffs(coeffs, params, t)
    pt.poly.setflags(write=False)  # every session shares it
    return pt


class CiphertextOps:
    """The circuit op set on ciphertexts under plaintext modulus ``t``."""

    def __init__(self, params: HeParams, t: int, rk: RelinKey | None) -> None:
        self.params, self.t, self.rk = params, t, rk

    add = staticmethod(bfv.he_add)
    sub = staticmethod(bfv.he_sub)
    switch = staticmethod(bfv.mod_switch)

    def mul(self, a: HeCiphertext, b: HeCiphertext, minus=None) -> HeCiphertext:
        return bfv.he_mul(a, b, self.rk, minus)

    def mul_const(self, a: HeCiphertext, c: int) -> HeCiphertext:
        return bfv.he_mul_plain(a, bfv.encode_scalar(c, self.params, self.t))

    def add_const(self, a: HeCiphertext, c: int) -> HeCiphertext:
        return bfv.he_add_plain(a, bfv.encode_scalar(c, self.params, self.t))

    def dot_const(self, a: HeCiphertext, weights: Sequence[int]) -> HeCiphertext:
        """x.w in the constant-term form: only a plan that is not batched
        takes a dot product, and it reads coefficient 0 alone."""
        pt = _dot_plaintext(tuple(weights), self.params, self.t)
        return bfv.he_mul_plain(a, pt, constant_term=True)


class NoiseOps(bfv.NoiseRules):
    """The op set on :class:`bfv.Estimate` values: the rules the bfv
    operations apply, under the names the circuits call, raising
    :class:`PlanRejected` wherever the runtime would fail. ``multiplies``
    and ``packed`` record whether the circuit multiplied ciphertexts and
    took a dot product."""

    exhausted = invalid = PlanRejected
    multiplies = packed = False

    sub = bfv.NoiseRules.add

    def mul(self, a: Estimate, b: Estimate, minus=None) -> Estimate:
        self.multiplies = True
        v, settled = self.product(a, b, *(minus or ()))
        return self.switch(v, settled)

    def mul_const(self, a: Estimate, c: int) -> Estimate:
        return self.mul_plain(a, bfv.centered_l1([c], self.t))

    def add_const(self, a: Estimate, c: int) -> Estimate:
        return self.add_plain(a)

    def dot_const(self, a: Estimate, weights: Sequence[int]) -> Estimate:
        if len(weights) > self.params.n:
            raise PlanRejected(f"{len(weights)} weights exceed the ring degree {self.params.n}")
        self.packed = True
        # _dot_plaintext negates w_1.., which keeps each centered magnitude.
        return self.mul_plain(a, bfv.centered_l1(weights, self.t), whole=True, constant=True)


@lru_cache(maxsize=32)
def _prefix(params: HeParams, k: int) -> HeParams:
    """``params`` under its first k primes; cached, since every role reads
    the key prefix each session and :class:`HeParams` tests every prime."""
    return replace(params, q_primes=params.q_primes[:k])


def _fewest_primes(count: int, fits: Callable[[int], object]) -> int:
    """The fewest leading primes k < ``count`` of q for which ``fits(k)``,
    a replay on :class:`NoiseOps`, raises neither :class:`PlanRejected` nor
    :class:`HeParamsError` (a prefix :class:`HeParams` rejects does not
    fit); ``count`` when no fewer does."""
    for k in range(1, count):
        try:
            fits(k)
        except (PlanRejected, bfv.HeParamsError):
            continue
        return k
    return count


class HePipeline:
    """Protocol 1 for a computation that states four things:

    - ``he_inputs(maker_input)``: input name -> the maker's values (its
      share per slot, or the vector a dot product takes), for the inputs fed
      by a group the maker owns (given every group, every input);
    - ``he_circuit(ops, x)``: its integer circuit over the op set ``add``,
      ``sub``, ``mul`` (a*b, or a*b - c*d with ``minus=(c, d)``, one
      relinearization either way), ``mul_const``, ``add_const`` and
      ``dot_const`` (the inner product of an input's values with plaintext
      weights), returning output name -> value;
    - ``he_output_range()``: (prime bits, bound); the product of the plan
      moduli exceeds the bound, so every output is known modulo it;
    - ``he_result(outputs, modulus)``: the result from the CRT-combined
      outputs (name -> one integer in [0, modulus) per output value).

    The circuit runs on :class:`CiphertextOps` at the buyer and on
    :class:`NoiseOps` in the planner and in the buyer's check, so both see
    the same noise rules. Keys and listings hold the plan's first
    ``key_primes`` primes of q, and every output is switched to its first
    ``output_primes``, each the fewest the noise rules allow; the replays
    count the switch too. A plan that is not batched reads each output at
    coefficient 0 alone, so the buyer sends its constant-term form
    (:func:`bfv.keep_constant`): c0's coefficient 0 and all of c1. A dot
    product yields that form directly, so the partial sums x_i w_j that
    c0's other coefficients would hold are never computed, and c1 does not
    depend on the inputs' values.
    """

    def _circuit(self, ops, x: Mapping, primes: int | None = None) -> dict:
        y = self.he_circuit(ops, x)
        if primes is None:
            return y
        return {name: ops.switch(v, primes) for name, v in y.items()}

    def _replay(
        self, params: HeParams, moduli, inputs, shares: int, primes: int | None = None
    ) -> tuple[NoiseOps, dict]:
        """The circuit on noise estimates under ``params`` and every modulus
        in ``moduli``, each input the sum of ``shares`` fresh shares under
        all of params' primes and, with ``primes``, each output switched to
        that many: the last modulus's op set and outputs."""
        for t in moduli:
            fresh = reduce(bfv.add_noise_log2, [params.fresh_noise_log2(t)] * shares)
            x = dict.fromkeys(inputs, Estimate(fresh, len(params.q_primes)))
            ops = NoiseOps(params, t)
            y = self._circuit(ops, x, primes)
        return ops, y

    @cached_property
    def _plans(self) -> dict[HeParams, HePlan]:
        return {}

    def he_plan(self, params: HeParams, makers: int = 1) -> HePlan:
        """The plan for ``params`` (derived once, then kept), checked for the
        session's ``makers``: the circuit, switch included, replays on the
        buyer's sums of ``makers`` fresh shares. Only that check depends on
        ``makers``; the plan itself does not, so every role derives the
        same."""
        plan = self._plans.get(params)
        if plan is None:
            plan = self._plans.setdefault(params, self._derive_plan(params))
        if makers > 1:
            self._replay(
                plan.key_params(params), plan.moduli, plan.inputs, makers, plan.output_primes
            )
        return plan

    def _derive_plan(self, params: HeParams) -> HePlan:
        """At most ``params.n`` slots, moduli covering the output range, and
        two prime counts, each the fewest leading primes of q under which
        the circuit replays on noise estimates under every modulus. First
        ``key_primes``, on the worst input any session can bring: every
        input the sum of one fresh share per input group of the schema.
        Then ``output_primes`` under that prefix, every input one fresh
        share, at most the primes every output already holds. A circuit
        that takes a dot product and multiplies ciphertexts is rejected: a
        product of packed ciphertexts would mix their coefficients. So is
        an output range that needs no modulus, a result known before any
        input."""
        bits, bound = self.he_output_range()
        if bound < 1:
            raise PlanRejected(f"output range [0, {bound}] needs no plaintext modulus")
        moduli: list[int] = []
        while math.prod(moduli) <= bound:
            if len(moduli) == 8:
                raise PlanRejected("cannot cover the output range with CRT moduli")
            moduli = bfv.find_ntt_primes(bits, params.n, len(moduli) + 1)
        inputs = self.he_inputs(dict.fromkeys(self.input_schema, 0))
        slots = len(next(iter(inputs.values())))
        if slots > params.n:
            raise PlanRejected(f"{slots} slots do not fit one ciphertext at n={params.n}")
        worst = len(self.input_schema)
        key_primes = _fewest_primes(
            len(params.q_primes),
            lambda k: self._replay(_prefix(params, k), moduli, inputs, worst),
        )
        params = _prefix(params, key_primes)
        ops, y = self._replay(params, moduli, inputs, 1)
        # The circuit's ops do not depend on t: any replay tells which it uses.
        if ops.packed and ops.multiplies:
            raise PlanRejected("a dot product cannot share a circuit with a ciphertext multiply")
        primes = _fewest_primes(
            min(v.primes for v in y.values()),
            lambda k: self._replay(params, moduli, inputs, 1, k),
        )
        return HePlan(
            tuple(moduli),
            tuple(inputs),
            tuple(y),
            slots,
            ops.multiplies,
            ops.packed,
            primes,
            key_primes,
        )

    def he_encrypt_inputs(
        self,
        pk: PublicKey,
        plan: HePlan,
        maker_input: MakerInput,
        rng: np.random.Generator,
    ) -> list[tuple[str, bytes]]:
        """One ciphertext per (plan modulus, input the maker feeds), tagged
        ``{t}:{input}`` and encoded in the plan's layout."""
        shares = self.he_inputs(maker_input)
        entries = []
        for t in plan.moduli:
            for name, v in shares.items():
                ct = bfv.encrypt(pk, plan.encode(v, pk.params, t), rng)
                entries.append((f"{t}:{name}", bfv.ciphertext_to_bytes(ct)))
        return entries

    def he_evaluate(
        self,
        params: HeParams,
        rk: RelinKey | None,
        plan: HePlan,
        listings: Sequence[tuple[int, str, bytes]],
    ) -> list[tuple[str, bytes]]:
        """Buyer side: sum every maker's shares (free additions), check that
        the circuit fits the sums' noise estimates under every modulus, then
        run it per modulus and switch each output to the plan's
        ``output_primes``, sending the constant-term form unless the plan is
        batched; outputs are tagged ``{output}:{t}``. Every share is fresh,
        so it takes the fresh estimate of ``params``, not the noise field
        its maker wrote: a forged field reaches no level decision and
        aborts nothing."""
        want = {f"{t}:{name}": t for t in plan.moduli for name in plan.inputs}
        sums: dict[str, HeCiphertext] = {}
        for maker, tag, blob in listings:
            if tag not in want:
                raise ProtocolError(f"maker {maker} listed unexpected input {tag!r}")
            ct = bfv.ciphertext_from_bytes(blob, params)
            if ct.t != want[tag]:
                raise ProtocolError(f"input {tag!r} is encrypted under t={ct.t}")
            if ct.primes != params.q_primes:
                raise ProtocolError(f"input {tag!r} holds {len(ct.primes)} of q's primes")
            ct.noise_log2 = params.fresh_noise_log2(ct.t)
            sums[tag] = bfv.he_add(sums[tag], ct) if tag in sums else ct
        missing = want.keys() - sums.keys()
        if missing:
            raise ProtocolError(f"no shares for inputs {sorted(missing)[:4]}")
        inputs = {t: {name: sums[f"{t}:{name}"] for name in plan.inputs} for t in plan.moduli}
        for t, x in inputs.items():
            estimates = {name: ct.estimate for name, ct in x.items()}
            self._circuit(NoiseOps(params, t), estimates, plan.output_primes)
        out = []
        for t, x in inputs.items():
            y = self._circuit(CiphertextOps(params, t, rk), x, plan.output_primes)
            for name in plan.outputs:
                ct = y[name] if plan.batched else bfv.keep_constant(y[name])
                out.append((f"{name}:{t}", bfv.ciphertext_to_bytes(ct)))
        return out

    def he_finish(
        self,
        sk: SecretKey,
        plan: HePlan,
        entries: Sequence[tuple[str, bytes]],
    ) -> dict:
        """CSP side: decrypt exactly one entry per (output, plan modulus),
        each under the plan's ``output_primes`` and in the constant-term
        form exactly when the plan is not batched, CRT-combine each output
        value-wise, and derive the result."""
        want = {f"{name}:{t}": (name, t) for t in plan.moduli for name in plan.outputs}
        tags = [tag for tag, _ in entries]
        if sorted(tags) != sorted(want):
            raise ProtocolError(f"expected one entry each for {sorted(want)}, got {tags}")
        residues: dict[str, dict[int, list[int]]] = {name: {} for name in plan.outputs}
        for tag, blob in entries:
            name, t = want[tag]
            ct = bfv.ciphertext_from_bytes(blob, sk.params)
            if ct.t != t:
                raise ProtocolError(f"output {tag!r} is encrypted under t={ct.t}")
            if len(ct.primes) != plan.output_primes:
                raise ProtocolError(
                    f"output {tag!r} holds {len(ct.primes)} primes, "
                    f"the plan {plan.output_primes}"
                )
            if ct.constant_term == plan.batched:
                form = "every coefficient" if plan.batched else "only the constant term"
                raise ProtocolError(f"output {tag!r} must carry {form} of c0")
            residues[name][t] = plan.decode(bfv.decrypt(sk, ct))
        outputs = {
            name: [crt_combine(dict(zip(plan.moduli, v))) for v in zip(*map(r.get, plan.moduli))]
            for name, r in residues.items()
        }
        return self.he_result(outputs, math.prod(plan.moduli))


@dataclass(frozen=True)
class LdComputation(HePipeline):
    """Chi-square LD test over m instances, each split across contributors."""

    count_bits: int = 11
    m_instances: int = 1
    threshold_num: int = 3841
    threshold_den: int = 1000
    contributors: int = 1

    @cached_property
    def circuit(self) -> Circuit:
        return build_ld_circuit(
            self.count_bits,
            self.m_instances,
            self.threshold_num,
            self.threshold_den,
            self.contributors,
        )

    @cached_property
    def input_schema(self) -> dict[str, int]:
        return {
            g: self.count_bits
            for i in range(self.m_instances)
            for name in HaplotypeCounts._fields
            for g in ld_group_names(i, name, self.contributors)
        }

    def check_promise(self, inputs: Mapping[str, int]) -> None:
        """Each instance's total N over all contributors is below
        2^count_bits, as the circuit and ``ld_value_bounds`` assume."""
        for i, counts in enumerate(zip(*self.he_inputs(inputs).values())):
            if sum(counts) >> self.count_bits:
                raise ProtocolError(
                    f"instance {i} total N = {sum(counts)} does not fit {self.count_bits} bits"
                )

    def oracle(self, inputs: Mapping[str, int]) -> dict:
        decisions = [
            ld_decide_plain(HaplotypeCounts(*c), self.threshold_num, self.threshold_den).decision
            for c in zip(*self.he_inputs(inputs).values())
        ]
        return {"decisions": decisions}

    def decode_output(self, bits: Sequence[int]) -> dict:
        if len(bits) != self.m_instances:
            raise ProtocolError("LD output width mismatch")
        return {"decisions": [bool(b) for b in bits]}

    # -- HE path -------------------------------------------------------------

    def he_inputs(self, maker_input: MakerInput) -> dict[str, list[int]]:
        """Per count name the maker owns a group of, its share of each
        instance's count (the counts themselves, given every input group)."""
        groups = {
            name: [ld_group_names(i, name, self.contributors) for i in range(self.m_instances)]
            for name in HaplotypeCounts._fields
        }
        return {
            name: [sum(maker_input.get(g, 0) for g in gs) for gs in per_instance]
            for name, per_instance in groups.items()
            if any(g in maker_input for gs in per_instance for g in gs)
        }

    def he_circuit(self, ops, x: Mapping) -> dict:
        """e = den*lhs - num*rhs + rhs_max with lhs = 2N*(N*N_AB - N_A*N_B)^2
        and rhs = N_A*N_a*N_B*N_b: multiplicative depth 3, one value in
        [0, lhs_max + rhs_max], decided as e > rhs_max after decryption.
        Five relinearizations: the difference and the final a*b - c*d each
        take one."""
        n_A = ops.add(x["n_AB"], x["n_Ab"])
        n_a = ops.add(x["n_aB"], x["n_ab"])
        n_B = ops.add(x["n_AB"], x["n_aB"])
        n_b = ops.add(x["n_Ab"], x["n_ab"])
        n = ops.add(n_A, n_a)
        diff = ops.mul(n, x["n_AB"], minus=(n_A, n_B))
        lhs = ops.mul_const(ops.mul(diff, diff), self.threshold_den)
        rhs = ops.mul_const(ops.mul(n_A, n_a), self.threshold_num)
        e = ops.mul(lhs, ops.add(n, n), minus=(rhs, ops.mul(n_B, n_b)))
        return {"e": ops.add_const(e, self._bounds[1])}

    @cached_property
    def _bounds(self) -> tuple[int, int]:
        return ld_value_bounds(self.count_bits, self.threshold_num, self.threshold_den)

    def he_output_range(self) -> tuple[int, int]:
        """21-bit batching primes; e lies in [0, lhs_max + rhs_max]."""
        return 21, sum(self._bounds)

    def he_result(self, outputs: Mapping[str, list[int]], modulus: int) -> dict:
        """den*lhs > num*rhs exactly when e > rhs_max."""
        return {"decisions": [e > self._bounds[1] for e in outputs["e"]]}


@dataclass(frozen=True)
class LrComputation(HePipeline):
    """Logistic-regression inference on one sample row."""

    model: LrModel
    range_bits: int = 10

    def __post_init__(self) -> None:
        check_range_bits(self.range_bits)  # before any session, on either backend

    @cached_property
    def table(self) -> SigmoidTable:
        return build_sigmoid_table(range_bits=self.range_bits)

    @cached_property
    def circuit(self) -> Circuit:
        return build_lr_circuit(self.model, self.table)

    @cached_property
    def input_schema(self) -> dict[str, int]:
        return {f"x{j}": self.model.spec.total_bits for j in range(self.model.dim)}

    def check_promise(self, inputs: Mapping[str, int]) -> None:
        """The group widths are the whole promise."""

    def _row(self, inputs: Mapping[str, int]) -> list[int]:
        """The features (w-bit two's-complement patterns) as signed integers;
        a feature not in ``inputs`` is 0."""
        w = self.model.spec.total_bits
        row = [inputs.get(f"x{j}", 0) for j in range(self.model.dim)]
        return [v - (1 << w) if v >> (w - 1) else v for v in row]

    def _probability(self, p: int) -> dict:
        return {"probability_fixed": p, "probability": self.table.out_spec.to_float(p)}

    def oracle(self, inputs: Mapping[str, int]) -> dict:
        return self._probability(lr_predict_fixed(self.model, self._row(inputs), self.table))

    def decode_output(self, bits: Sequence[int]) -> dict:
        return self._probability(int_from_bits(bits))

    # -- HE path -------------------------------------------------------------

    def he_inputs(self, maker_input: MakerInput) -> dict[str, list[int]]:
        """The features as one vector ``x`` of signed integers, 0 where the
        maker owns none; nothing for a maker that owns no feature."""
        return {"x": self._row(maker_input)} if maker_input else {}

    def he_circuit(self, ops, x: Mapping) -> dict:
        """The affine part z = x.w + b, one dot product with the plaintext
        weights; the sigmoid tail runs after decryption."""
        z = ops.dot_const(x["x"], self.model.weights)
        return {"z": ops.add_const(z, self.model.bias << self.model.spec.frac_bits)}

    def he_output_range(self) -> tuple[int, int]:
        """One prime above 2|z|max, so that a signed z survives."""
        lo, hi = lr_accumulator_range(self.model)
        bound = 2 * max(-lo, hi)
        return (bound + 1).bit_length() + 1, bound

    def he_result(self, outputs: Mapping[str, list[int]], modulus: int) -> dict:
        (z,) = outputs["z"]
        z = z - modulus if z > modulus // 2 else z
        idx = self.table.index_for_z(z, 2 * self.model.spec.frac_bits)
        return self._probability(self.table.probability(idx))


Computation = LdComputation | LrComputation
