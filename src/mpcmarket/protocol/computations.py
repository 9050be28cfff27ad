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
(computation, params) pair, so every role derives it on its own; the CSP
also checks it for the session's number of makers, which changes no field
of the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Mapping, Sequence

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
    lr_he_plan_bound,
    lr_predict_fixed,
)
from ..circuits.ir import Circuit, int_from_bits
from ..he import bfv
from ..he.bfv import HeCiphertext, HeParams, PublicKey, RelinKey, SecretKey
from .messages import ProtocolError

MakerInput = Mapping[str, int]  # input-group name -> integer value


@dataclass(frozen=True)
class HePlan:
    """What every role derives from the public (computation, params): the
    plaintext moduli the circuit runs under, its input and output names, the
    values per input (``slots``), whether it multiplies ciphertexts (so the
    evaluator needs the relinearization key), and whether it takes a dot
    product (``packed``).

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

    @property
    def batched(self) -> bool:
        return self.slots > 1 and not self.packed

    def encode(self, values: Sequence[int], params: HeParams, t: int) -> bfv.HePlaintext:
        if self.batched:
            return bfv.batch_encode(values, params, t)
        return bfv.encode_coeffs(values, params, t)

    def decode(self, pt: bfv.HePlaintext) -> list[int]:
        return bfv.batch_decode(pt, self.slots) if self.batched else [bfv.decode_scalar(pt)]


def _dot_plaintext(weights: Sequence[int], params: HeParams, t: int) -> bfv.HePlaintext:
    """The negacyclic reversal w'(X) = w_0 - sum_{j>=1} w_j X^(n-j): for x(X)
    = sum x_j X^j, coefficient 0 of x(X) w'(X) mod X^n + 1 is x.w (Huang,
    Lu, Hong and Ding, "Cheetah", USENIX Security 2022)."""
    coeffs = [weights[0]] + [0] * (params.n - len(weights)) + [-w for w in weights[:0:-1]]
    return bfv.encode_coeffs(coeffs, params, t)


class CiphertextOps:
    """The circuit op set on ciphertexts under plaintext modulus ``t``; the
    buyer's ``rng`` draws the mask of a packed circuit's outputs."""

    def __init__(
        self,
        params: HeParams,
        t: int,
        rk: RelinKey | None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.params, self.t, self.rk, self.rng = params, t, rk, rng
        self.packed = False

    add = staticmethod(bfv.he_add)
    sub = staticmethod(bfv.he_sub)

    def mul(self, a: HeCiphertext, b: HeCiphertext) -> HeCiphertext:
        return bfv.he_mul(a, b, self.rk)

    def mul_const(self, a: HeCiphertext, c: int) -> HeCiphertext:
        return bfv.he_mul_plain(a, bfv.encode_scalar(c, self.params, self.t))

    def add_const(self, a: HeCiphertext, c: int) -> HeCiphertext:
        return bfv.he_add_plain(a, bfv.encode_scalar(c, self.params, self.t))

    def dot_const(self, a: HeCiphertext, weights: Sequence[int]) -> HeCiphertext:
        self.packed = True
        return bfv.he_mul_plain(a, _dot_plaintext(weights, self.params, self.t))

    def mask(self, a: HeCiphertext) -> HeCiphertext:
        """A uniform value mod t added to every coefficient but 0, which
        holds the output (Juvekar, Vaikuntanathan and Chandrakasan,
        "GAZELLE", USENIX Security 2018)."""
        m = self.rng.integers(0, self.t, self.params.n, dtype=np.int64)
        m[0] = 0
        return bfv.he_add_plain(a, bfv.HePlaintext(m, self.t))


class NoiseOps:
    """The same op set on noise estimates (log2), through the rules the bfv
    operations apply. Raises :class:`PlanRejected` where a value would leave
    no budget, which is where the runtime would fail; ``multiplies`` and
    ``packed`` record whether the circuit multiplied ciphertexts and took a
    dot product."""

    def __init__(self, params: HeParams, t: int) -> None:
        self.params, self.t = params, t
        self.capacity = params.budget_capacity(t)
        self.multiplies = False
        self.packed = False

    def _fit(self, v: float) -> float:
        if self.capacity - v <= 0:
            raise PlanRejected(
                f"HE plan needs ~{v:.0f} noise bits but t={self.t} leaves "
                f"{self.capacity:.0f} at n={self.params.n}; increase ring degree"
            )
        return v

    def add(self, a: float, b: float) -> float:
        return self._fit(bfv.add_noise_log2(a, b))

    sub = add

    def mul(self, a: float, b: float) -> float:
        self.multiplies = True
        return self._fit(bfv.mul_noise_log2(self.params, self.t, a, b))

    def mul_const(self, a: float, c: int) -> float:
        return self._fit(bfv.plain_mul_noise_log2(a, bfv.encode_scalar(c, self.params, self.t)))

    def add_const(self, a: float, c: int) -> float:
        return self._fit(bfv.plain_add_noise_log2(a, self.t))

    def dot_const(self, a: float, weights: Sequence[int]) -> float:
        if len(weights) > self.params.n:
            raise PlanRejected(f"{len(weights)} weights exceed the ring degree {self.params.n}")
        self.packed = True
        return self._fit(bfv.plain_mul_noise_log2(a, _dot_plaintext(weights, self.params, self.t)))

    def mask(self, a: float) -> float:
        return self.add_const(a, 0)


class HePipeline:
    """Protocol 1 for a computation that states four things:

    - ``he_inputs(maker_input)``: input name -> the maker's values (its
      share per slot, or the vector a dot product takes), for the inputs fed
      by a group the maker owns (given every group, every input);
    - ``he_circuit(ops, x)``: its integer circuit over the op set ``add``,
      ``sub``, ``mul``, ``mul_const``, ``add_const`` and ``dot_const`` (the
      inner product of an input's values with plaintext weights), returning
      output name -> value;
    - ``he_output_range()``: (prime bits, bound); the product of the plan
      moduli exceeds the bound, so every output is known modulo it;
    - ``he_result(outputs, modulus)``: the result from the CRT-combined
      outputs (name -> one integer in [0, modulus) per output value).

    The circuit runs on :class:`CiphertextOps` at the buyer and on
    :class:`NoiseOps` in the planner and in the buyer's check, so both see
    the same noise rules. A circuit that takes a dot product leaves partial
    sums in every other coefficient, so each of its outputs is masked
    there before it goes to the CSP; the replays count the mask too.
    """

    def _circuit(self, ops, x: Mapping) -> dict:
        y = self.he_circuit(ops, x)
        return {name: ops.mask(v) for name, v in y.items()} if ops.packed else y

    def he_plan(self, params: HeParams, makers: int = 1) -> HePlan:
        """At most ``params.n`` slots, and moduli covering the output range,
        each checked by replaying the circuit on noise estimates, every input
        starting as the buyer's sum of ``makers`` fresh shares. Only that
        check depends on ``makers``; the plan itself does not. A circuit
        that takes a dot product and multiplies ciphertexts is rejected: a
        product of packed ciphertexts would mix their coefficients."""
        bits, bound = self.he_output_range()
        moduli: list[int] = []
        while math.prod(moduli) <= bound:
            if len(moduli) == 8:
                raise PlanRejected("cannot cover the output range with CRT moduli")
            moduli = bfv.find_ntt_primes(bits, params.n, len(moduli) + 1)
        inputs = self.he_inputs(dict.fromkeys(self.input_schema, 0))
        slots = len(next(iter(inputs.values())))
        if slots > params.n:
            raise PlanRejected(f"{slots} slots do not fit one ciphertext at n={params.n}")
        share_sum = reduce(bfv.add_noise_log2, [params.fresh_noise_log2()] * makers)
        start = dict.fromkeys(inputs, share_sum)
        for t in moduli:
            ops = NoiseOps(params, t)
            outputs = self._circuit(ops, start)
        # The circuit's ops do not depend on t: any replay tells which it uses.
        if ops.packed and ops.multiplies:
            raise PlanRejected("a dot product cannot share a circuit with a ciphertext multiply")
        return HePlan(
            tuple(moduli), tuple(inputs), tuple(outputs), slots, ops.multiplies, ops.packed
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
        rng: np.random.Generator | None = None,
    ) -> list[tuple[str, bytes]]:
        """Buyer side: sum every maker's shares (free additions), check that
        the circuit fits the sums' noise estimates under every modulus, then
        run it per modulus, masking a packed circuit's outputs from ``rng``;
        outputs are tagged ``{output}:{t}``."""
        want = {f"{t}:{name}": t for t in plan.moduli for name in plan.inputs}
        sums: dict[str, HeCiphertext] = {}
        for maker, tag, blob in listings:
            if tag not in want:
                raise ProtocolError(f"maker {maker} listed unexpected input {tag!r}")
            ct = bfv.ciphertext_from_bytes(blob, params)
            if ct.t != want[tag]:
                raise ProtocolError(f"input {tag!r} is encrypted under t={ct.t}")
            sums[tag] = bfv.he_add(sums[tag], ct) if tag in sums else ct
        missing = want.keys() - sums.keys()
        if missing:
            raise ProtocolError(f"no shares for inputs {sorted(missing)[:4]}")
        inputs = {t: {name: sums[f"{t}:{name}"] for name in plan.inputs} for t in plan.moduli}
        for t, x in inputs.items():
            self._circuit(NoiseOps(params, t), {n: ct.noise_log2 for n, ct in x.items()})
        rng = np.random.default_rng() if rng is None else rng
        out = []
        for t, x in inputs.items():
            y = self._circuit(CiphertextOps(params, t, rk, rng), x)
            out += [(f"{name}:{t}", bfv.ciphertext_to_bytes(y[name])) for name in plan.outputs]
        return out

    def he_finish(
        self,
        sk: SecretKey,
        plan: HePlan,
        entries: Sequence[tuple[str, bytes]],
    ) -> dict:
        """CSP side: decrypt exactly one entry per (output, plan modulus),
        CRT-combine each output value-wise, and derive the result."""
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
        [0, lhs_max + rhs_max], decided as e > rhs_max after decryption."""
        n_A = ops.add(x["n_AB"], x["n_Ab"])
        n_a = ops.add(x["n_aB"], x["n_ab"])
        n_B = ops.add(x["n_AB"], x["n_aB"])
        n_b = ops.add(x["n_Ab"], x["n_ab"])
        n = ops.add(n_A, n_a)
        diff = ops.sub(ops.mul(n, x["n_AB"]), ops.mul(n_A, n_B))
        lhs = ops.mul(ops.mul(diff, diff), ops.add(n, n))
        rhs = ops.mul(ops.mul(n_A, n_a), ops.mul(n_B, n_b))
        lhs = ops.mul_const(lhs, self.threshold_den)
        rhs = ops.mul_const(rhs, self.threshold_num)
        return {"e": ops.add_const(ops.sub(lhs, rhs), self._bounds[1])}

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
        bound = 2 * lr_he_plan_bound(self.model)
        return (bound + 1).bit_length() + 1, bound

    def he_result(self, outputs: Mapping[str, list[int]], modulus: int) -> dict:
        (z,) = outputs["z"]
        z = z - modulus if z > modulus // 2 else z
        idx = self.table.index_for_z(z, 2 * self.model.spec.frac_bits)
        return self._probability(self.table.probability(idx))


Computation = LdComputation | LrComputation
