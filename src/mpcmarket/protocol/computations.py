"""Registered computations: what a buyer may query and how each backend
realizes it. Buyers name a computation id plus public parameters; the CSP
builds the circuit or validates the HE plan. Ad-hoc circuit upload is
deliberately unsupported.

Both computations offer the same interface: ``input_schema`` (input-group
name -> bit width, the same for both backends), ``oracle``, the GC side
(``circuit``, ``decode_output``) and the HE side (``he_plan(params)``, whose
plan lists its plaintext ``moduli``, then ``he_encrypt_inputs``,
``he_evaluate`` and ``he_finish``). The HE plan follows from the public
(computation, params) pair, so every role derives it on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..analytics.ld import (
    HaplotypeCounts,
    LdHePlan,
    build_ld_circuit,
    ld_decide_plain,
)
from ..analytics.lr import (
    LrHePlan,
    LrModel,
    SigmoidTable,
    build_lr_circuit,
    build_sigmoid_table,
    lr_he_plan_bound,
    lr_predict_fixed,
)
from ..circuits.ir import Circuit, int_from_bits
from ..he import bfv
from ..he.bfv import HeCiphertext, HeParams, PublicKey, RelinKey, SecretKey
from .messages import ProtocolError

MakerInput = Mapping[str, int]  # input-group name -> integer value
_COUNT_NAMES = HaplotypeCounts._fields


@dataclass(frozen=True)
class LdComputation:
    """Chi-square LD test over m instances, each split across contributors."""

    count_bits: int = 11
    m_instances: int = 1
    threshold_num: int = 3841
    threshold_den: int = 1000
    contributors: int = 1

    computation_id = "ld-test"

    def params_json(self) -> str:
        return json.dumps(
            {
                "count_bits": self.count_bits,
                "m": self.m_instances,
                "threshold": [self.threshold_num, self.threshold_den],
                "contributors": self.contributors,
            },
            sort_keys=True,
        )

    @cached_property
    def circuit(self) -> Circuit:
        return build_ld_circuit(
            self.count_bits,
            self.m_instances,
            self.threshold_num,
            self.threshold_den,
            self.contributors,
        )

    def _group_names(self, i: int, name: str) -> list[str]:
        """The input groups whose sum is count ``name`` of instance ``i``."""
        if self.contributors == 1:
            return [f"i{i}.{name}"]
        return [f"i{i}.c{j}.{name}" for j in range(self.contributors)]

    @cached_property
    def input_schema(self) -> dict[str, int]:
        return {
            g: self.count_bits
            for i in range(self.m_instances)
            for name in _COUNT_NAMES
            for g in self._group_names(i, name)
        }

    def _merged_counts(self, inputs: Mapping[str, int]) -> list[HaplotypeCounts]:
        return [
            HaplotypeCounts(
                *(sum(inputs[g] for g in self._group_names(i, name)) for name in _COUNT_NAMES)
            )
            for i in range(self.m_instances)
        ]

    def oracle(self, inputs: Mapping[str, int]) -> dict:
        decisions = [
            ld_decide_plain(c, self.threshold_num, self.threshold_den).decision
            for c in self._merged_counts(inputs)
        ]
        return {"decisions": decisions}

    def decode_output(self, bits: Sequence[int]) -> dict:
        if len(bits) != self.m_instances:
            raise ProtocolError("LD output width mismatch")
        return {"decisions": [bool(b) for b in bits]}

    # -- HE path -------------------------------------------------------------

    def he_plan(self, params: HeParams) -> LdHePlan:
        return LdHePlan.create(
            params, self.count_bits, self.threshold_num, self.threshold_den
        )

    def he_encrypt_inputs(
        self,
        pk: PublicKey,
        plan: LdHePlan,
        maker_input: MakerInput,
        rng: np.random.Generator,
    ) -> list[tuple[str, bytes]]:
        """One batched ciphertext per (modulus, count name): slot i holds the
        maker's share for instance i."""
        share_vectors = {
            name: [
                sum(maker_input.get(g, 0) for g in self._group_names(i, name))
                for i in range(self.m_instances)
            ]
            for name in _COUNT_NAMES
        }
        entries = []
        for t in plan.moduli:
            for name in _COUNT_NAMES:
                if self.m_instances == 1:
                    pt = bfv.encode_scalar(share_vectors[name][0], pk.params, t)
                else:
                    pt = bfv.batch_encode(share_vectors[name], pk.params, t)
                entries.append(
                    (f"{t}:{name}", bfv.ciphertext_to_bytes(bfv.encrypt(pk, pt, rng)))
                )
        return entries

    def he_evaluate(
        self,
        params: HeParams,
        rk: RelinKey | None,
        plan: LdHePlan,
        listings: Sequence[tuple[int, str, bytes]],
    ) -> list[tuple[str, bytes]]:
        """Buyer side: aggregate maker shares (free additions), then run the
        lhs/rhs plan per modulus."""
        aggregated: dict[str, HeCiphertext] = {}
        for _maker, tag, blob in listings:
            ct = bfv.ciphertext_from_bytes(blob, params)
            aggregated[tag] = (
                bfv.he_add(aggregated[tag], ct) if tag in aggregated else ct
            )
        out = []
        for t in plan.moduli:
            per_name = {name: aggregated[f"{t}:{name}"] for name in _COUNT_NAMES}
            lhs, rhs = plan.run(rk, per_name)
            out.append((f"lhs:{t}", bfv.ciphertext_to_bytes(lhs)))
            out.append((f"rhs:{t}", bfv.ciphertext_to_bytes(rhs)))
        return out

    def he_finish(
        self,
        sk: SecretKey,
        plan: LdHePlan,
        entries: Sequence[tuple[str, bytes]],
    ) -> dict:
        """CSP side: decrypt lhs/rhs residues, CRT-combine, compare."""
        per_t: dict[int, dict[str, list[int]]] = {}
        for tag, blob in entries:
            side, t_str = tag.split(":")
            t = int(t_str)
            ct = bfv.ciphertext_from_bytes(blob, sk.params)
            pt = bfv.decrypt(sk, ct)
            if pt.encoding == "batch":
                values = bfv.batch_decode(pt, self.m_instances)
            else:
                values = [bfv.decode_scalar(pt)]
            per_t.setdefault(t, {})[side] = values
        residues = {
            t: (sides["lhs"], sides["rhs"]) for t, sides in per_t.items()
        }
        decisions = plan.decide_many(residues)
        return {"decisions": decisions}


@dataclass(frozen=True)
class LrComputation:
    """Logistic-regression inference on one sample row."""

    model: LrModel
    range_bits: int = 10

    computation_id = "lr-predict"

    def params_json(self) -> str:
        return json.dumps(
            {"model": "bundled", "range_bits": self.range_bits, "dim": self.model.dim},
            sort_keys=True,
        )

    @cached_property
    def table(self) -> SigmoidTable:
        return build_sigmoid_table(range_bits=self.range_bits)

    @cached_property
    def circuit(self) -> Circuit:
        return build_lr_circuit(self.model, self.table)

    @cached_property
    def input_schema(self) -> dict[str, int]:
        return {f"x{j}": self.model.spec.total_bits for j in range(self.model.dim)}

    def _row(self, inputs: Mapping[str, int]) -> list[int]:
        w = self.model.spec.total_bits
        sign = 1 << (w - 1)
        row = []
        for j in range(self.model.dim):
            v = inputs[f"x{j}"] & ((1 << w) - 1)
            row.append(v - (1 << w) if v & sign else v)
        return row

    def oracle(self, inputs: Mapping[str, int]) -> dict:
        p = lr_predict_fixed(self.model, self._row(inputs), self.table)
        return {
            "probability_fixed": p,
            "probability": self.table.out_spec.to_float(p),
        }

    def decode_output(self, bits: Sequence[int]) -> dict:
        p = int_from_bits(bits)
        return {
            "probability_fixed": p,
            "probability": self.table.out_spec.to_float(p),
        }

    # -- HE path -------------------------------------------------------------

    def he_plan(self, params: HeParams) -> LrHePlan:
        bits = (2 * lr_he_plan_bound(self.model) + 1).bit_length() + 1
        return LrHePlan((bfv.find_plain_primes(params.n, bits)[0],))

    def he_encrypt_inputs(
        self,
        pk: PublicKey,
        plan: LrHePlan,
        maker_input: MakerInput,
        rng: np.random.Generator,
    ) -> list[tuple[str, bytes]]:
        (t,) = plan.moduli
        row = self._row(maker_input)
        entries = []
        for j, x in enumerate(row):
            ct = bfv.encrypt(pk, bfv.encode_scalar(x, pk.params, t), rng)
            entries.append((f"{t}:x{j}", bfv.ciphertext_to_bytes(ct)))
        return entries

    def he_evaluate(
        self,
        params: HeParams,
        rk: RelinKey | None,
        plan: LrHePlan,
        listings: Sequence[tuple[int, str, bytes]],
    ) -> list[tuple[str, bytes]]:
        """Buyer side: the affine part z = x.w + b on ciphertexts (plaintext
        weights, free additions); the sigmoid tail runs post-decryption.
        ``rk`` is unused: the plan multiplies no ciphertexts."""
        (t,) = plan.moduli
        cts: dict[str, HeCiphertext] = {}
        for _maker, tag, blob in listings:
            cts[tag] = bfv.ciphertext_from_bytes(blob, params)
        acc: HeCiphertext | None = None
        for j, w in enumerate(self.model.weights):
            ct = cts[f"{t}:x{j}"]
            if w == 0:
                continue
            term = bfv.he_mul_plain(ct, bfv.encode_scalar(w, params, t))
            acc = term if acc is None else bfv.he_add(acc, term)
        if acc is None:
            raise ProtocolError("model has no nonzero weights")
        bias = self.model.bias << self.model.spec.frac_bits
        acc = bfv.he_add_plain(acc, bfv.encode_scalar(bias, params, t))
        return [(f"z:{t}", bfv.ciphertext_to_bytes(acc))]

    def he_finish(
        self,
        sk: SecretKey,
        plan: LrHePlan,
        entries: Sequence[tuple[str, bytes]],
    ) -> dict:
        if len(entries) != 1 or not entries[0][0].startswith("z:"):
            raise ProtocolError("expected a single z ciphertext")
        ct = bfv.ciphertext_from_bytes(entries[0][1], sk.params)
        z = bfv.decode_scalar(bfv.decrypt(sk, ct), signed=True)
        idx = self.table.index_for_z(z, 2 * self.model.spec.frac_bits)
        p = self.table.probability(idx)
        return {
            "probability_fixed": p,
            "probability": self.table.out_spec.to_float(p),
        }


Computation = LdComputation | LrComputation
