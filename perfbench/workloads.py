"""The four workloads: complete protocol sessions through mpcmarket's public
entry points, the same ones the test suite uses.

Importing this module imports mpcmarket, so only worker processes do it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import mpcmarket
from mpcmarket.analytics.datagen import load_bundled_model
from mpcmarket.he.bfv import HeParams
from mpcmarket.protocol import LdComputation, LrComputation, run_protocol1, run_protocol2

from checks import LrReference, check_datatrust_types, check_ld
from inputs import (
    COUNT_BITS,
    ld_maker_inputs,
    ld_session,
    lr_maker_input,
    protocol_seed,
    read_rows,
    session_rng,
)

DATA = Path(mpcmarket.__file__).resolve().parent / "data"

LD_M = 10
LD_MAKERS = 4
LR_RANGE_BITS = 10


@dataclass(frozen=True)
class Session:
    """One session's generated inputs: what the checks need (the LD
    instances or the LR row number), the maker inputs the program receives,
    the protocol seed, and how many results the session returns."""

    inputs: object
    makers: list[dict[str, int]]
    seed: int
    results: int


class LdWorkload:
    family = "ld"

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.computation = LdComputation(count_bits=COUNT_BITS, m_instances=LD_M)
        self.params = HeParams.default(8192, t_bits=21) if backend == "he" else None

    def session(self, seed: int, worker: int, index: int) -> Session:
        rng = session_rng("ld", seed, worker, index)
        instances = ld_session(rng, LD_M)
        return Session(instances, ld_maker_inputs(instances, LD_MAKERS), protocol_seed(rng), LD_M)

    def run(self, s: Session):
        if self.backend == "he":
            return run_protocol1(self.computation, s.makers, self.params, seed=s.seed)
        return run_protocol2(self.computation, s.makers, seed=s.seed)

    def check(self, s: Session, outcome) -> dict[str, object]:
        check_datatrust_types(e.type_name for e in outcome.transcript.received_by("datatrust"))
        decisions = check_ld(outcome.result, s.inputs)
        return {",".join(map(str, c)): d for c, d in zip(s.inputs, decisions)}


class LrWorkload:
    family = "lr"

    def __init__(self, backend: str, transport: str) -> None:
        self.backend = backend
        self.transport = transport
        self.reference = LrReference(str(DATA / "lr_model.txt"), LR_RANGE_BITS)
        self.rows = read_rows(str(DATA / "wdbc.csv"), self.reference.quantize)
        self.computation = LrComputation(model=load_bundled_model(), range_bits=LR_RANGE_BITS)
        self.params = HeParams.default(4096) if backend == "he" else None

    def session(self, seed: int, worker: int, index: int) -> Session:
        rng = session_rng("lr", seed, worker, index)
        row = rng.randrange(len(self.rows))
        maker = lr_maker_input(self.rows[row], self.reference.total_bits)
        return Session(row, [maker], protocol_seed(rng), 1)

    def run(self, s: Session):
        if self.backend == "he":
            return run_protocol1(
                self.computation, s.makers, self.params, transport=self.transport, seed=s.seed
            )
        return run_protocol2(self.computation, s.makers, transport=self.transport, seed=s.seed)

    def check(self, s: Session, outcome) -> dict[str, object]:
        check_datatrust_types(e.type_name for e in outcome.transcript.received_by("datatrust"))
        return {str(s.inputs): self.reference.check(outcome.result, self.rows[s.inputs])}


# name -> (factory, the twin workload on the other backend)
WORKLOADS = {
    "gc-ld": (lambda: LdWorkload("gc"), "he-ld"),
    "gc-lr-tcp": (lambda: LrWorkload("gc", "tcp"), "he-lr"),
    "he-ld": (lambda: LdWorkload("he"), "gc-ld"),
    "he-lr": (lambda: LrWorkload("he", "inproc"), "gc-lr-tcp"),
}
