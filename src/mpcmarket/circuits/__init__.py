"""Boolean circuit IR, arithmetic circuit builders, and plaintext evaluation."""

from .ir import (
    AND,
    INV,
    XOR,
    Circuit,
    CircuitError,
    FixedPointSpec,
    GateStats,
    InputGroup,
    eval_plain,
)
from .builders import (
    CircuitBuilder,
    build_adder,
    build_greater_than,
    build_lookup,
    build_multiplier,
)

__all__ = [
    "AND",
    "INV",
    "XOR",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "FixedPointSpec",
    "GateStats",
    "InputGroup",
    "build_adder",
    "build_greater_than",
    "build_lookup",
    "build_multiplier",
    "eval_plain",
]
