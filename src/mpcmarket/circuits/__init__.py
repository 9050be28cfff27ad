"""Boolean circuit IR, arithmetic circuit builders, and plaintext evaluation."""

from .ir import (
    AND,
    INV,
    XOR,
    Circuit,
    CircuitError,
    FixedPointSpec,
    Gate,
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
from .bristol import parse_circuit, serialize_circuit

__all__ = [
    "AND",
    "INV",
    "XOR",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "FixedPointSpec",
    "Gate",
    "GateStats",
    "InputGroup",
    "build_adder",
    "build_greater_than",
    "build_lookup",
    "build_multiplier",
    "eval_plain",
    "parse_circuit",
    "serialize_circuit",
]
