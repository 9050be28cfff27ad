"""Boolean circuit IR and arithmetic circuit builders."""

from .ir import (
    AND,
    XOR,
    Circuit,
    CircuitError,
    FixedPointSpec,
    GateStats,
    InputGroup,
)
from .builders import CircuitBuilder

__all__ = [
    "AND",
    "XOR",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "FixedPointSpec",
    "GateStats",
    "InputGroup",
]
