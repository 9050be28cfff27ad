"""Helpers shared by the test modules."""


def bits_from_int(value: int, width: int) -> list[int]:
    """Little-endian bit vector of ``value`` (two's complement for negatives)."""
    v = value & ((1 << width) - 1)
    return [(v >> i) & 1 for i in range(width)]
