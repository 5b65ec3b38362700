"""Message objects and their size accounting.

A message is a small tuple of non-negative integers plus a 4-bit type tag.
The canonical encoding is self-delimiting: tag, then for each field a 6-bit
bit-length header followed by the field's bits. ``size_bits`` is the exact
length of that encoding, which is what the CONGEST budget check consumes.
Values must stay below 2^63, matching the model assumption that node
weights and identifiers are polynomially bounded; a wider value, such as a
rank or a sum of weights, travels as 63-bit limbs (``to_limbs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

TAG_BITS = 4
LEN_BITS = 6
FIELD_BITS = 63


class WireError(ValueError):
    pass


def _field_bits(value: int) -> int:
    if value < 0:
        raise WireError(f"message fields must be non-negative, got {value}")
    width = max(1, value.bit_length())
    if width > FIELD_BITS:
        raise WireError(f"message field {value} exceeds {FIELD_BITS} bits")
    return width


def size_bits(values: Iterable[int]) -> int:
    """The encoded length of a message with fields ``values``: the tag, then
    each field's length header and bits (``WireError`` outside [0, 2^63))."""
    return TAG_BITS + sum(LEN_BITS + _field_bits(v) for v in values)


@dataclass(frozen=True)
class Message:
    """An immutable message: type tag plus integer fields."""

    tag: int
    values: tuple[int, ...] = ()
    size_bits: int = field(init=False)

    def __post_init__(self):
        if not 0 <= self.tag < (1 << TAG_BITS):
            raise WireError(f"tag {self.tag} does not fit in {TAG_BITS} bits")
        object.__setattr__(self, "size_bits", size_bits(self.values))


def to_limbs(value: int) -> tuple[int, ...]:
    """Split a non-negative integer into ``FIELD_BITS``-bit fields, least
    significant first: one field when it fits in one."""
    if value < 0:
        raise WireError(f"message fields must be non-negative, got {value}")
    limbs = []
    while True:
        limbs.append(value & ((1 << FIELD_BITS) - 1))
        value >>= FIELD_BITS
        if not value:
            return tuple(limbs)


def from_limbs(limbs: Sequence[int]) -> int:
    """Inverse of ``to_limbs``."""
    value = 0
    for limb in reversed(limbs):
        value = (value << FIELD_BITS) | limb
    return value
