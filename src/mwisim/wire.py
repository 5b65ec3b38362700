"""Message objects and their size accounting.

A message is a small tuple of non-negative integers plus a 4-bit type tag.
The canonical encoding is self-delimiting: tag, then for each field a 6-bit
bit-length header followed by the field's bits. ``size_bits`` is the exact
length of that encoding, which is what the CONGEST budget check consumes.
Values must stay below 2^63, matching the model assumption that node
weights and identifiers are polynomially bounded; a wider value, such as a
rank or a sum of weights, travels as 63-bit limbs (``to_limbs``).

This module is the one owner of that encoding, in two forms: the scalar
one each ``Message`` is sized by, and the array one (``check_fields``,
``message_sizes``, ``limb_sizes``) with which the engine sizes a round of
kernel messages, one entry per sender, unbuilt; ``check_tag`` serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

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


def check_tag(tag: int) -> None:
    """Raise ``WireError`` unless ``tag`` fits in ``TAG_BITS`` bits."""
    if not 0 <= tag < (1 << TAG_BITS):
        raise WireError(f"tag {tag} does not fit in {TAG_BITS} bits")


def size_bits(values: Iterable[int]) -> int:
    """The encoded length of a message with fields ``values``: the tag, then
    each field's length header and bits (``WireError`` outside [0, 2^63))."""
    return TAG_BITS + sum(LEN_BITS + _field_bits(v) for v in values)


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable message: type tag plus integer fields."""

    tag: int
    values: tuple[int, ...] = ()
    size_bits: int = field(init=False)

    def __post_init__(self):
        check_tag(self.tag)
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


def bit_lengths(a: np.ndarray) -> np.ndarray:
    """``max(1, v.bit_length())`` for each non-negative int64 ``v`` in ``a``."""
    a = np.maximum(a, 1)
    e = np.frexp(a)[1]
    # below 2^53 the float is exact; past it, it can round up to the next
    # power of two: one too many
    if a.size and a.max() >= 1 << 53:
        e -= (a >> (e - 1)) == 0
    return e


def check_fields(fields: Sequence[np.ndarray], count: int) -> None:
    """Raise, for the first i < ``count`` with a field outside [0, 2^63),
    the ``WireError`` that sizing the fields ``f[i]`` raises, as building
    that sender's ``Message`` would."""
    if any(f.dtype == object or (count and f.min() < 0) for f in fields):
        bad = np.zeros(count, dtype=bool)
        for f in fields:
            if f.dtype == object:
                bad |= np.fromiter((not 0 <= v < 1 << FIELD_BITS for v in f), bool, count)
            else:
                bad |= f < 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            size_bits(int(f[i]) for f in fields)


def message_sizes(fields: Sequence[np.ndarray], count: int) -> np.ndarray:
    """``size_bits(f[i] for f in fields)`` for each i < ``count``, as int64,
    for fields that ``check_fields`` has passed."""
    if not fields:
        return np.full(count, TAG_BITS, dtype=np.int64)
    # one (fields x senders) array, so the per-call numpy cost is paid once
    bits = bit_lengths(np.array(fields, dtype=np.int64))
    sizes = bits.sum(axis=0, dtype=np.int64)
    sizes += TAG_BITS + LEN_BITS * len(fields)
    return sizes


def limb_sizes(values: Sequence[int]) -> np.ndarray:
    """``size_bits(to_limbs(v))`` for each ``v`` in ``values``, as int64:
    the size of a message that carries one value as limbs."""
    return np.fromiter((size_bits(to_limbs(int(v))) for v in values), np.int64,
                       len(values))
