import numpy as np
from hypothesis import given
from hypothesis import strategies as st
import pytest

from mwisim.wire import (FIELD_BITS, LEN_BITS, TAG_BITS, Message, WireError, bit_lengths,
                         from_limbs, limb_sizes, message_sizes, size_bits, to_limbs)

fields = st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1), max_size=5)


def payload(msg: Message) -> bytes:
    """The canonical encoding of ``msg`` (the wire module's docstring),
    zero-padded to a byte boundary."""
    acc = msg.tag
    length = TAG_BITS
    for v in msg.values:
        w = max(1, v.bit_length())
        acc = (acc << LEN_BITS) | w
        acc = (acc << w) | v
        length += LEN_BITS + w
    pad = (-length) % 8
    return (acc << pad).to_bytes((length + pad) // 8, "big")


def decode(data: bytes, n_fields: int) -> Message:
    """Inverse of ``payload`` given the field count."""
    acc = int.from_bytes(data, "big")
    total = len(data) * 8
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        pos += width
        return (acc >> (total - pos)) & ((1 << width) - 1)

    tag = take(TAG_BITS)
    values = []
    for _ in range(n_fields):
        width = take(LEN_BITS)
        values.append(take(width))
    return Message(tag, tuple(values))


@given(st.integers(min_value=0, max_value=15), fields)
def test_roundtrip(tag, values):
    msg = Message(tag, tuple(values))
    assert decode(payload(msg), len(values)) == msg


@given(st.integers(min_value=0, max_value=15), fields)
def test_size_matches_encoding(tag, values):
    msg = Message(tag, tuple(values))
    expected = TAG_BITS + sum(LEN_BITS + max(1, v.bit_length()) for v in values)
    assert msg.size_bits == expected
    assert expected <= len(payload(msg)) * 8 < expected + 8


def test_zero_field_costs_one_bit():
    assert Message(1, (0,)).size_bits == TAG_BITS + LEN_BITS + 1


def test_rejects_negative_and_oversized():
    with pytest.raises(WireError):
        Message(1, (-1,))
    with pytest.raises(WireError):
        Message(1, (1 << 63,))
    with pytest.raises(WireError):
        Message(16)


def test_bigger_values_cost_more():
    assert Message(0, (1,)).size_bits < Message(0, (2**40,)).size_bits


@given(st.integers(min_value=0, max_value=1 << 300))
def test_limbs_roundtrip_as_fields(value):
    limbs = to_limbs(value)
    assert from_limbs(limbs) == value
    assert len(limbs) == max(1, -(-value.bit_length() // FIELD_BITS))
    Message(0, limbs)  # every limb is a valid field


def test_limbs_refuse_a_negative_value():
    with pytest.raises(WireError, match="non-negative"):
        to_limbs(-1)


def test_limb_sizes_are_the_size_of_the_limbs_message():
    # one limb, the first two-limb value, three limbs, and a zero low limb
    values = [2**63 - 1, 2**63, 2**126 + 5, 3 << FIELD_BITS]
    assert to_limbs(3 << FIELD_BITS)[0] == 0
    sizes = limb_sizes(np.array(values, dtype=object))
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [Message(9, to_limbs(v)).size_bits for v in values]


# where float64 stops being exact: ``bit_lengths`` corrects its exponent
# only when some value reaches 2^53
WIDE = [2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1, 2**62, 2**63 - 1]
SMALL = [0, 1, 2, 3, 255, 256, 2**31, 2**52 + 1]


@pytest.mark.parametrize("values", [[v] for v in WIDE] + [SMALL, SMALL + WIDE,
                                                          WIDE[::-1] + SMALL])
def test_bit_lengths_and_message_sizes_at_the_float_limit(values):
    a = np.array(values, dtype=np.int64)
    assert bit_lengths(a).tolist() == [max(1, v.bit_length()) for v in values]
    for fields in ([a], [a, a[::-1].copy()], [np.zeros_like(a), a]):
        want = [size_bits(int(f[i]) for f in fields) for i in range(a.size)]
        assert message_sizes(fields, a.size).tolist() == want
    assert bit_lengths(np.zeros(0, dtype=np.int64)).tolist() == []
