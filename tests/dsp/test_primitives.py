"""Unit tests for bit-vector primitives."""

import pytest

from repro.dsp import (
    DSP_WIDTH,
    clog2,
    is_power_of_two,
    mask_for,
    pack_words,
    popcount,
    split_ab,
    truncate,
)
from repro.dsp.primitives import check_fits
from repro.errors import ConfigError


def test_mask_for():
    assert mask_for(0) == 0
    assert mask_for(4) == 0xF
    assert mask_for(48) == (1 << 48) - 1
    with pytest.raises(ConfigError):
        mask_for(-1)


def test_truncate_wraps():
    assert truncate(0x1FF, 8) == 0xFF
    assert truncate(5, 8) == 5


def test_check_fits():
    assert check_fits(255, 8) == 255
    with pytest.raises(ConfigError, match="does not fit"):
        check_fits(256, 8)
    with pytest.raises(ConfigError, match="non-negative"):
        check_fits(-1, 8)


def test_concat_split_ab_roundtrip():
    for value in (0, 1, 0xDEADBEEF, (1 << 48) - 1, 0x5A5A_A5A5_5A5A):
        a, b = split_ab(value)
        assert (a << 18) | b == value
        assert b < (1 << 18)
        assert a < (1 << 30)


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount(mask_for(DSP_WIDTH)) == 48


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(256)
    assert not is_power_of_two(0)
    assert not is_power_of_two(3)
    assert not is_power_of_two(-4)


def test_clog2():
    assert clog2(1) == 0
    assert clog2(2) == 1
    assert clog2(3) == 2
    assert clog2(256) == 8
    with pytest.raises(ConfigError):
        clog2(0)


def test_pack_unpack_words_roundtrip():
    words = [3, 0, 255, 17]
    packed = pack_words(words, 8)
    assert [(packed >> (8 * i)) & 0xFF for i in range(4)] == words


def test_pack_words_rejects_oversized():
    with pytest.raises(ConfigError):
        pack_words([256], 8)
