"""Unit tests for core result types."""

from repro.core import Encoding, SearchResult


def test_from_vector_miss():
    result = SearchResult.from_vector(5, 0)
    assert not result.hit
    assert result.address is None
    assert result.match_count == 0


def test_from_vector_single_hit():
    result = SearchResult.from_vector(5, 0b0100)
    assert result.hit
    assert result.address == 2
    assert result.match_count == 1


def test_from_vector_multi_hit_picks_lowest():
    result = SearchResult.from_vector(5, 0b1010_0010)
    assert result.address == 1
    assert result.match_count == 3


def test_encoded_priority():
    result = SearchResult.from_vector(9, 0b100, Encoding.PRIORITY)
    # size 16 -> 4 address bits; hit flag is bit 4.
    assert result.encoded(16) == (1 << 4) | 2
    miss = SearchResult.from_vector(9, 0, Encoding.PRIORITY)
    assert miss.encoded(16) == 0


def test_encoded_one_hot():
    result = SearchResult.from_vector(9, 0b1010, Encoding.ONE_HOT)
    assert result.encoded(16) == 0b1010


def test_encoded_count():
    result = SearchResult.from_vector(9, 0b1110, Encoding.COUNT)
    assert result.encoded(16) == 3


def test_encoded_binary_multi_flag():
    single = SearchResult.from_vector(9, 0b0100, Encoding.BINARY)
    multi = SearchResult.from_vector(9, 0b0110, Encoding.BINARY)
    assert single.encoded(16) == (1 << 4) | 2
    assert multi.encoded(16) == (1 << 5) | (1 << 4) | 1
