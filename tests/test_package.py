"""Tests for the package's public namespace."""
import twogrid


def test_every_public_name_resolves():
    missing = [name for name in twogrid.__all__ if not hasattr(twogrid, name)]
    assert missing == []
    assert len(set(twogrid.__all__)) == len(twogrid.__all__)
