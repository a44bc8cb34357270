"""Tests for KMP matching and the tag scan."""

import pytest

from repro.core.dpc import DynamicProxyCache
from repro.core.scanner import (
    failure_function,
    find_positions,
    kmp_find_all,
)
from repro.core.template import SENTINEL, Template
from repro.errors import ConfigurationError


class TestFailureFunction:
    def test_no_repetition(self):
        assert failure_function("abcd") == [0, 0, 0, 0]

    def test_classic_example(self):
        assert failure_function("abab") == [0, 0, 1, 2]

    def test_aaaa(self):
        assert failure_function("aaaa") == [0, 1, 2, 3]

    def test_mixed(self):
        assert failure_function("abacabab") == [0, 0, 1, 0, 1, 2, 3, 2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            failure_function("")


class TestKmpFindAll:
    def test_basic(self):
        assert kmp_find_all("abcabcabc", "abc") == [0, 3, 6]

    def test_overlapping_matches(self):
        assert kmp_find_all("aaaa", "aa") == [0, 1, 2]

    def test_no_match(self):
        assert kmp_find_all("abcdef", "xyz") == []

    def test_pattern_longer_than_text(self):
        assert kmp_find_all("ab", "abc") == []

    def test_match_at_end(self):
        assert kmp_find_all("xxab", "ab") == [2]

    def test_agrees_with_str_find(self):
        text = "the template sentinel <~ appears <~ twice and a half <"
        assert kmp_find_all(text, "<~") == [22, 33]

    def test_empty_text(self):
        assert kmp_find_all("", "ab") == []


class TestTagScanner:
    """The sentinel scan (:func:`find_positions`) and the DPC's per-byte
    scan charge (``DynamicProxyCache.bytes_scanned``)."""

    def test_positions(self):
        assert find_positions("a<~b<~c", SENTINEL) == [1, 4]

    def test_bytes_scanned_accumulates(self):
        dpc = DynamicProxyCache(capacity=4)
        dpc.process_response("x" * 100)
        dpc.process_response("y" * 50)
        assert dpc.bytes_scanned == 150

    def test_empty_sentinel_rejected(self):
        with pytest.raises(ConfigurationError):
            find_positions("abc", "")

    def test_single_pass_guarantee(self):
        """Scanned bytes equal the response length exactly — linear, one
        pass — and every sentinel is found once."""
        dpc = DynamicProxyCache(capacity=4)
        wire = Template().literal("<~" * 500).serialize()
        assert len(find_positions(wire, SENTINEL)) == 500
        dpc.process_response(wire)
        assert dpc.bytes_scanned == len(wire)
