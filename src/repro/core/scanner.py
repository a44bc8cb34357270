"""Sentinel scanning and byte counts for the template codec.

The paper justifies its scan-cost assumption by noting that "string matching
algorithms (e.g., KMP [18]) are linear-time algorithms" (§5).  The DPC must
scan every response byte exactly once looking for instruction tags.  The
reference parser (:func:`~repro.core.template.parse_template`) runs that
linear scan with ``str.find`` (:func:`find_positions`), inside the
interpreter's C string machinery; the DPC's own scan
(:meth:`~repro.core.dpc.DynamicProxyCache.process_response`) walks the
sentinels with ``str.find`` as it assembles.  The classic per-character KMP
loop (:func:`kmp_iter`, read through :func:`kmp_find_all`) is kept as the
one executable oracle the differential tests hold the ``str.find`` scan to:
same match positions.

:func:`utf8_len` is the byte count every layer charges; the DPC adds each
response's to :attr:`~repro.core.dpc.DpcStats.bytes_scanned` (the per-byte
``z`` cost of the Section 5 analysis), so the scan-cost analysis (Result 1)
can be measured rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from ..errors import ConfigurationError


def utf8_len(text: str) -> int:
    """UTF-8 byte length of ``text`` without encoding pure-ASCII strings.

    ``str.isascii`` reads a flag CPython keeps on every string, so the
    common all-ASCII page costs O(1) instead of a copy of the whole page.
    """
    return len(text) if text.isascii() else len(text.encode("utf-8"))


@lru_cache(maxsize=256)
def _failure_table(pattern: str) -> Tuple[int, ...]:
    """Build (once per pattern) the KMP failure table, as a tuple.

    Shared by every KMP entry point so repeated scans with the same pattern
    never rebuild the table — previously ``kmp_iter`` reconstructed it on
    every call.
    """
    if not pattern:
        raise ConfigurationError("pattern cannot be empty")
    table = [0] * len(pattern)
    length = 0
    for i in range(1, len(pattern)):
        while length > 0 and pattern[i] != pattern[length]:
            length = table[length - 1]
        if pattern[i] == pattern[length]:
            length += 1
        table[i] = length
    return tuple(table)


def failure_function(pattern: str) -> List[int]:
    """KMP failure (longest-proper-prefix-suffix) table for ``pattern``.

    ``table[i]`` is the length of the longest proper prefix of
    ``pattern[:i+1]`` that is also a suffix of it.  The table is computed
    once per pattern and memoized (:func:`functools.lru_cache`); callers
    get a fresh list they are free to mutate.
    """
    return list(_failure_table(pattern))


def kmp_iter(text: str, pattern: str) -> Iterator[int]:
    """Yield the start index of every (possibly overlapping) match.

    Uses the memoized failure table — building it per call was measurable
    overhead for callers that scan many small texts with one pattern.
    """
    table = _failure_table(pattern)
    matched = 0
    for i, char in enumerate(text):
        while matched > 0 and char != pattern[matched]:
            matched = table[matched - 1]
        if char == pattern[matched]:
            matched += 1
        if matched == len(pattern):
            yield i - len(pattern) + 1
            matched = table[matched - 1]


def kmp_find_all(text: str, pattern: str) -> List[int]:
    """All match positions of ``pattern`` in ``text`` (overlaps included)."""
    return list(kmp_iter(text, pattern))


def find_positions(text: str, pattern: str) -> List[int]:
    """All (possibly overlapping) match positions, via ``str.find``.

    The reference parser's scan: the same linear pass as KMP, executed by the
    interpreter's C substring search instead of a per-character Python
    loop.  Overlapping matches are included (the search resumes one
    character past each match start), so the output is position-for-position
    identical to :func:`kmp_find_all`.
    """
    if not pattern:
        raise ConfigurationError("pattern cannot be empty")
    matches: List[int] = []
    find = text.find
    position = find(pattern)
    while position != -1:
        matches.append(position)
        position = find(pattern, position + 1)
    return matches

