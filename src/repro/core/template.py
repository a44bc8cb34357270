"""The page-template instruction language exchanged between BEM and DPC.

At run time the BEM writes a *page template* instead of a full page: literal
layout HTML interleaved with instructions (§4.3.2):

* ``SET`` — "insert the fragment into the DPC": carries the dpcKey and the
  freshly generated fragment content (a directory miss).
* ``GET`` — "retrieve the fragment from the DPC": carries only the dpcKey
  (a directory hit).  This is the tiny tag whose size is the ``g`` of the
  Section 5 analysis.

Wire format
-----------

Tags are framed by the sentinel ``<~``::

    GET       <~G:0042~>
    SET open  <~S:0042~>...fragment content...<~E:0042~>
    escape    <~Q~>          (a literal occurrence of "<~" in content)

With the default ``key_width=4`` a GET tag is exactly **10 bytes** — the
paper's baseline tag size ``g`` (Table 2) — and a SET costs two tags, giving
the analysis' miss cost of ``s + 2g``.  dpcKeys are zero-padded integers,
which is precisely why the paper introduces the integer key: "it reduces the
tag size" versus embedding the long fragmentID (§4.3.3).

One pass per leg
----------------

The wire string is the only form a response takes between the script and
the client, and each end makes one pass over it:

* the origin writes it as blocks resolve
  (:class:`~repro.appserver.scripts.ScriptContext` appends each GET tag,
  SET frame and escaped run of literal text; :func:`escape_literal` is the
  escape), so no instruction objects or serialize pass sit between a
  block and the wire;
* the proxy scans and assembles it in one ``str.find`` walk over the
  sentinels, each tag decoded by one precompiled regex
  (:func:`tag_matcher`), inside
  :meth:`~repro.core.dpc.DynamicProxyCache.process_response`;
* :class:`TemplateCache` is the proxy's LRU parse cache, keyed on the wire
  string, for the SET-free wire forms a warm proxy sees again; it is
  bounded by entry count and by the cached wires' total UTF-8 bytes.

:class:`Template` and its instruction classes are the decoded view: the
ESI capture, the BEM's dead-letter recovery (which parses an undelivered
wire to find its SET keys) and the tests read them.  Each leg keeps one
reference the differential property tests hold it to, and the serve path
calls neither: :meth:`Template.serialize` for the origin's writer, and
:func:`parse_template` followed by
:meth:`~repro.core.dpc.DynamicProxyCache.assemble` for the proxy's scan.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError, OversizedFragmentError, TemplateError
from .scanner import find_positions, utf8_len

SENTINEL = "<~"
TAG_CLOSE = "~>"
ESCAPE_TAG = "<~Q~>"


class TemplateConfig:
    """Framing parameters shared by a BEM/DPC pair.

    ``key_width`` fixes the zero-padded dpcKey width, hence the exact tag
    size ``g = key_width + 6`` bytes and the maximum representable key.
    Both sides of a deployment must agree on it, like any wire protocol.

    ``max_fragment_bytes`` bounds one SET payload.  A proxy that accepts
    arbitrarily large fragments can be wedged by a single malformed (or
    hostile) response; anything over the limit is rejected with a typed
    :class:`~repro.errors.OversizedFragmentError` before it touches a slot.
    """

    __slots__ = ("key_width", "max_fragment_bytes", "get_tags", "frame_tags")

    def __init__(
        self, key_width: int = 4, max_fragment_bytes: int = 1 << 20
    ) -> None:
        if key_width < 1:
            raise ConfigurationError("key_width must be at least 1")
        if max_fragment_bytes < 1:
            raise ConfigurationError("max_fragment_bytes must be positive")
        object.__setattr__(self, "key_width", key_width)
        object.__setattr__(self, "max_fragment_bytes", max_fragment_bytes)
        #: dpcKey -> its rendered GET tag, each formatted once.
        #: :meth:`format_key` rejects out-of-range keys, so this holds at
        #: most ``10 ** key_width`` entries.
        object.__setattr__(self, "get_tags", KeyMemo(self._render_get_tag))
        #: dpcKey -> its ``(SET, END)`` frame tags, memoized the same way.
        object.__setattr__(self, "frame_tags", KeyMemo(self._render_frame_tags))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TemplateConfig is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemplateConfig):
            return NotImplemented
        return (
            self.key_width == other.key_width
            and self.max_fragment_bytes == other.max_fragment_bytes
        )

    def __hash__(self) -> int:
        return hash((self.key_width, self.max_fragment_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TemplateConfig(key_width=%d, max_fragment_bytes=%d)" % (
            self.key_width, self.max_fragment_bytes,
        )

    @property
    def tag_size(self) -> int:
        """Bytes per tag: ``<~`` + kind + ``:`` + key + ``~>``."""
        return self.key_width + 6

    @property
    def max_key(self) -> int:
        """Largest dpcKey representable at this key width."""
        return 10 ** self.key_width - 1

    def format_key(self, key: int) -> str:
        """Zero-padded decimal rendering of a dpcKey."""
        if not 0 <= key <= self.max_key:
            raise ConfigurationError(
                "dpcKey %d out of range for key_width=%d" % (key, self.key_width)
            )
        return "%0*d" % (self.key_width, key)

    def _render_get_tag(self, key: int) -> str:
        return "<~G:" + self.format_key(key) + "~>"

    def _render_frame_tags(self, key: int) -> Tuple[str, str]:
        text = self.format_key(key)
        return "<~S:" + text + "~>", "<~E:" + text + "~>"


class KeyMemo(dict):
    """``memo[key]`` builds ``make(key)`` on first use and keeps it.

    Sized by the keys actually asked for, which are dpcKeys: a memo over
    one key space never outgrows it.
    """

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[int], object]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key: int) -> object:
        value = self[key] = self._make(key)
        return value


DEFAULT_CONFIG = TemplateConfig()


class Literal:
    """Non-cacheable bytes shipped verbatim (layout markup, X_j=0 content)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        object.__setattr__(self, "text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Literal is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash((Literal, self.text))

    def __repr__(self) -> str:
        return "Literal(text=%r)" % (self.text,)


class GetInstruction:
    """Splice the DPC slot ``key``'s content here (directory hit)."""

    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        object.__setattr__(self, "key", key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GetInstruction is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GetInstruction):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash((GetInstruction, self.key))

    def __repr__(self) -> str:
        return "GetInstruction(key=%r)" % (self.key,)


class SetInstruction(tuple):
    """Store ``content`` in slot ``key``, and splice it here (miss).

    The instruction is the pair ``(key, content)``: a ``tuple`` subclass
    with no instance storage and read-only fields, like
    :class:`~repro.core.fragments.Dependency`, so the BEM builds one per
    miss with ``tuple.__new__``.  Equality and hashing are the pair's own
    (an instruction equals the plain tuple ``(key, content)``).
    """

    __slots__ = ()

    #: The field names in tuple order, as a named tuple has them.
    _fields = ("key", "content")

    def __new__(cls, key: int, content: str) -> "SetInstruction":
        return tuple.__new__(cls, (key, content))

    key = property(itemgetter(0))
    content = property(itemgetter(1))

    def __repr__(self) -> str:
        return "SetInstruction(key=%r, content=%r)" % tuple(self)

    def __reduce__(self):
        return (SetInstruction, tuple(self))


Instruction = Union[Literal, GetInstruction, SetInstruction]


class Template:
    """An ordered instruction stream plus its serialization/parsing.

    The decoded view of a wire, and the oracle the wire writers are tested
    against; the serve path builds none.  Nothing is memoized.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction] = (),
        config: TemplateConfig = DEFAULT_CONFIG,
    ) -> None:
        self.instructions: List[Instruction] = list(instructions)
        self.config = config

    # -- construction -----------------------------------------------------------

    def add(self, instruction: Instruction) -> "Template":
        """Append one instruction (chainable)."""
        self.instructions.append(instruction)
        return self

    def literal(self, text: str) -> "Template":
        """Append literal page text (chainable)."""
        return self.add(Literal(text))

    def get(self, key: int) -> "Template":
        """Append a GET instruction (chainable)."""
        return self.add(GetInstruction(key))

    def set(self, key: int, content: str) -> "Template":
        """Append a SET instruction with content (chainable)."""
        return self.add(SetInstruction(key, content))

    # -- inspection --------------------------------------------------------------

    @property
    def get_count(self) -> int:
        """Number of GET instructions."""
        return sum(1 for i in self.instructions if type(i) is GetInstruction)

    @property
    def set_count(self) -> int:
        """Number of SET instructions."""
        return sum(1 for i in self.instructions if type(i) is SetInstruction)

    def normalized(self) -> "Template":
        """Merge adjacent literals and drop empty ones.

        Serialization implicitly concatenates adjacent literal text, so the
        normalized form is the canonical one: ``parse(serialize(t))`` equals
        ``t.normalized()``.
        """
        merged: List[Instruction] = []
        for instruction in self.instructions:
            if type(instruction) is Literal:
                if not instruction.text:
                    continue
                if merged and type(merged[-1]) is Literal:
                    merged[-1] = Literal(merged[-1].text + instruction.text)
                    continue
            merged.append(instruction)
        return Template(merged, self.config)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return (
            self.instructions == other.instructions and self.config == other.config
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Template(%d instructions, %d GET, %d SET)" % (
            len(self.instructions),
            self.get_count,
            self.set_count,
        )

    # -- serialization --------------------------------------------------------------

    def serialize(self) -> str:
        """Render the wire form of this instruction stream.

        The reference encoder: :meth:`normalized`, then one tag per
        instruction, each key rendered by
        :meth:`TemplateConfig.format_key` rather than the config's tag
        memos, so it shares no code with the origin's wire writer
        (:class:`~repro.appserver.scripts.ScriptContext`), which must ship
        exactly this for the same stream of writes and blocks.
        """
        parts: List[str] = []
        for instruction in self.normalized().instructions:
            if type(instruction) is Literal:
                parts.append(escape_literal(instruction.text))
            elif type(instruction) is GetInstruction:
                parts.append(_tag(self.config, "G", instruction.key))
            elif type(instruction) is SetInstruction:
                parts.append(_tag(self.config, "S", instruction.key))
                parts.append(escape_literal(instruction.content))
                parts.append(_tag(self.config, "E", instruction.key))
            else:  # pragma: no cover - exhaustive over Instruction
                raise TemplateError("unknown instruction %r" % (instruction,))
        return "".join(parts)

    def wire_bytes(self) -> int:
        """Size of the serialized template in UTF-8 bytes."""
        return utf8_len(self.serialize())


def _tag(config: TemplateConfig, kind: str, key: int) -> str:
    return "%s%s:%s%s" % (SENTINEL, kind, config.format_key(key), TAG_CLOSE)


def escape_literal(text: str) -> str:
    """``text`` with every ``<~`` escaped, ready to go on the wire."""
    # A one-character "~" test runs on memchr; most text has no "~", so it
    # skips the slower two-character search inside replace().
    return text.replace(SENTINEL, ESCAPE_TAG) if "~" in text else text


class TemplateCache:
    """LRU parse cache: wire string -> what the proxy keeps of its decode.

    A warm proxy sees the same serialized template again and again — every
    full-hit exchange for a page ships an identical GET-only wire form.
    Re-scanning it is pure interpreter overhead the paper's design never
    asks for, so the DPC keeps this cache in front of its scan and stores
    the part skeleton of each SET-free wire (see
    :meth:`~repro.core.dpc.DynamicProxyCache.process_response`).  A
    SET-bearing wire carries fresh fragment content and never repeats, so
    caching it would only pin its payload.

    Two bounds hold after every :meth:`put`: at most ``maxsize`` entries,
    and at most ``max_wire_bytes`` UTF-8 bytes of cached wires in total
    (:attr:`wire_bytes`).  Least-recently-used entries are evicted until
    both hold.  Pages whose non-cacheable content rides inline make large
    wires that rarely repeat, so the byte budget keeps such a cache from
    growing with wire size rather than with reuse; small wires fill the
    entry bound first.  A single wire larger than the budget is never
    cached.

    Most wires the DPC probes carry a SET and can never be here, and
    probing hashes the whole wire.  So the cache also counts its wires by
    length: a wire whose length no cached wire has is a miss without a
    hash.  ``hits`` and ``misses`` count as if every probe were hashed.
    """

    def __init__(self, maxsize: int = 256, max_wire_bytes: int = 1 << 20) -> None:
        if maxsize < 1:
            raise ConfigurationError("cache maxsize must be positive")
        if max_wire_bytes < 1:
            raise ConfigurationError("max_wire_bytes must be positive")
        self.maxsize = maxsize
        self.max_wire_bytes = max_wire_bytes
        #: wire -> (entry, the wire's UTF-8 bytes), oldest first.
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._lengths: Dict[int, int] = {}  # len(wire) -> cached wires that long
        #: UTF-8 bytes of the cached wires, in total.
        self.wire_bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, wire: str) -> Optional[object]:
        """The cached entry for ``wire``, refreshed to most-recently-used."""
        cached = self._entries.get(wire) if len(wire) in self._lengths else None
        if cached is None:
            self.misses += 1
            return None
        self._entries.move_to_end(wire)
        self.hits += 1
        return cached[0]

    def put(self, wire: str, entry: object, wire_bytes: Optional[int] = None) -> None:
        """Remember the entry for ``wire`` as most-recently-used, evicting
        LRU entries until both bounds hold.

        ``wire_bytes`` is the wire's UTF-8 size, measured here when the
        caller has not already measured it.
        """
        if wire_bytes is None:
            wire_bytes = utf8_len(wire)
        if wire_bytes > self.max_wire_bytes:
            return
        entries = self._entries
        lengths = self._lengths
        total = self.wire_bytes + wire_bytes
        cached = entries.get(wire)
        if cached is None:
            lengths[len(wire)] = lengths.get(len(wire), 0) + 1
        else:
            total -= cached[1]
        entries[wire] = (entry, wire_bytes)
        entries.move_to_end(wire)
        # The new wire is last and fits the budget alone, so it stays.
        while len(entries) > self.maxsize or total > self.max_wire_bytes:
            old, (_, size) = entries.popitem(last=False)
            total -= size
            length = len(old)
            if lengths[length] == 1:
                del lengths[length]
            else:
                lengths[length] -= 1
        self.wire_bytes = total

    def clear(self) -> None:
        """Drop every cached entry (e.g. on a proxy restart)."""
        self._entries.clear()
        self._lengths.clear()
        self.wire_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


@lru_cache(maxsize=16)
def tag_matcher(key_width: int):
    """``match`` of the regex for one well-formed tag at ``key_width``.

    Group 1 is the kind (``None`` for the ``<~Q~>`` escape), group 2 the
    key digits.  ``[0-9]`` admits ASCII digits only, as :func:`read_tag`
    does, so the two decoders accept exactly the same tags.
    """
    return re.compile(
        r"<~(?:([GSE]):([0-9]{%d})~>|Q~>)" % key_width
    ).match


def parse_template(wire: str, config: TemplateConfig = DEFAULT_CONFIG) -> Template:
    """Parse a serialized template back into an instruction stream.

    The scan for tags is a single linear pass (the cost the Section 5
    analysis charges at ``z`` per byte), via :func:`find_positions`.  This
    is the reference decoder the DPC's scan is tested against; the serve
    path does not call it.
    """
    positions = find_positions(wire, SENTINEL)
    template = Template(config=config)
    buffer: List[str] = []          # accumulates literal or SET content text
    open_set: Tuple[int, ...] = ()  # (key,) while inside a SET body
    cursor = 0

    def flush_literal() -> None:
        if buffer:
            template.literal("".join(buffer))
            buffer.clear()

    for position in positions:
        if position < cursor:
            # Sentinel inside a tag we already consumed (cannot happen with
            # the current grammar, but guards against malformed overlap).
            continue
        buffer.append(wire[cursor:position])
        kind, key, end = read_tag(wire, position, config)
        cursor = end
        if kind == "Q":
            buffer.append(SENTINEL)
            continue
        if open_set:
            if kind == "E" and key == open_set[0]:
                content = "".join(buffer)
                if len(content.encode("utf-8")) > config.max_fragment_bytes:
                    raise OversizedFragmentError(
                        "SET body for key %d is %d bytes (max %d)"
                        % (
                            open_set[0],
                            len(content.encode("utf-8")),
                            config.max_fragment_bytes,
                        )
                    )
                template.set(open_set[0], content)
                buffer.clear()
                open_set = ()
                continue
            raise TemplateError(
                "unexpected %s tag inside SET body for key %d at offset %d"
                % (kind, open_set[0], position)
            )
        if kind == "G":
            flush_literal()
            template.get(key)
        elif kind == "S":
            flush_literal()
            open_set = (key,)
        elif kind == "E":
            raise TemplateError(
                "END tag for key %d without a matching SET at offset %d"
                % (key, position)
            )
    if open_set:
        raise TemplateError("unterminated SET body for key %d" % open_set[0])
    buffer.append(wire[cursor:])
    if "".join(buffer):
        template.literal("".join(buffer))
    return template.normalized()


def read_tag(wire: str, position: int, config: TemplateConfig) -> Tuple[str, int, int]:
    """Decode one tag at ``position``; returns (kind, key, end_offset)."""
    after = position + len(SENTINEL)
    if wire.startswith("Q" + TAG_CLOSE, after):
        return "Q", -1, after + 1 + len(TAG_CLOSE)
    kind = wire[after : after + 1]
    if kind not in ("G", "S", "E"):
        raise TemplateError(
            "unknown tag kind %r at offset %d" % (wire[after : after + 1], position)
        )
    if wire[after + 1 : after + 2] != ":":
        raise TemplateError("malformed tag at offset %d (missing ':')" % position)
    key_start = after + 2
    key_end = key_start + config.key_width
    key_text = wire[key_start:key_end]
    # ASCII digits only: str.isdigit() alone admits "²" and "١", which
    # int() then rejects or reads as a different key.
    if (
        len(key_text) != config.key_width
        or not key_text.isascii()
        or not key_text.isdigit()
    ):
        raise TemplateError(
            "malformed dpcKey %r at offset %d" % (key_text, position)
        )
    if wire[key_end : key_end + len(TAG_CLOSE)] != TAG_CLOSE:
        raise TemplateError("unterminated tag at offset %d" % position)
    return kind, int(key_text), key_end + len(TAG_CLOSE)
