"""The Dynamic Proxy Cache (DPC), §4.3.3.

"The structure of the DPC cache is straightforward: it is implemented as an
in-memory array of pointers to cached fragments, where the DpcKey serves as
the array index."

The DPC sits outside the site infrastructure.  For every response coming
from the origin it scans the byte stream for instruction tags (one linear
pass — the ``z``-per-byte cost of the Section 5 analysis), executes the
SET/GET instructions against its slot array, and emits the assembled page.

Note the deliberate asymmetry with the BEM: the DPC holds no metadata at
all — no TTLs, no validity flags, no fragment identities.  All cache
management lives in the BEM ("All cache management functionality for the
DPC is handled by the BEM as well"), and the shared integer dpcKey is the
entire coordination protocol: no explicit BEM->DPC control messages exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import (
    AssemblyError,
    ConfigurationError,
    OversizedFragmentError,
    SlotError,
    TemplateError,
)
from .scanner import utf8_len
from .template import (
    DEFAULT_CONFIG,
    SENTINEL,
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateCache,
    TemplateConfig,
    read_tag,
    tag_matcher,
)


@dataclass
class DpcStats:
    """Per-proxy counters used by the experiment harness."""

    responses_processed: int = 0
    template_bytes_in: int = 0    # what crossed the origin link (payload)
    page_bytes_out: int = 0       # what was delivered to clients
    fragments_set: int = 0
    fragments_get: int = 0
    #: Response bytes (UTF-8) the scan was charged for, the ``z`` of §5:
    #: every response, including one whose assembly raised.
    bytes_scanned: int = 0

    @property
    def bytes_saved(self) -> int:
        """Bytes the origin did not have to ship because of assembly."""
        return self.page_bytes_out - self.template_bytes_in


@dataclass
class AssembledPage:
    """Result of assembling one response at the proxy."""

    html: str
    template_bytes: int
    page_bytes: int
    fragments_set: int
    fragments_get: int
    #: The proxy's generation counter at assembly time.  The BEM-side
    #: resync protocol (:mod:`repro.faults.recovery`) watches this value on
    #: returning traffic to detect cold restarts.
    epoch: int = 0

    @property
    def expansion_ratio(self) -> float:
        """page bytes / template bytes — how much the DPC 'inflated'."""
        if self.template_bytes == 0:
            return 0.0
        return self.page_bytes / self.template_bytes


class DynamicProxyCache:
    """Slot array plus the scan-and-assemble loop."""

    def __init__(
        self,
        capacity: int = 1024,
        template_config: TemplateConfig = DEFAULT_CONFIG,
        name: str = "dpc",
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("DPC capacity must be positive")
        if capacity > template_config.max_key + 1:
            raise ConfigurationError(
                "capacity %d exceeds the %d keys representable with key_width=%d"
                % (capacity, template_config.max_key + 1, template_config.key_width)
            )
        self.name = name
        self.capacity = capacity
        self.template_config = template_config
        self._slots: List[Optional[str]] = [None] * capacity
        #: LRU parse cache: SET-free wire string -> its part skeleton,
        #: bounded by entries and by the wires' total UTF-8 bytes.  A warm
        #: proxy repeatedly receives identical GET-only wire forms;
        #: re-scanning them is avoidable interpreter cost.  The cache only
        #: affects *how* a page's parts are found — scanned-byte
        #: accounting, stats, and assembled pages are byte-identical.
        self.parse_cache = TemplateCache()
        self.stats = DpcStats()
        #: Generation counter: bumped every time the slot array is wiped
        #: (cold restart).  Carried on every :class:`AssembledPage` so the
        #: BEM can detect a restart from normal SET/GET traffic and run the
        #: resync protocol instead of failing on the first stale GET.
        self.epoch = 0
        #: Duck-typed :class:`repro.insight.InsightLayer` (anything exposing
        #: ``record_dpc_wipe``); notified on :meth:`clear` only, so the
        #: assembly hot path carries no insight cost at all.
        self._insight = None

    def attach_insight(self, insight) -> None:
        """Attach a lifecycle observer notified when the slot array wipes."""
        self._insight = insight

    # -- slot primitives ---------------------------------------------------------

    def store(self, key: int, content: str) -> None:
        """Execute a SET: overwrite slot ``key`` with ``content``.

        Payloads over the configured ``max_fragment_bytes`` are rejected
        with a typed :class:`~repro.errors.OversizedFragmentError` — a
        second line of defense behind the parser's check, for callers that
        build :class:`Template` objects programmatically.
        """
        self._check_key(key)
        size = utf8_len(content)
        if size > self.template_config.max_fragment_bytes:
            raise OversizedFragmentError(
                "fragment for dpcKey %d is %d bytes (max %d) on %r"
                % (key, size, self.template_config.max_fragment_bytes, self.name)
            )
        self._slots[key] = content

    def fetch(self, key: int) -> str:
        """Execute a GET: read slot ``key``; empty slots are a protocol error."""
        self._check_key(key)
        content = self._slots[key]
        if content is None:
            raise AssemblyError(
                "GET for dpcKey %d but slot is empty on %r" % (key, self.name)
            )
        return content

    def slot_in_use(self, key: int) -> bool:
        """Whether slot ``key`` currently holds content."""
        self._check_key(key)
        return self._slots[key] is not None

    def occupied_slots(self) -> int:
        """How many slots hold content."""
        return sum(1 for slot in self._slots if slot is not None)

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity:
            raise SlotError(
                "dpcKey %d out of range [0, %d) on %r" % (key, self.capacity, self.name)
            )

    # -- the assembly loop --------------------------------------------------------

    def process_response(self, wire: str) -> AssembledPage:
        """Scan an origin response and assemble the user-deliverable page.

        This is the ISAPI-filter equivalent: one pass over the wire, text
        pieces and slot reads going straight into the page's part list
        (:meth:`_scan`).  A SET-free wire the proxy has already scanned is
        served from the LRU parse cache, which keeps its part skeleton:
        the text parts, and the part index and dpcKey of each GET.  The
        cache holds at most 256 wires and 1 MiB of them in total, so a
        large wire form pushes out older ones sooner than a small one;
        a scanned wire is put with the UTF-8 size measured here, never
        measured again.  The scan-cost counter
        (:attr:`DpcStats.bytes_scanned`) is charged the
        response's UTF-8 bytes before assembly, whether or not the wire
        was cached and whether or not its assembly raises: the bytes did
        cross the proxy and were matched, by the scan or against the
        cache.
        """
        wire_bytes = utf8_len(wire)
        self.stats.bytes_scanned += wire_bytes
        skeleton = self.parse_cache.get(wire)
        if skeleton is None:
            return self._scan(wire, wire_bytes)
        parts, gets = skeleton
        page = list(parts)
        slots = self._slots
        capacity = self.capacity
        for index, key in gets:
            content = slots[key] if key < capacity else None
            if content is None:
                content = self.fetch(key)  # raises the typed error
            page[index] = content
        return self._emit(page, 0, len(gets), wire_bytes)

    def _scan(self, wire: str, wire_bytes: int) -> AssembledPage:
        """Scan ``wire`` and assemble its page in the same pass.

        A ``str.find`` walk over the sentinels, each decoded by one
        precompiled regex match, except the END of an open SET, which is
        recognized with one ``startswith`` of the END tag built from the
        SET's own key digits; a sentinel that begins no well-formed tag
        goes to the reference decoder
        :func:`~repro.core.template.read_tag` for the exact error, so a
        malformed wire raises what ``parse_template`` raises.  SETs are
        held until the whole wire has validated, then stored in wire
        order, so a malformed wire mutates no slot.  A GET of a key an
        earlier SET of this wire wrote reads the new content.  A GET of an
        empty slot, or a SET or GET of a key outside the slot array,
        raises once the SETs before it are stored, as the per-instruction
        walk of :meth:`assemble` does.
        """
        config = self.template_config
        match = tag_matcher(config.key_width)
        max_fragment_bytes = config.max_fragment_bytes
        slots = self._slots
        capacity = self.capacity
        find = wire.find
        parts: List[Optional[str]] = []
        append = parts.append
        pieces: List[str] = []  # text split by <~Q~> escapes, awaiting a join
        gets: List[Tuple[int, int]] = []    # (part index, dpcKey) per GET
        sets: List[Tuple[int, str]] = []    # (dpcKey, content) per SET
        written: Dict[int, str] = {}        # dpcKey -> this wire's last SET
        # The first SET or GET that cannot run: (SETs before it, dpcKey,
        # the SET's content or None for a GET).
        failure: Optional[Tuple[int, int, Optional[str]]] = None
        open_key = -1           # the SET's key while inside its body
        end_tag = ""            # the open SET's END tag
        startswith = wire.startswith
        cursor = 0
        while True:
            # Find the next sentinel: memchr for its "~" is several times
            # faster than the two-character search, and "~" is rare outside
            # tags.  If that "~" is not a sentinel's, fall back to the pair
            # search from there, so hostile "~"-laden text costs one extra
            # memchr per tag, never a Python step per "~".
            position = find("~", cursor)
            if position > cursor and wire[position - 1] == "<":
                position -= 1
            elif position != -1:
                position = find(SENTINEL, position)
            if position == -1:
                break
            if open_key >= 0 and startswith(end_tag, position):
                # The open SET's END: its text is the SET's own key digits,
                # so it needs no regex match and no int().
                text = wire[cursor:position]
                cursor = position + len(end_tag)
                if pieces:
                    pieces.append(text)
                    text = "".join(pieces)
                    pieces.clear()
                size = utf8_len(text)
                if size > max_fragment_bytes:
                    raise OversizedFragmentError(
                        "SET body for key %d is %d bytes (max %d)"
                        % (open_key, size, max_fragment_bytes)
                    )
                if open_key >= capacity and failure is None:
                    failure = (len(sets), open_key, text)
                sets.append((open_key, text))
                written[open_key] = text
                append(text)
                open_key = -1
                continue
            tag = match(wire, position)
            if tag is None:
                read_tag(wire, position, config)  # raises the parser's error
            kind, key_text = tag.groups()
            if kind is None:    # <~Q~>: a literal "<~"
                pieces.append(wire[cursor:position])
                pieces.append(SENTINEL)
                cursor = tag.end()
                continue
            if open_key >= 0:   # any other tag: the END was not next
                raise TemplateError(
                    "unexpected %s tag inside SET body for key %d at offset %d"
                    % (kind, open_key, position)
                )
            key = int(key_text)
            text = wire[cursor:position]
            cursor = tag.end()
            if pieces:
                pieces.append(text)
                text = "".join(pieces)
                pieces.clear()
            if kind == "E":
                raise TemplateError(
                    "END tag for key %d without a matching SET at offset %d"
                    % (key, position)
                )
            if text:
                append(text)
            if kind == "G":
                content = written.get(key) if written else None
                if content is None:
                    content = slots[key] if key < capacity else None
                    if content is None and failure is None:
                        failure = (len(sets), key, None)
                gets.append((len(parts), key))
                append(content)
            else:
                open_key = key
                end_tag = "<~E:" + key_text + "~>"
        text = wire[cursor:]
        if open_key >= 0:
            raise TemplateError("unterminated SET body for key %d" % open_key)
        if pieces:
            pieces.append(text)
            text = "".join(pieces)
        if text:
            append(text)
        if not sets:
            skeleton = parts.copy()
            for index, _ in gets:
                skeleton[index] = None  # never pin slot content
            self.parse_cache.put(wire, (tuple(skeleton), tuple(gets)), wire_bytes)
        if failure is not None:
            stored, key, content = failure
            for set_key, set_content in sets[:stored]:
                slots[set_key] = set_content
            if content is None:
                self.fetch(key)         # raises: empty slot or key out of range
            self.store(key, content)    # raises: key out of range
        for key, content in sets:
            slots[key] = content
        return self._emit(parts, len(sets), len(gets), wire_bytes)

    def assemble(self, template: Template, wire_bytes: Optional[int] = None) -> AssembledPage:
        """Execute a parsed template against the slot array.

        The per-instruction reference walk: ``parse_template`` followed by
        this method is the oracle :meth:`process_response` is tested
        against, and both produce the same page bytes, stats, and errors
        in the same order.  ``wire_bytes`` defaults to the template's own
        serialized size.
        """
        if wire_bytes is None:
            wire_bytes = template.wire_bytes()
        parts: List[str] = []
        sets = 0
        gets = 0
        for instruction in template.instructions:
            if isinstance(instruction, Literal):
                parts.append(instruction.text)
            elif isinstance(instruction, SetInstruction):
                self.store(instruction.key, instruction.content)
                parts.append(instruction.content)
                sets += 1
            elif isinstance(instruction, GetInstruction):
                parts.append(self.fetch(instruction.key))
                gets += 1
            else:  # pragma: no cover - exhaustive over Instruction
                raise AssemblyError("unknown instruction %r" % (instruction,))
        return self._emit(parts, sets, gets, wire_bytes)

    def _emit(
        self, parts: List[str], sets: int, gets: int, wire_bytes: int
    ) -> AssembledPage:
        """Join the spliced parts, count the response, build the page."""
        html = "".join(parts)
        page_bytes = utf8_len(html)
        self.stats.responses_processed += 1
        self.stats.template_bytes_in += wire_bytes
        self.stats.page_bytes_out += page_bytes
        self.stats.fragments_set += sets
        self.stats.fragments_get += gets
        return AssembledPage(
            html=html,
            template_bytes=wire_bytes,
            page_bytes=page_bytes,
            fragments_set=sets,
            fragments_get=gets,
            epoch=self.epoch,
        )

    # -- maintenance ---------------------------------------------------------------

    def clear(self) -> None:
        """Drop every slot (proxy restart) and advance the epoch.

        Safe: the BEM re-SETs on the next request for each fragment because
        its directory is the source of truth — though after a restart the
        directory must be resynchronized too (flushed, or epoch-resynced via
        :class:`repro.faults.recovery.ResyncProtocol`), or GETs would
        reference empty slots."""
        self._slots = [None] * self.capacity
        self.parse_cache.clear()
        self.epoch += 1
        if self._insight is not None:
            self._insight.record_dpc_wipe(self.epoch)

    @property
    def bytes_scanned(self) -> int:
        """Total response bytes (UTF-8) scanned so far."""
        return self.stats.bytes_scanned

    def metric_rows(self) -> List[tuple]:
        """Registry rows: the proxy cache's health under ``dpc.*``.

        Same rows, order, and rounding the deployment snapshot always
        published (the savings ratio appears only once pages have been
        emitted, as before).
        """
        rows: List[tuple] = [
            ("dpc.epoch", self.epoch),
            ("dpc.responses_processed", self.stats.responses_processed),
            ("dpc.template_bytes_in", self.stats.template_bytes_in),
            ("dpc.page_bytes_out", self.stats.page_bytes_out),
            ("dpc.bytes_saved", self.stats.bytes_saved),
        ]
        if self.stats.page_bytes_out:
            rows.append((
                "dpc.byte_savings_ratio",
                round(self.stats.bytes_saved / self.stats.page_bytes_out, 4),
            ))
        rows.extend([
            ("dpc.fragments_set", self.stats.fragments_set),
            ("dpc.fragments_get", self.stats.fragments_get),
            ("dpc.slots_occupied", self.occupied_slots()),
            ("dpc.capacity", self.capacity),
            ("dpc.bytes_scanned", self.bytes_scanned),
        ])
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynamicProxyCache(%r, %d/%d slots)" % (
            self.name,
            self.occupied_slots(),
            self.capacity,
        )
