"""Baseline: dynamic page assembly, ESI-style (§3.2.2).

"This approach entails establishing a template for each dynamically
generated page ... each page is factored into a number of fragments that
are used to assemble the page at a network cache."

The two limitations the paper calls out are modeled faithfully:

1. **Fixed layout per URL.**  The edge caches one template per request URL,
   captured from the *first* response for that URL.  Every later request
   for the URL is assembled from that template — "regardless of whether the
   template in cache would produce the same output page as the dynamic
   scripts on the Web site".  Users with different layouts or different
   personalization get the first user's page shape (and personalized
   fragment *instances*), which the correctness benches measure.
2. **TTL-only coherence.**  Fragments are refreshed on expiry; there is no
   data-driven invalidation path to the edge.

The upside is modeled too: on a warm template whose fragments are all
fresh, the origin ships **zero** bytes — assembly happens entirely at the
edge, which is why ESI wins on bandwidth when its preconditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..appserver.http import HttpRequest
from ..appserver.server import ApplicationServer
from ..core.bem import ObjectCache
from ..core.fragments import FragmentID, FragmentMetadata
from ..core.template import DEFAULT_CONFIG, Instruction, Literal, SetInstruction
from ..network.clock import SimulatedClock

#: Byte cost of one ``<esi:include src="..."/>`` tag, excluding the src.
ESI_TAG_OVERHEAD = 22


class _EsiCaptureMonitor:
    """Block monitor that records the fragment structure.

    Every cacheable block is generated and returned as a SET instruction
    whose key indexes the fragment's *src* (its canonical fragmentID) —
    which is exactly what an ESI factoring would use as the include URL.
    Keys are assigned per fragment id; a src is rendered, and its TTL
    described, once, when its key is assigned.
    """

    #: The framing of the captured template; its keys never reach a DPC.
    template_config = DEFAULT_CONFIG

    def __init__(self, clock: SimulatedClock) -> None:
        self.clock = clock
        self.objects = ObjectCache(clock)
        self.src_by_key: Dict[int, str] = {}
        self.ttl_by_src: Dict[str, Optional[float]] = {}
        self._key_by_id: Dict[FragmentID, int] = {}

    def process_block(
        self,
        fragment_id: FragmentID,
        describe: Callable[[], FragmentMetadata],
        generate: Callable[[], str],
    ) -> Instruction:
        key = self._key_by_id.get(fragment_id)
        if key is None:
            key = len(self._key_by_id)
            self._key_by_id[fragment_id] = key
            src = fragment_id.canonical()
            self.src_by_key[key] = src
            self.ttl_by_src[src] = describe().ttl
        return SetInstruction(key, generate())


#: A template part: literal markup or a fragment include by src.
TemplatePart = Tuple[str, str]  # ("lit", text) | ("ref", src)


@dataclass
class _CachedFragment:
    content: str
    stored_at: float
    ttl: Optional[float]

    def fresh(self, now: float) -> bool:
        return self.ttl is None or now < self.stored_at + self.ttl


@dataclass
class EsiStats:
    requests: int = 0
    template_hits: int = 0
    template_misses: int = 0
    fragments_fetched: int = 0
    fragment_hits: int = 0
    origin_payload_bytes: int = 0
    served_bytes: int = 0

    @property
    def template_hit_ratio(self) -> float:
        """Requests served from a cached template, as a fraction."""
        if self.requests == 0:
            return 0.0
        return self.template_hits / self.requests


class EsiAssembler:
    """An edge cache doing dynamic page assembly against a plain origin."""

    def __init__(
        self,
        origin: ApplicationServer,
        response_header_bytes: int = 500,
    ) -> None:
        if origin.caching_enabled:
            raise ValueError("ESI needs a plain (no-BEM) origin server")
        self.origin = origin
        self.clock = origin.clock
        self.header_bytes = response_header_bytes
        self._templates: Dict[str, List[TemplatePart]] = {}
        self._fragments: Dict[str, _CachedFragment] = {}
        self.stats = EsiStats()

    # -- origin interaction ---------------------------------------------------

    def _capture(self, request: HttpRequest) -> Tuple[List[TemplatePart], Dict[str, str]]:
        """Run the script once, returning template parts + fragment bodies."""
        monitor = _EsiCaptureMonitor(self.clock)
        script, ctx = self.origin.script_run(request, monitor)
        script.run(ctx)
        template = ctx.template.normalized()
        parts: List[TemplatePart] = []
        bodies: Dict[str, str] = {}
        for instruction in template.instructions:
            if isinstance(instruction, Literal):
                parts.append(("lit", instruction.text))
            elif isinstance(instruction, SetInstruction):
                src = monitor.src_by_key[instruction.key]
                parts.append(("ref", src))
                bodies[src] = instruction.content
                self._fragments[src] = _CachedFragment(
                    content=instruction.content,
                    stored_at=self.clock.now(),
                    ttl=monitor.ttl_by_src[src],
                )
        self.clock.advance(ctx.generation_cost_s)
        return parts, bodies

    def _fetch_fragment(self, src: str, request: HttpRequest) -> str:
        """Refresh one expired fragment from the origin.

        Simulation shortcut: the origin re-runs the page script and we keep
        the one fragment (charging only its bytes on the wire) — a real
        deployment would run the factored per-fragment script, which is the
        redundant-work problem §3.2.2 describes.
        """
        parts, bodies = self._capture(request)
        if src in bodies:
            return bodies[src]
        # The fragment no longer appears for this requester (layout drift);
        # serve the stale copy if one exists, else empty.
        cached = self._fragments.get(src)
        return cached.content if cached is not None else ""

    # -- the edge ---------------------------------------------------------------

    def serve(self, request: HttpRequest) -> Tuple[str, bool]:
        """Serve a request; returns ``(html, template_was_cached)``.

        Byte accounting accumulates in :attr:`stats`; origin payload bytes
        cover the template (on template miss) and each fragment fetched.
        """
        self.stats.requests += 1
        now = self.clock.now()
        url = request.url

        template = self._templates.get(url)
        if template is None:
            self.stats.template_misses += 1
            parts, _ = self._capture(request)
            self._templates[url] = parts
            template = parts
            template_bytes = self.header_bytes
            for kind, value in parts:
                if kind == "lit":
                    template_bytes += len(value.encode("utf-8"))
                else:
                    template_bytes += ESI_TAG_OVERHEAD + len(value)
            self.stats.origin_payload_bytes += template_bytes
            from_cache = False
        else:
            self.stats.template_hits += 1
            from_cache = True

        html_parts: List[str] = []
        for kind, value in template:
            if kind == "lit":
                html_parts.append(value)
                continue
            cached = self._fragments.get(value)
            if cached is not None and cached.fresh(now):
                self.stats.fragment_hits += 1
                html_parts.append(cached.content)
                continue
            content = self._fetch_fragment(value, request)
            self.stats.fragments_fetched += 1
            self.stats.origin_payload_bytes += (
                len(content.encode("utf-8")) + self.header_bytes
            )
            html_parts.append(content)
        html = "".join(html_parts)
        self.stats.served_bytes += len(html.encode("utf-8")) + self.header_bytes
        return html, from_cache

    def template_count(self) -> int:
        """Number of URL templates cached at the edge."""
        return len(self._templates)

    def fragment_count(self) -> int:
        """Number of fragment bodies cached at the edge."""
        return len(self._fragments)
