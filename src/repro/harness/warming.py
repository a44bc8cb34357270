"""Cache warming: prime the DPC before exposing it to live traffic.

Section 7's cache-management discussion implies an operational need the
paper's reverse-proxy deployment faced on every restart: a cold DPC makes
the first wave of users pay full generation and transfer costs.  The
warmer replays a curated request set — typically the most popular pages
per the site's own Zipf profile — through the origin/DPC pair before the
proxy is put in rotation, and reports what it pre-loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..appserver.http import HttpRequest
from ..appserver.server import ApplicationServer
from ..core.dpc import DynamicProxyCache
from ..errors import ConfigurationError
from ..workload.generator import PageSpec
from ..workload.users import Visitor


@dataclass
class WarmupReport:
    """What a warming pass accomplished."""

    requests_replayed: int = 0
    fragments_loaded: int = 0
    fragments_already_warm: int = 0
    bytes_generated: int = 0
    slots_occupied: int = 0

    @property
    def was_effective(self) -> bool:
        """Whether the pass actually loaded anything new."""
        return self.fragments_loaded > 0


class CacheWarmer:
    """Replays request sets through an origin/DPC pair."""

    def __init__(self, server: ApplicationServer, dpc: DynamicProxyCache) -> None:
        if not server.caching_enabled:
            raise ConfigurationError(
                "warming needs a cache-enabled origin (a BEM is attached)"
            )
        if server.origin_dpc is not None:
            raise ConfigurationError(
                "warming needs an origin that ships templates; this one "
                "assembles pages with its own DPC"
            )
        self.server = server
        self.dpc = dpc

    def warm_requests(self, requests: Iterable[HttpRequest]) -> WarmupReport:
        """Replay explicit requests; returns the warming report."""
        report = WarmupReport()
        for request in requests:
            response = self.server.handle(request)
            page = self.dpc.process_response(response.body)
            report.requests_replayed += 1
            report.fragments_loaded += page.fragments_set
            report.fragments_already_warm += page.fragments_get
            report.bytes_generated += int(response.meta.get("generated_bytes", 0))
        report.slots_occupied = self.dpc.occupied_slots()
        return report

    def warm_pages(
        self,
        pages: Sequence[PageSpec],
        user_ids: Sequence[Optional[str]] = (None,),
    ) -> WarmupReport:
        """Replay a page list for each identity in ``user_ids``.

        Warming anonymous traffic loads the shared fragments; adding the
        heaviest registered users also pre-loads their personalized ones.
        """
        requests: List[HttpRequest] = []
        for user_id in user_ids:
            visitor = Visitor(
                user_id=user_id,
                session_id="warmup-%s" % (user_id or "anon"),
            )
            for page in pages:
                requests.append(page.to_request(visitor))
        return self.warm_requests(requests)
