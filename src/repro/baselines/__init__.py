"""The Section 3 comparison systems, implemented with their real flaws.

* :class:`PageLevelCache` — URL-keyed full-page proxy (serves wrong pages
  to personalized users; low reuse).
* :class:`EsiAssembler` — dynamic page assembly (fixed template per URL;
  fails on dynamic layouts; zero origin bytes when its preconditions hold).

The back-end fragment cache needs no class of its own: it is the paper's
BEM with its DPC inside the site, ``ApplicationServer(bem=BackEndMonitor(),
origin_dpc=DynamicProxyCache())``.  The origin assembles every page itself,
so it is always correct and saves computation, but ships every byte.
"""

from .esi import ESI_TAG_OVERHEAD, EsiAssembler, EsiStats
from .page_cache import PageCacheStats, PageLevelCache

__all__ = [
    "PageLevelCache",
    "PageCacheStats",
    "EsiAssembler",
    "EsiStats",
    "ESI_TAG_OVERHEAD",
]
