"""The synthetic test application driven by the Section 5/6 parameters.

"Our experiments were run in a test environment that attempts to simulate
the conditions described in Section 5.  Thus, we have incorporated the
parameter settings in Table 2.  The test site is an ASP-based site which
retrieves content from a site content repository." (§6)

This site is that ASP application: ``n`` pages, each composed of a fixed
number of fragments drawn from a pool of ``m`` fragments; every fragment
has an exact byte size ``s_e``; a design-time *cacheability factor* decides
which pool fragments are tagged.  Fragment content derives from a row in a
backing table, so the experiment harness can drive the hit ratio through
the real invalidation path (update row -> trigger -> BEM invalidation)
instead of poking cache internals.

Everything about a page except its rows is fixed by the parameters, so the
script plans each page once: on a page's first request it records the
page's blocks as ``(block name, read-only params, fragment id,
generator)``, and each request hands that plan to
``ScriptContext.write_blocks`` in one call.  A generated block still reads
its live row, so content, rows read and costs are those of an unplanned
page.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

from ..appserver import (
    ApplicationServer,
    DynamicScript,
    PlannedBlock,
    ScriptContext,
    SiteServices,
)
from ..core.fragments import Dependency, FragmentID
from ..database import Database, Table, schema
from ..errors import ConfigurationError

SYNTHETIC_TABLE = "synthetic_data"

_SYNTHETIC_SCHEMA = schema(
    SYNTHETIC_TABLE,
    [("frag_id", "int"), ("version", "int")],
    primary_key="frag_id",
)

#: Filler alphabet for padding fragment bodies to their exact size.  The
#: template sentinel "<~" never occurs in it, so serialized sizes are exact.
_FILLER = "abcdefghijklmnopqrstuvwxyz0123456789 "


@dataclass(frozen=True)
class SyntheticParams:
    """The Table 2 knobs that shape the synthetic application."""

    num_pages: int = 10
    fragments_per_page: int = 4
    fragment_size: int = 1024
    cacheability: float = 0.6
    #: Pool of distinct fragments; defaults to pages*fragments (no sharing),
    #: which is the layout the closed-form analysis assumes.
    pool_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_pages <= 0 or self.fragments_per_page <= 0:
            raise ConfigurationError("pages and fragments must be positive")
        if self.fragment_size < 0:
            raise ConfigurationError("fragment_size cannot be negative")
        if not 0.0 <= self.cacheability <= 1.0:
            raise ConfigurationError("cacheability must be in [0, 1]")
        if self.pool_size is not None and self.pool_size <= 0:
            raise ConfigurationError("pool_size must be positive")

    @property
    def effective_pool_size(self) -> int:
        """Number of distinct fragments in the pool."""
        if self.pool_size is not None:
            return self.pool_size
        return self.num_pages * self.fragments_per_page

    def pool_indexes_for_page(self, page_id: int) -> List[int]:
        """Which pool fragments page ``page_id`` is composed of."""
        if not 0 <= page_id < self.num_pages:
            raise ConfigurationError(
                "page_id %d out of range [0, %d)" % (page_id, self.num_pages)
            )
        start = page_id * self.fragments_per_page
        pool = self.effective_pool_size
        return [(start + j) % pool for j in range(self.fragments_per_page)]

    def is_cacheable(self, pool_index: int) -> bool:
        """Design-time cacheability of pool fragment ``pool_index``.

        Bresenham-style spreading: exactly ``floor(n * cacheability)`` of
        any prefix of n fragments are cacheable, and the pattern is evenly
        interleaved, so every page carries close to the configured
        cacheable fraction (the X_j of the analysis).  Pool fragments are
        read from a table computed once; an index outside the pool is
        computed on the spot.
        """
        table = self._cacheable
        if 0 <= pool_index < len(table):
            return table[pool_index]
        return _spread(pool_index, self.cacheability)

    @cached_property
    def _cacheable(self) -> Tuple[bool, ...]:
        """``is_cacheable`` of every pool fragment, in pool order."""
        c = self.cacheability
        return tuple(_spread(k, c) for k in range(self.effective_pool_size))

    def cacheable_count(self) -> int:
        """How many pool fragments are design-time cacheable."""
        return sum(self._cacheable)


def _spread(pool_index: int, cacheability: float) -> bool:
    """Whether the Bresenham spread makes pool fragment ``pool_index``
    cacheable (see :meth:`SyntheticParams.is_cacheable`)."""
    return (
        math.floor((pool_index + 1) * cacheability)
        - math.floor(pool_index * cacheability)
        == 1
    )


@lru_cache(maxsize=16)
def _padding(length: int) -> str:
    """The first ``length`` characters of the repeated filler.

    A site pads every fragment to one size behind a fixed-width prefix,
    so a few lengths cover all of its fragments.
    """
    return (_FILLER * (length // len(_FILLER) + 1))[:length]


def fragment_content(pool_index: int, version: int, size: int) -> str:
    """Deterministic fragment body of exactly ``size`` bytes (ASCII)."""
    prefix = "F%05d v%08d " % (pool_index, version)
    if size <= len(prefix):
        return prefix[:size]
    return prefix + _padding(size - len(prefix))


def _read_fragment(table: Table, size: int, pool_index: int) -> str:
    """Pool fragment ``pool_index`` at its row's current version.

    A plan item's generator is this function with its arguments bound, so
    generating a block runs one Python frame of the script's own.
    """
    row = table.get(pool_index)
    version = int(row["version"]) if row is not None else 0
    return fragment_content(pool_index, version, size)


class SyntheticPageScript(DynamicScript):
    """``/page.jsp?pageID=i`` — emits the page's fragments, nothing else.

    No literal layout markup is written, so the no-cache body size is
    exactly ``sum(s_e) `` and the analytical S_NC = sum + f holds to the
    byte (header bytes ride on the HTTP response object).
    """

    path = "/page.jsp"

    def __init__(self, params: SyntheticParams, table: Table) -> None:
        self.params = params
        #: The services' synthetic table, which every generator reads.
        self.table = table
        #: Each requested page's blocks, planned on its first request.
        #: Page ids are range-checked, so at most ``num_pages`` plans.
        self._plans: Dict[int, Tuple[PlannedBlock, ...]] = {}

    def plan(self, page_id: int) -> Tuple[PlannedBlock, ...]:
        """Page ``page_id``'s blocks in page order, built once per page.

        Each is ``(block name, read-only params, fragment id,
        generator)``: the params are ``{"id": pool index}``, the id is
        built once with ``FragmentID.create`` and the generator reads the
        fragment's row when it runs.
        """
        plan = self._plans.get(page_id)
        if plan is None:
            params = self.params
            table = self.table
            size = params.fragment_size
            blocks = []
            for pool_index in params.pool_indexes_for_page(page_id):
                name = "frag" if params.is_cacheable(pool_index) else "frag_nc"
                block_params = MappingProxyType({"id": pool_index})
                blocks.append(
                    (
                        name,
                        block_params,
                        FragmentID.create(name, block_params),
                        partial(_read_fragment, table, size, pool_index),
                    )
                )
            plan = self._plans[page_id] = tuple(blocks)
        return plan

    def run(self, ctx: ScriptContext) -> None:
        """Emit the page's fragments: its plan, in one call."""
        ctx.write_blocks(self.plan(int(ctx.request.param("pageID", "0"))))


def build_services(params: SyntheticParams) -> SiteServices:
    """Create the synthetic site's database and tagging registry."""
    db = Database("synthetic")
    table = db.create_table(_SYNTHETIC_SCHEMA)
    for pool_index in range(params.effective_pool_size):
        table.insert({"frag_id": pool_index, "version": 0})

    services = SiteServices(db=db)
    services.tags.tag(
        "frag",
        dependencies=lambda p: (Dependency(SYNTHETIC_TABLE, key=int(p["id"])),),
    )
    # "frag_nc" is left untagged on purpose: those blocks always execute.
    return services


def build_server(
    params: Optional[SyntheticParams] = None,
    services: Optional[SiteServices] = None,
    **server_kwargs,
) -> ApplicationServer:
    """An application server serving the synthetic page script."""
    if params is None:
        params = SyntheticParams()
    if services is None:
        services = build_services(params)
    server = ApplicationServer(services, **server_kwargs)
    server.register(
        SyntheticPageScript(params, services.db.table(SYNTHETIC_TABLE))
    )
    return server


def touch_fragment(services: SiteServices, pool_index: int) -> None:
    """Invalidate one fragment the honest way: update its source row."""
    table = services.db.table(SYNTHETIC_TABLE)
    row = table.get(pool_index)
    if row is None:
        raise ConfigurationError("no synthetic fragment %d" % pool_index)
    table.update({"version": int(row["version"]) + 1}, key=pool_index)
