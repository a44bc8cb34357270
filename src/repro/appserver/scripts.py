"""Dynamic scripts and their execution context.

"A user request maps to an invocation of a script.  This script executes
the necessary logic to generate the requested page, which involves
contacting various resources (e.g., database systems) to retrieve, process,
and format the requested content into a user deliverable HTML page." (§2)

A :class:`DynamicScript` is the JSP/ASP equivalent: a class with a ``path``
and a ``run(ctx)`` method that writes the page through the
:class:`ScriptContext`.  The context exposes the tagged-block API (wired to
the BEM when caching is on), the site's services (DBMS, CMS,
personalization), the session, and an intermediate-object memo.  Scripts
are mode-oblivious: the same script text serves the no-cache baseline and
the DPC deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..cms import ContentRepository, PersonalizationEngine, ProfileStore
from ..core.bem import BackEndMonitor
from ..core.tagging import PageBuilder, TagRegistry
from ..database import Database
from ..errors import ScriptError, ScriptNotFound
from ..network.latency import GenerationCostModel
from .http import HttpRequest
from .mvc import ComponentRegistry, TierAccounting
from .session import Session


@dataclass
class SiteServices:
    """Everything a site's scripts may touch, bundled for injection."""

    db: Database
    repository: Optional[ContentRepository] = None
    profiles: Optional[ProfileStore] = None
    personalization: Optional[PersonalizationEngine] = None
    components: ComponentRegistry = field(default_factory=ComponentRegistry)
    tags: TagRegistry = field(default_factory=TagRegistry)


class ScriptContext:
    """Per-request execution context handed to ``DynamicScript.run``."""

    def __init__(
        self,
        request: HttpRequest,
        session: Session,
        services: SiteServices,
        builder: PageBuilder,
        cost_model: GenerationCostModel,
        bem: Optional[BackEndMonitor] = None,
    ) -> None:
        self.request = request
        self.session = session
        self.services = services
        self.builder = builder
        self.cost_model = cost_model
        self.bem = bem
        self.tiers = TierAccounting()
        #: Accumulated server-side generation time (virtual seconds).
        self.generation_cost_s = cost_model.request_dispatch_s
        #: The database's share of ``generation_cost_s`` (connection waits
        #: plus per-row charges), so tracing can break out a ``db.query``
        #: span from pure compute.
        self.db_cost_s = 0.0
        #: Rows the database touched on behalf of this request's blocks.
        self.db_rows = 0

    # -- page writing -----------------------------------------------------------

    def write(self, text: str) -> "ScriptContext":
        """Emit layout markup (never cacheable, ships with every response)."""
        self.builder.literal(text)
        return self

    def block(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        generate: Callable[[], str] = None,
    ) -> "ScriptContext":
        """Execute one code block through the tagging API, with costing.

        Generation cost is charged only when the generator actually runs
        (i.e. on misses and for non-cacheable blocks); hits pay just the
        directory probe.  The rows read and tier hops made during
        ``builder.block`` are charged to the block, per row.  Only the
        generator reads tables on that path (dependency factories, the
        directory insert and the invalidation watch never do), so a block
        is charged exactly its generator's rows.
        """
        if generate is None:
            raise ScriptError("block %r needs a generate callable" % name)
        db = self.services.db
        rows_before = db.total_rows_read()
        hops_before = self.tiers.cross_tier_hops
        output_bytes = self.builder.block(name, params, generate)
        cost_model = self.cost_model
        if output_bytes is None:
            self.generation_cost_s += cost_model.block_hit_cost()
            return self
        rows = db.total_rows_read() - rows_before
        hops = self.tiers.cross_tier_hops - hops_before
        self.generation_cost_s += cost_model.block_generation_cost(
            output_bytes=output_bytes,
            db_rows=rows,
            cross_tier_hops=max(hops, 1),
            needs_db_connection=rows > 0,
        )
        self.db_cost_s += cost_model.db_block_cost(
            db_rows=rows, needs_db_connection=rows > 0
        )
        self.db_rows += rows
        return self

    # -- intermediate objects ------------------------------------------------------

    def memo(
        self, key: str, compute: Callable[[], object], ttl: Optional[float] = None
    ) -> object:
        """Fetch an intermediate object via the BEM's object cache.

        This is the §3.2.2 user-profile-object pattern: fetched once, shared
        by every fragment derived from it.  Without a BEM (no-cache mode)
        the object is computed afresh, preserving oracle semantics.
        """
        if self.bem is None:
            return compute()
        return self.bem.objects.fetch(key, compute, ttl=ttl)


class DynamicScript:
    """Base class for JSP/ASP-equivalent page scripts."""

    #: Request path this script serves, e.g. "/catalog.jsp".
    path: str = ""

    def run(self, ctx: ScriptContext) -> None:  # pragma: no cover - interface
        """Build the page for one request via ``ctx`` (override)."""
        raise NotImplementedError


class ScriptRegistry:
    """Maps request paths to script instances (the servlet mapping table)."""

    def __init__(self) -> None:
        self._scripts: Dict[str, DynamicScript] = {}

    def register(self, script: DynamicScript) -> DynamicScript:
        """Map a script's path to the script instance."""
        if not script.path:
            raise ScriptError(
                "script %r has no path" % type(script).__name__
            )
        if script.path in self._scripts:
            raise ScriptError("a script is already registered at %r" % script.path)
        self._scripts[script.path] = script
        return script

    def resolve(self, path: str) -> DynamicScript:
        """The script serving ``path``; raises ScriptNotFound if absent."""
        try:
            return self._scripts[path]
        except KeyError:
            raise ScriptNotFound("no script registered at %r" % path) from None

    def paths(self) -> List[str]:
        """All registered request paths, sorted."""
        return sorted(self._scripts)

    def __len__(self) -> int:
        return len(self._scripts)
