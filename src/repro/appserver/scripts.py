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
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..cms import ContentRepository, PersonalizationEngine, ProfileStore
from ..core.fragments import FragmentID, FragmentMetadata
from ..core.scanner import utf8_len
from ..core.tagging import TagRegistry
from ..core.template import (
    DEFAULT_CONFIG,
    GetInstruction,
    Literal,
    Template,
    escape_literal,
    parse_template,
)
from ..database import Database
from ..errors import ScriptError, ScriptNotFound
from ..network.latency import GenerationCostModel
from .http import HttpRequest
from .session import Session


@dataclass
class SiteServices:
    """Everything a site's scripts may touch, bundled for injection."""

    db: Database
    repository: Optional[ContentRepository] = None
    profiles: Optional[ProfileStore] = None
    personalization: Optional[PersonalizationEngine] = None
    tags: TagRegistry = field(default_factory=TagRegistry)


#: ``params`` of a block written without any (read-only, so one mapping
#: serves every such block).
NO_PARAMS: Mapping[str, object] = MappingProxyType({})

#: One block of a page's plan: ``(name, params, fragment_id, arg)``; see
#: :meth:`ScriptContext.write_blocks`.
PlannedBlock = Tuple[str, Mapping[str, object], Optional[FragmentID], object]


class _Describe:
    """The ``describe`` a :class:`ScriptContext` hands its monitor.

    One per context, re-aimed at each cacheable block, so a block costs no
    closure.  It describes the block most recently handed to the monitor:
    a monitor calls it before running the block's generator, which may
    write blocks of its own.
    """

    __slots__ = ("tag", "params")

    def __call__(self) -> FragmentMetadata:
        return self.tag.metadata_for(self.params)


class _Generate:
    """The generator a plan with a shared ``generate(arg)`` hands its
    monitor: ``generate`` bound to the current block's ``arg``.

    One per such :meth:`ScriptContext.write_blocks` call, re-aimed at each
    cacheable block, so a block costs no closure.  A nested plan gets its
    own, so it cannot re-aim the outer plan's.
    """

    __slots__ = ("generate", "arg")

    def __call__(self) -> str:
        return self.generate(self.arg)


class ScriptContext:
    """Per-request execution context handed to ``DynamicScript.run``.

    It is also the page writer.  With a monitor (``bem``) attached, tagged
    blocks run its ``process_block`` protocol and the page is a *template*
    of literals and GET/SET tags, framed with the monitor's
    ``template_config``; without one (caching disabled) every block runs
    and the page is plain text, which doubles as the correctness oracle for
    DPC assembly.  Scripts cannot tell the two apart: that transparency
    lets the system work without changing the site's MVC structure
    (§3.2.2's critique of ESI).

    The page is written as wire text while blocks resolve, as the paper's
    BEM writes its tags into the response (§4.3.2): a hit appends its
    memoized GET tag, a miss its SET frame around the escaped content.
    Literal text (writes and uncached blocks) collects as a run that is
    joined and escaped once before the next tag, so a sentinel split
    across two writes is still escaped.  :attr:`template` decodes the
    result for readers that want instructions.
    """

    def __init__(
        self,
        request: HttpRequest,
        session: Session,
        services: SiteServices,
        cost_model: GenerationCostModel,
        bem=None,
    ) -> None:
        self.request = request
        self.session = session
        self.services = services
        self.cost_model = cost_model
        #: The block monitor: a :class:`~repro.core.bem.BackEndMonitor`,
        #: the ESI capture monitor, or ``None`` for an uncached page.
        self.bem = bem
        self._config = DEFAULT_CONFIG if bem is None else bem.template_config
        self._get_tags = self._config.get_tags
        self._frame_tags = self._config.frame_tags
        #: The database's running read total, held once per context.
        self._reads = services.db.tally
        self._hit_cost = cost_model.block_hit_cost()
        #: Finished wire text: escaped literal runs and tags, in page order.
        self._parts: List[str] = []
        #: Literal texts since the last tag, awaiting one join and escape.
        self._run: List[str] = []
        #: The registry's ``dict.get``, bound once: a block's tag lookup
        #: costs no Python frame.
        self._lookup_tag = services.tags._tags.get
        self._describe = _Describe()
        #: Blocks written, cacheable blocks served by a GET (hits) and
        #: generated into a SET (misses), and the UTF-8 bytes generated.
        self.blocks = 0
        self.hits = 0
        self.misses = 0
        self.generated_bytes = 0
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
        if text:
            self._run.append(text)
        return self

    def block(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        generate: Callable[[], str] = None,
    ) -> "ScriptContext":
        """Execute one (possibly tagged) code block: a plan of one.

        ``generate`` produces the block's HTML and runs only when the
        content cannot be served from the DPC (see :meth:`write_blocks`).
        """
        if generate is None:
            raise ScriptError("block %r needs a generate callable" % name)
        if params is None:
            params = NO_PARAMS
        return self.write_blocks(((name, params, None, generate),))

    def write_blocks(
        self,
        plan: Iterable[PlannedBlock],
        generate: Optional[Callable[[object], str]] = None,
    ) -> "ScriptContext":
        """Execute a page's blocks in plan order, with costing.

        Each item is ``(name, params, fragment_id, arg)``.  The block's
        generator is ``arg`` itself (a zero-argument callable) when
        ``generate`` is ``None``, and ``generate(arg)`` otherwise.
        ``fragment_id`` is the block's ``FragmentID.create(name, params)``,
        or ``None`` to have it built only if the block reaches the monitor.

        A generator runs only when its content cannot be served from the
        DPC.  Untagged names behave as non-cacheable blocks and never reach
        the monitor.  A cacheable block goes to ``bem.process_block`` with
        the context's one :class:`_Describe` and its generator (for a
        shared ``generate``, the call's one :class:`_Generate`), both
        aimed at that block; whether it ran is read off the returned
        instruction (a ``GET`` is a hit).  A generator may write text,
        blocks or a plan of its own: the literal run is flushed only after
        the monitor returns, and every counter is updated in place, so a
        nested write lands where the block-by-block writer puts it and a
        generator that raises leaves the page as written so far.

        A hit is charged just the directory probe.  A block that ran is
        charged its output bytes (measured once, with ``utf8_len``) and
        the rows read while it ran.  Only the generator reads tables on
        that path (dependency factories and the directory insert never
        do), so a block is charged exactly its generator's rows.
        """
        lookup_tag = self._lookup_tag
        bem = self.bem
        reads = self._reads
        parts = self._parts
        run = self._run
        describe = self._describe
        if generate is not None:
            aimed = _Generate()
            aimed.generate = generate
        get_tags = self._get_tags
        hit_cost = self._hit_cost
        cost_model = self.cost_model
        for name, params, fragment_id, arg in plan:
            tag = lookup_tag(name)
            self.blocks += 1
            rows_before = reads.rows
            if tag is None or not tag.cacheable or bem is None:
                content = arg() if generate is None else generate(arg)
                if content:
                    run.append(content)
            else:
                describe.tag = tag
                describe.params = params
                if generate is None:
                    block_generate = arg
                else:
                    aimed.arg = arg
                    block_generate = aimed
                if fragment_id is None:
                    fragment_id = FragmentID.create(name, params)
                instruction = bem.process_block(fragment_id, describe, block_generate)
                # The run is flushed only now: a generator may have written.
                if run:
                    parts.append(escape_literal("".join(run)))
                    run.clear()
                if type(instruction) is GetInstruction:
                    parts.append(get_tags[instruction.key])
                    self.hits += 1
                    self.generation_cost_s += hit_cost
                    continue
                self.misses += 1
                key, content = instruction  # a SetInstruction
                set_tag, end_tag = self._frame_tags[key]
                parts.append(set_tag)
                parts.append(escape_literal(content))
                parts.append(end_tag)
            output_bytes = utf8_len(content)
            self.generated_bytes += output_bytes
            rows = reads.rows - rows_before
            cost, db_cost = cost_model.block_costs(output_bytes, rows, 1, rows > 0)
            self.generation_cost_s += cost
            self.db_cost_s += db_cost
            self.db_rows += rows
        return self

    def response_body(self) -> str:
        """What the origin ships for this page: the wire text written so far.

        With a monitor, the template's wire form (what
        :meth:`Template.serialize` renders for the same writes and blocks);
        without one, the full page.
        """
        run = self._run
        if self.bem is None:
            return "".join(run)
        parts = self._parts
        if not run:
            return "".join(parts)
        # The open run stays open: a later write may complete a sentinel.
        parts.append(escape_literal("".join(run)))
        body = "".join(parts)
        parts.pop()
        return body

    @property
    def template(self) -> Template:
        """The page written so far, decoded: a read-only view.

        ``parse_template`` of the body with a monitor; one literal of the
        whole page without one.  The serve path never builds it; the ESI
        capture and the tests read it.
        """
        body = self.response_body()
        if self.bem is not None:
            return parse_template(body, self._config)
        return Template([Literal(body)] if body else [], self._config)

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
