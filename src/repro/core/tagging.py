"""The tagging API: marking code blocks cacheable and building pages.

System initialization (§4.3.1): "Once the cacheable fragments are
identified, each of the corresponding code blocks in the script is tagged...
by inserting APIs around the code block, enabling the output of the code
block to be cached at run-time.  The tagging process assigns a unique
identifier to each cacheable fragment, along with the appropriate metadata
(e.g., time-to-live)."

Two pieces:

* :class:`TagRegistry` — the initialization-phase artifact: a per-site map
  of block name -> cacheability metadata (TTL, data dependencies).
* :class:`PageBuilder` — the run-time API a dynamic script writes through.
  ``builder.block(name, params, generate)`` is the "API around the code
  block": with a BEM attached it runs the §4.3.2 protocol (the generator is
  skipped on hits); without one (caching disabled) it always runs the
  generator and emits plain literals, which doubles as the correctness
  oracle for the DPC assembly invariant.

The monitor protocol is ``process_block(fragment_id, describe, generate)``.
``describe`` materializes the block's :class:`FragmentMetadata` and is
called only when a miss inserts a directory entry, before ``generate``
runs, so a hit pays for one fragment id (a ``(name, params)`` tuple; no
string is rendered) and one directory probe keyed on it.  The
returned instruction tells the builder what happened, with two outcomes
only: a ``GET`` is a hit, a ``SET`` is a miss carrying the generated
content.  Untagged and non-cacheable blocks never reach the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import TaggingError
from .bem import BackEndMonitor
from .fragments import Dependency, FragmentID, FragmentMetadata, check_ttl
from .scanner import utf8_len
from .template import (
    DEFAULT_CONFIG,
    GetInstruction,
    Literal,
    Template,
    TemplateConfig,
)

#: Computes a block's data dependencies from its run-time parameters.
DependencyFactory = Callable[[Mapping[str, object]], Tuple[Dependency, ...]]


@dataclass(frozen=True)
class BlockTag:
    """Initialization-phase cacheability declaration for one code block."""

    name: str
    ttl: Optional[float] = None
    cacheable: bool = True
    dependency_factory: Optional[DependencyFactory] = None

    def __post_init__(self) -> None:
        # Validated here, at tagging time: metadata is only materialized
        # on a miss, after the block has already run.
        check_ttl(self.ttl)

    def metadata_for(self, params: Mapping[str, object]) -> FragmentMetadata:
        """Materialize FragmentMetadata for one invocation's params."""
        dependencies: Tuple[Dependency, ...] = ()
        if self.dependency_factory is not None:
            dependencies = tuple(self.dependency_factory(params))
        return FragmentMetadata(
            ttl=self.ttl, dependencies=dependencies, cacheable=self.cacheable
        )


class TagRegistry:
    """All tagged blocks of one site — the output of the tagging pass."""

    def __init__(self) -> None:
        self._tags: Dict[str, BlockTag] = {}

    def tag(
        self,
        name: str,
        ttl: Optional[float] = None,
        dependencies: Optional[DependencyFactory] = None,
        cacheable: bool = True,
    ) -> BlockTag:
        """Declare a block cacheable (or explicitly non-cacheable)."""
        if name in self._tags:
            raise TaggingError("block %r is already tagged" % name)
        block = BlockTag(
            name=name,
            ttl=ttl,
            cacheable=cacheable,
            dependency_factory=dependencies,
        )
        self._tags[name] = block
        return block

    def retag(
        self,
        name: str,
        ttl: Optional[float] = None,
        dependencies: Optional[DependencyFactory] = None,
        cacheable: bool = True,
    ) -> BlockTag:
        """Replace an existing block's cacheability declaration.

        Re-running the tagging pass on one block — the operational move when
        initial metadata turns out wrong (e.g. adding a TTL after the insight
        layer shows a block never expires).  Raises
        :class:`~repro.errors.TaggingError` if the block was never tagged, so
        typos cannot silently create new tags.
        """
        if name not in self._tags:
            raise TaggingError("block %r is not tagged; use tag() first" % name)
        block = BlockTag(
            name=name,
            ttl=ttl,
            cacheable=cacheable,
            dependency_factory=dependencies,
        )
        self._tags[name] = block
        return block

    def lookup(self, name: str) -> Optional[BlockTag]:
        """The tag declared for a block name, or None if untagged."""
        return self._tags.get(name)

    def names(self) -> List[str]:
        """All tagged block names, sorted."""
        return sorted(self._tags)

    def cacheable_fraction(self) -> float:
        """The 'cacheability factor' of the Section 5 analysis."""
        if not self._tags:
            return 0.0
        cacheable = sum(1 for tag in self._tags.values() if tag.cacheable)
        return cacheable / len(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, name: str) -> bool:
        return name in self._tags


#: ``params`` of a block written without any.
_NO_PARAMS: Mapping[str, object] = MappingProxyType({})


class _Describe:
    """The ``describe`` a :class:`PageBuilder` hands its monitor.

    One per builder, re-aimed at each cacheable block, so a block costs no
    closure.  It describes the block most recently handed to the monitor:
    a monitor calls it before running the block's generator, which may
    write blocks of its own.
    """

    __slots__ = ("tag", "params")

    def __call__(self) -> FragmentMetadata:
        return self.tag.metadata_for(self.params)


@dataclass
class PageBuildStats:
    """What happened while building one page."""

    blocks: int = 0
    cacheable_blocks: int = 0
    hits: int = 0
    misses: int = 0
    generated_bytes: int = 0
    #: GET / SET instructions written to the template, tallied as added.
    gets: int = 0
    sets: int = 0


class PageBuilder:
    """Run-time page writer handed to dynamic scripts.

    With ``bem`` set, tagged blocks go through the BEM protocol and the
    result is a *template* (GET/SET instructions).  With ``bem=None`` the
    builder is in no-cache mode: every block executes and the result is the
    full page.  Scripts are completely unaware of which mode they run in —
    that transparency is the design requirement that lets the system work
    without changing the site's MVC structure (§3.2.2's critique of ESI).
    """

    def __init__(
        self,
        registry: TagRegistry,
        bem: Optional[BackEndMonitor] = None,
        template_config: TemplateConfig = DEFAULT_CONFIG,
    ) -> None:
        self.registry = registry
        self.bem = bem
        self.template = Template(config=template_config)
        self.stats = PageBuildStats()
        self._describe = _Describe()
        self._finished = False

    # -- script-facing API -------------------------------------------------------

    def literal(self, text: str) -> "PageBuilder":
        """Emit layout markup (never cached; part of every response)."""
        self._check_open()
        if text:
            self.template.literal(text)
        return self

    def block(
        self,
        name: str,
        params: Optional[Mapping[str, object]] = None,
        generate: Callable[[], str] = None,
    ) -> Optional[int]:
        """Execute one (possibly tagged) code block.

        ``generate`` produces the block's HTML and is only invoked when the
        content cannot be served from the DPC.  Untagged names behave as
        non-cacheable blocks.  Returns the UTF-8 byte length of what
        ``generate`` produced — measured once, here, for both the page
        statistics and the caller's generation costing — or ``None`` when
        the block was served without running it (a hit).

        A cacheable block allocates no closure or list here: ``generate``
        goes to the monitor as is, ``describe`` is the builder's one
        :class:`_Describe`, and whether the block ran is read off the
        returned instruction.
        """
        self._check_open()
        if generate is None:
            raise TaggingError("block %r needs a generate callable" % name)
        if params is None:
            params = _NO_PARAMS
        tag = self.registry.lookup(name)
        stats = self.stats
        stats.blocks += 1
        bem = self.bem

        if tag is None or not tag.cacheable or bem is None:
            content = generate()
            size = utf8_len(content)
            stats.generated_bytes += size
            if content:
                self.template.literal(content)
            return size

        stats.cacheable_blocks += 1
        describe = self._describe
        describe.tag = tag
        describe.params = params
        instruction = bem.process_block(
            FragmentID.create(name, params), describe, generate
        )
        self.template.instructions.append(instruction)
        if type(instruction) is GetInstruction:
            stats.gets += 1
            stats.hits += 1
            return None
        stats.sets += 1
        stats.misses += 1
        content = instruction.content
        size = utf8_len(content)
        stats.generated_bytes += size
        return size

    # -- harvesting ------------------------------------------------------------------

    def finish(self) -> Template:
        """Close the page and return the normalized instruction stream."""
        self._close()
        self.template = self.template.normalized()
        return self.template

    def response_body(self) -> str:
        """The bytes the origin ships: serialized template (both modes).

        Closes the page if still open.  :meth:`Template.serialize` merges
        adjacent literals itself, so no ``normalized()`` copy is built.
        """
        if not self._finished:
            self._close()
        return self.template.serialize()

    def full_page(self) -> str:
        """The user-deliverable page, ignoring caching (oracle rendering).

        Only available in no-cache mode, where every instruction is a
        literal; in cached mode the page exists only after DPC assembly.
        """
        if not self._finished:
            self._close()
        parts = []
        for instruction in self.template.instructions:
            if not isinstance(instruction, Literal):
                raise TaggingError(
                    "full_page() requires no-cache mode; template has %r"
                    % (instruction,)
                )
            parts.append(instruction.text)
        return "".join(parts)

    def _check_open(self) -> None:
        if self._finished:
            raise TaggingError("PageBuilder already finished")

    def _close(self) -> None:
        self._check_open()
        self._finished = True
