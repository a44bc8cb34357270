"""The tagging API: marking code blocks cacheable.

System initialization (§4.3.1): "Once the cacheable fragments are
identified, each of the corresponding code blocks in the script is tagged...
by inserting APIs around the code block, enabling the output of the code
block to be cached at run-time.  The tagging process assigns a unique
identifier to each cacheable fragment, along with the appropriate metadata
(e.g., time-to-live)."

:class:`TagRegistry` is the initialization-phase artifact: a per-site map of
block name -> cacheability metadata (TTL, data dependencies).  The run-time
"API around the code block" is ``ScriptContext.block``, or
``ScriptContext.write_blocks`` for a page's whole plan of blocks
(:mod:`repro.appserver.scripts`), which looks each block's tag up here.

The monitor protocol is ``process_block(fragment_id, describe, generate)``.
``describe`` materializes the block's :class:`FragmentMetadata` (through
:meth:`BlockTag.metadata_for`) and is called only when a miss inserts a
directory entry, before ``generate`` runs, so a hit pays for one fragment
id and one directory probe keyed on it.  The id is a ``(name, params)``
tuple, and for a block with at most one plain ``str``/``int`` param it is
the interned one :meth:`~repro.core.fragments.FragmentID.create` hands
back from a dict probe, so a hit renders no string and builds no id.  The returned instruction
tells the caller what happened, with two outcomes only: a ``GET`` is a
hit, a ``SET`` is a miss carrying the generated content.  Untagged and non-cacheable blocks never
reach the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import TaggingError
from .fragments import Dependency, FragmentMetadata, check_ttl, checked_metadata

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
        """Materialize FragmentMetadata for one invocation's params.

        The TTL was checked by ``__post_init__``, so it is not checked
        again here.
        """
        dependencies: Tuple[Dependency, ...] = ()
        if self.dependency_factory is not None:
            dependencies = tuple(self.dependency_factory(params))
        return checked_metadata(self.ttl, dependencies, self.cacheable)


class TagRegistry:
    """All tagged blocks of one site — the output of the tagging pass."""

    def __init__(self) -> None:
        #: Never rebound (``tag``/``retag`` assign into it), so
        #: :class:`~repro.appserver.scripts.ScriptContext` may bind its
        #: ``get`` once per context in place of calling :meth:`lookup`.
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
