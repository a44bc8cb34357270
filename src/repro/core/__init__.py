"""The paper's contribution: granular proxy-based caching of dynamic content.

Run-time flow (reverse-proxy configuration, Figure 4):

1. A request reaches the application server; the dynamic script runs.
2. At each tagged code block, the :class:`BackEndMonitor` probes its cache
   directory: hit -> ``GET`` tag, miss -> run the block, allocate a dpcKey,
   ``SET`` tag with the content.
3. The serialized template crosses the origin link (small when warm).
4. The :class:`DynamicProxyCache` scans the template (one linear pass),
   executes the instructions against its slot array, and delivers the
   assembled page.
"""

from . import fastpath  # rejects the retired REPRO_FASTPATH=0 at import
from .bem import BackEndMonitor, BemStats, ObjectCache
from .cache_directory import (
    CacheDirectory,
    DirectoryEntry,
    DirectoryStats,
    FreeList,
    RepairReport,
)
from .coherency import ProxyGroup
from .dpc import AssembledPage, DpcStats, DynamicProxyCache
from .fragments import Dependency, FragmentID, FragmentMetadata
from .invalidation import InvalidationManager
from .replacement import (
    DecayedFrequencyPolicy,
    FifoPolicy,
    GreedyDualSizePolicy,
    LfuPolicy,
    LruPolicy,
    ReplacementPolicy,
    TtlAwarePolicy,
    make_policy,
)
from .routing import ConsistentHashRing, RequestRouter
from .scanner import failure_function, kmp_find_all
from .tagging import BlockTag, TagRegistry
from .template import (
    DEFAULT_CONFIG,
    GetInstruction,
    Instruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)

__all__ = [
    "BackEndMonitor",
    "BemStats",
    "ObjectCache",
    "CacheDirectory",
    "DirectoryEntry",
    "DirectoryStats",
    "FreeList",
    "RepairReport",
    "ProxyGroup",
    "DynamicProxyCache",
    "DpcStats",
    "AssembledPage",
    "Dependency",
    "FragmentID",
    "FragmentMetadata",
    "InvalidationManager",
    "ReplacementPolicy",
    "DecayedFrequencyPolicy",
    "LruPolicy",
    "LfuPolicy",
    "FifoPolicy",
    "GreedyDualSizePolicy",
    "TtlAwarePolicy",
    "make_policy",
    "ConsistentHashRing",
    "RequestRouter",
    "failure_function",
    "kmp_find_all",
    "TagRegistry",
    "BlockTag",
    "Template",
    "TemplateConfig",
    "DEFAULT_CONFIG",
    "Literal",
    "GetInstruction",
    "SetInstruction",
    "Instruction",
    "parse_template",
]
