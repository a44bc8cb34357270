"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems define narrower classes here
(rather than in their own modules) so that the hierarchy is visible in one
place and no import cycles arise between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class ProtocolError(ReproError):
    """Malformed or protocol-violating BEM→DPC wire input.

    Umbrella for every way an origin response can be unparseable or
    unexecutable at the proxy: truncated or garbled tags, GETs referencing
    out-of-range or never-set dpcKeys, and oversized fragment payloads.
    The DPC must reject such input with this typed error — never with a
    raw ``KeyError``/``IndexError`` — so callers can fail the one response
    instead of the whole proxy.
    """


# --------------------------------------------------------------------------
# Core (DPC / BEM) errors
# --------------------------------------------------------------------------


class CacheError(ReproError):
    """Base class for cache-related failures."""


class DirectoryFullError(CacheError):
    """The BEM cache directory is full and replacement could not free space."""


class SlotError(CacheError, ProtocolError):
    """A DPC slot operation referenced an out-of-range or unassigned dpcKey."""


class AssemblyError(CacheError, ProtocolError):
    """The DPC could not assemble a page from a template.

    Raised when a GET instruction references a slot that holds no content.
    Under the BEM protocol this indicates a protocol violation (the BEM only
    emits GET for fragments its directory believes are resident), so it is an
    error rather than a silent miss.
    """


class TemplateError(ProtocolError):
    """A serialized page template could not be parsed."""


class OversizedFragmentError(ProtocolError):
    """A SET carried a fragment payload larger than the configured maximum."""


class TaggingError(ReproError):
    """The tagging API was misused (e.g. nested tagged blocks)."""


# --------------------------------------------------------------------------
# Application-server errors
# --------------------------------------------------------------------------


class AppServerError(ReproError):
    """Base class for application-server failures."""


class ScriptNotFound(AppServerError):
    """No dynamic script is registered for the requested path."""


class ScriptError(AppServerError):
    """A dynamic script raised during execution."""


class SessionError(AppServerError):
    """Session lookup or creation failed."""


# --------------------------------------------------------------------------
# Database errors
# --------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for database failures."""


class SchemaError(DatabaseError):
    """A table/column definition or reference was invalid."""


class QueryError(DatabaseError):
    """A query was malformed or referenced unknown tables/columns."""


class IntegrityError(DatabaseError):
    """A constraint (primary key uniqueness, NOT NULL) was violated."""


# --------------------------------------------------------------------------
# CMS errors
# --------------------------------------------------------------------------


class CmsError(ReproError):
    """Base class for content-management-system failures."""


class UnknownUserError(CmsError):
    """A profile lookup referenced a user that is not registered."""


class ContentNotFound(CmsError):
    """A content item was requested that the repository does not hold."""


# --------------------------------------------------------------------------
# Network errors
# --------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class ChannelClosed(NetworkError):
    """A message was sent over a channel that has been closed."""


class MessageDropped(NetworkError):
    """A message was discarded in flight by an injected network fault."""


class RoutingError(NetworkError):
    """The forward-proxy router could not place a request on any proxy."""


# --------------------------------------------------------------------------
# Fault-injection / resilience errors
# --------------------------------------------------------------------------


class FaultError(ReproError):
    """Base class for failures surfaced by the fault/resilience subsystem."""


class ProxyUnavailableError(FaultError):
    """The DPC is down (crashed or partitioned) and no fallback is allowed."""


class RecoveryError(FaultError):
    """A resync/anti-entropy pass could not restore a consistent state."""


class DeliveryTimeoutError(FaultError):
    """A retried delivery exhausted its attempts and was dead-lettered."""


# --------------------------------------------------------------------------
# Overload-protection errors
# --------------------------------------------------------------------------


class OverloadError(ReproError):
    """Base class for overload-protection rejections (the system said no).

    These are *flow-control* outcomes, not bugs: a bounded queue was full,
    a deadline could not be met, or a shedding policy refused admission.
    Callers account them and degrade; they never indicate corruption.
    """


class QueueFullError(OverloadError):
    """A bounded queue was at capacity and the arrival was rejected."""


class DeadlineExceededError(OverloadError):
    """A request's deadline expired before (or while) it could be served."""

