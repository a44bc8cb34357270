"""Minimal HTTP request/response objects with byte-exact size accounting.

The analysis (§5) charges every response ``f`` bytes of header information
(HTTP headers such as ``Server`` and ``Content-type``; Table 2 baseline
f = 500).  Requests also cross the measured link, so they get an explicit
size model too — the paper's Sniffer saw them, which is part of why the
experimental curves differ from the analytical ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.fragments import quote_reserved
from ..core.template import utf8_len
from ..errors import ConfigurationError

#: Table 2 baseline: "average size of header information (f)".
DEFAULT_RESPONSE_HEADER_BYTES = 500

#: Typical request-line + header budget for a 2002-era browser request.
DEFAULT_REQUEST_HEADER_BYTES = 300


@dataclass(frozen=True)
class HttpRequest:
    """One client request.

    ``user_id`` models the authenticated identity carried by a login
    cookie; it is *not* part of the URL — which is exactly why URL-keyed
    caches confuse Bob with Alice (§3.2.1) while fragmentIDs do not.
    """

    path: str
    params: Mapping[str, str] = field(default_factory=dict)
    user_id: Optional[str] = None
    session_id: Optional[str] = None
    method: str = "GET"
    header_bytes: int = DEFAULT_REQUEST_HEADER_BYTES
    #: Virtual instant the request entered the system (set by the workload
    #: generator).  Bounded queues schedule against this, not against the
    #: drifting shared clock, so c-server queueing is modeled honestly.
    arrived_at: Optional[float] = None
    #: Absolute virtual deadline propagated from the client through proxy
    #: and origin.  ``None`` means "no deadline" (the pre-overload default).
    deadline_at: Optional[float] = None
    #: Queue priority (> 0 reaches capacity a ``priority``-discipline
    #: bounded queue reserves).  The proxy marks predicted cache hits
    #: priority so cheap traffic keeps flowing through a flash crowd.
    priority: int = 0
    #: Trace context (:class:`repro.telemetry.TraceContext`) stamped by an
    #: enabled tracer so downstream components can attach spans to the
    #: right tree.  Excluded from equality/repr: tracing a request must
    #: not change how caches and queues treat it.
    trace: Optional[object] = field(default=None, compare=False, repr=False)
    #: The request URL — what a page-level proxy cache keys on.  Keys and
    #: values percent-encode ``%&=?``, as fragment ids do, so two parameter
    #: maps never share a URL.  Rendered once, at construction.
    url: str = field(init=False, compare=False, repr=False)
    #: UTF-8 bytes this request occupies as an HTTP message payload.
    payload_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ConfigurationError("request path must start with '/'")
        if self.header_bytes < 0:
            raise ConfigurationError("header_bytes cannot be negative")
        if (
            self.arrived_at is not None
            and self.deadline_at is not None
            and self.deadline_at < self.arrived_at
        ):
            raise ConfigurationError("deadline cannot precede arrival")
        url = self._render_url()
        object.__setattr__(self, "url", url)
        object.__setattr__(
            self,
            "payload_bytes",
            utf8_len(self.method) + 1 + utf8_len(url) + len(" HTTP/1.1\r\n")
            + self.header_bytes,
        )

    def _render_url(self) -> str:
        params = self.params
        if not params:
            return self.path
        query = "&".join(
            "%s=%s" % (quote_reserved(key), quote_reserved(params[key]))
            for key in sorted(params)
        )
        return "%s?%s" % (self.path, query)

    def param(self, name: str, default: str = "") -> str:
        """Query parameter by name, with a default."""
        return self.params.get(name, default)


@dataclass
class HttpResponse:
    """One origin response: a body plus ``f`` bytes of headers."""

    body: str
    status: int = 200
    header_bytes: int = DEFAULT_RESPONSE_HEADER_BYTES
    #: Free-form annotations for experiments (page id, hit counts, ...).
    meta: Dict[str, object] = field(default_factory=dict)
    #: Body plus header bytes, the S_c of the analysis: the body is
    #: measured once, at construction (a response's body is never
    #: reassigned).
    payload_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ConfigurationError("header_bytes cannot be negative")
        self.payload_bytes = utf8_len(self.body) + self.header_bytes

    @property
    def body_bytes(self) -> int:
        """UTF-8 byte length of the body alone."""
        return self.payload_bytes - self.header_bytes
