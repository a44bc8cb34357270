"""Application-server substrate (stands in for IIS + ASP / WebLogic + JSP).

Executes dynamic scripts, resolves sessions, and — when a BEM is attached —
runs the paper's run-time protocol at every tagged code block.
"""

from .http import (
    DEFAULT_REQUEST_HEADER_BYTES,
    DEFAULT_RESPONSE_HEADER_BYTES,
    HttpRequest,
    HttpResponse,
)
from .scripts import (
    NO_PARAMS,
    DynamicScript,
    PlannedBlock,
    ScriptContext,
    ScriptRegistry,
    SiteServices,
)
from .server import ApplicationServer
from .session import Session, SessionManager

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "DEFAULT_REQUEST_HEADER_BYTES",
    "DEFAULT_RESPONSE_HEADER_BYTES",
    "DynamicScript",
    "NO_PARAMS",
    "PlannedBlock",
    "ScriptContext",
    "ScriptRegistry",
    "SiteServices",
    "ApplicationServer",
    "Session",
    "SessionManager",
]
