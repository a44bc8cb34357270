"""User sessions: the run-time state dimension of dynamic pages.

Section 2 stresses that dynamic pages are built "based on the run-time
state of the Web site and the user session on the site".  Sessions here
carry the logged-in identity and arbitrary per-visit state; the application
server resolves a request's session before running any script, mirroring a
servlet container.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..errors import SessionError
from ..network.clock import SimulatedClock


@dataclass
class Session:
    """One visitor's server-side session state."""

    session_id: str
    user_id: Optional[str] = None
    created_at: float = 0.0
    last_seen: float = 0.0
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def authenticated(self) -> bool:
        """Whether a user is logged into this session."""
        return self.user_id is not None

    def get(self, key: str, default: object = None) -> object:
        """Read one session attribute, with a default."""
        return self.data.get(key, default)

    def put(self, key: str, value: object) -> None:
        """Store one session attribute."""
        self.data[key] = value


class SessionManager:
    """Creates, resolves, and expires sessions."""

    def __init__(self, clock: SimulatedClock, idle_timeout_s: float = 1800.0) -> None:
        if idle_timeout_s <= 0:
            raise SessionError("idle timeout must be positive")
        self._clock = clock
        self.idle_timeout_s = idle_timeout_s
        self._sessions: Dict[str, Session] = {}
        self.created = 0
        self.expired = 0

    def resolve(
        self, session_id: Optional[str], user_id: Optional[str] = None
    ) -> Session:
        """Return the live session for an id, creating one when needed.

        An expired session is replaced by a fresh one (the visitor's cookie
        outlived the server-side state).  A ``user_id`` on the request logs
        that user into the session, as a login form would.
        """
        now = self._clock.now()
        if session_id is None:
            session_id = "anon-%d" % self.created
        session = self._sessions.get(session_id)
        if session is not None and now - session.last_seen > self.idle_timeout_s:
            self.expired += 1
            del self._sessions[session_id]
            session = None
        if session is None:
            session = Session(
                session_id=session_id, created_at=now, last_seen=now
            )
            self._sessions[session_id] = session
            self.created += 1
        session.last_seen = now
        if user_id is not None:
            session.user_id = user_id
        return session

    def snapshot(
        self, session_id: Optional[str], user_id: Optional[str] = None
    ) -> Session:
        """A private copy of the session :meth:`resolve` would return now.

        Nothing is stored, counted or touched: a script run against the
        copy (the uncached oracle) cannot change what later requests see.
        """
        now = self._clock.now()
        if session_id is None:
            session_id = "anon-%d" % self.created
        session = self._sessions.get(session_id)
        if session is None or now - session.last_seen > self.idle_timeout_s:
            session = Session(session_id=session_id, created_at=now)
        session = replace(
            session, last_seen=now, data=copy.deepcopy(session.data)
        )
        if user_id is not None:
            session.user_id = user_id
        return session

    def logout(self, session_id: str) -> None:
        """Clear a session's identity and data (the logout action)."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionError("no session %r" % session_id)
        session.user_id = None
        session.data.clear()

    def sweep(self) -> int:
        """Expire idle sessions; returns the number removed."""
        now = self._clock.now()
        doomed = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_seen > self.idle_timeout_s
        ]
        for sid in doomed:
            del self._sessions[sid]
        self.expired += len(doomed)
        return len(doomed)

    def active_count(self) -> int:
        """Number of live (unexpired) sessions."""
        return len(self._sessions)
