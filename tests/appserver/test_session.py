"""Tests for sessions."""

import pytest

from repro.appserver.session import SessionManager
from repro.errors import SessionError
from repro.network.clock import SimulatedClock


@pytest.fixture
def manager(clock):
    return SessionManager(clock, idle_timeout_s=100.0)


class TestResolve:
    def test_creates_on_first_sight(self, manager):
        session = manager.resolve("s1")
        assert session.session_id == "s1"
        assert manager.created == 1

    def test_reuses_live_session(self, manager):
        first = manager.resolve("s1")
        first.put("cart_items", 3)
        again = manager.resolve("s1")
        assert again is first
        assert again.get("cart_items") == 3

    def test_none_id_generates_fresh(self, manager):
        a = manager.resolve(None)
        b = manager.resolve(None)
        assert a.session_id != b.session_id

    def test_login_binds_user(self, manager):
        manager.resolve("s1")
        session = manager.resolve("s1", user_id="bob")
        assert session.user_id == "bob"
        assert session.authenticated

    def test_idle_expiry_replaces_session(self, manager, clock):
        first = manager.resolve("s1")
        first.put("x", 1)
        clock.advance(101.0)
        fresh = manager.resolve("s1")
        assert fresh.get("x") is None
        assert manager.expired == 1

    def test_activity_keeps_session_alive(self, manager, clock):
        manager.resolve("s1")
        for _ in range(5):
            clock.advance(60.0)
            manager.resolve("s1")
        assert manager.created == 1


class TestSnapshot:
    """``snapshot`` shows what ``resolve`` would, and changes nothing."""

    def test_copies_live_state_without_sharing_it(self, manager, clock):
        live = manager.resolve("s1", user_id="bob")
        live.put("cart", ["FIC-000"])
        clock.advance(10.0)
        copy = manager.snapshot("s1")
        assert copy is not live
        assert (copy.user_id, copy.get("cart")) == ("bob", ["FIC-000"])
        assert copy.last_seen == 10.0
        copy.get("cart").append("SCI-001")
        copy.put("cart_items", 2)
        assert live.data == {"cart": ["FIC-000"]}
        assert live.last_seen == 0.0

    def test_counts_and_stores_nothing(self, manager):
        copy = manager.snapshot(None, user_id="alice")
        assert copy.session_id == "anon-0"
        assert copy.user_id == "alice"
        assert (manager.created, manager.active_count()) == (0, 0)
        assert manager.resolve(None).user_id is None

    def test_expired_session_reads_as_fresh(self, manager, clock):
        manager.resolve("s1").put("x", 1)
        clock.advance(101.0)
        assert manager.snapshot("s1").get("x") is None
        assert manager.expired == 0
        assert manager.active_count() == 1


class TestManagement:
    def test_logout_clears_identity_and_data(self, manager):
        session = manager.resolve("s1", user_id="bob")
        session.put("x", 1)
        manager.logout("s1")
        assert not session.authenticated
        assert session.get("x") is None

    def test_logout_unknown_raises(self, manager):
        with pytest.raises(SessionError):
            manager.logout("zzz")

    def test_sweep(self, manager, clock):
        manager.resolve("s1")
        manager.resolve("s2")
        clock.advance(50.0)
        manager.resolve("s2")  # refresh s2 only
        clock.advance(60.0)    # s1 idle 110s, s2 idle 60s
        assert manager.sweep() == 1
        assert manager.active_count() == 1

    def test_invalid_timeout_rejected(self, clock):
        with pytest.raises(SessionError):
            SessionManager(clock, idle_timeout_s=0)
