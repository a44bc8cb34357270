"""Tests for the distributed-proxy coherency group (§7 extension)."""

import pytest

from repro.core.coherency import ProxyGroup
from repro.core.fragments import Dependency, FragmentID, FragmentMetadata
from repro.core.replacement import DecayedFrequencyPolicy, LruPolicy
from repro.core.template import GetInstruction, SetInstruction
from repro.database import Database, schema
from repro.errors import ConfigurationError


def fid(name, **params):
    return FragmentID.create(name, params or None)


@pytest.fixture
def group():
    g = ProxyGroup(capacity_per_proxy=16)
    g.add_proxy("edge-east")
    g.add_proxy("edge-west")
    return g


class TestMembership:
    def test_add_and_list(self, group):
        assert group.names() == ["edge-east", "edge-west"]
        assert len(group) == 2

    def test_duplicate_rejected(self, group):
        with pytest.raises(ConfigurationError):
            group.add_proxy("edge-east")

    def test_member_lookup(self, group):
        bem, dpc = group.member("edge-east")
        assert dpc.name == "edge-east"
        with pytest.raises(ConfigurationError):
            group.member("nowhere")

    def test_remove(self, group):
        group.remove_proxy("edge-west")
        assert group.names() == ["edge-east"]

    def test_members_take_the_directory_default_policy(self, group):
        bem, _ = group.member("edge-east")
        assert type(bem.directory.policy) is DecayedFrequencyPolicy

    def test_policy_name_picks_the_members_policy(self):
        bem, _ = ProxyGroup(capacity_per_proxy=4, policy_name="lru").add_proxy("a")
        assert type(bem.directory.policy) is LruPolicy


class TestIndependentCopies:
    def test_fragment_copies_are_per_proxy(self, group):
        """The same fragment cached on two proxies is two directory
        entries with independent dpcKeys."""
        east_bem, _ = group.member("edge-east")
        west_bem, _ = group.member("edge-west")
        east_bem.process_block(fid("f"), FragmentMetadata, lambda: "v")
        # West has never seen it: a miss there, independent of east.
        instruction = west_bem.process_block(fid("f"), FragmentMetadata, lambda: "v")
        assert isinstance(instruction, SetInstruction)


class TestCoherency:
    def test_database_change_invalidates_every_copy(self, group):
        db = Database()
        table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        table.insert({"k": 1, "v": 0})
        group.attach_database(db.bus)

        meta = FragmentMetadata(dependencies=(Dependency("t", key=1),))
        for name in group.names():
            bem, _ = group.member(name)
            bem.process_block(fid("f"), lambda: meta, lambda: "v0")

        table.update({"v": 1}, key=1)

        for name in group.names():
            bem, _ = group.member(name)
            instruction = bem.process_block(fid("f"), lambda: meta, lambda: "v1")
            assert isinstance(instruction, SetInstruction), name

    def test_coherency_messages_counted(self, group):
        db = Database()
        table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        group.attach_database(db.bus)
        table.insert({"k": 1, "v": 0})
        assert group.coherency_messages == 2  # one per proxy

    def test_proxy_added_after_attach_still_observes(self):
        g = ProxyGroup(capacity_per_proxy=8)
        db = Database()
        table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        table.insert({"k": 1, "v": 0})
        g.attach_database(db.bus)
        g.add_proxy("late")
        bem, _ = g.member("late")
        meta = FragmentMetadata(dependencies=(Dependency("t", key=1),))
        bem.process_block(fid("f"), lambda: meta, lambda: "v0")
        table.update({"v": 1}, key=1)
        assert isinstance(
            bem.process_block(fid("f"), lambda: meta, lambda: "v1"), SetInstruction
        )

    def test_explicit_fragment_broadcast(self, group):
        for name in group.names():
            bem, _ = group.member(name)
            bem.process_block(fid("g", u="bob"), FragmentMetadata, lambda: "x")
        assert group.invalidate_fragment("g", {"u": "bob"}) == 2

    def test_block_broadcast(self, group):
        for name in group.names():
            bem, _ = group.member(name)
            for user in ("a", "b"):
                bem.process_block(fid("g", u=user), FragmentMetadata, lambda: "x")
        assert group.invalidate_block("g") == 4

    def test_flush_all(self, group):
        for name in group.names():
            bem, dpc = group.member(name)
            bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
            dpc.store(0, "x")
        assert group.flush_all() == 2
        for name in group.names():
            _, dpc = group.member(name)
            assert dpc.occupied_slots() == 0

    def test_group_hit_ratio(self, group):
        east_bem, _ = group.member("edge-east")
        east_bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        east_bem.process_block(fid("f"), FragmentMetadata, lambda: "x")
        assert group.group_hit_ratio() == 0.5

    def test_control_plane_carries_invalidation_traffic(self, group):
        from repro.network.channel import Channel

        channel = Channel("control", endpoint_a="client", endpoint_b="origin")
        group.use_control_plane(channel)
        for name in group.names():
            bem, _ = group.member(name)
            bem.process_block(fid("g", u="bob"), FragmentMetadata, lambda: "x")
        assert group.invalidate_fragment("g", {"u": "bob"}) == 2
        assert channel.messages_sent == 2  # one control message per member
        assert group.dead_letter_flushes == 0

    def test_lost_invalidation_flushes_the_member(self, group):
        """A dead-lettered control message must never leave a stale copy
        valid: the group flushes that member's directory instead."""
        from repro.network.channel import Channel

        channel = Channel("control", endpoint_a="client", endpoint_b="origin")
        group.use_control_plane(channel)
        for name in group.names():
            bem, _ = group.member(name)
            bem.process_block(fid("g", u="bob"), FragmentMetadata, lambda: "x")
        channel.close()  # the control plane partitions

        assert group.invalidate_fragment("g", {"u": "bob"}) == 0
        assert group.dead_letter_flushes == 2
        for name in group.names():
            bem, _ = group.member(name)
            assert not bem.directory.valid_entries(), name

    def test_control_plane_retries_ride_out_transient_loss(self, group):
        from repro.errors import MessageDropped
        from repro.faults.retry import ReliableDelivery, RetryPolicy
        from repro.network.channel import Channel

        channel = Channel("control", endpoint_a="client", endpoint_b="origin")
        drops = {"left": 1}

        def drop_once(message):
            if drops["left"] > 0:
                drops["left"] -= 1
                raise MessageDropped("transient")
            return 0.0

        channel.add_fault(drop_once)
        group.use_control_plane(
            channel, delivery=ReliableDelivery(RetryPolicy(max_attempts=3))
        )
        for name in group.names():
            bem, _ = group.member(name)
            bem.process_block(fid("g", u="bob"), FragmentMetadata, lambda: "x")

        assert group.invalidate_fragment("g", {"u": "bob"}) == 2
        assert group.dead_letter_flushes == 0

    def test_removed_proxy_stops_observing(self, group):
        db = Database()
        db.create_table(schema("t", [("k", "int"), ("v", "int")]))
        group.attach_database(db.bus)
        bem, _ = group.member("edge-west")
        group.remove_proxy("edge-west")
        db.table("t").insert({"k": 1, "v": 0})
        assert bem.invalidation.events_seen == 0
