"""Entry points wrapped on a built instance see every call.

Wall-clock tracing wraps ``monitor.process_block`` and
``monitor.directory.lookup`` on the instance after it is built (instance
attributes shadow the class methods).  That only counts every call if the
serve path looks these methods up at call time instead of holding bound
methods taken at construction, and if each cacheable block costs exactly
one ``process_block`` and one ``lookup``.

The fragment lifecycle's other entry points are wrapped the same way:
``directory.insert`` (one per miss), ``policy.select_victim`` (one per
eviction), ``invalidation.on_change`` (re-subscribed on the trigger bus,
one per change event) and ``Table.update``.  A bound method cached at
construction escapes its wrapper and fails the per-step counts below.

The same holds for the Figure 4 path's own entry points
(``firewall.scan_bytes``, ``origin_link.send``, ``server.handle`` and
``dpc.process_response``) under every harness that serves through it: two
scans and two sends per request, whichever harness drives the run.
"""

from collections import Counter

from repro.faults.chaos import ChaosConfig, ChaosHarness
from repro.harness.testbed import Testbed, TestbedConfig
from repro.sites.synthetic import SYNTHETIC_TABLE, SyntheticParams
from repro.overload import OverloadConfig, OverloadHarness


def wrap_counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_wrapped_entry_points_count_every_block():
    testbed = Testbed(TestbedConfig(mode="dpc", requests=200, warmup_requests=0))
    monitor = testbed.monitor
    counts = Counter()
    monitor.process_block = wrap_counting(
        counts, "process_block", monitor.process_block
    )
    directory = monitor.directory
    directory.lookup = wrap_counting(counts, "lookup", directory.lookup)

    testbed.run()

    assert monitor.stats.blocks_processed > 0
    assert counts["process_block"] == monitor.stats.blocks_processed
    assert counts["lookup"] == directory.stats.lookups
    assert counts["lookup"] == counts["process_block"]


def test_wrapped_lifecycle_entry_points_count_every_step():
    # 40 cacheable-heavy fragments over 16 slots, with update churn: the
    # run hits, misses, evicts and invalidates.
    testbed = Testbed(
        TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(num_pages=10, fragments_per_page=4,
                                      fragment_size=64, cacheability=0.8),
            target_hit_ratio=0.7,
            dpc_capacity=16,
            requests=300,
            warmup_requests=0,
        )
    )
    monitor = testbed.monitor
    directory = monitor.directory
    policy = directory.policy
    invalidation = monitor.invalidation
    table = testbed.services.db.table(SYNTHETIC_TABLE)
    bus = testbed.services.db.bus
    counts = Counter()
    monitor.process_block = wrap_counting(
        counts, "process_block", monitor.process_block
    )
    directory.lookup = wrap_counting(counts, "lookup", directory.lookup)
    directory.insert = wrap_counting(counts, "insert", directory.insert)
    policy.select_victim = wrap_counting(
        counts, "select_victim", policy.select_victim
    )
    # The bus holds the bound method it was given: re-subscribe the wrapper.
    invalidation.detach_all()
    invalidation.on_change = wrap_counting(
        counts, "on_change", invalidation.on_change
    )
    invalidation.attach(bus)
    table.update = wrap_counting(counts, "update", table.update)
    events_before = bus.events_dispatched
    writes_before = table.rows_written

    testbed.run()

    stats = monitor.stats
    assert stats.fragment_hits > 0 and stats.fragment_misses > 0
    assert directory.stats.evictions > 0
    assert directory.stats.invalidations > 0
    assert counts["process_block"] == stats.blocks_processed
    assert counts["lookup"] == counts["process_block"] == directory.stats.lookups
    assert counts["insert"] == stats.fragment_misses == directory.stats.insertions
    assert counts["select_victim"] == directory.stats.evictions
    assert counts["on_change"] == bus.events_dispatched - events_before
    assert counts["on_change"] == counts["update"]
    assert counts["update"] == table.rows_written - writes_before


def wrap_path_entry_points(testbed):
    """Count the Figure 4 path's entry points, wrapped after construction."""
    counts = Counter()
    firewall = testbed.firewall
    firewall.scan_bytes = wrap_counting(counts, "scan_bytes", firewall.scan_bytes)
    link = testbed.origin_link
    link.send = wrap_counting(counts, "send", link.send)
    server = testbed.server
    server.handle = wrap_counting(counts, "handle", server.handle)
    dpc = testbed.dpc
    dpc.process_response = wrap_counting(
        counts, "process_response", dpc.process_response
    )
    return counts


def assert_two_scans_and_two_sends_per_request(counts, testbed, requests):
    assert counts["scan_bytes"] == 2 * requests
    assert counts["send"] == 2 * requests == testbed.origin_link.messages_sent
    assert counts["handle"] == requests == testbed.server.requests_served
    assert counts["process_response"] == requests


def test_wrapped_path_entry_points_see_every_testbed_call():
    testbed = Testbed(TestbedConfig(mode="dpc", requests=120, warmup_requests=30))
    counts = wrap_path_entry_points(testbed)

    testbed.run()

    assert_two_scans_and_two_sends_per_request(counts, testbed, 150)


def test_wrapped_path_entry_points_see_every_chaos_call():
    harness = ChaosHarness(
        ChaosConfig(
            testbed=TestbedConfig(mode="dpc", requests=120, warmup_requests=30)
        )
    )
    counts = wrap_path_entry_points(harness.testbed)

    result = harness.run()

    assert result.pages_checked == 150
    assert_two_scans_and_two_sends_per_request(counts, harness.testbed, 150)


def test_wrapped_path_entry_points_see_every_overload_call():
    harness = OverloadHarness(
        OverloadConfig(
            testbed=TestbedConfig(mode="dpc", requests=120, warmup_requests=30)
        )
    )
    counts = wrap_path_entry_points(harness.testbed)

    result = harness.run()

    assert result.completed_fresh == 150
    assert_two_scans_and_two_sends_per_request(counts, harness.testbed, 150)
