"""Entry points wrapped on a built instance see every call.

Wall-clock tracing wraps ``monitor.process_block`` and
``monitor.directory.lookup`` on the instance after it is built (instance
attributes shadow the class methods).  That only counts every call if the
serve path looks these methods up at call time instead of holding bound
methods taken at construction, and if each cacheable block costs exactly
one ``process_block`` and one ``lookup``.

The same holds for the Figure 4 path's own entry points
(``firewall.scan_bytes``, ``origin_link.send``, ``server.handle`` and
``dpc.process_response``) under every harness that serves through it: two
scans and two sends per request, whichever harness drives the run.
"""

from collections import Counter

from repro.faults.chaos import ChaosConfig, ChaosHarness
from repro.harness.testbed import Testbed, TestbedConfig
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
