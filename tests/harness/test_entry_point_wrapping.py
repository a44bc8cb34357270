"""Entry points wrapped on a built instance see every call.

Wall-clock tracing wraps ``monitor.process_block`` and
``monitor.directory.lookup`` on the instance after it is built (instance
attributes shadow the class methods).  That only counts every call if the
serve path looks these methods up at call time instead of holding bound
methods taken at construction, and if each cacheable block costs exactly
one ``process_block`` and one ``lookup``.
"""

from collections import Counter

from repro.harness.testbed import Testbed, TestbedConfig


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
