"""Microbenchmarks: the hot paths of the DPC/BEM machinery.

§7's scalability requirement: "the data structures and algorithms
underlying the system must scale, both in time and space requirements."
These measure the per-operation costs that bound a deployment's throughput:
the sentinel scan (``str.find``), template parse+assembly, directory
probes, and the database's indexed lookups.

Run directly for the two instrumentation overhead gates (tracing and the
insight layer, each <5% wall overhead with identical accounting):
python benchmarks/bench_micro.py --smoke
"""

import argparse
import gc
import os
import random
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core.bem import BackEndMonitor
from repro.core.cache_directory import CacheDirectory
from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.scanner import find_positions
from repro.core.template import SENTINEL, Template
from repro.database import Database, schema
from repro.network.clock import SimulatedClock
from repro.network.latency import GenerationCostModel


def test_sentinel_scan_throughput(benchmark):
    """Scanning a 64 KB tag-free response for the sentinel."""
    text = ("The quick brown fox jumps over the lazy dog. " * 1456)[:65536]
    result = benchmark(find_positions, text, SENTINEL)
    assert result == []


def test_template_parse_and_assemble(benchmark):
    """A warm 20-GET template through parse + slot splicing."""
    dpc = DynamicProxyCache(capacity=64)
    content = "y" * 1024
    cold = Template()
    warm = Template()
    for key in range(20):
        cold.set(key, content)
        warm.get(key)
    dpc.process_response(cold.serialize())
    wire = warm.serialize()

    page = benchmark(dpc.process_response, wire)
    assert page.page_bytes == 20 * 1024


def test_directory_probe(benchmark):
    """One warm cache-directory lookup (the per-block hit cost)."""
    directory = CacheDirectory(4096)
    ids = [FragmentID.create("f", {"i": i}) for i in range(1000)]
    for fragment_id in ids:
        directory.insert(fragment_id, FragmentMetadata(), 100, 0.0)
    probe = ids[123]

    entry = benchmark(directory.lookup, probe, 1.0)
    assert entry is not None


def test_bem_block_hit_path(benchmark):
    """The process_block hit path (probe + GET emission).  The fragment id
    is built before timing; ``test_tagged_block_hit_path`` times it too."""
    bem = BackEndMonitor(capacity=1024)
    fragment_id = FragmentID.create("hot", {"k": 1})
    bem.process_block(fragment_id, FragmentMetadata, lambda: "x" * 512)

    instruction = benchmark(bem.process_block, fragment_id, FragmentMetadata,
                            lambda: "never")
    assert instruction.key is not None


def test_tagged_block_hit_path(benchmark):
    """One ``ScriptContext.block`` hit on a warm BEM: the tag lookup, the
    fragment id a script's block builds, the directory probe, the GET it
    appends and the hit's costing."""
    services = SiteServices(db=Database())
    services.tags.tag("hot")
    bem = BackEndMonitor(capacity=1024)

    def page():
        return ScriptContext(
            HttpRequest("/x"), Session("s"), services, GenerationCostModel(), bem
        )

    page().block("hot", {"k": 1}, lambda: "x" * 512)
    ctx = page()
    params = {"k": 1}

    def never():
        raise AssertionError("a warm block must not regenerate")

    benchmark(ctx.block, "hot", params, never)
    assert ctx.misses == 0 and ctx.hits >= 1


def test_indexed_lookup(benchmark):
    """Equality probe on an indexed column, 10k-row table."""
    db = Database()
    table = db.create_table(
        schema("t", [("k", "int"), ("cat", "str"), ("v", "int")])
    )
    table.create_index("cat")
    rng = random.Random(3)
    for i in range(10_000):
        table.insert({"k": i, "cat": "c%02d" % rng.randrange(50), "v": i})

    rows = benchmark(table.lookup, "cat", "c25")
    assert rows


def test_invalidation_fanout(benchmark):
    """One row update fanning out through the trigger bus to a BEM
    watching 200 fragments on other rows (the non-matching fast path)."""
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=1024, clock=clock)
    db = Database()
    table = db.create_table(schema("t", [("k", "int"), ("v", "int")]))
    for i in range(256):
        table.insert({"k": i, "v": 0})
    bem.attach_database(db.bus)
    from repro.core.fragments import Dependency

    for i in range(200):
        fragment_id = FragmentID.create("f", {"i": i})
        meta = FragmentMetadata(dependencies=(Dependency("t", key=i),))
        bem.process_block(fragment_id, lambda: meta, lambda: "x")

    counter = iter(range(10**9))

    def update_unwatched():
        table.update({"v": next(counter)}, key=255)

    benchmark(update_unwatched)


# -- instrumentation overhead gates (CLI, not collected by pytest) -----------

from repro.harness.testbed import Testbed, TestbedConfig  # noqa: E402
from repro.insight import InsightLayer  # noqa: E402
from repro.sites.synthetic import SyntheticParams  # noqa: E402

#: Result fields that must be identical with instrumentation on and off:
#: observing a run may not change a byte of what it measures.
ACCOUNTING_FIELDS = (
    "response_payload_bytes",
    "response_wire_bytes",
    "request_payload_bytes",
    "request_wire_bytes",
    "dpc_scanned_bytes",
    "firewall_bytes",
    "measured_hit_ratio",
    "fragments_invalidated",
)

#: Both gates fail when the lower-quartile wall overhead reaches 5%.
OVERHEAD_BOUND = 0.05


def _timed(testbed):
    """Run a built testbed; returns (wall seconds, accounting tuple)."""
    wall_start = time.perf_counter()
    result = testbed.run()
    wall = time.perf_counter() - wall_start
    return wall, tuple(getattr(result, field) for field in ACCOUNTING_FIELDS)


def paired_overhead(run, pairs, best_of):
    """Wall overhead of ``run(True)`` over ``run(False)``, measured in pairs.

    ``run(enabled)`` returns ``(wall_s, observed)``.  Per-run noise on a
    shared box routinely exceeds a few-percent signal, so the two sides
    run as back-to-back pairs (order alternating between pairs, GC off,
    one warm-up run first), each side keeping the minimum wall of
    ``best_of`` runs — preemption only ever adds time.  Returns the lower
    quartile and the median of the per-pair ``on/off - 1``: a systematic
    regression lifts every pair and still moves the lower quartile, while
    a co-tenant burst inflates only some pairs.  Raises
    :class:`AssertionError` when ``observed`` differs within a pair.
    """
    overheads = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        run(True)  # warm caches/allocator
        for index in range(pairs):
            order = (False, True) if index % 2 == 0 else (True, False)
            walls = {}
            observed = {}
            for enabled in order:
                gc.collect()
                walls[enabled], observed[enabled] = run(enabled)
                for _ in range(best_of - 1):
                    wall, observed[enabled] = run(enabled)
                    walls[enabled] = min(walls[enabled], wall)
            if observed[True] != observed[False]:
                raise AssertionError(
                    "instrumentation changed the accounting: %r != %r"
                    % (observed[True], observed[False])
                )
            overheads.append(walls[True] / walls[False] - 1.0)
    finally:
        if gc_was_enabled:
            gc.enable()
    overheads.sort()
    return overheads[len(overheads) // 4], overheads[len(overheads) // 2]


def tracing_gate():
    """Tracing on vs off on the Table-2-scale DPC testbed.

    8 fragments of 4 KB per page (~32 KB pages, the paper's regime), so
    the fixed per-span tracing cost is expressed against representative
    per-request work.  Virtual time is deterministic, so that comparison
    is exact, and it is checked on its own: tracing may move simulated
    time by float ulps, so it is not part of the accounting tuple.
    """
    print("tracing overhead, 200 requests, 7 off/on pairs:")
    virtual = {}

    def run(tracing):
        testbed = Testbed(TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(num_pages=10, fragments_per_page=8,
                                      fragment_size=4096, cacheability=0.75),
            requests=200, warmup_requests=20, seed=7, tracing=tracing,
        ))
        timed = _timed(testbed)
        virtual[tracing] = testbed.clock.now()
        return timed

    overhead = paired_overhead(run, pairs=7, best_of=1)
    virtual_overhead = virtual[True] / virtual[False] - 1.0
    print("  virtual:               %+.4f%%" % (100.0 * virtual_overhead))
    assert abs(virtual_overhead) <= OVERHEAD_BOUND, (
        "virtual overhead %.4f exceeds bound %.2f"
        % (virtual_overhead, OVERHEAD_BOUND)
    )
    return overhead


def insight_gate():
    """Insight layer attached vs detached on a warm Figure 4 testbed.

    16 fragments of 4 KB per page (the tens-of-kilobytes regime of the
    paper's site survey) at target hit ratio 0.9.  What is timed is the
    per-lookup observation cost; the profiler's Fenwick folding runs at
    diagnosis time, outside the request loop.
    """
    print("insight overhead, 200 requests, 7 detached/attached pairs, "
          "best of 2:")

    def run(attached):
        testbed = Testbed(TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(num_pages=20, fragments_per_page=16,
                                      fragment_size=4096, cacheability=0.8),
            target_hit_ratio=0.9,
            requests=200, warmup_requests=40, seed=7,
        ))
        if attached:
            InsightLayer().attach(bem=testbed.monitor, dpc=testbed.dpc)
        return _timed(testbed)

    return paired_overhead(run, pairs=7, best_of=2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the tracing and insight overhead gates",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("pass --smoke (the micro numbers come from pytest-benchmark)")

    failed = []
    for name, gate in (("tracing", tracing_gate), ("insight", insight_gate)):
        try:
            lower_quartile, median = gate()
        except AssertionError as failure:
            print("  %s gate FAILED: %s" % (name, failure))
            failed.append(name)
            continue
        print("  wall (lower quartile): %+.4f%%" % (100.0 * lower_quartile))
        print("  wall (median):         %+.4f%%" % (100.0 * median))
        if lower_quartile >= OVERHEAD_BOUND:
            print("  %s gate FAILED: wall overhead reaches the %.0f%% bound"
                  % (name, 100 * OVERHEAD_BOUND))
            failed.append(name)
        else:
            print("  %s gate OK: within %.0f%%" % (name, 100 * OVERHEAD_BOUND))
    if failed:
        print("overhead smoke FAILED: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    print("overhead smoke OK: tracing and insight within %.0f%%"
          % (100 * OVERHEAD_BOUND))
    return 0


if __name__ == "__main__":
    sys.exit(main())
