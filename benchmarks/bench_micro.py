"""Microbenchmarks: the hot paths of the DPC/BEM machinery.

§7's scalability requirement: "the data structures and algorithms
underlying the system must scale, both in time and space requirements."
These measure the per-operation costs that bound a deployment's throughput:
the KMP tag scan, template parse+assembly, directory probes, and the
database's indexed lookups.

Run directly for the telemetry overhead smoke:
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

from repro.core.bem import BackEndMonitor
from repro.core.cache_directory import CacheDirectory
from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.scanner import TagScanner
from repro.core.template import SENTINEL, Template
from repro.database import Database, schema
from repro.network.clock import SimulatedClock


def test_kmp_scan_throughput(benchmark):
    """Scanning a 64 KB tag-free response for the sentinel."""
    scanner = TagScanner(SENTINEL)
    text = ("The quick brown fox jumps over the lazy dog. " * 1456)[:65536]
    result = benchmark(scanner.positions, text)
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
    """The full process_block hit path (probe + GET emission)."""
    bem = BackEndMonitor(capacity=1024)
    fragment_id = FragmentID.create("hot", {"k": 1})
    bem.process_block(fragment_id, FragmentMetadata, lambda: "x" * 512)

    instruction = benchmark(bem.process_block, fragment_id, FragmentMetadata,
                            lambda: "never")
    assert instruction.key is not None


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


# -- telemetry overhead smoke (CLI, not collected by pytest-benchmark) --------

from repro.telemetry import (  # noqa: E402 - after sys.path setup
    MetricsRegistry,
    disable_profiling,
    enable_profiling,
    profiled,
    render_metrics,
)


@profiled(label="bench.testbed_run")
def _timed_run(tracing, requests, seed):
    """One seeded DPC testbed run; returns (virtual elapsed, wall elapsed).

    The workload is Table-2 scale (8 fragments of 4 KB per page, ~32 KB
    pages, the paper's regime) so per-request work is representative when
    the fixed ~2 µs-per-span tracing cost is expressed as a percentage.
    """
    from repro.harness.testbed import Testbed, TestbedConfig
    from repro.sites.synthetic import SyntheticParams

    testbed = Testbed(
        TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(num_pages=10, fragments_per_page=8,
                                      fragment_size=4096, cacheability=0.75),
            requests=requests, warmup_requests=20,
            seed=seed, tracing=tracing,
        )
    )
    wall_start = time.perf_counter()
    testbed.run()
    return testbed.clock.now(), time.perf_counter() - wall_start


def tracing_overhead(requests=200, repeats=7, seed=7):
    """Measure virtual and wall overhead of enabled tracing.

    Virtual time is deterministic, so that comparison is exact.  Wall time
    on a shared CI box is not: per-run noise routinely exceeds the ~2%
    tracing signal.  So the workload runs with tracing off and on as
    back-to-back pairs (order alternating between pairs) and the *gated*
    wall number is the lower quartile of the per-pair ratios — a
    systematic regression lifts every pair and still trips the bound,
    while a one-sided scheduler or co-tenant burst inflates only some
    pairs and cannot manufacture a failure.  The median is also returned
    for reporting.
    """
    virtual = {False: 0.0, True: 0.0}
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _timed_run(True, requests, seed)  # warm caches/allocator
        for index in range(repeats):
            order = (False, True) if index % 2 == 0 else (True, False)
            walls = {}
            for tracing in order:
                gc.collect()
                elapsed_virtual, elapsed_wall = _timed_run(
                    tracing, requests, seed
                )
                virtual[tracing] = elapsed_virtual
                walls[tracing] = elapsed_wall
            ratios.append(walls[True] / walls[False])
    finally:
        if gc_was_enabled:
            gc.enable()
    virtual_overhead = virtual[True] / virtual[False] - 1.0
    ratios.sort()
    wall_overhead = ratios[len(ratios) // 4] - 1.0
    wall_median = ratios[len(ratios) // 2] - 1.0
    return virtual_overhead, wall_overhead, wall_median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the telemetry overhead check on a small workload",
    )
    parser.add_argument(
        "--requests", type=int, default=200,
        help="measured requests per run (default 200)",
    )
    parser.add_argument(
        "--repeats", type=int, default=7,
        help="interleaved off/on run pairs for wall timing (default 7)",
    )
    parser.add_argument(
        "--bound", type=float, default=0.05,
        help="maximum tolerated fractional overhead (default 0.05)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("pass --smoke (the micro numbers come from pytest-benchmark)")

    registry = MetricsRegistry()
    enable_profiling(registry)
    try:
        virtual_overhead, wall_overhead, wall_median = tracing_overhead(
            requests=args.requests, repeats=args.repeats,
        )
    finally:
        disable_profiling()

    print("tracing overhead on %d requests (%d off/on pairs):"
          % (args.requests, args.repeats))
    print("  virtual:              %+.4f%%" % (100.0 * virtual_overhead))
    print("  wall (lower quartile): %+.4f%%" % (100.0 * wall_overhead))
    print("  wall (median):         %+.4f%%" % (100.0 * wall_median))
    print()
    print(render_metrics(registry.collect(), title="Profile metrics"))
    assert abs(virtual_overhead) <= args.bound, (
        "virtual overhead %.4f exceeds bound %.2f"
        % (virtual_overhead, args.bound)
    )
    assert wall_overhead <= args.bound, (
        "wall overhead %.4f exceeds bound %.2f" % (wall_overhead, args.bound)
    )
    print("telemetry smoke OK: overhead within %.0f%%" % (100 * args.bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
