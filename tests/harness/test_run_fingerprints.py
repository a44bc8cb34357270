"""Per-seed fingerprints of the Figure 4 harnesses, pinned exactly.

The testbed, chaos and overload harnesses all serve through one request
path, and with the BooksOnline and edge runs they replay their workloads
through one loop (:class:`repro.harness.replay.Replay`).  Restructuring that path must not move a single simulated number:
the same calls advance the virtual clock with the same operands in the
same order, so response times, wire bytes and hit ratios stay
bit-identical per seed.  Each case below reduces one seeded run to a few
exact fields (float lists and span trees as short digests of their
``repr``) and compares them with the values recorded before the path was
unified.

Run this file as a script to print the current fingerprints.
"""

import hashlib

import pytest

from repro.faults.chaos import ChaosConfig, ChaosHarness
from repro.faults.injectors import ChannelPartition, DirectoryCorruption, DpcCrash
from repro.harness.edge import compare_deployments
from repro.harness.realistic import RealisticConfig, run_realistic
from repro.harness.testbed import Testbed, TestbedConfig
from repro.overload import CircuitBreaker, CoDelPolicy, OverloadConfig, OverloadHarness
from repro.sites.synthetic import SyntheticParams
from repro.workload import FlashCrowdProcess


def digest(value) -> str:
    """Short stable digest of a value's ``repr`` (floats repr exactly)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def span_shape(span):
    """A span tree as nested (name, status, meta, children) tuples."""
    return (
        span.name,
        span.status,
        sorted(span.meta.items()),
        [span_shape(child) for child in span.children],
    )


def traces_digest(tracer):
    return digest([span_shape(root) for root in tracer.traces])


def fingerprint_testbed(mode, tracing):
    testbed = Testbed(
        TestbedConfig(
            mode=mode, requests=300, warmup_requests=60, seed=5,
            correctness_every=7, tracing=tracing,
        )
    )
    result = testbed.run()
    fingerprint = {
        "response_times": digest(result.response_times),
        "response_wire_bytes": result.response_wire_bytes,
        "request_wire_bytes": result.request_wire_bytes,
        "hit_ratio": result.measured_hit_ratio,
        "pages_incorrect": result.pages_incorrect,
    }
    if tracing:
        fingerprint["spans"] = traces_digest(testbed.tracer)
    return fingerprint


CHAOS_FAULTS = {
    "crash": lambda: [DpcCrash(at=6.0, downtime=0.2)],
    "partition": lambda: [ChannelPartition(at=6.0, duration=0.5)],
    "drop_slot": lambda: [
        DirectoryCorruption(at=6.0, mode="drop_slot", count=8, seed=3)
    ],
}


def fingerprint_chaos(scenario, tracing):
    config = ChaosConfig(
        testbed=TestbedConfig(
            mode="dpc", requests=500, warmup_requests=100, seed=11,
            tracing=tracing,
        ),
        faults=CHAOS_FAULTS[scenario](),
        bucket_requests=50,
    )
    harness = ChaosHarness(config)
    result = harness.run()
    fingerprint = {
        "series": digest(result.series()),
        "buckets": digest(result.buckets),
        "recovery_events": digest(result.recovery_events),
        "incorrect_pages": result.incorrect_pages,
        "bypassed": result.bypassed_requests,
        "failed": result.failed_requests,
        "wire_bytes": harness.testbed.sniffer.total_wire_bytes,
    }
    if tracing:
        fingerprint["spans"] = traces_digest(harness.testbed.tracer)
    return fingerprint


def fingerprint_overload(mode, tracing):
    testbed = TestbedConfig(
        mode=mode,
        synthetic=SyntheticParams(
            num_pages=10, fragments_per_page=4, fragment_size=2048,
            cacheability=0.75,
        ),
        target_hit_ratio=0.9, requests=300, warmup_requests=60,
        arrivals=FlashCrowdProcess(
            base_rate=6.0, multiplier=20.0, burst_at=8.0, hold_s=5.0,
            decay_s=2.0, deterministic=True,
        ),
        tracing=tracing,
    )
    harness = OverloadHarness(
        OverloadConfig(
            testbed=testbed,
            app_servers=1,
            deadline_s=1.5,
            policy=CoDelPolicy(target_s=0.05, interval_s=0.5),
            breaker=CircuitBreaker(failure_threshold=5, open_s=1.0),
            correctness_every=1,
        )
    )
    result = harness.run()
    fingerprint = {
        "outcomes": (
            result.completed_fresh, result.completed_stale, result.shed,
            result.timed_out,
        ),
        "ledger": result.ledger.rows(),
        "response_times": digest(result.response_times),
        "series": digest(result.series()),
        "wire_bytes": harness.testbed.sniffer.total_wire_bytes,
        "incorrect_pages": result.incorrect_pages,
    }
    if tracing:
        fingerprint["spans"] = traces_digest(harness.testbed.tracer)
    return fingerprint


def fingerprint_realistic(cached):
    result = run_realistic(
        RealisticConfig(cached=cached, requests=150, warmup_requests=40)
    )
    fingerprint = {
        "origin_payload_bytes": result.origin_payload_bytes,
        "origin_wire_bytes": result.origin_wire_bytes,
        "hit_ratio": result.measured_hit_ratio,
        "pages_incorrect": result.pages_incorrect,
        "catalog_updates": result.catalog_updates,
    }
    if not cached:
        # The DPC run's latencies moved once, when it began paying the
        # proxy charge; they are pinned separately below.
        fingerprint["response_times"] = digest(result.response_times)
    return fingerprint


def fingerprint_edge(deployment):
    result = compare_deployments(requests=150, warmup=40, seed=42)[deployment]
    return {
        "mean_response_time": repr(result.mean_response_time),
        "wan_payload_bytes": result.wan_payload_bytes,
        "wan_wire_bytes": result.wan_wire_bytes,
        "hit_ratio": repr(result.measured_hit_ratio),
    }


CASES = {
    ("testbed", "no_cache", False): lambda: fingerprint_testbed("no_cache", False),
    ("testbed", "no_cache", True): lambda: fingerprint_testbed("no_cache", True),
    ("testbed", "dpc", False): lambda: fingerprint_testbed("dpc", False),
    ("testbed", "dpc", True): lambda: fingerprint_testbed("dpc", True),
    ("testbed", "backend", False): lambda: fingerprint_testbed("backend", False),
    ("testbed", "backend", True): lambda: fingerprint_testbed("backend", True),
    ("chaos", "crash", False): lambda: fingerprint_chaos("crash", False),
    ("chaos", "crash", True): lambda: fingerprint_chaos("crash", True),
    ("chaos", "partition", False): lambda: fingerprint_chaos("partition", False),
    ("chaos", "drop_slot", False): lambda: fingerprint_chaos("drop_slot", False),
    ("overload", "dpc", False): lambda: fingerprint_overload("dpc", False),
    ("overload", "dpc", True): lambda: fingerprint_overload("dpc", True),
    ("overload", "no_cache", False): lambda: fingerprint_overload("no_cache", False),
    ("realistic", "no_cache", False): lambda: fingerprint_realistic(False),
    ("realistic", "dpc", False): lambda: fingerprint_realistic(True),
    ("edge", "origin_only", False): lambda: fingerprint_edge("origin_only"),
    ("edge", "reverse_proxy", False): lambda: fingerprint_edge("reverse_proxy"),
    ("edge", "forward_proxy", False): lambda: fingerprint_edge("forward_proxy"),
}

#: Recorded before the harnesses shared one request path.
EXPECTED = {
    ('chaos', 'crash', False): {'series': '06385133584a9675', 'buckets': 'e90dc4b0df432000', 'recovery_events': '97b630a809692268', 'incorrect_pages': 0, 'bypassed': 123, 'failed': 0, 'wire_bytes': 2274972},
    ('chaos', 'crash', True): {'series': '97a324d6b5c66ce1', 'buckets': 'ce281a3b5db9508b', 'recovery_events': 'f3336775934ba036', 'incorrect_pages': 0, 'bypassed': 123, 'failed': 0, 'wire_bytes': 2274972, 'spans': '8512e1eb0ee6aa09'},
    # The chaos drop_slot and edge cases, and the chaos bucket and overload
    # series digests, were recorded before the five harnesses shared one
    # replay loop.
    ('chaos', 'drop_slot', False): {'series': '29c89fdf0f15aeda', 'buckets': '38a88acac9728ae2', 'recovery_events': '3b62eaa514eb6318', 'incorrect_pages': 0, 'bypassed': 0, 'failed': 0, 'wire_bytes': 2102939},
    ('chaos', 'partition', False): {'series': '806e39ca29a43dd7', 'buckets': '7648a1c2ab6ce2bd', 'recovery_events': '4f53cda18c2baa0c', 'incorrect_pages': 0, 'bypassed': 0, 'failed': 2, 'wire_bytes': 2090968},
    ('edge', 'forward_proxy', False): {'mean_response_time': '0.10128519999999949', 'wan_payload_bytes': 142950, 'wan_wire_bytes': 190950, 'hit_ratio': '1.0'},
    ('edge', 'origin_only', False): {'mean_response_time': '0.4781399999999969', 'wan_payload_bytes': 7497750, 'wan_wire_bytes': 7749750, 'hit_ratio': '0.0'},
    ('edge', 'reverse_proxy', False): {'mean_response_time': '0.2898218400000018', 'wan_payload_bytes': 7497750, 'wan_wire_bytes': 7749750, 'hit_ratio': '1.0'},
    ('overload', 'dpc', False): {'outcomes': (67, 293, 0, 0), 'ledger': [('queue_full', 0), ('deadline_exceeded', 0), ('breaker_open', 0), ('policy_shed', 0), ('messages_dropped', 0)], 'response_times': 'fc03648de8e4d3a3', 'series': '216a16b7f221c0b2', 'wire_bytes': 494893, 'incorrect_pages': 0},
    ('overload', 'dpc', True): {'outcomes': (67, 293, 0, 0), 'ledger': [('queue_full', 0), ('deadline_exceeded', 0), ('breaker_open', 0), ('policy_shed', 0), ('messages_dropped', 0)], 'response_times': 'fc03648de8e4d3a3', 'series': '216a16b7f221c0b2', 'wire_bytes': 494893, 'incorrect_pages': 0, 'spans': 'd2dd00117dee721f'},
    ('overload', 'no_cache', False): {'outcomes': (55, 0, 19, 286), 'ledger': [('queue_full', 19), ('deadline_exceeded', 286), ('breaker_open', 0), ('policy_shed', 0), ('messages_dropped', 0)], 'response_times': '4f53cda18c2baa0c', 'series': '595f5a158d867634', 'wire_bytes': 1435708, 'incorrect_pages': 0},
    ('realistic', 'dpc', False): {'origin_payload_bytes': 94543, 'origin_wire_bytes': 118543, 'hit_ratio': 0.9801980198019802, 'pages_incorrect': 0, 'catalog_updates': 1},
    ('realistic', 'no_cache', False): {'origin_payload_bytes': 208235, 'origin_wire_bytes': 234435, 'hit_ratio': 0.0, 'pages_incorrect': 0, 'catalog_updates': 1, 'response_times': 'a6ebb49f5c981ae9'},
    ('testbed', 'backend', False): {'response_times': '478388c43f2d361b', 'response_wire_bytes': 1462800, 'request_wire_bytes': 147900, 'hit_ratio': 0.7703703703703704, 'pages_incorrect': 0},
    ('testbed', 'backend', True): {'response_times': 'eef42af5f7714db4', 'response_wire_bytes': 1462800, 'request_wire_bytes': 147900, 'hit_ratio': 0.7703703703703704, 'pages_incorrect': 0, 'spans': 'bda303371523cf41'},
    ('testbed', 'dpc', False): {'response_times': '51d448564302f7b6', 'response_wire_bytes': 919180, 'request_wire_bytes': 147900, 'hit_ratio': 0.7703703703703704, 'pages_incorrect': 0},
    ('testbed', 'dpc', True): {'response_times': '921c9ba2a1232379', 'response_wire_bytes': 919180, 'request_wire_bytes': 147900, 'hit_ratio': 0.7703703703703704, 'pages_incorrect': 0, 'spans': '87205b93dfd146a6'},
    ('testbed', 'no_cache', False): {'response_times': '7b48e4e59dde2a63', 'response_wire_bytes': 1462800, 'request_wire_bytes': 147900, 'hit_ratio': 0.0, 'pages_incorrect': 0},
    ('testbed', 'no_cache', True): {'response_times': '4c44192130bf844d', 'response_wire_bytes': 1462800, 'request_wire_bytes': 147900, 'hit_ratio': 0.0, 'pages_incorrect': 0, 'spans': '1798eb095b7e2512'},
}

#: The one number the shared path moved: the BooksOnline DPC run's
#: response times, now charged the proxy cost.
REALISTIC_DPC_RESPONSE_TIMES = "708d056b417d4ee9"


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda case: "-".join(map(str, case)))
def test_fingerprint_matches_recorded(case):
    assert CASES[case]() == EXPECTED[case]


def test_realistic_dpc_latencies_include_the_proxy_charge():
    """Recorded once the BooksOnline DPC run served through the testbed
    path, which charges every assembled response the DPC scan plus
    assembly cost, as every other Figure 4 run pays."""
    result = run_realistic(
        RealisticConfig(cached=True, requests=150, warmup_requests=40)
    )
    assert digest(result.response_times) == REALISTIC_DPC_RESPONSE_TIMES


if __name__ == "__main__":
    for case in sorted(CASES):
        print("    %r: %r," % (case, CASES[case]()))
