"""Insight-layer properties (ISSUE acceptance): the miss-cause sum
invariant under random workloads with faults and overload, Mattson
exactness against a re-simulated LRU at every small slot count, and
no-alert on compliant-by-construction sample streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.fragments import Dependency, FragmentID
from repro.faults.recovery import ResyncProtocol
from repro.insight import InsightLayer, SloEngine, SloObjective, simulate_lru
from repro.insight.mattson import ReuseDistanceProfiler
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites.synthetic import (
    SYNTHETIC_TABLE,
    SyntheticParams,
    build_server,
    build_services,
    touch_fragment,
)

# ---------------------------------------------------------------------------
# 1. Miss-cause sum invariant: random interleavings of requests, data
#    churn, TTL lapses, proxy wipes (fault path), and shed notes
#    (overload path) against an undersized directory.
# ---------------------------------------------------------------------------

lifecycle_events = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 9)),
        st.tuples(st.just("touch"), st.integers(0, 39)),
        st.tuples(st.just("tick"), st.floats(0.1, 20.0)),
        st.tuples(st.just("wipe"), st.just(0)),
        st.tuples(st.just("shed"), st.integers(0, 39)),
    ),
    max_size=50,
)


@given(lifecycle_events)
@settings(max_examples=50, deadline=None)
def test_miss_causes_sum_to_misses_under_random_lifecycles(events):
    params = SyntheticParams(fragment_size=64)
    clock = SimulatedClock()
    # Capacity below the 40-fragment pool so evictions occur too.
    bem = BackEndMonitor(capacity=16, clock=clock)
    services = build_services(params)
    server = build_server(params, services=services, clock=clock, bem=bem,
                          cost_model=FREE)
    bem.attach_database(services.db.bus)
    # TTL on the block so expiry joins the mix (keep the data dependency).
    services.tags.retag(
        "frag", ttl=5.0,
        dependencies=lambda p: (Dependency(SYNTHETIC_TABLE, key=int(p["id"])),),
    )
    dpc = DynamicProxyCache(capacity=16)
    insight = InsightLayer().attach(bem=bem, dpc=dpc)

    for kind, value in events:
        if kind == "request":
            request = HttpRequest("/page.jsp", {"pageID": str(value)})
            dpc.process_response(server.handle(request).body)
        elif kind == "touch":
            touch_fragment(services, value)
        elif kind == "tick":
            clock.advance(value)
        elif kind == "wipe":
            dpc.clear()
            ResyncProtocol(bem, dpc).resync(dpc.epoch, clock.now())
        else:  # shed: overload protection declined a refill opportunity
            insight.note_shed(FragmentID.create("frag", {"id": value}))

    insight.check_invariants(bem.directory)
    assert insight.ledger.cause_total() == bem.directory.stats.misses


# ---------------------------------------------------------------------------
# 2. Mattson exactness: the single-pass prediction equals a re-simulated
#    fixed-size LRU for every num_slots in 1..8, on arbitrary
#    access/invalidate streams (stale-in-place semantics).
# ---------------------------------------------------------------------------

profiler_events = st.lists(
    st.tuples(
        st.sampled_from(["access", "invalidate"]),
        st.integers(0, 11),
    ),
    max_size=120,
)


@given(profiler_events)
@settings(max_examples=120, deadline=None)
def test_mattson_prediction_equals_resimulation(events):
    profiler = ReuseDistanceProfiler(keep_events=True)
    for kind, index in events:
        name = "f%d" % index
        if kind == "access":
            profiler.on_access(name)
        else:
            profiler.on_invalidate(name)
    for num_slots in range(1, 9):
        hits, accesses = simulate_lru(profiler.events, num_slots)
        assert hits == profiler.predicted_hits(num_slots), num_slots
        assert accesses == profiler.accesses


# ---------------------------------------------------------------------------
# 3. SLO quiescence: a run that is compliant by construction (every
#    sample good) never fires an alert, whatever the timing.
# ---------------------------------------------------------------------------

good_samples = st.lists(
    st.tuples(
        st.floats(0.0, 0.5),     # values, all within the <= 0.5 threshold
        st.floats(0.001, 2.0),   # inter-arrival gaps
    ),
    max_size=200,
)


@given(good_samples)
@settings(max_examples=80, deadline=None)
def test_no_alert_on_compliant_by_construction_run(samples):
    engine = SloEngine([SloObjective(
        name="slo.latency", metric="request.elapsed_s",
        comparator="<=", threshold=0.5, compliance_target=0.95,
        long_window_s=10.0, short_window_s=1.0,
        burn_threshold=2.0, min_samples=5,
    )])
    now = 0.0
    for value, gap in samples:
        now += gap
        engine.observe("request.elapsed_s", value, now=now)
    assert engine.alerts == []
    assert engine.active_alerts() == []
    assert engine.compliance("slo.latency") == 1.0
