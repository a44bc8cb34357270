"""The dotted naming scheme: validity, sync, coverage, and source lint."""

import pathlib

import pytest

from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.database import Database
from repro.errors import ConfigurationError
from repro.faults.recovery import ResyncProtocol
from repro.harness.monitoring import take_snapshot
from repro.network import Channel, Firewall, Sniffer
from repro.network.clock import SimulatedClock
from repro.overload import CircuitBreaker, DropLedger
from repro.telemetry import Tracer
from repro.telemetry.naming import (
    METRIC_NAMES,
    _DROP_REASONS,
    _MISS_CAUSES,
    valid_metric_name,
    validate_metric_name,
)

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class TestScheme:
    def test_every_canonical_name_is_valid(self):
        for name in METRIC_NAMES:
            assert valid_metric_name(name), name

    def test_no_duplicates(self):
        assert len(METRIC_NAMES) == len(set(METRIC_NAMES))

    def test_validate_raises_with_the_offending_name(self):
        with pytest.raises(ConfigurationError, match="UpperCase"):
            validate_metric_name("UpperCase.metric")

    @pytest.mark.parametrize("name", [
        "bem.fragment_hits", "overload.drops.queue_full", "a.b_c.d0",
    ])
    def test_accepts_dotted_lowercase(self, name):
        assert valid_metric_name(name)

    @pytest.mark.parametrize("name", [
        "nodots", "", "has space.x", "Trailing.", "double..dot", "0start.x",
    ])
    def test_rejects_malformed(self, name):
        assert not valid_metric_name(name)


class TestSync:
    def test_drop_reasons_stay_in_sync_with_overload(self):
        from repro.overload.accounting import DROP_REASONS

        assert _DROP_REASONS == tuple(DROP_REASONS)

    def test_miss_causes_stay_in_sync_with_insight(self):
        from repro.insight.ledger import MISS_CAUSES

        assert _MISS_CAUSES == tuple(MISS_CAUSES)


class TestLiveCoverage:
    def test_full_snapshot_names_are_canonical(self):
        """Every name a fully-populated snapshot emits is in METRIC_NAMES."""
        from repro.insight import InsightLayer, SloEngine, SloObjective

        clock = SimulatedClock()
        bem = BackEndMonitor(capacity=64, clock=clock)
        dpc = DynamicProxyCache(capacity=64)
        snapshot = take_snapshot(
            bem=bem,
            dpc=dpc,
            firewall=Firewall(),
            sniffer=Sniffer(),
            recovery=ResyncProtocol(bem, dpc),
            overload=DropLedger(),
            channel=Channel("origin", endpoint_a="dpc", endpoint_b="appserver"),
            db=Database(),
            breaker=CircuitBreaker(),
            tracer=Tracer(clock),
            insight=InsightLayer(),
            slo=SloEngine([SloObjective(name="slo.demo", metric="demo.metric",
                                        comparator="<=", threshold=1.0)]),
        )
        names = snapshot.names()
        unknown = [name for name in names if name not in METRIC_NAMES]
        assert unknown == [], "snapshot emits non-canonical names: %s" % unknown
        # Conditional rows aside, coverage should be nearly complete.
        missing = [name for name in METRIC_NAMES if name not in names]
        assert missing == ["dpc.byte_savings_ratio"], missing


class TestSourceLint:
    def source_files(self):
        return sorted(SRC_ROOT.rglob("*.py"))

    def test_no_adhoc_snapshot_add_literals_in_src(self):
        """``snapshot.add("...")`` is the deprecated shim; src must not use it."""
        offenders = []
        for path in self.source_files():
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if "snapshot.add(" in line:
                    offenders.append("%s:%d" % (path.relative_to(SRC_ROOT), lineno))
        assert offenders == [], (
            "ad-hoc snapshot.add() literals in src (register a metric_rows() "
            "provider instead): %s" % offenders
        )

