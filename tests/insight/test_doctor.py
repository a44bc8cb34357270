"""The doctor CLI: scenario coverage, report rendering, exit codes."""

import json

import pytest

from repro.insight.doctor import (
    DoctorScenario,
    diagnosis_to_dict,
    latency_attribution,
    main,
    render_report,
    run_diagnosis,
    smoke_scenario,
)
from repro.insight.ledger import MISS_CAUSES


@pytest.fixture(scope="module")
def diagnosis():
    return run_diagnosis(smoke_scenario())


class TestScenario:
    def test_every_miss_cause_occurs(self, diagnosis):
        """The pathological deployment exercises the full taxonomy."""
        for cause in MISS_CAUSES:
            assert diagnosis.insight.ledger.counts[cause] > 0, cause

    def test_all_checks_pass(self, diagnosis):
        for name, ok, detail in diagnosis.checks():
            assert ok, "%s: %s" % (name, detail)

    def test_profiler_matches_brute_force(self, diagnosis):
        assert diagnosis.profiler_exact()
        assert len(diagnosis.validation) == 8

    def test_slo_alerts_fire_under_the_crowd(self, diagnosis):
        assert len(diagnosis.slo.alerts) >= 1
        names = {alert.objective for alert in diagnosis.slo.alerts}
        assert names <= {"slo.availability", "slo.latency_p95", "slo.hit_rate"}

    def test_wipe_hook_fired_exactly_once(self, diagnosis):
        assert diagnosis.insight.dpc_wipes == 1

    def test_latency_attribution_covers_span_kinds(self, diagnosis):
        rows = latency_attribution(diagnosis.harness.testbed.tracer)
        names = [name for name, _, _ in rows]
        assert "request" in names
        seconds = [value for _, value, _ in rows]
        assert seconds == sorted(seconds, reverse=True)
        assert all(value >= 0.0 for value in seconds)

    def test_wipe_index_defaults_to_midrun(self):
        scenario = DoctorScenario(requests=100, warmup=20, wipe_at=None)
        assert scenario.wipe_index() == 70
        assert DoctorScenario(wipe_at=5).wipe_index() == 5


class TestRendering:
    def test_report_has_every_section(self, diagnosis):
        report = render_report(diagnosis)
        for heading in ("== Run ==", "== Miss causes ==",
                        "== Counterfactual capacity (Mattson) ==",
                        "== SLOs ==", "== Checks =="):
            assert heading in report
        assert "recommended slots" in report
        assert "sum(causes)" in report

    def test_json_document_is_serializable_and_complete(self, diagnosis):
        document = diagnosis_to_dict(diagnosis)
        text = json.dumps(document)  # must not raise
        parsed = json.loads(text)
        assert set(parsed["miss_causes"]) == set(MISS_CAUSES)
        assert parsed["misses"] == sum(parsed["miss_causes"].values())
        assert all(v["exact"] for v in parsed["mattson"]["validation"])
        assert parsed["slo"]["alerts"]


class TestMain:
    def test_smoke_without_bench_exits_zero(self, capsys):
        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "repro doctor" in out

    def test_json_flag_emits_json(self, capsys):
        assert main(["--smoke", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["failed_checks"] == []

    def test_cli_routes_doctor(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["doctor", "--smoke"]) == 0
        assert "Miss causes" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["--smoke", "--seed", "11"]) == 0
