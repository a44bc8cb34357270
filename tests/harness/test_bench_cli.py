"""Tests for the uniform benchmark runner (``python -m repro bench``)."""

import json
import os

import pytest

from repro import bench
from repro.perf.insight import OVERHEAD_BOUND

#: The committed ``BENCH_*.json`` files live at the repository root.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _committed(name):
    with open(os.path.join(ROOT, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRegistry:
    def test_insight_registered(self):
        assert list(bench.REGISTRY) == ["insight"]
        spec = bench.REGISTRY["insight"]
        assert spec.default_json == "BENCH_INSIGHT.json"
        assert set(spec.smoke_settings) <= {"requests", "pairs", "warmup"}

    def test_every_spec_is_complete(self):
        for spec in bench.REGISTRY.values():
            assert spec.name and spec.description
            assert callable(spec.runner)
            assert spec.default_json.startswith("BENCH_")


class TestResultsFiles:
    def test_record_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_X.json")
        result = {"benchmark": "x", "speedup": {"lower_quartile": 3.5}}
        bench.record_result(path, result, smoke=True)
        payload = bench.load_results(path)
        assert payload["smoke"]["speedup"]["lower_quartile"] == 3.5
        assert "recorded" in payload

    def test_record_preserves_other_entry(self, tmp_path):
        path = str(tmp_path / "BENCH_X.json")
        bench.record_result(path, {"speedup": {"lower_quartile": 4.0}}, smoke=False)
        bench.record_result(path, {"speedup": {"lower_quartile": 3.9}}, smoke=True)
        payload = bench.load_results(path)
        assert payload["full"]["speedup"]["lower_quartile"] == 4.0
        assert payload["smoke"]["speedup"]["lower_quartile"] == 3.9

    def test_load_missing_returns_none(self, tmp_path):
        assert bench.load_results(str(tmp_path / "absent.json")) is None


class TestRegressionGate:
    def _result(self, speedup):
        return {"speedup": {"lower_quartile": speedup}}

    def test_missing_baseline_passes(self):
        verdict = bench.gate_against_baseline(self._result(4.0), None)
        assert "no committed baseline" in verdict

    def test_within_bound_passes(self):
        baseline = {"smoke": self._result(4.0)}
        verdict = bench.gate_against_baseline(self._result(3.7), baseline)
        assert verdict.endswith("OK")

    def test_regression_beyond_bound_fails(self):
        baseline = {"smoke": self._result(4.0)}
        with pytest.raises(AssertionError, match="perf regression"):
            bench.gate_against_baseline(self._result(3.5), baseline)

    def test_custom_bound(self):
        baseline = {"smoke": self._result(4.0)}
        with pytest.raises(AssertionError):
            bench.gate_against_baseline(
                self._result(3.9), baseline, bound=0.01
            )


class TestCommittedBaseline:
    def test_bench_insight_json_is_valid(self):
        """The committed baseline sits under the overhead gate, accounting equal."""
        payload = _committed("BENCH_INSIGHT.json")
        for entry in ("full", "smoke"):
            assert payload[entry]["overhead"]["lower_quartile"] < OVERHEAD_BOUND
            assert payload[entry]["identical_accounting"] is True


class TestCliPlumbing:
    def test_list_exits_cleanly(self, capsys):
        assert bench.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "insight" in out and "BENCH_INSIGHT.json" in out

    def test_unknown_benchmark_rejected(self, capsys):
        assert bench.main(["nonsense"]) == 2

    def test_run_smoke_with_stub_runner(self, tmp_path, capsys, monkeypatch):
        """End-to-end CLI path with a stubbed-out runner: run, gate, record."""
        path = str(tmp_path / "BENCH_INSIGHT.json")
        calls = {}

        def stub_runner(**settings):
            calls.update(settings)
            return {"benchmark": "insight", "speedup": {"lower_quartile": 5.0}}

        monkeypatch.setattr(
            bench.REGISTRY["insight"], "runner", stub_runner
        )
        code = bench.main(["insight", "--smoke", "--json", path, "--record"])
        assert code == 0
        assert calls == bench.REGISTRY["insight"].smoke_settings
        assert bench.load_results(path)["smoke"]["speedup"]["lower_quartile"] == 5.0
        # A second, slower run against the recorded baseline fails the gate.
        monkeypatch.setattr(
            bench.REGISTRY["insight"], "runner",
            lambda **settings: {"speedup": {"lower_quartile": 4.0}},
        )
        assert bench.main(["insight", "--smoke", "--json", path]) == 1
