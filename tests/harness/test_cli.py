"""Tests for the artifact-regeneration CLI."""

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_accepts_known_artifacts(self):
        args = build_parser().parse_args(["fig2a", "table2"])
        assert args.artifacts == ["fig2a", "table2"]

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_requires_at_least_one(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_request_options(self):
        args = build_parser().parse_args(["fig3b", "--requests", "50",
                                          "--warmup", "10"])
        assert args.requests == 50
        assert args.warmup == 10


class TestAnalyticalCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Baseline Parameter Settings" in out
        assert "hit ratio (h)" in out

    def test_fig2a(self, capsys):
        main(["fig2a"])
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert "1024" in out

    def test_fig2b_and_fig3a_together(self, capsys):
        main(["fig2b", "fig3a"])
        out = capsys.readouterr().out
        assert "Figure 2(b)" in out
        assert "Figure 3(a)" in out

    def test_duplicates_run_once(self, capsys):
        main(["table2", "table2"])
        out = capsys.readouterr().out
        assert out.count("Baseline Parameter Settings") == 1


class TestTestbedCommands:
    def test_fig3b_small(self, capsys):
        assert main(["fig3b", "--requests", "120", "--warmup", "30"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(b)" in out
        assert "exp payload" in out

    def test_case_study_small(self, capsys):
        main(["case-study", "--requests", "150", "--warmup", "40"])
        out = capsys.readouterr().out
        assert "order-of-magnitude" in out

    def test_edge_small(self, capsys):
        main(["edge", "--requests", "100", "--warmup", "25"])
        out = capsys.readouterr().out
        assert "forward_proxy" in out
        assert "reverse_proxy" in out


    def test_trace_small(self, capsys):
        """The span tree of the last request, then the deployment metrics
        table with the proxy's scanned bytes."""
        assert main(["trace", "--requests", "5"]) == 0
        out = capsys.readouterr().out
        tree, metrics = out.split("Deployment metrics\n")
        assert tree.startswith("Span tree of the last traced request")
        assert "request" in tree
        assert "dpc.assemble" in tree
        assert metrics.startswith("metric")
        rows = dict(line.split() for line in metrics.splitlines()[2:])
        assert int(rows["dpc.bytes_scanned"]) > 0
        assert rows["dpc.bytes_scanned"] == rows["dpc.template_bytes_in"]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "table2"],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0
        assert "Baseline Parameter Settings" in completed.stdout
