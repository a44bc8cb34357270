"""Command-line interface: regenerate any paper artifact from a shell.

::

    python -m repro table2
    python -m repro fig2a fig2b fig3a          # analytical, instant
    python -m repro fig3b --requests 800       # testbed-backed
    python -m repro case-study edge
    python -m repro all                        # everything
    python -m repro doctor                     # cache diagnosis (repro.insight)

Each command prints the same rows the corresponding figure/table reports
(and that EXPERIMENTS.md records).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import TABLE2
from .harness.edge import compare_deployments
from .harness.experiments import (
    case_study,
    figure_2a_rows,
    figure_2b_rows,
    figure_3a_rows,
    figure_3b_rows,
    figure_5_rows,
    figure_6_rows,
)
from .harness.reporting import print_table

#: Artifact names accepted on the command line, in run order for 'all'.
ARTIFACTS = (
    "table2", "fig2a", "fig2b", "fig3a", "fig3b", "fig5", "fig6",
    "case-study", "edge", "trace",
)


def _run_table2(args) -> None:
    print_table(
        "Table 2: Baseline Parameter Settings",
        ["parameter", "value"],
        list(TABLE2.as_table().items()),
    )


def _run_fig2a(args) -> None:
    print_table(
        "Figure 2(a): B_C/B_NC vs fragment size (analytical)",
        ["size (B)", "ratio"],
        [[r.fragment_size, "%.4f" % r.analytical_ratio]
         for r in figure_2a_rows()],
    )


def _run_fig2b(args) -> None:
    print_table(
        "Figure 2(b): savings (%) vs hit ratio (analytical)",
        ["h", "savings (%)"],
        [["%.2f" % r.hit_ratio, "%.2f" % r.analytical_savings_pct]
         for r in figure_2b_rows()],
    )


def _run_fig3a(args) -> None:
    print_table(
        "Figure 3(a): cost savings vs cacheability (analytical)",
        ["cacheability", "network (%)", "firewall (%)"],
        [["%.0f%%" % (r.cacheability * 100),
          "%.2f" % r.analytical_network_savings_pct,
          "%.2f" % r.analytical_firewall_savings_pct]
         for r in figure_3a_rows()],
    )


def _run_fig3b(args) -> None:
    rows = figure_3b_rows(requests=args.requests, warmup=args.warmup)
    print_table(
        "Figure 3(b): B_C/B_NC vs fragment size (analytical + experimental)",
        ["size (B)", "analytical", "exp payload", "exp wire", "measured h"],
        [[r.fragment_size, "%.4f" % r.analytical_ratio,
          "%.4f" % r.experimental_payload_ratio,
          "%.4f" % r.experimental_wire_ratio,
          "%.3f" % r.measured_hit_ratio]
         for r in rows],
    )


def _run_fig5(args) -> None:
    rows = figure_5_rows(requests=args.requests, warmup=args.warmup)
    print_table(
        "Figure 5: savings (%) vs hit ratio (analytical + experimental)",
        ["target h", "measured h", "analytical", "exp payload", "exp wire"],
        [["%.1f" % r.hit_ratio, "%.3f" % r.measured_hit_ratio,
          "%.2f" % r.analytical_savings_pct,
          "%.2f" % r.experimental_savings_pct,
          "%.2f" % r.experimental_wire_savings_pct]
         for r in rows],
    )


def _run_fig6(args) -> None:
    rows = figure_6_rows(requests=args.requests, warmup=args.warmup)
    print_table(
        "Figure 6: savings vs cacheability (analytical + experimental)",
        ["cacheability", "analytical net", "exp net", "analytical fw",
         "measured fw"],
        [["%.0f%%" % (r.cacheability * 100),
          "%.2f" % r.analytical_network_savings_pct,
          "%.2f" % r.experimental_network_savings_pct,
          "%.2f" % r.analytical_firewall_savings_pct,
          "%.2f" % r.experimental_firewall_savings_pct]
         for r in rows],
    )


def _run_case_study(args) -> None:
    result = case_study(requests=args.requests, warmup=args.warmup)
    print_table(
        "Case study: order-of-magnitude claims",
        ["metric", "no cache", "DPC", "reduction"],
        [
            ["origin bytes", result.origin_bytes_no_cache,
             result.origin_bytes_dpc,
             "%.1fx" % result.bandwidth_reduction_factor],
            ["mean RT (ms)", "%.2f" % (result.mean_rt_no_cache * 1000),
             "%.2f" % (result.mean_rt_dpc * 1000),
             "%.1fx" % result.response_time_reduction_factor],
        ],
    )


def _run_edge(args) -> None:
    results = compare_deployments(requests=args.requests, warmup=args.warmup)
    base = results["origin_only"]
    print_table(
        "Edge placement (Section 7): deployment comparison",
        ["deployment", "mean RT (ms)", "speedup", "WAN bytes"],
        [[name,
          "%.1f" % (r.mean_response_time * 1000),
          "%.1fx" % (base.mean_response_time / r.mean_response_time),
          r.wan_payload_bytes]
         for name, r in results.items()],
    )


def _run_trace(args) -> None:
    from .harness.monitoring import take_snapshot
    from .harness.testbed import Testbed, TestbedConfig
    from .telemetry import render_metrics, render_span_tree

    requests = min(args.requests, 50)
    testbed = Testbed(
        TestbedConfig(mode="dpc", requests=requests, warmup_requests=0,
                      tracing=True)
    )
    testbed.run()
    print("Span tree of the last traced request (virtual time):")
    print()
    print(render_span_tree(testbed.tracer.last_root))
    print()
    snapshot = take_snapshot(
        bem=testbed.monitor,
        dpc=testbed.dpc,
        firewall=testbed.firewall,
        sniffer=testbed.sniffer,
        tracer=testbed.tracer,
    )
    print(render_metrics(snapshot.rows, title="Deployment metrics"))


_RUNNERS = {
    "table2": _run_table2,
    "fig2a": _run_fig2a,
    "fig2b": _run_fig2b,
    "fig3a": _run_fig3a,
    "fig3b": _run_fig3b,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "case-study": _run_case_study,
    "edge": _run_edge,
    "trace": _run_trace,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the SIGMOD 2002 dynamic-proxy-caching "
        "paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=ARTIFACTS + ("all",),
        help="which artifacts to regenerate ('all' for everything)",
    )
    parser.add_argument(
        "--requests", type=int, default=800,
        help="measured requests per testbed run (default 800)",
    )
    parser.add_argument(
        "--warmup", type=int, default=200,
        help="warm-up requests before measurement (default 200)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``python -m repro doctor ...`` is routed to the cache diagnosis CLI
    (:mod:`repro.insight.doctor`), which owns its own argument parser.
    Everything else is an artifact name handled here.
    """
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "doctor":
        from .insight.doctor import main as doctor_main

        return doctor_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    requested: List[str] = []
    for name in args.artifacts:
        if name == "all":
            requested.extend(ARTIFACTS)
        else:
            requested.append(name)
    seen = set()
    for name in requested:
        if name in seen:
            continue
        seen.add(name)
        _RUNNERS[name](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
