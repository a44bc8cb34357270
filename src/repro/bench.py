"""Uniform benchmark runner: ``python -m repro bench``.

The library benchmarks in :mod:`repro.perf` all follow one contract — a
callable that runs a paired measurement of two variants and returns a
JSON-serializable dict with a ``speedup`` block.  This module is the single
front door to them, so individual bench scripts stop duplicating argparse
and JSON plumbing::

    python -m repro bench --list              # what can I run?
    python -m repro bench insight             # run, print the result
    python -m repro bench insight --smoke     # small run + regression gate
    python -m repro bench insight --json BENCH_INSIGHT.json --record
    python -m repro bench all                 # every registered benchmark

Results files (``BENCH_*.json``) hold a ``full`` and a ``smoke`` entry.
The smoke gate compares a fresh smoke run's lower-quartile speedup against
the committed smoke baseline and fails on a >10% drop — the same paired
lower-quartile scheme the telemetry-smoke job uses, so one noisy CI pair
cannot fake a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional

from .perf import insight as _insight


class BenchSpec:
    """One registered benchmark: runner, defaults, and its results file."""

    __slots__ = ("name", "description", "runner", "default_json", "smoke_settings")

    def __init__(
        self,
        name: str,
        description: str,
        runner: Callable[..., Dict[str, object]],
        default_json: str,
        smoke_settings: Dict[str, int],
    ) -> None:
        self.name = name
        self.description = description
        self.runner = runner
        self.default_json = default_json
        self.smoke_settings = smoke_settings


#: Every benchmark reachable from the CLI, in display order.
REGISTRY: Dict[str, BenchSpec] = {
    "insight": BenchSpec(
        name="insight",
        description="insight-layer overhead, attached vs detached (<5% gate)",
        runner=_insight.run_insight,
        default_json="BENCH_INSIGHT.json",
        smoke_settings=_insight.SMOKE_SETTINGS,
    ),
}

#: Maximum tolerated fractional drop of the smoke speedup vs the baseline.
DEFAULT_REGRESSION_BOUND = 0.10


def run_benchmark(name: str, smoke: bool = False) -> Dict[str, object]:
    """Run one registered benchmark and return its result dict."""
    spec = REGISTRY[name]
    settings = dict(spec.smoke_settings) if smoke else {}
    return spec.runner(**settings)


def load_results(path: str) -> Optional[Dict[str, object]]:
    """Read a ``BENCH_*.json`` file; ``None`` when it does not exist."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def record_result(path: str, result: Dict[str, object], smoke: bool) -> None:
    """Merge one run into a results file under its ``full``/``smoke`` key."""
    payload = load_results(path) or {}
    payload[("smoke" if smoke else "full")] = result
    payload["recorded"] = time.strftime("%Y-%m-%d")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def gate_against_baseline(
    result: Dict[str, object],
    baseline: Optional[Dict[str, object]],
    bound: float = DEFAULT_REGRESSION_BOUND,
) -> str:
    """Compare a smoke run against the committed smoke baseline.

    Returns a human-readable verdict; raises :class:`AssertionError` when
    the fresh lower-quartile speedup sits more than ``bound`` below the
    baseline's.  A missing baseline passes (first run records it).
    """
    fresh = float(result["speedup"]["lower_quartile"])  # type: ignore[index]
    if baseline is None or "smoke" not in baseline:
        return "no committed baseline; measured speedup %.2fx" % fresh
    recorded = float(baseline["smoke"]["speedup"]["lower_quartile"])  # type: ignore[index]
    floor = recorded * (1.0 - bound)
    verdict = "speedup %.2fx vs baseline %.2fx (floor %.2fx)" % (
        fresh, recorded, floor,
    )
    if fresh < floor:
        raise AssertionError("perf regression: " + verdict)
    return verdict + " — OK"


def _print_result(result: Dict[str, object]) -> None:
    """Render one benchmark result for the terminal."""
    print(json.dumps(result, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro bench`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the registered performance benchmarks.",
    )
    parser.add_argument(
        "names", nargs="*",
        help="benchmarks to run (see --list; 'all' for every one)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="list registered benchmarks and exit",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small run, gated against the committed smoke baseline",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="results file to read the baseline from / record into "
        "(default: the benchmark's own BENCH_*.json)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write this run into the results file as the new baseline",
    )
    parser.add_argument(
        "--bound", type=float, default=DEFAULT_REGRESSION_BOUND,
        help="maximum tolerated fractional speedup regression "
        "(default %.2f)" % DEFAULT_REGRESSION_BOUND,
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro bench``; returns an exit code."""
    args = build_parser().parse_args(argv)
    if args.list_benchmarks:
        for spec in REGISTRY.values():
            print("%-10s %s  [%s]" % (spec.name, spec.description, spec.default_json))
        return 0
    names: List[str] = []
    for name in args.names or ["all"]:
        if name == "all":
            names.extend(REGISTRY)
        elif name in REGISTRY:
            names.append(name)
        else:
            print("unknown benchmark %r (try --list)" % name, file=sys.stderr)
            return 2
    exit_code = 0
    for name in dict.fromkeys(names):
        spec = REGISTRY[name]
        path = args.json if args.json is not None else spec.default_json
        result = run_benchmark(name, smoke=args.smoke)
        print("== %s%s ==" % (name, " (smoke)" if args.smoke else ""))
        _print_result(result)
        if args.smoke:
            try:
                print(gate_against_baseline(
                    result, load_results(path), bound=args.bound,
                ))
            except AssertionError as failure:
                print(str(failure), file=sys.stderr)
                exit_code = 1
        if args.record:
            record_result(path, result, smoke=args.smoke)
            print("recorded into %s" % path)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
