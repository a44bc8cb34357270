"""Tests of the benchmark itself, at a tiny size per workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)
with open(os.path.join(HERE, "design.json"), encoding="utf-8") as _f:
    DESIGN = json.load(_f)
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def tiny(name: str):
    return dataclasses.replace(
        workloads.WORKLOADS[name], warm_requests=30, paper_requests=60, check_every=10
    )


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = END_TO_END["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_workloads_and_design_record_match_the_benchmark():
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == list(workloads.WORKLOADS) == list(DESIGN["workloads"])
    known = set(END_TO_END) | set(PER_LAYER)
    for interaction in DESIGN["interactions"]:
        assert set(interaction["layer_metrics"]) <= set(PER_LAYER)
        assert set(interaction["moves"]) <= known
        for key in ("most_on", "least_on"):
            if key in interaction:
                assert interaction[key] in listed
        assert set(interaction.get("no_change_on", ())) <= set(listed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_decides_the_stream(name):
    workload = tiny(name)
    first = run.generate(workload, 1, 0.0)
    again = run.generate(workload, 1, 0.0)
    other = run.generate(workload, 2, 0.0)
    assert first.codes == again.codes and first.arrivals == again.arrivals
    assert first.codes != other.codes


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric_and_repeats(name):
    workload = tiny(name)
    first = run.measure(workload, 7, 0.01)
    second = run.measure(workload, 7, 0.01)
    assert first.failures == [] and second.failures == []
    assert set(first.metrics) == set(END_TO_END) | {"error_rate"}
    for metric, (value, unit, samples) in first.metrics.items():
        assert unit and samples >= 1, metric
        if metric in END_TO_END:
            assert unit == END_TO_END[metric]["unit"]
            assert value > 0, metric
    assert first.metrics["error_rate"][0] == 0
    for metric in ("hit_ratio", "origin_bytes_per_req",
                   "sim_latency_mean_ms", "sim_latency_p99_ms"):
        assert first.metrics[metric] == second.metrics[metric], metric


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_agrees_with_the_program_counters(name, tmp_path):
    workload = tiny(name)
    outcome = run.traced(workload, 7, str(tmp_path / name))
    assert outcome.failures == []
    metrics = {k: v[0] for k, v in outcome.metrics.items()}
    assert set(metrics) == set(PER_LAYER)
    for metric, (_value, unit, _samples) in outcome.metrics.items():
        assert unit == PER_LAYER[metric]["unit"], metric
    # core.bem.calls is the change in bem.stats.blocks_processed (checked
    # inside the run); every BEM call is a hit or a miss, and every hit is
    # one DPC GET.
    assert metrics["core.bem.calls"] == metrics["core.bem.hits"] + metrics["core.bem.misses"]
    assert metrics["core.dpc.fragments_get"] == metrics["core.bem.hits"]
    assert metrics["core.dpc.calls"] == metrics["appserver.calls"] == workload.paper_requests
    assert metrics["network.firewall.calls"] == 2 * workload.paper_requests
    assert (tmp_path / (name + ".spans.tsv")).stat().st_size > 0
    assert (tmp_path / (name + ".selftime.tsv")).stat().st_size > 0


def test_each_slice_is_scaled_by_its_own_calibration():
    from array import array

    window = run.Window(
        wall_s=array("d", [1.0, 2.0, 3.0, 4.0]),
        slices=[(2, 4.0, 0.5), (3, 5.0, 2.0), (4, 1.0, 1.0)],
    )
    # Slice p50s scale to 0.5, 6 and 4; slice p99s to 1, 6 and 4.
    assert run.scaled(window) == (13.0, 4.0, 4.0)


def test_self_times_never_exceed_the_operation():
    from spans import SelfTimes

    # op 0: root 0..100 with children 10..40 (grandchild 20..30) and 50..60.
    spans = [
        (2, 1, 0, "core.bem", "process_block", 20, 30),
        (1, 0, 0, "appserver", "handle", 10, 40),
        (3, 0, 0, "core.dpc", "process_response", 50, 60),
        (0, -1, 0, "op", "request", 0, 100),
    ]
    times = SelfTimes(spans)
    assert times.self_ns["appserver"] == 20
    assert times.self_ns["op"] == 60
    assert times.negative_self == 0 and times.overfull_ops == 0
    escaped = spans + [(4, 0, 0, "database", "get", 0, 100)]
    assert SelfTimes(escaped).negative_self == 1


def _cli(cwd, *extra, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "books-personalized",
         "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=180,
    )


def test_refuses_the_reference_lanes():
    env = dict(os.environ, REPRO_FASTPATH="0")
    child = _cli(ROOT, env=env)
    assert child.returncode != 0
    assert child.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    child = _cli(str(tmp_path))
    assert child.returncode != 0
    assert child.stdout == ""
