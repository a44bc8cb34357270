"""Serve-path benchmark: one closed-loop client through the Figure 4 path.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, its
wall-clock ones stated at a reference host speed (``calibration.py``; the
unscaled figures are printed too);
``--trace 1`` replays the same deterministic prefix once untraced and once
with every layer entry point wrapped in wall-clock spans, and reports the
per-layer metrics.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
are a readable table with sample counts and the run's environment, and the
same record plus span dumps land in ``.perfbench_out/`` under the current
directory.  The exit code is non-zero on any oracle mismatch, accounting
violation or determinism failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import calibration
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench_out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The measured window is cut into slices of this many seconds, and the
#: host's speed is calibrated after each; the wall times of a slice are
#: scaled by that calibration (see ``calibration``), so minutes of drift in
#: the speed of a shared host do not move the end-to-end wall metrics.
SLICE_S = 0.5
#: Window deltas that must match between the untraced and traced replays
#: of the same prefix.  ``db.reads`` is left out: the untraced replay also
#: renders oracle pages, which read the same tables.
_REPLAY_KEYS_EXCLUDED = ("db.reads",)

Metrics = Dict[str, Tuple[float, str, int]]  # name -> (value, unit, samples)


def _percentile(values, q: float) -> float:
    from repro.telemetry.stats import percentile

    return percentile(values, q)


# -- counters -------------------------------------------------------------------


def snapshot(instance) -> Dict[str, float]:
    """The program's public counters that the benchmark reads."""
    bem, dpc = instance.bem, instance.dpc
    directory = bem.directory
    requests = instance.sniffer.counters("request")
    responses = instance.sniffer.counters("response")
    db = instance.services.db
    return {
        "bem.blocks": bem.stats.blocks_processed,
        "bem.hits": bem.stats.fragment_hits,
        "bem.misses": bem.stats.fragment_misses,
        "dpc.responses": dpc.stats.responses_processed,
        "dpc.template_bytes_in": dpc.stats.template_bytes_in,
        "dpc.fragments_set": dpc.stats.fragments_set,
        "dpc.fragments_get": dpc.stats.fragments_get,
        "dpc.bytes_scanned": dpc.bytes_scanned,
        "dpc.parse_hits": dpc.parse_cache.hits,
        "dpc.parse_misses": dpc.parse_cache.misses,
        "link.messages": instance.link.messages_sent,
        "link.wire_bytes": requests.wire_bytes + responses.wire_bytes,
        "link.response_payload": responses.payload_bytes,
        "dir.lookups": directory.stats.lookups,
        "dir.insertions": directory.stats.insertions,
        "dir.evictions": directory.stats.evictions,
        "dir.invalidations": directory.stats.invalidations,
        "dir.ttl_expirations": directory.stats.ttl_expirations,
        "inv.events": bem.invalidation.events_seen,
        "inv.fragments": bem.invalidation.fragments_invalidated,
        "server.requests": instance.server.requests_served,
        "db.reads": db.total_rows_read(),
        "db.writes": db.total_rows_written(),
        "clock": instance.clock.now(),
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Element-wise ``after - before``."""
    return {key: after[key] - before[key] for key in after}


# -- the closed loop ------------------------------------------------------------


@dataclass
class Window:
    """What one stretch of the closed loop did."""

    pos: int = 0             # next operation in the stream
    requests_done: int = 0   # requests issued so far in the stream
    requests: int = 0
    updates: int = 0
    elapsed_s: float = 0.0   # wall time, oracle checks and calibration excluded
    #: Per slice: requests done at its end, its wall seconds, and the factor
    #: taking its wall times to the reference speed.
    slices: List[Tuple[int, float, float]] = field(default_factory=list)
    wall_s: array = field(default_factory=lambda: array("d"))
    sim_s: array = field(default_factory=lambda: array("d"))
    failures: List[str] = field(default_factory=list)
    failed_requests: int = 0
    checked: int = 0
    mismatched: int = 0
    before: Dict[str, float] = field(default_factory=dict)
    at_prefix: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)


def run_window(
    instance,
    stream,
    start: Window,
    seconds: float,
    min_requests: int,
    check_every: int = 0,
    serve=None,
    update=None,
    slice_s: float = 0.0,
) -> Window:
    """Issue operations from ``start`` until ``seconds`` have passed and at
    least ``min_requests`` requests were served (or the stream ends).

    One client, one thread: each operation starts after the previous one
    returns.  Every ``check_every``-th request's page is compared with the
    uncached oracle; that comparison is excluded from the window's time.
    With ``slice_s``, the host's speed is calibrated every ``slice_s``
    seconds and at the end, also outside the window's time.
    """
    serve = serve or instance.serve
    update = update or instance.update
    codes, arrivals = stream.codes, stream.arrivals
    requests, updates = stream.requests, stream.updates
    clock = instance.clock
    oracle = instance.oracle
    perf = time.perf_counter
    window = Window()
    wall, sim = window.wall_s, window.sim_s
    pos, done, n = start.pos, start.requests_done, 0
    end = len(codes)
    excluded = 0.0
    slice_began, next_slice = 0.0, slice_s
    slices = window.slices
    window.before = snapshot(instance)
    began = perf()
    while pos < end:
        code = codes[pos]
        pos += 1
        if code < 0:
            window.updates += 1
            try:
                update(updates[-code - 1])
            except Exception as exc:  # keep the loop running; counted below
                window.failures.append("update %d: %r" % (pos - 1, exc))
            continue
        request = requests[code]
        clock.advance_to(arrivals[done])
        done += 1
        v0 = clock.now()
        t0 = perf()
        try:
            html = serve(request)
        except Exception as exc:  # keep the loop running; counted below
            html = None
            window.failed_requests += 1
            window.failures.append("request %d %s: %r" % (done - 1, request.url, exc))
        t1 = perf()
        wall.append(t1 - t0)
        sim.append(clock.now() - v0)
        n += 1
        if check_every and n % check_every == 0 and html is not None:
            window.checked += 1
            if oracle(request) != html:
                window.mismatched += 1
                window.failures.append("request %d %s: page differs from oracle"
                                       % (done - 1, request.url))
            excluded += perf() - t1
        if n == min_requests:
            c0 = perf()
            window.at_prefix = snapshot(instance)
            excluded += perf() - c0
        now = perf() - began - excluded
        if slice_s and now >= next_slice:
            c0 = perf()
            slices.append((n, now - slice_began, calibration.factor()))
            excluded += perf() - c0
            slice_began, next_slice = now, now + slice_s
        if n >= min_requests and now >= seconds:
            break
    window.elapsed_s = perf() - began - excluded
    if slice_s and (not slices or slices[-1][0] < n):
        slices.append((n, window.elapsed_s - slice_began, calibration.factor()))
    window.after = snapshot(instance)
    window.pos, window.requests_done, window.requests = pos, done, n
    return window


def generate(workload, seed: int, seconds: float):
    """The run's whole operation stream, from the seed alone."""
    measured = max(workload.paper_requests, int(workload.max_rps * seconds))
    return workload.generate(random.Random(seed), workload.warm_requests + measured)


def set_up(workload, stream) -> Tuple[object, Window, float]:
    """Build the instance and serve the warm-up requests; returns the
    instance, where the warm-up left the stream, and the wall seconds."""
    t0 = time.perf_counter()
    instance = workload.build()
    warm = run_window(instance, stream, Window(), 0.0, workload.warm_requests)
    return instance, warm, time.perf_counter() - t0


def paper_metrics(window: Window, requests: int) -> Dict[str, float]:
    """The deterministic metrics over the first ``requests`` of a window."""
    d = delta(window.at_prefix, window.before)
    accesses = d["bem.hits"] + d["bem.misses"]
    sim = window.sim_s[:requests]
    return {
        "hit_ratio": d["bem.hits"] / accesses if accesses else 0.0,
        "origin_bytes_per_req": d["link.wire_bytes"] / requests,
        "sim_latency_mean_ms": sum(sim) / len(sim) * 1e3,
        "sim_latency_p99_ms": _percentile(sim, 0.99) * 1e3,
    }


def scaled(window: Window) -> Tuple[float, float, float]:
    """The window's seconds and its p50 and p99 request seconds at the
    reference speed: each slice is scaled by its own calibration, and the
    percentiles are medians over slices, so the stalls a busy neighbour
    causes in a few slices do not reach the p99."""
    p50s, p99s = [], []
    total, n0 = 0.0, 0
    for n1, seconds, factor in window.slices:
        if n1 > n0:
            times = window.wall_s[n0:n1]
            p50s.append(_percentile(times, 0.50) * factor)
            p99s.append(_percentile(times, 0.99) * factor)
        total += seconds * factor
        n0 = n1
    return total, statistics.median(p50s), statistics.median(p99s)


def accounting_violations(instance, window: Window) -> List[str]:
    """Cross-checks between layers' counters over the whole window."""
    d = delta(window.after, window.before)
    header = instance.server.response_header_bytes
    served = window.requests - window.failed_requests
    checks = (
        ("DPC GETs == BEM hits", d["dpc.fragments_get"], d["bem.hits"]),
        ("DPC SETs == BEM misses", d["dpc.fragments_set"], d["bem.misses"]),
        (
            "Sniffer response payload == DPC template bytes + headers",
            d["link.response_payload"],
            d["dpc.template_bytes_in"] + header * d["dpc.responses"],
        ),
        ("DPC responses == requests served", d["dpc.responses"], served),
        ("origin requests == requests served", d["server.requests"], served),
    )
    return [
        "%s: %r != %r" % (name, left, right)
        for name, left, right in checks
        if left != right
    ]


# -- the two kinds of run ----------------------------------------------------------


@dataclass
class Outcome:
    metrics: Metrics
    attempted: int
    failures: List[str]
    notes: Dict[str, object] = field(default_factory=dict)


def set_up_repeatedly(workload, stream, failures: List[str]):
    """``SETUP_REPEATS`` set-ups, each on a fresh instance; returns the last
    instance, its warm-up window and every set-up's seconds at the
    reference speed, from calibrations just before and after it.  The
    repeats must reach identical counter states (determinism guard)."""
    setups: List[float] = []
    fingerprint: Optional[Dict[str, float]] = None
    before = calibration.seconds()
    for _ in range(SETUP_REPEATS):
        instance = warm = None
        gc.collect()
        instance, warm, elapsed = set_up(workload, stream)
        after = calibration.seconds()
        setups.append(elapsed * 2 * calibration.REFERENCE_S / (before + after))
        before = after
        failures.extend(warm.failures)
        if fingerprint is None:
            fingerprint = warm.after
        elif warm.after != fingerprint:
            failures.append("determinism: repeated set-ups reached different states")
    gc.collect()
    return instance, warm, setups


def measure(workload, seed: int, seconds: float) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    stream = generate(workload, seed, seconds)
    failures: List[str] = []
    instance, warm, setups = set_up_repeatedly(workload, stream, failures)
    window = run_window(
        instance, stream, warm, seconds, workload.paper_requests, workload.check_every,
        slice_s=SLICE_S,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures.extend(window.failures)
    failures.extend(accounting_violations(instance, window))
    if window.requests < workload.paper_requests:
        failures.append(
            "stream ended after %d requests, before the %d-request prefix"
            % (window.requests, workload.paper_requests)
        )
    n = window.requests
    paper = paper_metrics(window, workload.paper_requests)
    p = workload.paper_requests
    scaled_s, p50, p99 = scaled(window)
    metrics: Metrics = {
        "throughput_rps": (n / scaled_s, "1/s", n),
        "latency_p50_us": (p50 * 1e6, "us", n),
        "latency_p99_us": (p99 * 1e6, "us", n),
        "sim_latency_mean_ms": (paper["sim_latency_mean_ms"], "sim_ms", p),
        "sim_latency_p99_ms": (paper["sim_latency_p99_ms"], "sim_ms", p),
        "origin_bytes_per_req": (paper["origin_bytes_per_req"], "bytes", p),
        "hit_ratio": (paper["hit_ratio"], "ratio", p),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    errors = window.failed_requests + window.mismatched
    metrics["error_rate"] = (errors / n if n else 1.0, "ratio", n)
    return Outcome(
        metrics=metrics,
        attempted=n,
        failures=failures,
        notes={
            "updates": window.updates,
            "pages_checked": window.checked,
            "window_s": window.elapsed_s,
            "slices": len(window.slices),
            "setup_runs_s": setups,
            "unscaled": {
                "throughput_rps": n / window.elapsed_s,
                "latency_p50_us": _percentile(window.wall_s, 0.50) * 1e6,
                "latency_p99_us": _percentile(window.wall_s, 0.99) * 1e6,
                "host_speed": statistics.median(s[2] for s in window.slices),
            },
        },
    )


def traced(workload, seed: int, out_prefix: str) -> Outcome:
    """Traced run: the same prefix replayed untraced, then traced."""
    stream = generate(workload, seed, 0.0)
    p = workload.paper_requests
    failures: List[str] = []

    # The repeated set-ups also bring the allocator to the same warm state
    # the untraced measurement starts its window in.
    instance, warm, _ = set_up_repeatedly(workload, stream, failures)
    plain = run_window(instance, stream, warm, 0.0, p, workload.check_every)
    failures.extend(plain.failures)
    failures.extend(accounting_violations(instance, plain))
    instance = None

    instance, warm, _ = set_up(workload, stream)
    recorder = spans.SpanRecorder()
    spans.instrument(recorder, instance)
    gc.collect()
    window = run_window(
        instance, stream, warm, 0.0, p,
        serve=recorder.root("request", instance.serve),
        update=recorder.root("update", instance.update),
    )
    failures.extend(warm.failures + window.failures)
    failures.extend(accounting_violations(instance, window))

    plain_d = delta(plain.after, plain.before)
    traced_d = delta(window.after, window.before)
    for key in plain_d:
        if key not in _REPLAY_KEYS_EXCLUDED and plain_d[key] != traced_d[key]:
            failures.append(
                "determinism: %s is %r untraced but %r traced"
                % (key, plain_d[key], traced_d[key])
            )
    if paper_metrics(plain, p) != paper_metrics(window, p):
        failures.append("determinism: paper metrics differ between traced and untraced")

    times = spans.SelfTimes(recorder.spans)
    if times.negative_self or times.overfull_ops:
        failures.append(
            "spans: %d negative self times, %d operations whose self times "
            "exceed their wall time" % (times.negative_self, times.overfull_ops)
        )
    calls = times.calls
    method_calls = times.method_calls
    counter_checks = (
        ("core.bem.calls", calls["core.bem"], traced_d["bem.blocks"]),
        ("core.dpc.calls", calls["core.dpc"], traced_d["dpc.responses"]),
        ("network.channel.calls", calls["network.channel"], traced_d["link.messages"]),
        ("network.firewall.calls", calls["network.firewall"], 2 * p),
        ("appserver.calls", calls["appserver"], traced_d["server.requests"]),
        ("core.invalidation.calls", calls["core.invalidation"], traced_d["inv.events"]),
        ("core.replacement.calls", calls["core.replacement"], traced_d["dir.evictions"]),
        ("directory lookups", method_calls["core.cache_directory", "lookup"],
         traced_d["dir.lookups"]),
        ("directory inserts", method_calls["core.cache_directory", "insert"],
         traced_d["dir.insertions"]),
    )
    for name, spans_seen, counter in counter_checks:
        if spans_seen != counter:
            failures.append("trace: %s is %d but the program counted %d"
                            % (name, spans_seen, counter))

    def self_us(layer: str) -> float:
        return times.self_ns.get(layer, 0) / 1000.0 / p

    parse_lookups = traced_d["dpc.parse_hits"] + traced_d["dpc.parse_misses"]
    metrics: Metrics = {}
    for layer in ("network.firewall", "network.channel", "appserver", "core.bem",
                  "core.cache_directory", "core.replacement", "core.invalidation",
                  "core.dpc", "cms"):
        metrics[layer + ".calls"] = (calls[layer], "count", p)
        metrics[layer + ".self_us_per_req"] = (self_us(layer), "us", p)
    metrics.update({
        "network.channel.wire_bytes": (traced_d["link.wire_bytes"], "bytes", p),
        "appserver.blocks_per_req": (recorder.counts["appserver.blocks"] / p, "blocks/req", p),
        "appserver.session.self_us_per_req": (self_us("appserver.session"), "us", p),
        "core.bem.hits": (traced_d["bem.hits"], "count", p),
        "core.bem.misses": (traced_d["bem.misses"], "count", p),
        "core.cache_directory.evictions": (traced_d["dir.evictions"], "count", p),
        "core.cache_directory.invalidations": (traced_d["dir.invalidations"], "count", p),
        "core.cache_directory.ttl_expirations": (traced_d["dir.ttl_expirations"], "count", p),
        "core.invalidation.fragments_invalidated": (traced_d["inv.fragments"], "count", p),
        "core.dpc.bytes_scanned": (traced_d["dpc.bytes_scanned"], "bytes", p),
        "core.dpc.fragments_set": (traced_d["dpc.fragments_set"], "count", p),
        "core.dpc.fragments_get": (traced_d["dpc.fragments_get"], "count", p),
        "core.dpc.parse_cache_hit_ratio": (
            traced_d["dpc.parse_hits"] / parse_lookups if parse_lookups else 0.0,
            "ratio", parse_lookups,
        ),
        "database.reads": (traced_d["db.reads"], "rows", p),
        "database.writes": (traced_d["db.writes"], "rows", p),
        "database.self_us_per_req": (self_us("database"), "us", p),
        "trace.overhead_ratio": (window.elapsed_s / plain.elapsed_s, "ratio", p),
    })

    spans.write_spans(out_prefix + ".spans.tsv", recorder.spans)
    with open(out_prefix + ".selftime.tsv", "w", encoding="utf-8") as out:
        out.write("layer\tcalls\tself_us_per_req\tshare\n")
        for layer, layer_calls, per_req, share in times.table(p):
            out.write("%s\t%d\t%.3f\t%.4f\n" % (layer, layer_calls, per_req, share))
    return Outcome(
        metrics=metrics,
        attempted=plain.requests + window.requests,
        failures=failures,
        notes={"self_time": times.table(p), "spans": len(recorder.spans)},
    )


# -- command line ---------------------------------------------------------------------


def environment(seed: int) -> Dict[str, object]:
    """What the results depend on besides the code."""
    from repro.core import fastpath

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "lane": "fast" if fastpath.enabled() else "reference",
        "seed": seed,
        "loop": "closed, 1 client, 1 thread",
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    workload = workloads.WORKLOADS[name]
    env = environment(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    # One set of files per workload and mode, overwritten by the next run.
    prefix = os.path.join(OUT_DIR, "%s-trace%d" % (name, int(trace)))
    outcome = traced(workload, seed, prefix) if trace else measure(workload, seed, seconds)

    print("# workload=%s %s" % (name, " ".join("%s=%s" % kv for kv in env.items())))
    print("%-40s %16s %-10s %8s" % ("metric", "value", "unit", "samples"))
    for metric, (value, unit, samples) in outcome.metrics.items():
        print("%-40s %16.6g %-10s %8d" % (metric, value, unit, samples))
    if "unscaled" in outcome.notes:
        print("# unscaled wall: " + " ".join(
            "%s=%.6g" % kv for kv in outcome.notes["unscaled"].items()))
    if trace:
        print("%-22s %10s %14s %8s" % ("layer", "calls", "self_us/req", "share"))
        for layer, calls, per_req, share in outcome.notes["self_time"]:
            print("%-22s %10d %14.3f %7.1f%%" % (layer, calls, per_req, 100 * share))
    for failure in outcome.failures[:20]:
        print("FAIL " + failure)

    reported = {k: v for k, v in outcome.metrics.items() if k != "error_rate"}
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in reported.items()},
    }
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump(
            {
                "workload": name,
                "environment": env,
                "result": result,
                "samples": {k: v[2] for k, v in outcome.metrics.items()},
                "error_rate": outcome.metrics.get("error_rate", (None,))[0],
                "failures": outcome.failures,
                "notes": {k: v for k, v in outcome.notes.items() if k != "self_time"},
            },
            out,
            indent=2,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    import workloads

    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, universal_newlines=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from repro.core import fastpath

    if not fastpath.enabled():
        print("perfbench: refusing to run on the reference lanes (REPRO_FASTPATH=0)",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s, all)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
