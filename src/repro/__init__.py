"""repro: a reproduction of "Proxy-Based Acceleration of Dynamically
Generated Content on the World Wide Web" (Datta et al., SIGMOD 2002).

The package implements the paper's Dynamic Proxy Cache (DPC) and Back End
Monitor (BEM), every substrate their evaluation depends on (application
server, relational engine, CMS, simulated network with a Sniffer, workload
generation), the Section 3 baselines, the Section 5 analytical model, and
an experiment harness that regenerates every table and figure.

Quick taste::

    from repro.harness import TestbedConfig, run_testbed

    result = run_testbed(TestbedConfig(mode="dpc", requests=500))
    print(result.response_payload_bytes, result.measured_hit_ratio)

Observability (see :mod:`repro.telemetry` and docs/OBSERVABILITY.md)::

    from repro.harness.testbed import Testbed, TestbedConfig
    from repro.telemetry import render_span_tree

    testbed = Testbed(TestbedConfig(mode="dpc", tracing=True))
    timed = testbed.build_workload().materialize(1)[0]
    testbed.serve_once(timed.request)
    print(render_span_tree(testbed.tracer.last_root))

See README.md for the architecture tour and DESIGN.md for the module map.
"""

__version__ = "1.0.0"

from . import analysis, appserver, baselines, cms, core, database, faults
from . import harness, insight, network, overload, sites, telemetry, workload
from .errors import (
    DeadlineExceededError,
    DeliveryTimeoutError,
    FaultError,
    OverloadError,
    ProtocolError,
    ProxyUnavailableError,
    QueueFullError,
    RecoveryError,
    ReproError,
)

__all__ = [
    "analysis",
    "appserver",
    "baselines",
    "cms",
    "core",
    "database",
    "faults",
    "harness",
    "insight",
    "network",
    "overload",
    "sites",
    "telemetry",
    "workload",
    "DeadlineExceededError",
    "DeliveryTimeoutError",
    "FaultError",
    "OverloadError",
    "ProtocolError",
    "ProxyUnavailableError",
    "QueueFullError",
    "RecoveryError",
    "ReproError",
    "__version__",
]
