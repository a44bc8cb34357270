"""The one replay loop every harness drives its workload through.

Each runner hands :meth:`Replay.run` its per-request step; the replay runs
the before-hooks, the step and the after-hooks once per arrival, in index
order, and :class:`CounterMarks` bounds the warm-up window or the bucket
series with counter readings.
"""

import pytest

from repro.faults.chaos import ChaosConfig, run_chaos
from repro.harness.edge import EdgeExperimentConfig, run_edge_experiment
from repro.harness.realistic import RealisticConfig, run_realistic
from repro.harness.replay import CounterMarks, Replay
from repro.harness.testbed import TestbedConfig, run_testbed
from repro.network import SimulatedClock
from repro.overload import OverloadConfig, run_overload
from repro.workload import DeterministicProcess, WorkloadGenerator, synthetic_pages

REQUESTS, WARMUP = 30, 10


def small_testbed():
    return TestbedConfig(mode="dpc", requests=REQUESTS, warmup_requests=WARMUP)


RUNNERS = {
    "testbed": lambda: run_testbed(small_testbed()),
    "chaos": lambda: run_chaos(ChaosConfig(testbed=small_testbed())),
    "overload": lambda: run_overload(OverloadConfig(testbed=small_testbed())),
    "realistic": lambda: run_realistic(
        RealisticConfig(requests=REQUESTS, warmup_requests=WARMUP)
    ),
    "edge": lambda: run_edge_experiment(
        EdgeExperimentConfig(requests=REQUESTS, warmup_requests=WARMUP)
    ),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_hooks_run_once_per_request_in_index_order(runner, monkeypatch):
    """Two before-hooks and two after-hooks, registered on the replay a
    runner builds, run once per request around its step, in index and
    registration order; the after-hooks see what the step returned."""
    log = []
    replayed = Replay.run

    def run(self, workload, count, step, marks):
        for name in ("before-1", "before-2"):
            self.before.append(
                lambda index, timed, name=name: log.append((name, index, timed))
            )
        for name in ("after-1", "after-2"):
            self.after.append(
                lambda index, timed, outcome, name=name: log.append(
                    (name, index, timed, outcome)
                )
            )

        def logged(index, timed, start):
            outcome = step(index, timed, start)
            log.append(("step", index, timed, outcome))
            return outcome

        replayed(self, workload, count, logged, marks)

    monkeypatch.setattr(Replay, "run", run)
    RUNNERS[runner]()

    order = ("before-1", "before-2", "step", "after-1", "after-2")
    assert len(log) == len(order) * (WARMUP + REQUESTS)
    for index in range(WARMUP + REQUESTS):
        entries = log[len(order) * index:len(order) * (index + 1)]
        assert [entry[:2] for entry in entries] == [(name, index) for name in order]
        timed = entries[0][2]
        assert all(entry[2] is timed for entry in entries)
        outcome = entries[2][3]
        assert entries[3][3] is outcome and entries[4][3] is outcome


class Resettable:
    def __init__(self):
        self.resets = 0

    def reset(self):
        self.resets += 1


def test_marks_bound_each_window_and_reset_only_when_one_opens():
    clock = SimulatedClock()
    workload = WorkloadGenerator(
        pages=synthetic_pages(2), arrivals=DeterministicProcess(rate=10.0), seed=1
    )
    served = []
    sniffer = Resettable()
    marks = CounterMarks(
        {"served": lambda: len(served)}, first=2, every=3, resets=(sniffer,)
    )

    def step(index, timed, start):
        assert start == clock.now() == timed.at
        served.append(timed.at)

    Replay(clock).run(workload, 10, step, marks)

    assert [(start.index, end.index) for start, end in marks.windows()] == [
        (2, 5), (5, 8), (8, 10),
    ]
    assert [marks.growth(window)["served"] for window in range(3)] == [3, 3, 2]
    # A mark is read before its arrival moves the clock, and the closing
    # mark after the last step.
    assert [mark.at for mark in marks.marks] == [served[i] for i in (1, 4, 7, 9)]
    assert sniffer.resets == 3
