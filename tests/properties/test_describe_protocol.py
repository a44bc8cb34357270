"""The monitor protocol materializes metadata only when a miss inserts.

``process_block(fragment_id, describe, generate)`` must call ``describe``
exactly once per miss — the path that inserts a directory entry — and
never on a hit or a stale serve.  Checked over random sequences of
accesses, invalidations, clock advances (TTL expiry) and late accesses
(the degrader's stale path) for every monitor that speaks the protocol:
the BEM and the ESI capture monitor.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.esi import _EsiCaptureMonitor
from repro.core.bem import BackEndMonitor
from repro.core.fragments import FragmentID, FragmentMetadata
from repro.core.template import GetInstruction, SetInstruction
from repro.faults.degradation import GracefulDegrader
from repro.network.clock import SimulatedClock

FRAGMENTS = 6
CAPACITY = 3  # below FRAGMENTS, so evictions cause misses too

ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, FRAGMENTS - 1)),
        st.tuples(st.just("late"), st.integers(0, FRAGMENTS - 1)),
        st.tuples(st.just("invalidate"), st.integers(0, FRAGMENTS - 1)),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 6.0, 30.0])),
    ),
    max_size=60,
)


def fid(index):
    return FragmentID.create("frag", {"id": index})


def ttl_for(index):
    # Even fragments expire after 5 s; odd ones never do.
    return 5.0 if index % 2 == 0 else None


class Counted:
    """One access's ``describe`` and ``generate``, counting their calls."""

    def __init__(self, index):
        self.index = index
        self.described = 0
        self.generated = 0

    def describe(self):
        self.described += 1
        return FragmentMetadata(ttl=ttl_for(self.index))

    def generate(self):
        self.generated += 1
        return "body-%d" % self.index


def replay(monitor, clock, sequence, on_access):
    """Run ``sequence`` against a BEM; returns total describe calls.

    A "late" access is made past the request deadline (the stale path).
    """
    total = 0
    for kind, value in sequence:
        if kind == "advance":
            clock.advance(value)
            continue
        if kind == "invalidate":
            monitor.directory.invalidate(fid(value))
            continue
        counted = Counted(value)
        late = kind == "late"
        if late:
            monitor.deadline_at = clock.now()
        instruction = monitor.process_block(
            fid(value), counted.describe, counted.generate
        )
        if late:
            monitor.deadline_at = None
        assert counted.described <= 1
        assert counted.described == counted.generated
        on_access(instruction, counted)
        total += counted.described
    return total


@given(ops)
@settings(max_examples=150, deadline=None)
def test_bem_describes_once_per_miss(sequence):
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=CAPACITY, clock=clock)
    bem.attach_degrader(GracefulDegrader(bem=bem, grace_s=10.0))

    def on_access(instruction, counted):
        if isinstance(instruction, SetInstruction):
            assert counted.described == 1
        else:
            assert isinstance(instruction, GetInstruction)
            assert counted.described == 0

    total = replay(bem, clock, sequence, on_access)
    assert total == bem.stats.fragment_misses


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("access"), st.integers(0, FRAGMENTS - 1)),
            st.just(("recapture", None)),
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_esi_capture_describes_once_per_new_src(sequence):
    """A capture assigns each src one key; only that insert describes it."""
    clock = SimulatedClock()
    monitor = _EsiCaptureMonitor(clock)
    inserted = total = 0
    for kind, index in sequence:
        if kind == "recapture":
            inserted += len(monitor.src_by_key)
            monitor = _EsiCaptureMonitor(clock)
            continue
        counted = Counted(index)
        known = fid(index).canonical() in monitor.src_by_key.values()
        instruction = monitor.process_block(
            fid(index), counted.describe, counted.generate
        )
        assert isinstance(instruction, SetInstruction)
        assert counted.described == (0 if known else 1)
        assert monitor.ttl_by_src[fid(index).canonical()] == ttl_for(index)
        total += counted.described
    assert total == inserted + len(monitor.src_by_key)


def test_stale_serve_does_not_describe():
    """The late-request stale path emits a GET without describing."""
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=CAPACITY, clock=clock)
    bem.attach_degrader(GracefulDegrader(bem=bem, grace_s=10.0))
    first = Counted(0)
    bem.process_block(fid(0), first.describe, first.generate)
    clock.advance(6.0)  # past the 5 s TTL, inside the grace window
    bem.deadline_at = clock.now()
    late = Counted(0)
    instruction = bem.process_block(fid(0), late.describe, late.generate)
    assert isinstance(instruction, GetInstruction)
    assert bem.stats.stale_fragment_serves == 1
    assert (late.described, late.generated) == (0, 0)
