"""The BEM↔DPC resync protocol the paper implies but never specifies.

§4.3.3 makes the BEM the sole authority over the DPC's slots and relies on
fail-stop for desync: a GET against a wiped slot raises.  That is safe but
operationally blunt — the documented recovery is "clear the DPC *and*
flush the BEM", which throws away nothing less than the whole cache.  This
module specifies the protocol a production deployment would actually run:

* **Epoch detection** — the DPC carries a generation counter (bumped on
  every cold restart) on all returning SET/GET traffic
  (:attr:`repro.core.dpc.AssembledPage.epoch`).  The BEM compares it with
  the epoch its directory is synchronized against.
* **Epoch resync** — on a mismatch, invalidate exactly the directory
  entries whose stamp predates the new epoch (their slots were wiped),
  rebuild the freeList, and let normal miss traffic re-warm the cache.
* **Anti-entropy** — a reconciliation sweep that checks every valid entry
  against actual DPC slot occupancy (dropping entries whose slots are
  empty) and repairs slot-discipline violations in the directory's
  bookkeeping via :meth:`~repro.core.cache_directory.CacheDirectory.audit_and_repair`.

The protocol never touches fragment *content* — safety comes from dropping
bookkeeping that can no longer be trusted, so the worst case is extra
misses, never a wrong page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..core.template import SetInstruction, parse_template
from ..errors import RecoveryError


@dataclass
class RecoveryEvent:
    """One recovery action taken by the protocol, for post-mortems."""

    kind: str                 # "epoch_resync" | "anti_entropy" | "quarantine"
    at: float                 # virtual time the action ran
    entries_dropped: int = 0  # directory entries invalidated
    keys_reclaimed: int = 0   # leaked dpcKeys returned to the freeList
    epoch: int = 0            # DPC epoch after the action


@dataclass
class RecoveryStats:
    """Aggregate counters across a protocol instance's lifetime."""

    epoch_resyncs: int = 0
    anti_entropy_sweeps: int = 0
    entries_dropped: int = 0
    slot_mismatches: int = 0
    discipline_repairs: int = 0
    keys_reclaimed: int = 0
    quarantined_sets: int = 0
    events: List[RecoveryEvent] = field(default_factory=list)


class ResyncProtocol:
    """BEM-side recovery authority for one (BEM, DPC) pair."""

    def __init__(self, bem: BackEndMonitor, dpc: DynamicProxyCache) -> None:
        self.bem = bem
        self.dpc = dpc
        self.stats = RecoveryStats()

    # -- epoch handling -----------------------------------------------------

    def observe_epoch(self, epoch: int, now: float = 0.0) -> Optional[RecoveryEvent]:
        """Detection: compare an epoch seen on traffic with the synced one.

        Returns the :class:`RecoveryEvent` of the resync it triggered, or
        ``None`` when the epochs already agree.  Call it with
        ``assembled.epoch`` after every successful assembly — that is the
        "generation counter carried on SET/GET traffic".
        """
        if epoch == self.bem.epoch:
            return None
        return self.resync(epoch, now)

    def resync(self, new_epoch: int, now: float = 0.0) -> RecoveryEvent:
        """Full resynchronization against a restarted proxy.

        Repairs bookkeeping first (corruption must not trip the
        invalidation path), drops every entry stamped before ``new_epoch``,
        reconciles survivors against actual slot occupancy, rebuilds the
        freeList, and advances the BEM's synced epoch.  Raises
        :class:`~repro.errors.RecoveryError` if the directory still
        violates slot discipline afterwards.
        """
        if new_epoch < self.bem.epoch:
            raise RecoveryError(
                "cannot resync backwards: directory at epoch %d, observed %d"
                % (self.bem.epoch, new_epoch)
            )
        directory = self.bem.directory
        repair = self._repair(directory)
        dropped = directory.invalidate_where(
            lambda e: e.epoch < new_epoch, reason="fault_quarantine"
        )
        mismatches = self._reconcile_slots(directory)
        self.bem.epoch = new_epoch
        self.stats.epoch_resyncs += 1
        self.stats.entries_dropped += dropped + mismatches
        event = RecoveryEvent(
            kind="epoch_resync",
            at=now,
            entries_dropped=dropped + mismatches,
            keys_reclaimed=repair.keys_reclaimed,
            epoch=new_epoch,
        )
        self.stats.events.append(event)
        self._verify(directory)
        return event

    def recover(self, now: float = 0.0) -> RecoveryEvent:
        """The fail-stop entry point: called after an ``AssemblyError``.

        If the proxy's epoch moved, this is a restart — run the epoch
        resync.  Otherwise the desync is bookkeeping-level (corruption,
        a lost SET): run an anti-entropy sweep.
        """
        if self.dpc.epoch != self.bem.epoch:
            return self.resync(self.dpc.epoch, now)
        return self.anti_entropy(now)

    # -- anti-entropy -------------------------------------------------------

    def anti_entropy(self, now: float = 0.0) -> RecoveryEvent:
        """Reconcile the directory against DPC slot occupancy.

        Two phases: repair slot-discipline violations in the directory's
        own bookkeeping, then invalidate every valid entry whose DPC slot
        is actually empty (the entry's SET never landed, or the slot was
        corrupted away).  Idempotent; safe to run on a healthy deployment.
        """
        directory = self.bem.directory
        repair = self._repair(directory)
        mismatches = self._reconcile_slots(directory)
        self.stats.anti_entropy_sweeps += 1
        self.stats.entries_dropped += mismatches
        event = RecoveryEvent(
            kind="anti_entropy",
            at=now,
            entries_dropped=mismatches,
            keys_reclaimed=repair.keys_reclaimed,
            epoch=self.bem.epoch,
        )
        self.stats.events.append(event)
        self._verify(directory)
        return event

    # -- unconfirmed-delivery quarantine -------------------------------------

    def quarantine_undelivered(self, wire: str, now: float = 0.0) -> RecoveryEvent:
        """Invalidate the entries SET by a response that never arrived.

        When the origin→proxy transfer of a template dead-letters, the BEM
        has directory entries for fragments whose bytes never reached the
        slot array — and worse, a recycled dpcKey may still hold a *previous*
        fragment's bytes, which a later GET would happily serve.  Treating
        every SET on the undelivered wire as "never applied" closes that
        hole: parse the template, invalidate the entry behind each SET key.
        """
        directory = self.bem.directory
        keys = [
            instruction.key
            for instruction in parse_template(
                wire, self.bem.template_config
            ).instructions
            if isinstance(instruction, SetInstruction)
        ]
        dropped = 0
        for key in keys:
            entry = directory.entry_for_key(key)
            if entry is not None and directory.invalidate(
                entry.fragment_id, reason="fault_quarantine"
            ):
                dropped += 1
        self.stats.quarantined_sets += dropped
        self.stats.entries_dropped += dropped
        event = RecoveryEvent(
            kind="quarantine", at=now, entries_dropped=dropped, epoch=self.bem.epoch
        )
        self.stats.events.append(event)
        return event

    # -- internals ----------------------------------------------------------

    def _repair(self, directory):
        report = directory.audit_and_repair()
        if report.anomalies:
            self.stats.discipline_repairs += report.anomalies
            self.stats.keys_reclaimed += report.keys_reclaimed
        return report

    def _reconcile_slots(self, directory) -> int:
        mismatches = directory.invalidate_where(
            lambda e: not self.dpc.slot_in_use(e.dpc_key),
            reason="fault_quarantine",
        )
        self.stats.slot_mismatches += mismatches
        return mismatches

    def _verify(self, directory) -> None:
        try:
            directory.check_invariants()
        except AssertionError as exc:
            raise RecoveryError("slot discipline violated after recovery: %s" % exc)

    # -- observability ------------------------------------------------------

    def metric_rows(self) -> Iterable[Tuple[str, object]]:
        """Registry rows: resync bookkeeping under ``recovery.*``."""
        return [
            ("recovery.synced_epoch", self.bem.epoch),
            ("recovery.dpc_epoch", self.dpc.epoch),
            ("recovery.epoch_resyncs", self.stats.epoch_resyncs),
            ("recovery.anti_entropy_sweeps", self.stats.anti_entropy_sweeps),
            ("recovery.entries_dropped", self.stats.entries_dropped),
            ("recovery.slot_mismatches", self.stats.slot_mismatches),
            ("recovery.discipline_repairs", self.stats.discipline_repairs),
            ("recovery.keys_reclaimed", self.stats.keys_reclaimed),
            ("recovery.quarantined_sets", self.stats.quarantined_sets),
        ]
