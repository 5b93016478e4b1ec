"""Runtime fault injection: trigger matching, scheduled failures, audits.

One :class:`FaultInjector` is built per :class:`~repro.machine.Machine`
from the immutable :class:`~repro.faults.plan.FaultPlan`.  Components
call :meth:`FaultInjector.decide` at well-defined injection points
("should this operation be faulted?"); the injector owns all mutable
trigger state (per-spec operation counters), applies the time-scheduled
``disk_failure`` / ``disk_repair`` specs lazily via :meth:`tick`, and
keeps a delivery audit log that :meth:`Machine.verify` checks against
ground-truth file content.  The log keeps each delivered
:class:`~repro.ufs.data.Data` value itself (content is immutable), so
recording a delivery materialises nothing; ``verify`` compares it with
the truth by ``Data`` equality, which reads bytes only when the two
values' canonical runs differ.

Determinism: ``decide`` consults only ``env.now`` and per-spec counters
that advance with canonically-ordered operation streams; there is no
randomness here (plans are generated elsewhere, from seeds).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import SCHEDULED_KINDS, FaultError, FaultPlan, FaultSpec
from repro.obs.monitor import NULL_MONITOR, Monitor
from repro.sim import Environment
from repro.ufs.data import Data


def _matches(spec_target: str, target: str) -> bool:
    return spec_target == "*" or spec_target == target


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a running machine."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.env = env
        self.plan = plan
        self.monitor = monitor or NULL_MONITOR
        #: Matching-operation count per count-style spec (by plan index).
        self._seen: Dict[int, int] = {}
        #: Fire count per spec (the ``fired`` report).
        self._fired: Dict[int, int] = {}
        #: Delivery audit log: ``(file_id, offset, nbytes, data, kind,
        #: io_node)``, ``data`` being the delivered ``Data``.  ``kind`` is one of ``demand``
        #: (bytes handed to the application), ``prefetch`` (bytes landed
        #: in a client prefetch buffer) or ``readahead`` (blocks pulled
        #: into a server's buffer cache); demand/prefetch offsets are
        #: PFS-file-space (``io_node = -1``), readahead offsets are
        #: UFS-stripe-space and ``io_node`` is the stripe index, i.e. the
        #: server's ``ufs.fs_id`` and its position in ``Machine.ufses``.
        self.deliveries: List[Tuple[int, int, int, Data, str, int]] = []
        #: Scheduled specs not yet applied, in (at_s, plan) order.
        self._scheduled_pending: List[FaultSpec] = []
        self._arrays: Dict[str, Any] = {}
        #: The specs :meth:`decide` evaluates, by kind: ``(plan index,
        #: spec)`` in plan order, so counters advance as a scan of the
        #: whole plan would advance them.
        self._by_kind: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.specs):
            if spec.kind not in SCHEDULED_KINDS:
                self._by_kind.setdefault(spec.kind, []).append((index, spec))
        #: Array targets of the specs that act inside a RAID access.
        self._disk_targets = frozenset(
            spec.target
            for kind in ("media_error", "slow_sector")
            for _index, spec in self._by_kind.get(kind, ())
        )
        #: Whether any spec can drop or duplicate a mesh message.
        self.watches_mesh = "mesh_drop" in self._by_kind or "mesh_dup" in self._by_kind

    # -- trigger evaluation ------------------------------------------------

    def decide(self, kind: str, target: str) -> Optional[FaultSpec]:
        """Return the first spec firing for this (kind, target) op, if any.

        Every matching count-style spec sees its operation counter
        advance (specs observe the full operation stream whether or not
        an earlier spec fires), so plans compose predictably.
        """
        specs = self._by_kind.get(kind)
        if specs is None:
            return None
        now = self.env.now
        hit: Optional[Tuple[int, FaultSpec]] = None
        for index, spec in specs:
            if not _matches(spec.target, target):
                continue
            if spec.windowed:
                if spec.active_at(now) and hit is None:
                    hit = (index, spec)
                continue
            if spec.at_s is not None and now < spec.at_s:
                continue
            seen = self._seen.get(index, 0)
            self._seen[index] = seen + 1
            if spec.after_n <= seen < spec.after_n + spec.count and hit is None:
                hit = (index, spec)
        if hit is None:
            return None
        index, spec = hit
        self._fired[index] = self._fired.get(index, 0) + 1
        self._count(f"faults.injected.{kind}")
        return spec

    def fired(self, kind: Optional[str] = None) -> int:
        """Total fires, optionally restricted to one kind."""
        return sum(
            n
            for index, n in self._fired.items()
            if kind is None or self.plan.specs[index].kind == kind
        )

    def spares(self, array_name: str) -> bool:
        """True when nothing in the plan can act inside an access to the
        array *array_name*, so the array may time it whole at its arm
        grant, with no decision pop.

        Inside an access the plan acts only through :meth:`tick`, which
        is a no-op once no scheduled spec is pending (the list is filled
        by :meth:`start`, before any access, and only shrinks), and
        through ``decide("media_error" | "slow_sector", array_name)``,
        which advances no counter and fires nothing unless a spec of
        those kinds targets the array by name or by ``"*"``.
        """
        if self._scheduled_pending:
            return False
        targets = self._disk_targets
        return array_name not in targets and "*" not in targets

    # -- scheduled (disk failure/repair) application -----------------------

    def start(self, arrays: Dict[str, Any]) -> None:
        """Register *arrays* as the targets for time-scheduled specs.

        Scheduled failures are applied *lazily*: :meth:`tick` (called by
        the arrays at every access) applies every spec whose ``at_s`` has
        passed.  Disk state is only observable through accesses, so this
        is indistinguishable from an eager driver -- and it keeps the
        event queue free of fault timers, which would otherwise delay
        workload phases that run the simulation until quiescence.
        """
        scheduled = self.plan.scheduled
        if not scheduled:
            return
        for spec in scheduled:
            if spec.target not in arrays:
                raise FaultError(
                    f"{spec.kind} targets unknown array {spec.target!r}; "
                    f"known: {sorted(arrays)}"
                )
        self._arrays = arrays
        self._scheduled_pending = list(scheduled)

    def tick(self) -> None:
        """Apply every scheduled spec due at or before ``env.now``.

        Deterministic regardless of which array's access triggers it:
        the post-tick disk state is a pure function of ``env.now`` and
        the plan's ``(at_s, plan position)`` order.
        """
        while (self._scheduled_pending and self._scheduled_pending[0].at_s <= self.env.now):
            spec = self._scheduled_pending.pop(0)
            array = self._arrays[spec.target]
            if spec.kind == "disk_failure":
                array.fail_disk(spec.disk_index)
            else:
                array.repair_disk(spec.disk_index, rebuild_rate=spec.rebuild_rate)
            self._count(f"faults.injected.{spec.kind}")

    # -- delivery audit ----------------------------------------------------

    def record_delivery(
        self,
        file_id: int,
        offset: int,
        nbytes: int,
        data: Data,
        kind: str = "demand",
        io_node: int = -1,
    ) -> None:
        """Log *data* delivered along one of the audited paths (demand
        read, prefetch landing, server readahead)."""
        self.deliveries.append((file_id, offset, nbytes, data, kind, io_node))
        self._count(f"faults.audited.{kind}")

    def _count(self, name: str, value: int = 1) -> None:
        self.monitor.counter(name).add(value)
