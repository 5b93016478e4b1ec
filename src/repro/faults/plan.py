"""Deterministic fault plans.

A :class:`FaultPlan` is an immutable specification of *what goes wrong
when*: a tuple of :class:`FaultSpec` entries plus the
:class:`RetryPolicy` the recovery machinery uses.  The plan is pure
data -- the same plan object can drive two runs (e.g. the ``fifo`` and
``lifo`` legs of the tie-order sanitizer) without one perturbing the
other; all mutable trigger state lives in the per-machine
:class:`~repro.faults.injector.FaultInjector`.

Determinism contract
--------------------
Every trigger is a function of *simulated* time and canonically-ordered
operation counts, never of wall-clock time or unseeded randomness, so a
fault schedule is bit-identical under ``tie_break=fifo`` and ``lifo``:

- ``media_error`` / ``slow_sector`` / ``rpc_stall`` / ``server_stall``
  may count operations, because the operation streams they observe are
  settled by canonical arbitration (the RAID arm's LOOK queue, the
  :class:`~repro.sim.resources.ArbitratedStore` RPC inbox).
- ``mesh_drop`` / ``mesh_dup`` must use *time windows* (``at_s`` +
  ``window_s``): same-timestamp mesh sends on different links have no
  canonical global order, so "drop the 7th message" would be a
  tie-order race.  "Drop every matching message in [t, t+w)" is not.
- ``disk_failure`` / ``disk_repair`` fire at an absolute simulated time
  via the injector's driver process.
- ``node_crash`` / ``node_restart`` are pure *time predicates*: a client
  is "crashed" iff the simulated clock sits inside one of its plan's
  ``[crash_at, restart_at)`` windows.  No event ever fires -- both
  tie-break legs evaluate the same predicate on the same clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

#: Fault kinds and the layer that interprets them.
FAULT_KINDS = frozenset(
    {
        "media_error",  # disk/raid: bad sector; RAID-3 reconstructs from parity
        "slow_sector",  # disk/raid: positioning takes duration_s extra
        "disk_failure",  # raid: whole spindle dies at at_s (degraded mode)
        "disk_repair",  # raid: spindle replaced + rebuilt at at_s
        "mesh_drop",  # mesh: message lost after occupying its route
        "mesh_dup",  # mesh: message delivered twice
        "rpc_stall",  # rpc: the serve sleeps duration_s before the handler
        "server_stall",  # pfs server: read handler sleeps duration_s
        "node_crash",  # compute node: client dies at at_s (in-flight work lost)
        "node_restart",  # compute node: client returns at at_s and recovers
    }
)

#: Kinds whose triggers are time-scheduled by the injector's driver.
SCHEDULED_KINDS = frozenset({"disk_failure", "disk_repair"})

#: Kinds that must trigger by time window, never by count (no canonical
#: global operation order exists at the mesh layer).
WINDOW_ONLY_KINDS = frozenset({"mesh_drop", "mesh_dup"})

#: Compute-node lifecycle kinds; paired into ``[crash, restart)`` windows.
NODE_LIFECYCLE_KINDS = frozenset({"node_crash", "node_restart"})


class FaultError(Exception):
    """Base class for fault-plane errors (bad plans, unknown targets)."""


class NodeCrashed(FaultError):
    """The calling compute node is inside a crash window.

    Raised out of client-side paths (``PFSFileHandle.read``, the RPC
    retry loop) when the node's plan says it is down.  Workload drivers
    model the restarted application by catching this, waiting for the
    restart time, and re-issuing the interrupted call.
    """


class FaultBudgetExceeded(FaultError):
    """An RPC exhausted its retry budget without a reply.

    Carries the trace span chain of the failing call (empty when the
    run is untraced) and the per-attempt timeout history, so the
    failure names exactly which request died and what recovery tried.
    """

    def __init__(
        self,
        message: str,
        span_chain: Sequence = (),
        attempts: Sequence[float] = (),
    ) -> None:
        super().__init__(message)
        #: Innermost-first spans from the failing rpc_call to the root.
        self.span_chain = tuple(span_chain)
        #: Timeout used by each attempt, in order.
        self.attempts = tuple(attempts)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout + bounded exponential backoff.

    Attempt *i* (0-based) waits ``min(timeout_s * backoff_factor**i,
    max_timeout_s)`` for a reply before retransmitting with the same
    idempotent ``msg_id``; after ``max_attempts`` attempts the call
    raises :class:`FaultBudgetExceeded`.
    """

    #: Reply timeout of the first attempt.
    timeout_s: float = 1.0
    #: Timeout growth per retry (bounded exponential backoff).
    backoff_factor: float = 2.0
    #: Ceiling on any single attempt's timeout.
    max_timeout_s: float = 8.0
    #: Total attempts (first try + retries).
    max_attempts: int = 4
    #: Times a failed *prefetch* transfer is re-issued before the buffer
    #: is marked failed (demand reads then fall back, as before).
    prefetch_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_timeout_s < self.timeout_s:
            raise ValueError("max_timeout_s must be >= timeout_s")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.prefetch_retries < 0:
            raise ValueError("prefetch_retries must be non-negative")

    def timeout_for(self, attempt: int) -> float:
        """Reply timeout of 0-based attempt *attempt*."""
        return min(self.timeout_s * self.backoff_factor**attempt, self.max_timeout_s)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, target selector, trigger, and magnitude.

    Targets are matched literally against the component's name
    (``raid0``, ``node9``, ``0,0->1,1`` for a directed mesh src->dst
    pair) with ``"*"`` matching everything.

    Trigger styles (validated in ``__post_init__``):

    - **count**: the spec skips its first ``after_n`` matching
      operations then fires on the next ``count`` of them (optionally
      gated to ``now >= at_s``).
    - **window** (``window_s > 0``): fires on *every* matching
      operation with ``at_s <= now < at_s + window_s``; ``count`` and
      ``after_n`` must stay at their defaults.  Required for mesh kinds.
    - **scheduled** (``disk_failure`` / ``disk_repair``): fires exactly
      at ``at_s`` via the injector's driver process.
    - **node lifecycle** (``node_crash`` / ``node_restart``): pure time
      predicates over ``at_s``; targets must name one concrete compute
      node (``nodeN``) and crash/restart specs for a node must pair up
      into alternating ``crash < restart`` windows.
    """

    kind: str
    target: str = "*"
    #: Simulated-time gate (count style), window start, or schedule time.
    at_s: Optional[float] = None
    #: Matching operations to skip before firing (count style).
    after_n: int = 0
    #: Operations affected once triggering starts (count style).
    count: int = 1
    #: Width of the active window (window style).
    window_s: float = 0.0
    #: Stall / latency-spike magnitude for the kinds that take one.
    duration_s: float = 0.0
    #: Which data spindle fails / is repaired (scheduled kinds).
    disk_index: int = 0
    #: Copy-back rebuild throttle for ``disk_repair``: fraction of the
    #: spindle's time the rebuild may consume (1.0 = rebuild at full
    #: media rate, 0.25 = sleep three chunk-times between chunks so
    #: foreground I/O keeps three quarters of the arm).
    rebuild_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; valid: {sorted(FAULT_KINDS)}")
        if self.after_n < 0 or self.count < 0:
            raise ValueError("after_n and count must be non-negative")
        if self.window_s < 0 or self.duration_s < 0:
            raise ValueError("window_s and duration_s must be non-negative")
        if self.kind in SCHEDULED_KINDS:
            if self.at_s is None:
                raise ValueError(f"{self.kind} requires at_s (a schedule time)")
            if self.disk_index < 0:
                raise ValueError("disk_index must be non-negative")
        if not (0.0 < self.rebuild_rate <= 1.0):
            raise ValueError("rebuild_rate must be in (0, 1]")
        if self.kind in NODE_LIFECYCLE_KINDS:
            if self.at_s is None:
                raise ValueError(f"{self.kind} requires at_s (a schedule time)")
            if self.target == "*" or not self.target.startswith("node"):
                raise ValueError(
                    f"{self.kind} must target one concrete compute node "
                    f"('nodeN'), got {self.target!r}"
                )
        if self.kind in WINDOW_ONLY_KINDS:
            # Count triggers at the mesh would be a tie-order race: there
            # is no canonical global order among same-timestamp sends.
            if self.window_s <= 0 or self.at_s is None:
                raise ValueError(
                    f"{self.kind} must use a time window (at_s + window_s): "
                    "mesh operations have no canonical count order"
                )
            if self.count != 1 or self.after_n != 0:
                raise ValueError(
                    f"{self.kind} windows affect every matching message; "
                    "count/after_n must be left at their defaults"
                )
        if self.window_s > 0 and self.at_s is None:
            raise ValueError("window_s requires at_s (the window start)")
        if self.kind in ("slow_sector", "rpc_stall", "server_stall"):
            if self.duration_s <= 0:
                raise ValueError(f"{self.kind} requires a positive duration_s")

    @property
    def windowed(self) -> bool:
        return self.window_s > 0

    def active_at(self, now: float) -> bool:
        """Window-style activity test (count gating is the injector's)."""
        if not self.windowed:
            return self.at_s is None or now >= self.at_s
        assert self.at_s is not None
        return self.at_s <= now < self.at_s + self.window_s


def mesh_pair(src: Tuple[int, int], dst: Tuple[int, int]) -> str:
    """Target string for a directed mesh (src -> dst) coordinate pair."""
    return f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seeded schedule of faults plus the recovery policy."""

    specs: Tuple[FaultSpec, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seed recorded with the plan (used by the :meth:`scattered`
    #: generator; kept on the plan so artifacts name their provenance).
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any sequence of specs but store a tuple (hashable,
        # immutable -- plans are shared across sanitizer legs).
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"specs must be FaultSpec, got {spec!r}")
        for target in sorted({s.target for s in self.specs if s.kind in NODE_LIFECYCLE_KINDS}):
            self.crash_windows(target)  # raises on unpaired/overlapping specs

    def by_kind(self, kind: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    def crash_windows(self, target: str) -> Tuple[Tuple[float, float], ...]:
        """Paired ``(crash_at, restart_at)`` windows for compute node
        *target*, sorted by crash time.

        Crash/restart specs for one node must pair into alternating,
        non-overlapping ``crash < restart`` windows; anything else (a
        crash with no restart, a restart with no preceding crash, two
        overlapping windows) raises :class:`FaultError` -- the predicate
        ``crashed(now)`` would otherwise be ambiguous.
        """
        crashes = sorted(
            s.at_s for s in self.specs if s.kind == "node_crash" and s.target == target
        )
        restarts = sorted(
            s.at_s for s in self.specs if s.kind == "node_restart" and s.target == target
        )
        if len(crashes) != len(restarts):
            raise FaultError(
                f"{target}: {len(crashes)} node_crash spec(s) but "
                f"{len(restarts)} node_restart spec(s); they must pair up"
            )
        windows = tuple(zip(crashes, restarts))
        last_restart = float("-inf")
        for crash_at, restart_at in windows:
            if not crash_at < restart_at:
                raise FaultError(
                    f"{target}: node_crash at {crash_at} has no later "
                    f"node_restart (next restart at {restart_at})"
                )
            if crash_at < last_restart:
                raise FaultError(
                    f"{target}: crash window starting at {crash_at} overlaps " "the previous one"
                )
            last_restart = restart_at
        return windows

    @property
    def scheduled(self) -> Tuple[FaultSpec, ...]:
        """Driver-fired specs, ordered by (time, plan position)."""
        indexed = [
            (spec.at_s, i, spec)
            for i, spec in enumerate(self.specs)
            if spec.kind in SCHEDULED_KINDS
        ]
        indexed.sort(key=lambda item: (item[0], item[1]))
        return tuple(spec for _at, _i, spec in indexed)

    # -- builders ----------------------------------------------------------

    @classmethod
    def single_disk_failure(
        cls,
        array: str = "raid0",
        at_s: float = 0.0,
        disk_index: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultPlan":
        """One spindle of *array* dies at *at_s*: RAID-3 degraded mode."""
        return cls(
            specs=(
                FaultSpec(
                    kind="disk_failure",
                    target=array,
                    at_s=at_s,
                    disk_index=disk_index,
                ),
            ),
            retry=retry or RetryPolicy(),
        )

    @classmethod
    def crash_restart(
        cls,
        node: str = "node0",
        windows: Sequence[Tuple[float, float]] = ((0.05, 0.1),),
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultPlan":
        """Compute node *node* crashes and restarts once per window."""
        specs = []
        for crash_at, restart_at in windows:
            specs.append(FaultSpec(kind="node_crash", target=node, at_s=crash_at))
            specs.append(FaultSpec(kind="node_restart", target=node, at_s=restart_at))
        return cls(specs=tuple(specs), retry=retry or RetryPolicy())

    @classmethod
    def scattered(
        cls,
        seed: int,
        horizon_s: float,
        n_faults: int = 4,
        raid_targets: Sequence[str] = ("raid0",),
        node_targets: Sequence[str] = ("*",),
        retry: Optional[RetryPolicy] = None,
        transient_only: bool = True,
    ) -> "FaultPlan":
        """Deterministic pseudo-random mix of transient faults.

        Draws from a seeded :class:`random.Random` (R002-clean), so the
        same ``(seed, horizon_s, ...)`` always yields the same plan.
        All generated faults are recoverable within the default retry
        budget: media errors reconstruct from parity, stalls are shorter
        than any attempt timeout, and mesh drop/dup windows are shorter
        than the first retry timeout.  With ``transient_only=False`` one
        mid-run single-disk failure is appended (still recoverable --
        RAID-3 survives one dead spindle).  No media error then lands on
        the failed array: once degraded it has no parity left to
        reconstruct a bad sector from, so the error would be fatal.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        rng = random.Random(seed)
        retry = retry or RetryPolicy()
        specs = []
        failure = None
        if not transient_only:
            failure = FaultSpec(
                kind="disk_failure",
                target=rng.choice(list(raid_targets)),
                at_s=rng.uniform(0.0, horizon_s),
                disk_index=rng.randrange(0, 4),
            )
        media_targets = [t for t in raid_targets if failure is None or t != failure.target]
        kinds = (
            "media_error",
            "slow_sector",
            "mesh_drop",
            "mesh_dup",
            "rpc_stall",
            "server_stall",
        )
        if not media_targets:
            kinds = kinds[1:]
        for _ in range(n_faults):
            kind = rng.choice(kinds)
            if kind in ("media_error", "slow_sector"):
                targets = media_targets if kind == "media_error" else list(raid_targets)
                specs.append(
                    FaultSpec(
                        kind=kind,
                        target=rng.choice(targets),
                        after_n=rng.randrange(0, 8),
                        count=rng.randrange(1, 3),
                        duration_s=(
                            rng.uniform(0.005, 0.05) if kind == "slow_sector" else 0.0
                        ),
                    )
                )
            elif kind in ("mesh_drop", "mesh_dup"):
                start = rng.uniform(0.0, horizon_s)
                specs.append(
                    FaultSpec(
                        kind=kind,
                        target="*",
                        at_s=start,
                        # Shorter than the first attempt's timeout so a
                        # retransmit always escapes the window.
                        window_s=min(0.4 * retry.timeout_s, 0.2 * horizon_s),
                    )
                )
            else:  # stalls
                specs.append(
                    FaultSpec(
                        kind=kind,
                        target=rng.choice(list(node_targets)),
                        after_n=rng.randrange(0, 8),
                        count=rng.randrange(1, 3),
                        # Always below the attempt timeout: the stalled
                        # reply still lands within budget.
                        duration_s=rng.uniform(0.01, 0.5 * retry.timeout_s),
                    )
                )
        if failure is not None:
            specs.append(failure)
        return cls(specs=tuple(specs), retry=retry, seed=seed)
