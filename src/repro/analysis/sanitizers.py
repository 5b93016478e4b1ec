"""Runtime sanitizers: tie-order race detection and resource-leak checks.

Static rules (R001-R004) catch what is visible in source; these two
sanitizers catch what only shows up at run time:

**Tie-order races.**  A discrete-event simulation pops same-timestamp
events in *some* order.  Correct models are invariant to that order; a
model whose results shift when the tie-break is permuted has a race --
some resource is being won by event insertion order instead of by an
arbitration rule.  :func:`check_tie_order` runs the same experiment under
every tie-break permutation the kernel supports (``fifo`` and ``lifo``,
i.e. same-timestamp events in insertion and reverse-insertion order) and
diffs canonical report fingerprints.

**Resource leaks.**  A slot whose release was lost (an exception path,
a forgotten finally, a waiter whose event was dropped) stays held
forever; every later contender deadlocks silently.  :func:`leaked_resources`
inspects every resource registered with an :class:`Environment` once the
event queue has drained, when any remaining hold is unreleasable by
construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple


# -- canonical report fingerprints -----------------------------------------


def _canonical(value: Any) -> str:
    """Stable textual form: dicts sorted, dataclasses field-by-field."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.compare
        ]
        return f"{type(value).__name__}({', '.join(parts)})"
    if isinstance(value, dict):
        items = ", ".join(f"{_canonical(k)}: {_canonical(value[k])}" for k in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)  # full precision: 1 ulp of drift must show
    return repr(value)


def report_fingerprint(report: Any) -> str:
    """SHA-256 over the canonical form of *report*'s compared fields."""
    return hashlib.sha256(_canonical(report).encode("utf-8")).hexdigest()


# -- tie-order race detector -----------------------------------------------

#: The kernel's supported permutations (Environment.TIE_BREAKS mirrors this).
TIE_BREAKS: Tuple[str, ...] = ("fifo", "lifo")


class TieOrderRace(AssertionError):
    """Raised when permuting event tie-breaking changes results."""


@dataclass
class TieOrderResult:
    """Outcome of one tie-order determinism check."""

    deterministic: bool
    fingerprints: Dict[str, str]
    reports: Dict[str, Any]

    def describe(self) -> str:
        if self.deterministic:
            return "deterministic: results bit-identical under " + "/".join(self.fingerprints)
        lines = ["TIE-ORDER RACE: results depend on same-timestamp event order"]
        for tie_break, digest in self.fingerprints.items():
            lines.append(f"  {tie_break}: {digest}")
        return "\n".join(lines)


def check_tie_order(
    run: Callable[[str], Any],
    tie_breaks: Sequence[str] = TIE_BREAKS,
) -> TieOrderResult:
    """Run ``run(tie_break)`` under every permutation and diff the results.

    *run* must build a **fresh** simulation configured with the given
    tie-break (e.g. ``lambda tb: run_collective(..., tie_break=tb)``) and
    return a report dataclass.  Results are compared by canonical
    fingerprint; any difference means a tie-order race.
    """
    reports: Dict[str, Any] = {}
    fingerprints: Dict[str, str] = {}
    for tie_break in tie_breaks:
        report = run(tie_break)
        reports[tie_break] = report
        fingerprints[tie_break] = report_fingerprint(report)
    deterministic = len(set(fingerprints.values())) == 1
    return TieOrderResult(deterministic=deterministic, fingerprints=fingerprints, reports=reports)


def assert_tie_order_deterministic(
    run: Callable[[str], Any],
    tie_breaks: Sequence[str] = TIE_BREAKS,
) -> TieOrderResult:
    """:func:`check_tie_order` that raises :class:`TieOrderRace` on a race."""
    result = check_tie_order(run, tie_breaks)
    if not result.deterministic:
        raise TieOrderRace(result.describe())
    return result


# -- resource-leak checker --------------------------------------------------


@dataclass
class ResourceLeak:
    """One resource still held after the event queue drained."""

    resource: Any
    held: int

    def __str__(self) -> str:
        return (
            f"resource leak: {self.resource!r} still holds {self.held} "
            "grant(s) with no event left to release them"
        )


def leaked_resources(env: Any) -> List[ResourceLeak]:
    """Resources still held once *env*'s event queue has drained.

    Returns ``[]`` while events remain queued (a hold is only a leak when
    nothing can ever release it).  Store gets pending at quiesce are
    *not* leaks -- perpetual server loops legitimately idle on empty
    inboxes -- so only acquire/release-style resources (those exposing
    ``users``: an arbiter, a RAID array's arm) are inspected.
    """
    if env.peek != float("inf"):
        return []
    leaks: List[ResourceLeak] = []
    for resource in env.resources:
        users = getattr(resource, "users", None)
        if users:
            leaks.append(ResourceLeak(resource=resource, held=len(users)))
    return leaks


def assert_no_leaks(env: Any) -> None:
    """Raise ``AssertionError`` listing every leak (no-op when clean)."""
    leaks = leaked_resources(env)
    if leaks:
        raise AssertionError("; ".join(str(leak) for leak in leaks))
