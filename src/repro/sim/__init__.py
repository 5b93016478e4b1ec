"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event simulation (DES) kernel in
the style of SimPy, providing the substrate on which the Paragon hardware,
operating system, and parallel file system models are built.

Public surface:

- :class:`~repro.sim.environment.Environment` -- event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf` --
  event primitives.
- :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Interrupt`
  -- coroutine processes.
- :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.PriorityResource`,
  :class:`~repro.sim.resources.Container`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.FilterStore` -- shared resources.
- :class:`~repro.obs.monitor.Monitor`,
  :class:`~repro.obs.monitor.CounterStat` -- the counter registry
  (re-exported from :mod:`repro.obs.monitor`).
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.obs.monitor import CounterStat, Monitor
from repro.sim.process import Interrupt, Process
from repro.sim.resources import (
    ArbitratedResource,
    ArbitratedStore,
    Container,
    FilterStore,
    PriorityResource,
    Resource,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "ArbitratedResource",
    "ArbitratedStore",
    "Container",
    "CounterStat",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "Monitor",
    "PriorityResource",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
