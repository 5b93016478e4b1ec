"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event simulation (DES) kernel in
the style of SimPy, providing the substrate on which the Paragon hardware,
operating system, and parallel file system models are built.

Public surface:

- :class:`~repro.sim.environment.Environment` -- event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf` -- event primitives.
- :class:`~repro.sim.process.Process` -- coroutine processes.
- :class:`~repro.sim.resources.Arbiter`,
  :class:`~repro.sim.resources.Hold` -- slots granted in canonical order
  at the end of each timestep, and one fixed-length hold of a slot.
- :class:`~repro.sim.resources.ArbitratedStore` -- a store whose puts
  and gets settle in the same canonical order.
- :class:`~repro.obs.monitor.Monitor`,
  :class:`~repro.obs.monitor.CounterStat` -- the counter registry
  (re-exported from :mod:`repro.obs.monitor`).
"""

from repro.sim.environment import Environment
from repro.sim.events import AllOf, Event, Timeout
from repro.obs.monitor import CounterStat, Monitor
from repro.sim.process import Process
from repro.sim.resources import Arbiter, ArbitratedStore, Hold

__all__ = [
    "AllOf",
    "Arbiter",
    "ArbitratedStore",
    "CounterStat",
    "Environment",
    "Event",
    "Hold",
    "Monitor",
    "Process",
    "Timeout",
]
