"""Shared pytest fixtures and the Hypothesis profiles.

The canonical machine shapes were previously duplicated per test module;
they live here once.  So do the drivers that run the UFS and RAID
callback forms from a test's process (``ufs_read``, ``raid_read``, ...,
over :func:`wait_for`).  ``machine_factory`` is the escape hatch for tests
that need a non-standard shape or extra :class:`MachineConfig` knobs
(``trace=True``, ``write_back=True``, ...).

Hypothesis runs under the ``derandomized`` profile by default: every
property test draws the same examples on every run and keeps no example
database, so the suite's outcome depends on the tree alone.  The
``explore`` profile draws fresh random examples and also keeps no
database; select it with ``pytest --hypothesis-profile=explore`` to hunt
for counterexamples the fixed draw does not reach (a failure prints the
blob that reproduces it).

``TIE_BREAKS`` is the tie-break axis of the fault suites.  The CI fault
matrix runs them once per order by setting ``FAULT_TIE_BREAK=fifo`` /
``lifo``; unset, both orders run.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, print_blob=True)
settings.load_profile("derandomized")

from repro.config import MachineConfig
from repro.core import DepthKAhead, Prefetcher
from repro.machine import Machine
from repro.sim.events import Completion

KB = 1024
MB = 1024 * 1024

TIE_BREAKS = tuple(
    x for x in ("fifo", "lifo") if os.environ.get("FAULT_TIE_BREAK") in (None, "", x)
)


def wait_for(env, form, *args):
    """Generator: start the callback form ``form(*args, key, then)`` from
    the running process, under its order key, with a
    :class:`~repro.sim.events.Completion` as its ``then`` (as the PFS
    server's buffered serves do); returns the value the form finishes
    with, or raises its error."""
    done = Completion(env)
    form(*args, env.active_process.order_key, done)
    return (yield done)


def ufs_read(ufs, file_id, offset, nbytes, coalesce=True):
    """Generator: read a byte range (:meth:`UFS.read_then`)."""
    return wait_for(ufs.device.array.env, ufs.read_then, file_id, offset, nbytes, coalesce)


def ufs_write(ufs, file_id, offset, data, coalesce=True):
    """Generator: write *data* at *offset* (:meth:`UFS.write_then`)."""
    return wait_for(ufs.device.array.env, ufs.write_then, file_id, offset, data, coalesce)


def ufs_read_block(ufs, file_id, block):
    """Generator: read one block (:meth:`UFS.read_block_then`)."""
    return wait_for(ufs.device.array.env, ufs.read_block_then, file_id, block)


def ufs_write_block(ufs, file_id, block, data):
    """Generator: write one whole block (:meth:`UFS.write_block_then`)."""
    return wait_for(ufs.device.array.env, ufs.write_block_then, file_id, block, data)


def raid_read(raid, lba, nbytes):
    """Generator: read *nbytes* at *lba* (:meth:`RAID3Array.access_then`)."""
    return wait_for(raid.env, raid.access_then, "read", lba, nbytes)


def raid_write(raid, lba, nbytes):
    """Generator: write *nbytes* at *lba* (:meth:`RAID3Array.access_then`)."""
    return wait_for(raid.env, raid.access_then, "write", lba, nbytes)


@pytest.fixture
def arm_forms(monkeypatch):
    """Each RAID access granted from here on, as ``(form, array, pending,
    down)``, recorded at its arm grant: ``form`` is ``"closed"`` (timed
    whole at the grant) or ``"decided"`` (it pops first at its decision
    instant); ``pending`` is whether a scheduled disk failure or repair
    was still pending then, ``down`` whether the array was degraded or
    rebuilding.  Rebuild chunks are left out."""
    from repro.hardware import raid

    log = []
    grant_next = raid.RAID3Array._grant_next

    def recording(array):
        queued = [entry[3] for entry in array._pending]
        faults = array.faults
        state = (
            array.name,
            bool(faults is not None and faults._scheduled_pending),
            array.degraded or array._rebuilding,
        )
        grant_next(array)
        left = [entry[3] for entry in array._pending]
        for access in queued:
            if access.kind != "rebuild" and not any(access is other for other in left):
                form = "decided" if access.callbacks is raid._DECIDE else "closed"
                log.append((form,) + state)

    monkeypatch.setattr(raid.RAID3Array, "_grant_next", recording)
    return log


@pytest.fixture
def machine_factory():
    """Build a :class:`Machine` with arbitrary config overrides."""

    def make(n_compute: int = 4, n_io: int = 4, **kwargs) -> Machine:
        return Machine(MachineConfig(n_compute=n_compute, n_io=n_io, **kwargs))

    return make


@pytest.fixture
def machine(machine_factory):
    """The standard integration testbed: 4 compute / 4 I/O nodes."""
    return machine_factory()


@pytest.fixture
def small_machine(machine_factory):
    """Minimal 2 compute / 2 I/O machine for cheap integration tests."""
    return machine_factory(n_compute=2, n_io=2)


@pytest.fixture
def traced_machine(machine_factory):
    """Standard testbed with request tracing enabled (machine.obs.tracer)."""
    return machine_factory(trace=True)


@pytest.fixture
def synthetic_calls(monkeypatch):
    """Every ``(key, offset, length)`` the synthetic stream materialises
    from here on, in call order."""
    import repro.ufs.data

    calls = []
    real = repro.ufs.data._synthetic_bytes

    def counting(key, offset, length):
        calls.append((key, offset, length))
        return real(key, offset, length)

    monkeypatch.setattr(repro.ufs.data, "_synthetic_bytes", counting)
    return calls


@pytest.fixture(params=[False, True], ids=["prefetch-off", "prefetch-on"])
def prefetch_enabled(request):
    """Parametrised on/off axis for prefetching behaviour tests."""
    return request.param


@pytest.fixture
def prefetcher_factory():
    """Per-rank prefetcher factory: ``make(enabled, depth=1)`` returns a
    callable suitable for handing one fresh prefetcher to each rank, or
    None when disabled."""

    def make(enabled: bool = True, depth: int = 1):
        if not enabled:
            return None
        return lambda rank: Prefetcher(DepthKAhead(depth=depth))

    return make
