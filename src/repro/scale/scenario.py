"""Declarative multi-tenant scenarios: tenants, arrivals, machine shape.

A :class:`Scenario` describes *traffic* rather than one collective: a
machine size (the paper stops at 8+8 nodes; here 16 up to 2048), a set
of :class:`Tenant`\\ s -- each a population of jobs in one PFS I/O mode
with its own files, striping window, prefetch policy and
:class:`ArrivalProcess` -- and a seed.  Scenarios are plain frozen
dataclasses, JSON-loadable (``Scenario.from_json`` /
``Scenario.load``), and **zero wall-clock**: arrival offsets are a pure
function of ``(seed, tenant, job)`` via SHA-256-derived uniforms, so
the same scenario file always produces the same simulated schedule on
any machine, under either tie-break order.

The execution semantics (one simulated machine, per-tenant mounts and
stripe windows, cohort-per-job processes) live in
:mod:`repro.scale.runner`; this module is the schema.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.core.policies import POLICY_NAMES
from repro.pfs.modes import IOMode

KB = 1024

#: Supported arrival-process kinds.
ARRIVAL_KINDS = ("staggered", "uniform", "poisson")

#: The mixed-mode rotation used by :func:`mixed_scenario` (the modes the
#: ROADMAP names for multi-tenant traffic).
MIXED_MODES = ("M_RECORD", "M_SYNC", "M_UNIX", "M_ASYNC")


def unit_uniform(seed: int, stream: str, k: int) -> float:
    """Deterministic uniform in [0, 1): SHA-256 of ``seed:stream:k``.

    Process-, platform- and wall-clock-independent (unlike ``hash()``
    or ``random`` global state), so seeded arrivals are reproducible
    across the sharded runner's worker processes.
    """
    digest = hashlib.sha256(f"{seed}:{stream}:{k}".encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


@dataclass(frozen=True)
class ArrivalProcess:
    """When a tenant's jobs start, in simulated seconds.

    - ``staggered``: job *i* starts at ``start_s + i * interval_s``
      (deterministic ramps; ``interval_s=0`` means all at once);
    - ``uniform``: jobs land uniformly at random in
      ``[start_s, start_s + interval_s)``, sorted;
    - ``poisson``: exponential inter-arrivals with mean ``interval_s``
      after ``start_s`` (the aggregated-users stand-in).

    Offsets are rounded to nanoseconds so the schedule is a stable
    finite decimal in JSON round-trips.
    """

    kind: str = "staggered"
    start_s: float = 0.0
    interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}")
        if self.start_s < 0:
            raise ValueError("arrival start must be non-negative")
        if self.interval_s < 0:
            raise ValueError("arrival interval must be non-negative")

    def offsets(self, n_jobs: int, seed: int, stream: str) -> Tuple[float, ...]:
        """The start offset of every job, seeded and wall-clock-free."""
        if self.kind == "staggered":
            raw = [self.start_s + i * self.interval_s for i in range(n_jobs)]
        elif self.kind == "uniform":
            raw = sorted(
                self.start_s + unit_uniform(seed, f"{stream}:uniform", i) * self.interval_s
                for i in range(n_jobs)
            )
        else:  # poisson
            raw = []
            t = self.start_s
            for i in range(n_jobs):
                u = unit_uniform(seed, f"{stream}:poisson", i)
                t += -self.interval_s * math.log(1.0 - u)
                raw.append(t)
        return tuple(round(t, 9) for t in raw)


@dataclass(frozen=True)
class Tenant:
    """One tenant: a population of jobs sharing mode, files and policy.

    Each *job* is a cohort of ``nprocs`` rank processes that wakes at
    its arrival offset, opens the job's own file(s) in ``iomode``,
    performs ``rounds`` reads of ``request_kb`` per rank per file, and
    closes.  Every job owns ``files_per_job`` files (no two jobs share
    a file, so overlapping arrivals never collide on mode
    coordination); a tenant therefore contributes
    ``n_jobs * files_per_job`` files to the namespace.
    """

    name: str
    iomode: str = "M_RECORD"
    n_jobs: int = 1
    nprocs: int = 4
    request_kb: int = 64
    rounds: int = 4
    files_per_job: int = 1
    stripe_factor: int = 8
    stripe_unit_kb: int = 64
    #: First I/O node of this tenant's striping window; None lets the
    #: runner spread tenants across disjoint windows (scale-out), an
    #: explicit value pins tenants onto shared servers (contention).
    stripe_base: Optional[int] = None
    compute_delay_s: float = 0.0
    prefetch: bool = True
    prefetch_policy: str = "one-ahead"
    prefetch_depth: int = 1
    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError("tenant name must be non-empty and slash-free")
        if self.iomode not in IOMode.__members__:
            raise ValueError(
                f"iomode must be one of {tuple(IOMode.__members__)}, got {self.iomode!r}"
            )
        for attr in ("n_jobs", "nprocs", "request_kb", "rounds", "files_per_job",
                     "stripe_factor", "stripe_unit_kb"):
            if getattr(self, attr) < 1:
                raise ValueError(f"tenant {self.name!r}: {attr} must be >= 1")
        if self.stripe_base is not None and self.stripe_base < 0:
            raise ValueError(f"tenant {self.name!r}: stripe_base must be >= 0")
        if self.compute_delay_s < 0:
            raise ValueError(f"tenant {self.name!r}: compute delay must be non-negative")
        if self.prefetch_policy not in POLICY_NAMES:
            raise ValueError(
                f"tenant {self.name!r}: prefetch_policy must be one of {POLICY_NAMES}"
            )
        if self.prefetch_depth < 0:
            raise ValueError(f"tenant {self.name!r}: prefetch_depth must be >= 0")

    @property
    def mode(self) -> IOMode:
        return IOMode[self.iomode]

    @property
    def request_bytes(self) -> int:
        return self.request_kb * KB

    @property
    def file_size_bytes(self) -> int:
        """Sized so one job performs a full pass: every rank completes
        ``rounds`` requests whatever the mode's pointer discipline."""
        return self.request_bytes * self.nprocs * self.rounds

    @property
    def n_files(self) -> int:
        return self.n_jobs * self.files_per_job

    def start_offsets(self, seed: int) -> Tuple[float, ...]:
        return self.arrival.offsets(self.n_jobs, seed, stream=self.name)


@dataclass(frozen=True)
class Scenario:
    """A machine shape plus the tenant set that drives traffic at it."""

    name: str
    n_compute: int
    n_io: int
    tenants: Tuple[Tenant, ...]
    seed: int = 0
    tie_break: str = "fifo"
    block_kb: int = 64

    def __post_init__(self) -> None:
        # Tolerate lists from JSON loads.
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.n_compute < 1 or self.n_io < 1:
            raise ValueError("scenario needs at least one compute and one I/O node")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if self.tie_break not in ("fifo", "lifo"):
            raise ValueError("tie_break must be 'fifo' or 'lifo'")
        for tenant in self.tenants:
            if tenant.nprocs > self.n_compute:
                raise ValueError(
                    f"tenant {tenant.name!r} wants {tenant.nprocs} ranks but the "
                    f"machine has {self.n_compute} compute nodes"
                )
            if tenant.stripe_factor > self.n_io:
                raise ValueError(
                    f"tenant {tenant.name!r} stripe factor {tenant.stripe_factor} "
                    f"exceeds {self.n_io} I/O nodes"
                )
            if tenant.stripe_base is not None and tenant.stripe_base >= self.n_io:
                raise ValueError(
                    f"tenant {tenant.name!r} stripe_base {tenant.stripe_base} "
                    f"outside 0..{self.n_io - 1}"
                )

    @property
    def total_nodes(self) -> int:
        """Compute + I/O nodes (the service node rides along for free)."""
        return self.n_compute + self.n_io

    @property
    def total_files(self) -> int:
        return sum(t.n_files for t in self.tenants)

    @property
    def total_jobs(self) -> int:
        return sum(t.n_jobs for t in self.tenants)

    def with_tie_break(self, tie_break: str) -> "Scenario":
        return replace(self, tie_break=tie_break)

    def only(self, tenant_name: str) -> "Scenario":
        """The same machine serving just one tenant (the solo baseline
        interference attribution compares against)."""
        kept = tuple(t for t in self.tenants if t.name == tenant_name)
        if not kept:
            raise ValueError(f"no tenant {tenant_name!r} in scenario {self.name!r}")
        return replace(self, name=f"{self.name}:solo:{tenant_name}", tenants=kept)

    # -- JSON schema ---------------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        out["tenants"] = list(out["tenants"])
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        tenants = []
        for entry in data.pop("tenants", ()):
            entry = dict(entry)
            arrival = entry.pop("arrival", None)
            if arrival is not None:
                entry["arrival"] = ArrivalProcess(**arrival)
            tenants.append(Tenant(**entry))
        return cls(tenants=tuple(tenants), **data)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


# -- canned scenario families ------------------------------------------------


def homogeneous_scenario(
    total_nodes: int,
    n_tenants: int,
    *,
    name: Optional[str] = None,
    iomode: str = "M_RECORD",
    nprocs: int = 4,
    rounds: int = 4,
    request_kb: int = 64,
    n_jobs: int = 1,
    files_per_job: int = 1,
    stripe_factor: int = 8,
    stripe_base: Optional[int] = None,
    compute_delay_s: float = 0.0,
    arrival: Optional[ArrivalProcess] = None,
    seed: int = 0,
    tie_break: str = "fifo",
) -> Scenario:
    """*n_tenants* identical tenants on a ``total_nodes``-node machine.

    The homogeneous cell the fairness acceptance bound applies to:
    identical tenants must come out with Jain's index >= 0.9.  With
    ``stripe_base=None`` the runner spreads tenants across disjoint
    striping windows (scale-out); pinning every tenant to the same base
    turns the cell into a contention probe.
    """
    n_compute, n_io = split_nodes(total_nodes)
    factor = min(stripe_factor, n_io)
    tenants = tuple(
        Tenant(
            name=f"t{i:03d}",
            iomode=iomode,
            n_jobs=n_jobs,
            nprocs=nprocs,
            request_kb=request_kb,
            rounds=rounds,
            files_per_job=files_per_job,
            stripe_factor=factor,
            stripe_base=stripe_base,
            compute_delay_s=compute_delay_s,
            arrival=arrival or ArrivalProcess(),
        )
        for i in range(n_tenants)
    )
    return Scenario(
        name=name or f"homog-{total_nodes}n-{n_tenants}t-{iomode}",
        n_compute=n_compute,
        n_io=n_io,
        tenants=tenants,
        seed=seed,
        tie_break=tie_break,
    )


def mixed_scenario(
    total_nodes: int,
    n_tenants: int,
    *,
    name: Optional[str] = None,
    modes: Sequence[str] = MIXED_MODES,
    nprocs: int = 4,
    rounds: int = 4,
    request_kb: int = 64,
    n_jobs: int = 2,
    files_per_job: int = 1,
    stripe_factor: int = 8,
    stagger_s: float = 0.02,
    seed: int = 0,
    tie_break: str = "fifo",
) -> Scenario:
    """Tenants cycling through *modes* with staggered job arrivals --
    the mixed-traffic cell (and the 64-node 8-tenant determinism
    anchor, see :func:`anchor_scenario`)."""
    n_compute, n_io = split_nodes(total_nodes)
    factor = min(stripe_factor, n_io)
    tenants = tuple(
        Tenant(
            name=f"{modes[i % len(modes)].lower().replace('m_', '')}{i:02d}",
            iomode=modes[i % len(modes)],
            n_jobs=n_jobs,
            nprocs=nprocs,
            request_kb=request_kb,
            rounds=rounds,
            files_per_job=files_per_job,
            stripe_factor=factor,
            arrival=ArrivalProcess(kind="staggered", start_s=i * stagger_s, interval_s=stagger_s),
        )
        for i in range(n_tenants)
    )
    return Scenario(
        name=name or f"mixed-{total_nodes}n-{n_tenants}t",
        n_compute=n_compute,
        n_io=n_io,
        tenants=tenants,
        seed=seed,
        tie_break=tie_break,
    )


def anchor_scenario(tie_break: str = "fifo") -> Scenario:
    """The 64-node 8-tenant mixed scenario whose fingerprint the
    acceptance criteria pin: bit-identical under fifo/lifo and across
    the in-process vs. sharded runner (see
    ``tests/test_scale_determinism.py`` and BENCH_9's ``scale.anchor``
    block)."""
    return mixed_scenario(64, 8, name="anchor-64n-8t", seed=1996, tie_break=tie_break)


def split_nodes(total_nodes: int) -> Tuple[int, int]:
    """Half compute, half I/O -- delegates to
    :meth:`repro.config.MachineConfig.sized` so the scenario layer and
    direct config construction can never disagree about a machine
    shape."""
    from repro.config import MachineConfig

    cfg = MachineConfig.sized(total_nodes)
    return cfg.n_compute, cfg.n_io
