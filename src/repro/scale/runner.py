"""Execute a multi-tenant :class:`~repro.scale.scenario.Scenario`.

One simulated machine serves *traffic*: every tenant gets its own PFS
mount (namespace) and a private striping window over the shared I/O
nodes; every job is a cohort of rank processes that wakes at its seeded
arrival offset, opens its own file(s), reads to completion in the
tenant's I/O mode, and closes.  Jobs overlap freely -- the machine runs
once, to quiescence, with all cohorts live -- which is exactly the
regime the single-job experiments never enter.

Determinism: arrivals are pure functions of the scenario seed, client
assignment and file placement are functions of declaration order, and
the machine's canonical same-timestamp arbitration does the rest, so a
:class:`ScenarioResult` fingerprint is bit-identical under either
tie-break order and across the in-process vs. sharded runner
(:mod:`repro.scale.shard`).  Fault-free tenants keep the PR 6 fast
kernel engaged; nothing here schedules wall-clock-dependent events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.sanitizers import report_fingerprint
from repro.config import MachineConfig, PFSConfig
from repro.machine import Machine
from repro.obs.fairness import MB, FairnessReport
from repro.pfs.stripe import StripeAttributes
from repro.scale.scenario import KB, Scenario, Tenant
from repro.workloads.tenant import ArrivalDrivenJob


class ScenarioError(AssertionError):
    """A scenario run violated a machine invariant or lost a job."""


@dataclass
class JobSpan:
    """One job's lifecycle timestamps (simulated seconds)."""

    tenant: str
    job: int
    arrival_s: float
    #: When the whole cohort finished opening (reads begin here).
    opened_s: float
    #: When the last rank finished its reads (closes follow).
    finished_s: float


@dataclass
class ScenarioResult:
    """Everything a scenario run measured, fingerprint-stable.

    Compared fields feed
    :func:`repro.analysis.sanitizers.report_fingerprint`; the attached
    machine (``compare=False``) is for post-hoc inspection only.
    """

    scenario: str
    n_compute: int
    n_io: int
    seed: int
    total_bytes: int
    #: Last read completion minus first job arrival.
    elapsed_s: float
    #: Whole-machine delivered bandwidth over the traffic window.
    aggregate_bandwidth_mbps: float
    fairness: FairnessReport
    jobs: Tuple[JobSpan, ...]
    machine: Optional[Machine] = field(default=None, compare=False, repr=False)

    @property
    def jain(self) -> float:
        return self.fairness.jain

    def fingerprint(self) -> str:
        return report_fingerprint(self)

    def to_jsonable(self) -> dict:
        return {
            "scenario": self.scenario,
            "nodes": self.n_compute + self.n_io,
            "n_compute": self.n_compute,
            "n_io": self.n_io,
            "jobs": len(self.jobs),
            "total_bytes": self.total_bytes,
            "elapsed_s": round(self.elapsed_s, 6),
            "aggregate_bandwidth_mbps": round(self.aggregate_bandwidth_mbps, 4),
            "jain_index": round(self.jain, 6),
            "fairness": self.fairness.to_jsonable(),
            "fingerprint": self.fingerprint(),
        }


def tenant_stripe_windows(scenario: Scenario) -> Dict[str, Tuple[int, ...]]:
    """Each tenant's striping window over the shared I/O nodes.

    Tenants without an explicit ``stripe_base`` are packed onto
    consecutive disjoint windows (wrapping at ``n_io``) so homogeneous
    scale-out traffic spreads across every server; an explicit base pins
    the tenant (overlapping bases are how contention cells are built).
    A mount's *default* attrs would put every tenant on I/O nodes
    ``0..factor-1`` -- the one placement that cannot scale -- so the
    runner always passes these windows explicitly per file.
    """
    windows: Dict[str, Tuple[int, ...]] = {}
    cursor = 0
    for tenant in scenario.tenants:
        base = tenant.stripe_base if tenant.stripe_base is not None else cursor % scenario.n_io
        windows[tenant.name] = tuple(
            (base + j) % scenario.n_io for j in range(tenant.stripe_factor)
        )
        if tenant.stripe_base is None:
            cursor += tenant.stripe_factor
    return windows


def job_clients(scenario: Scenario) -> Dict[Tuple[str, int], Tuple[int, ...]]:
    """Compute-node (client) indices for every ``(tenant, job)``.

    Tenant *i* of *n* anchors at compute node ``i * n_compute // n``;
    its jobs claim consecutive runs of ``nprocs`` clients from there
    (mod ``n_compute``).  Proportional anchoring matters on big meshes:
    it keeps each tenant's compute column aligned with its striping
    window's I/O column, so mesh distance stays O(stripe factor) as the
    machine grows -- a naive packed cursor puts high-index tenants
    hundreds of columns from their servers and per-hop latency alone
    destroys fairness.  The map is a pure function of the scenario
    (never of arrival order, tie-break, or which worker runs the cell).
    """
    placement: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    n_compute = scenario.n_compute
    n_tenants = len(scenario.tenants)
    for index, tenant in enumerate(scenario.tenants):
        base = (index * n_compute) // n_tenants
        for job in range(tenant.n_jobs):
            start = base + job * tenant.nprocs
            placement[(tenant.name, job)] = tuple(
                (start + r) % n_compute for r in range(tenant.nprocs)
            )
    return placement


def job_filename(tenant: Tenant, job: int, index: int) -> str:
    return f"{tenant.name}-j{job}-f{index}"


def run_scenario(
    scenario: Scenario,
    *,
    faults=None,
    attribute_interference: bool = False,
    keep_machine: bool = False,
    verify: bool = True,
) -> ScenarioResult:
    """Run *scenario* on one fresh machine; returns the measured result.

    ``faults`` attaches a :class:`~repro.faults.plan.FaultPlan` to the
    machine (the scenario schema itself stays fault-free; crash-window
    campaigns inject plans from the test harness).  With
    ``attribute_interference=True`` every tenant is additionally raced
    *alone* on its own fresh machine and
    ``result.fairness.interference[tenant]`` reports the solo/shared
    bandwidth ratio (>= 1: the tenant ran slower under contention);
    the extra runs never touch the primary result's fingerprint.
    """
    config = MachineConfig(
        n_compute=scenario.n_compute,
        n_io=scenario.n_io,
        tie_break=scenario.tie_break,
        block_size=scenario.block_kb * KB,
        faults=faults,
    )
    machine = Machine(config)
    windows = tenant_stripe_windows(scenario)
    placement = job_clients(scenario)

    # -- namespaces and files (setup time, no simulated cost) ---------------
    mounts = {}
    for tenant in scenario.tenants:
        mount = machine.mount(
            f"/{tenant.name}",
            PFSConfig(
                stripe_unit=tenant.stripe_unit_kb * KB,
                stripe_factor=tenant.stripe_factor,
            ),
        )
        mounts[tenant.name] = mount
        window = windows[tenant.name]
        for job in range(tenant.n_jobs):
            for index in range(tenant.files_per_job):
                # Rotate first-stripe placement within the tenant's
                # window so a population of files spreads evenly.
                serial = job * tenant.files_per_job + index
                machine.create_file(
                    mount,
                    job_filename(tenant, job, index),
                    tenant.file_size_bytes,
                    attrs=StripeAttributes(
                        stripe_unit=tenant.stripe_unit_kb * KB,
                        stripe_group=window,
                        rotation=serial % tenant.stripe_factor,
                    ),
                )

    # -- job cohorts --------------------------------------------------------
    jobs: Dict[Tuple[str, int], ArrivalDrivenJob] = {}
    first_arrival = None
    for tenant in scenario.tenants:
        offsets = tenant.start_offsets(scenario.seed)
        for job_index, arrival_s in enumerate(offsets):
            prefetcher_factory = (
                (
                    lambda rank, t=tenant: machine.build_prefetcher(
                        rank, policy=t.prefetch_policy, depth=t.prefetch_depth
                    )
                )
                if tenant.prefetch
                else None
            )
            job = ArrivalDrivenJob(
                machine,
                mounts[tenant.name],
                [
                    job_filename(tenant, job_index, index)
                    for index in range(tenant.files_per_job)
                ],
                tenant.mode,
                request_size=tenant.request_bytes,
                rounds=tenant.rounds,
                clients=[machine.clients[c] for c in placement[(tenant.name, job_index)]],
                arrival_s=arrival_s,
                compute_delay_s=tenant.compute_delay_s,
                prefetcher_factory=prefetcher_factory,
                name=f"{tenant.name}-j{job_index}",
            )
            jobs[(tenant.name, job_index)] = job
            job.spawn()
            if first_arrival is None or arrival_s < first_arrival:
                first_arrival = arrival_s

    machine.run()

    # -- settle -------------------------------------------------------------
    incomplete = [key for key in sorted(jobs) if not jobs[key].completed]
    if incomplete:
        raise ScenarioError(f"jobs never finished reading: {incomplete}")
    if verify:
        problems = machine.verify()
        if problems:
            raise ScenarioError("; ".join(problems))

    fairness = FairnessReport()
    for tenant in scenario.tenants:
        usage = fairness.usage(tenant.name)
        usage.jobs = tenant.n_jobs
        for key in sorted(jobs):
            if key[0] != tenant.name:
                continue
            for handle in jobs[key].handles:
                usage.record(handle.stats.bytes_read, handle.stats.call_durations)

    spans = {
        key: JobSpan(
            tenant=key[0],
            job=key[1],
            arrival_s=jobs[key].arrival_s,
            opened_s=jobs[key].opened_s,
            finished_s=jobs[key].finished_s,
        )
        for key in sorted(jobs)
    }
    last_finish = max(spans[key].finished_s for key in sorted(spans))
    elapsed_s = last_finish - (first_arrival or 0.0)
    total_bytes = fairness.total_bytes
    result = ScenarioResult(
        scenario=scenario.name,
        n_compute=scenario.n_compute,
        n_io=scenario.n_io,
        seed=scenario.seed,
        total_bytes=total_bytes,
        elapsed_s=elapsed_s,
        aggregate_bandwidth_mbps=(total_bytes / elapsed_s) / MB if elapsed_s > 0 else 0.0,
        fairness=fairness,
        jobs=tuple(spans[key] for key in sorted(spans)),
        machine=machine if keep_machine else None,
    )

    if attribute_interference:
        interference: Dict[str, float] = {}
        for tenant in scenario.tenants:
            solo = run_scenario(scenario.only(tenant.name), verify=verify)
            shared_bw = fairness.tenants[tenant.name].bandwidth_mbps
            solo_bw = solo.fairness.tenants[tenant.name].bandwidth_mbps
            interference[tenant.name] = solo_bw / shared_bw if shared_bw > 0 else 0.0
        result.fairness.interference = interference

    return result
