"""Benchmarks of the simulator itself (host-machine performance).

Unlike the paper-artifact benches (deterministic, run once), these
measure how fast the DES kernel and the full stack execute on the host,
with real timing rounds -- useful for catching performance regressions
in the simulation engine.
"""

from repro.pfs import IOMode
from repro.sim import Arbiter, Environment, Hold

KB = 1024
MB = 1024 * 1024


def test_bench_kernel_event_throughput(benchmark):
    """Raw event-loop throughput: 50k timeout events."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(ticker(env, 5000))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 5000.0


def test_bench_kernel_resource_contention(benchmark):
    """Arbiter handoff speed: 20k holds of a 2-slot arbiter with contention."""

    def run():
        env = Environment()
        arbiter = Arbiter(env, capacity=2)
        done = []

        def worker(env, n):
            for _ in range(n):
                yield Hold(arbiter, 0.001)
            done.append(True)

        for _ in range(20):
            env.process(worker(env, 1000))
        env.run()
        return len(done)

    assert benchmark(run) == 20


def test_bench_full_stack_collective_read(benchmark, paper_machine):
    """End-to-end: an 8x8 machine reading 8MB collectively (per call)."""

    def run():
        machine, mount = paper_machine()
        machine.create_file(mount, "data", 8 * MB)
        handles = [None] * 8

        def opener(rank):
            handles[rank] = yield from machine.clients[rank].open(
                mount, "data", IOMode.M_RECORD, rank=rank, nprocs=8
            )

        for rank in range(8):
            machine.spawn(opener(rank))
        machine.run()

        def reader(h):
            for _ in range(16):
                yield from h.read(64 * KB)

        for h in handles:
            machine.spawn(reader(h))
        machine.run()
        return sum(h.stats.bytes_read for h in handles)

    assert benchmark(run) == 8 * MB
