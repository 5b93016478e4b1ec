"""Unit tests for the 2D mesh interconnect model."""

import heapq

import pytest

from repro.analysis.sanitizers import leaked_resources
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hardware import Mesh, MeshMessage, MeshParams
from repro.obs import Observability
from repro.sim import Environment, environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def mesh(env):
    return Mesh(env, width=4, height=4)


class TestTopology:
    def test_bad_dimensions(self, env):
        with pytest.raises(ValueError):
            Mesh(env, 0, 4)
        with pytest.raises(ValueError):
            Mesh(env, 4, -1)

    def test_contains(self, mesh):
        assert mesh.contains((0, 0))
        assert mesh.contains((3, 3))
        assert not mesh.contains((4, 0))
        assert not mesh.contains((0, -1))

    def test_route_is_xy_ordered(self, mesh):
        links = mesh.route((0, 0), (2, 2))
        # X moves first, then Y.
        assert links == [
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
            ((2, 0), (2, 1)),
            ((2, 1), (2, 2)),
        ]

    def test_route_negative_directions(self, mesh):
        links = mesh.route((3, 3), (1, 2))
        assert links == [
            ((3, 3), (2, 3)),
            ((2, 3), (1, 3)),
            ((1, 3), (1, 2)),
        ]

    def test_route_to_self_is_empty(self, mesh):
        assert mesh.route((1, 1), (1, 1)) == []

    def test_route_length_equals_hops(self, mesh):
        for src in [(0, 0), (2, 1), (3, 3)]:
            for dst in [(0, 0), (1, 3), (3, 0)]:
                assert len(mesh.route(src, dst)) == mesh.hops(src, dst)

    def test_route_outside_raises(self, mesh):
        with pytest.raises(ValueError):
            mesh.route((0, 0), (9, 9))
        with pytest.raises(ValueError):
            mesh.route((-1, 0), (1, 1))


class TestTransmission:
    def test_uncontended_latency(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=1.0, per_hop_s=0.5)
        mesh = Mesh(env, 4, 1, params=params)
        msg = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)

        def proc(env):
            yield from mesh.send(msg)
            return env.now

        p = env.process(proc(env))
        env.run()
        # 1.0 sw + 2 hops * 0.5 + 200/100 = 4.0
        assert p.value == pytest.approx(4.0)
        assert msg.delivered_at == pytest.approx(4.0)

    def test_transfer_time_estimate_matches(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=1.0, per_hop_s=0.5)
        mesh = Mesh(env, 4, 1, params=params)

        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (2, 0), 200))
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(mesh.transfer_time((0, 0), (2, 0), 200))

    def test_zero_size_message(self, env, mesh):
        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 0))
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value > 0  # still pays software overhead

    def test_negative_size_rejected(self, env, mesh):
        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), -1))

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run()

    def test_link_contention_serialises(self, env):
        # Two messages over the same single link: the second waits.
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=0.0, per_hop_s=0.0)
        mesh = Mesh(env, 2, 1, params=params)
        done = []

        def proc(env, tag):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 100))
            done.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert done[0] == ("a", pytest.approx(1.0))
        assert done[1] == ("b", pytest.approx(2.0))

    def test_disjoint_paths_run_concurrently(self, env):
        params = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=0.0, per_hop_s=0.0)
        mesh = Mesh(env, 2, 2, params=params)
        done = []

        def proc(env, src, dst, tag):
            yield from mesh.send(MeshMessage(src, dst, 100))
            done.append((tag, env.now))

        env.process(proc(env, (0, 0), (1, 0), "row0"))
        env.process(proc(env, (0, 1), (1, 1), "row1"))
        env.run()
        times = dict(done)
        assert times["row0"] == pytest.approx(1.0)
        assert times["row1"] == pytest.approx(1.0)

    def test_many_crossing_messages_all_deliver(self, env):
        mesh = Mesh(env, 4, 4)
        delivered = []

        def proc(env, src, dst, size):
            msg = yield from mesh.send(MeshMessage(src, dst, size))
            delivered.append(msg)

        coords = [(x, y) for x in range(4) for y in range(4)]
        n = 0
        for i, src in enumerate(coords):
            dst = coords[(i * 7 + 3) % len(coords)]
            env.process(proc(env, src, dst, 64 * 1024))
            n += 1
        env.run()
        assert len(delivered) == n
        assert all(m.delivered_at >= m.enqueued_at for m in delivered)

    def test_monitor_records_traffic(self, env):
        from repro.sim import Monitor

        mon = Monitor(env)
        mesh = Mesh(env, 2, 1, monitor=mon)

        def proc(env):
            yield from mesh.send(MeshMessage((0, 0), (1, 0), 1000))

        env.process(proc(env))
        env.run()
        assert mon.counter_value("mesh.messages") == 1
        assert mon.counter_value("mesh.bytes") == 1000


#: 1 s software overhead, two 0.5 s hops, 200 bytes at 100 B/s: the worm
#: holds link 0 over [1.0, 4.0] and link 1 over [1.5, 4.0].
ONE_WORM = MeshParams(link_bandwidth_bps=100.0, sw_overhead_s=1.0, per_hop_s=0.5)
ONE_WORM_BUSY = {"0,0->1,0": 3.0, "1,0->2,0": 2.5}


def _one_transmission(trace=False, fault=None, window=(3.0, 2.0)):
    """Send one message across ONE_WORM's two links; returns the message,
    the sender's (returned message, wake-up time), link busy seconds,
    mesh counters and the tracer."""
    env = Environment()
    obs = Observability(env, trace=trace)
    faults = None
    if fault is not None:
        at_s, window_s = window
        spec = FaultSpec(kind=fault, target="*", at_s=at_s, window_s=window_s)
        faults = FaultInjector(env, FaultPlan(specs=(spec,)), monitor=obs)
    mesh = Mesh(env, 4, 1, params=ONE_WORM, monitor=obs, faults=faults)
    msg = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)

    def sender():
        got = yield from mesh.send(msg)
        return got, env.now

    proc = env.process(sender())
    env.run()
    counters = {name: obs.counter_value(name) for name in ("mesh.messages", "mesh.bytes")}
    return msg, proc.value, mesh.link_busy_s(), counters, obs.tracer


class TestOneWorm:
    """Plain, traced and faulted transmissions run the same worm: tracing
    adds one span, a fault window marks the message at delivery, and
    neither moves a time, a link hold or a counter."""

    @pytest.mark.parametrize(
        "trace,fault",
        [
            (False, None),
            (True, None),
            (False, "mesh_drop"),
            (True, "mesh_drop"),
            (True, "mesh_dup"),
        ],
    )
    def test_same_timing_occupancy_and_counters(self, trace, fault):
        msg, (got, woke_at), busy, counters, _tracer = _one_transmission(trace, fault)
        assert got is msg
        assert msg.delivered_at == woke_at == 4.0
        assert busy == ONE_WORM_BUSY
        assert counters == {"mesh.messages": 1, "mesh.bytes": 200}
        assert msg.dropped == (fault == "mesh_drop")
        assert msg.duplicated == (fault == "mesh_dup")

    def test_traced_span_covers_send_to_delivery(self):
        *_, tracer = _one_transmission(trace=True)
        (span,) = [s for s in tracer.spans if s.kind == "mesh_xfer"]
        assert (span.start, span.end) == (0.0, 4.0)
        assert "dropped" not in span.attrs and "duplicated" not in span.attrs
        assert span.attrs["bytes"] == 200

    @pytest.mark.parametrize("fault", ["mesh_drop", "mesh_dup"])
    def test_faulted_span_carries_the_decision(self, fault):
        *_, tracer = _one_transmission(trace=True, fault=fault)
        (span,) = [s for s in tracer.spans if s.kind == "mesh_xfer"]
        assert (span.start, span.end) == (0.0, 4.0)
        assert span.attrs["dropped"] == (fault == "mesh_drop")
        assert span.attrs["duplicated"] == (fault == "mesh_dup")

    def test_window_is_read_at_delivery_not_at_send(self):
        # Open over the send only: the message arrives after it closed.
        msg, _woke, busy, _counters, tracer = _one_transmission(
            trace=True, fault="mesh_drop", window=(0.0, 1.0)
        )
        assert not msg.dropped
        (span,) = [s for s in tracer.spans if s.kind == "mesh_xfer"]
        assert span.attrs["dropped"] is False
        assert busy == ONE_WORM_BUSY

    def test_dropped_message_occupies_its_full_route(self):
        # A second message behind the dropped one on the shared first
        # link is granted only once the dropped worm has streamed through.
        env = Environment()
        spec = FaultSpec(kind="mesh_drop", target="0,0->2,0", at_s=3.0, window_s=2.0)
        faults = FaultInjector(env, FaultPlan(specs=(spec,)))
        mesh = Mesh(env, 4, 1, params=ONE_WORM, faults=faults)
        dropped = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)
        behind = MeshMessage(src=(0, 0), dst=(1, 0), size_bytes=0)

        def sender(msg, delay):
            yield env.timeout(delay)
            yield from mesh.send(msg)

        env.process(sender(dropped, 0.0))
        env.process(sender(behind, 0.5))
        env.run()
        assert dropped.dropped and not behind.dropped
        assert dropped.delivered_at == 4.0
        # Granted at 4.0, one 0.5 s hop, no body.
        assert behind.delivered_at == 4.5
        assert mesh.link_busy_s() == {"0,0->1,0": 3.5, "1,0->2,0": 2.5}



TIE_BREAKS = ("fifo", "lifo")


class TestLinkArbitration:
    """A link belongs to the mesh: its waiting worms queue on it, and a
    settle hands it straight to the next worm in canonical order."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("reverse", [False, True])
    def test_contenders_granted_in_arrival_then_route_key_order(self, tie_break, reverse):
        # Link 1,0->2,0 is held over [1.0, 3.5].  Behind it queue a worm
        # that arrived at 1.1 with the larger route key, then two that
        # arrive together at 1.2 (key to 2,0 below key to 3,0).  The
        # spawn order of the same-instant pair must not matter.
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        holder = MeshMessage(src=(1, 0), dst=(2, 0), size_bytes=200)
        early = MeshMessage(src=(1, 0), dst=(3, 0), size_bytes=0)
        near = MeshMessage(src=(1, 0), dst=(2, 0), size_bytes=0)
        far = MeshMessage(src=(1, 0), dst=(3, 0), size_bytes=0)
        delivered = []

        def sender(msg, delay):
            yield env.timeout(delay)
            yield from mesh.send(msg)
            delivered.append(msg)

        together = [(near, 0.2), (far, 0.2)]
        if reverse:
            together.reverse()
        for msg, delay in [(holder, 0.0), (early, 0.1)] + together:
            env.process(sender(msg, delay))
        env.run()
        assert delivered == [holder, early, near, far]
        # Each is granted 1,0->2,0 at its predecessor's delivery.
        assert [m.delivered_at for m in delivered] == [3.5, 4.5, 5.0, 6.0]
        assert mesh.link_busy_s() == {"1,0->2,0": 5.0, "2,0->3,0": 1.0}

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_queued_worm_granted_at_release_books_from_its_grant(self, tie_break):
        # The first worm holds 0,0->1,0 over [1.0, 3.5]; the second asks
        # at 1.5 and is granted at 3.5, so the link is busy 2.5 + 2.5 s
        # (booking from its request would give 2.5 + 4.5).
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        first = MeshMessage(src=(0, 0), dst=(1, 0), size_bytes=200)
        second = MeshMessage(src=(0, 0), dst=(1, 0), size_bytes=200)
        link = mesh._link(((0, 0), (1, 0)))
        seen = []

        def sender(msg, delay):
            yield env.timeout(delay)
            yield from mesh.send(msg)

        def watcher():
            for at in (2.0, 4.0):
                yield env.timeout(at - env.now)
                (worm,) = link.users
                seen.append((worm.message, link.granted_at, len(link.queue)))

        env.process(sender(first, 0.0))
        env.process(sender(second, 0.5))
        env.process(watcher())
        env.run()
        assert seen == [(first, 1.0, 1), (second, 3.5, 0)]
        assert (first.delivered_at, second.delivered_at) == (3.5, 6.0)
        assert mesh.link_busy_s() == {"0,0->1,0": 5.0}
        assert link.users == () and leaked_resources(env) == []

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_link_held_when_queue_drains_is_a_leak(self, tie_break):
        # Drop the worm's pending pop while it holds its route: nothing
        # is left to release the links, and the leak checker sees them.
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        mesh.post(MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200), env.event(), None)
        env.run(until=2.0)
        assert leaked_resources(env) == []
        assert len(env) == 1
        env._queue.clear()
        env.run()
        leaks = leaked_resources(env)
        assert [leak.resource for leak in leaks] == [
            mesh._links[((0, 0), (1, 0))],
            mesh._links[((1, 0), (2, 0))],
        ]
        assert [leak.held for leak in leaks] == [1, 1]


#: A contended 4x4 scenario: same-instant sends, a shared first link
#: (0,0->1,0), routes crossing at (1,1) and (2,2), short and long bodies,
#: and a zero-hop body shorter than a hop, sent with two routed worms.
#: Each entry is (send time, src, dst, bytes).
CONTENDED = (
    (0.0, (0, 0), (3, 0), 64 * 1024),
    (0.0, (0, 0), (1, 2), 256),
    (0.0, (1, 0), (1, 3), 8 * 1024),
    (5e-6, (0, 1), (3, 1), 32 * 1024),
    (5e-6, (2, 3), (2, 0), 0),
    (5e-6, (2, 2), (2, 2), 8),
    (4e-5, (3, 2), (0, 2), 16 * 1024),
)


def _contended(tie_break, noise_until=None):
    """Run CONTENDED; with *noise_until*, also a chain of no-op events
    every 30 ns (under one hop) until then, so no worm is ever the next
    event and every hop goes through the heap and the settle.  Returns
    each message's delivery time, the link busy seconds and the number
    of events scheduled."""
    env = Environment(tie_break=tie_break)
    mesh = Mesh(env, 4, 4)
    messages = []

    def sender(at, msg):
        yield env.timeout(at)
        yield from mesh.send(msg)

    for at, src, dst, size in CONTENDED:
        msg = MeshMessage(src=src, dst=dst, size_bytes=size)
        messages.append(msg)
        env.process(sender(at, msg))

    if noise_until is not None:

        def noise():
            while env.now < noise_until:
                yield env.timeout(3e-8)

        env.process(noise())
    env.run()
    return [m.delivered_at for m in messages], mesh.link_busy_s(), env._eid


class TestRunAhead:
    """A worm that is provably the next event books its own grant and
    moves the clock through its hops in place; nothing it does may differ
    from the same hops taken through the heap and the settle."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_same_deliveries_and_busy_as_every_hop_through_the_heap(self, tie_break, monkeypatch):
        pops = [0]

        def counting(queue):
            pops[0] += 1
            return heapq.heappop(queue)

        monkeypatch.setattr(environment, "heappop", counting)
        delivered, busy, events = _contended(tie_break)
        plain_pops, pops[0] = pops[0], 0
        noisy_delivered, noisy_busy, noisy_events = _contended(tie_break, noise_until=1e-3)
        assert delivered == noisy_delivered
        assert busy == noisy_busy
        # The plain run skipped some pops; the noisy one skipped none.
        assert plain_pops < events
        assert pops[0] == noisy_events
        assert max(delivered) < 1e-3

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_event_at_a_grant_time_keeps_its_tie_order(self, tie_break):
        # The worm's second hop is due at 1.5, when an unrelated event is
        # queued too: the worm pops at 1.5 as its own event, ordered
        # against the other by the tie-break, so only under lifo has it
        # asked for link 1 when the other runs.
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        link1 = mesh._link(((1, 0), (2, 0)))
        seen = []

        def unrelated(_event):
            link0 = mesh._links[((0, 0), (1, 0))]
            seen.append((env.now, len(link0.users), len(link1.users), len(link1.queue)))

        env.timeout(1.5).callbacks.append(unrelated)
        msg = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)
        mesh.post(msg, env.event(), None)
        env.run()
        assert seen == [(1.5, 1, 0, 0 if tie_break == "fifo" else 1)]
        assert msg.delivered_at == 4.0
        assert mesh.link_busy_s() == ONE_WORM_BUSY

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_run_until_a_grant_time_stops_before_the_grant(self, tie_break):
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        mesh.post(MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200), env.event(), None)
        env.run(until=1.5)
        link0, link1 = (mesh._links[link] for link in sorted(mesh._links))
        assert env.now == 1.5
        assert (len(link0.users), len(link1.users), len(link1.queue)) == (1, 0, 0)
        assert env._dirty_arbiters == []

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("until,held", [(1.2, [1, 0, 0]), (1.7, [1, 1, 0]), (2.2, [1, 1, 1])])
    def test_run_until_between_hops(self, tie_break, until, held):
        # Three hops granted at 1.0, 1.5 and 2.0, delivery at 4.5.
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        msg = MeshMessage(src=(0, 0), dst=(3, 0), size_bytes=200)
        mesh.post(msg, env.event(), None)
        env.run(until=until)
        assert env.now == until
        links = [mesh._links[link] for link in sorted(mesh._links)]
        assert [len(link.users) for link in links] == held
        assert [link.granted_at for link, n in zip(links, held) if n] == [1.0, 1.5, 2.0][
            : sum(held)
        ]
        env.run()
        assert msg.delivered_at == 4.5
        assert mesh.link_busy_s() == {"0,0->1,0": 3.5, "1,0->2,0": 3.0, "2,0->3,0": 2.5}

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("later", [False, True])
    def test_run_until_the_delivery_proxy(self, tie_break, later):
        env = Environment(tie_break=tie_break)
        mesh = Mesh(env, 4, 1, params=ONE_WORM)
        if later:
            env.timeout(10.0)
        proxy = env.event()
        msg = MeshMessage(src=(0, 0), dst=(2, 0), size_bytes=200)
        mesh.post(msg, proxy, "delivered")
        assert env.run(until=proxy) == "delivered"
        assert env.now == msg.delivered_at == 4.0
        assert len(env) == (1 if later else 0)
        assert mesh.link_busy_s() == ONE_WORM_BUSY
        assert leaked_resources(env) == []
