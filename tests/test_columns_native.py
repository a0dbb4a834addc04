"""Columns end to end: the native batch path equals the Packet edge.

Two equivalences pin the columnar switch:

* **Columns vs Packet edge.**  A ``ChunkColumns`` chunk processed
  natively must leave a switch in exactly the state the same chunk's
  ``to_packets()`` materialisation does: verdict/port arrays,
  telemetry, energy ledger, queue contents (a queued row materialises
  into the packet the edge queued, INT trail included) and
  ``PortStats`` — under the pCAM AQM, a forced-degraded
  ``DegradingAQM`` (CoDel head drops) and tail drop, at admission
  chunk sizes 1, 7 and 256.
* **Drain.**  ``serve_ports(credits, budget, now)`` — one call per
  slice for every port — and its one-port case ``serve(port, credit,
  now)`` must match the per-packet reference loop bit for bit:
  carried negative credit, idle-port forfeit, strict priority across
  classes, AQM state, and on the fabric at N in {1, 2, 4}, its
  round-robin cursor — also for offers at the boundary where credit
  covers a port's whole backlog.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.switch import SwitchSpec, build_switch
from repro.fabric import SwitchFabric
from repro.netfunc.aqm.base import TailDropAQM
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.robustness.degradation import DegradingAQM
from repro.simnet.workloads import ChunkColumns

N_PORTS = 3
SPEC = SwitchSpec(
    n_ports=N_PORTS,
    routes=(("10.0.0.0/8", 0), ("192.168.0.0/16", 1),
            ("172.16.0.0/12", 2)),
    firewall_rules=(FirewallRule(action=Action.DENY,
                                 dst_prefix="203.0.113.0/24"),),
    port_rate_bps=2e6,
    queue_capacity=48,
    n_priorities=2)

#: Destinations: routed, denied, unrouted and the zero address.
DSTS = [0x0A010203, 0x0A010204, 0xC0A80707, 0xAC100005, 0xCB007109,
        0xC6336401, 0]
SRCS = [0x01020304, 0x05060708]


def make_aqm(kind: str, port: int):
    analog = PCAMAQM(rng=np.random.default_rng((11, port)))
    if kind == "pcam":
        return analog
    if kind == "degraded" or (kind == "mixed" and port == 1):
        degrading = DegradingAQM(analog, backoff_initial_s=1e6,
                                 backoff_max_s=1e6)
        degrading._trip()
        return degrading
    if kind == "mixed":
        return analog
    return TailDropAQM()


def make_switch(kind: str):
    ports = iter(range(N_PORTS))
    return build_switch(SPEC, aqm_factory=lambda: make_aqm(kind,
                                                           next(ports)))


@st.composite
def chunks(draw, max_rows=90):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    pick = lambda values: np.array(  # noqa: E731
        draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return ChunkColumns(
        times_s=np.linspace(0.0, 1e-3, n),
        sizes_bytes=pick([64, 200, 577, 1500]),
        flow_ids=np.arange(n),
        priorities=pick([0, 1, 2]),
        src_ip=pick(SRCS),
        dst_ip=pick(DSTS),
        src_port=pick([1024, 1025]),
        dst_port=pick([80, 443]),
        protocol=pick([6, 17]),
        has_dst=pick([True, True, True, False]))


def packet_view(packet) -> dict:
    return {"size": packet.size_bytes, "flow": packet.flow_id,
            "priority": packet.priority, "created": packet.created_at,
            "fields": packet.fields, "enqueued": packet.enqueued_at,
            "dequeued": packet.dequeued_at}


def state(switch, results) -> dict:
    manager = switch.traffic_manager
    queues = {}
    for port in range(N_PORTS):
        for prio in range(manager.n_priorities):
            queue = manager.queue(port, prio)
            queues[f"{port}.{prio}"] = (len(queue), queue.backlog_bytes)
    return {
        "codes": results.codes.tolist(),
        "ports": results.ports.tolist(),
        "telemetry": json.dumps(switch.telemetry.snapshot()),
        "ledger": switch.ledger.breakdown(),
        "counts": dict(switch.verdict_counts),
        "stats": [vars(s).copy() for s in manager.stats],
        "queues": queues,
        "cache": (switch.flow_cache.hits, switch.flow_cache.misses),
    }


def drained(switch, now: float) -> list:
    manager = switch.traffic_manager
    out = []
    for port in range(N_PORTS):
        while (packet := manager.dequeue(port, now)) is not None:
            out.append((port, packet_view(packet)))
    return out


@pytest.mark.parametrize("kind", ["pcam", "degraded", "taildrop"])
@pytest.mark.parametrize("chunk_size", [1, 7, 256])
@given(columns=chunks())
@settings(max_examples=15, deadline=None)
def test_columns_entry_equals_packet_edge(kind, chunk_size, columns):
    native, edge = make_switch(kind), make_switch(kind)
    got = native.process_batch(columns, now=0.5, chunk_size=chunk_size)
    want = edge.process_batch(columns.to_packets(), now=0.5,
                              chunk_size=chunk_size)
    assert state(native, got) == state(edge, want)
    # A queued row materialises into the packet the edge queued.
    assert drained(native, 0.75) == drained(edge, 0.75)
    assert state(native, got) == state(edge, want)


def test_zero_destination_reads_as_absent():
    columns = ChunkColumns(
        times_s=[0.0, 0.0], sizes_bytes=[100, 100], flow_ids=[1, 2],
        priorities=[0, 0], src_ip=[1, 1], dst_ip=[0, 0x0A010203],
        src_port=[1, 1], dst_port=[2, 2], protocol=[6, 6],
        has_dst=[True, True])
    results = make_switch("pcam").process_batch(columns)
    assert [r.verdict.value for r in results] == ["dropped_no_route",
                                                  "queued"]


@pytest.mark.parametrize("column, value, message", [
    ("sizes_bytes", 0, "size must be positive: 0"),
    ("priorities", -1, "priority must be >= 0: -1"),
])
def test_bad_rows_raise_the_packet_error(column, value, message):
    fields = dict(times_s=[0.0, 0.0], sizes_bytes=[100, 100],
                  flow_ids=[1, 2], priorities=[0, 0], src_ip=[1, 1],
                  dst_ip=[5, 5], src_port=[1, 1], dst_port=[2, 2],
                  protocol=[6, 6], has_dst=[True, True])
    fields[column] = [fields[column][0], value]
    columns = ChunkColumns(**fields)
    with pytest.raises(ValueError, match=message) as native:
        make_switch("pcam").process_batch(columns)
    with pytest.raises(ValueError) as edge:
        columns.to_packets()
    assert str(native.value) == str(edge.value)


# ----------------------------------------------------------------------
# Drain: serve() vs the per-packet reference loop
# ----------------------------------------------------------------------
def reference_serve(manager, port: int, credit: float,
                    now: float) -> float:
    while credit > 0.0:
        packet = manager.dequeue(port, now)
        if packet is None:
            return 0.0
        credit -= packet.size_bytes
    return credit


def aqm_state(aqm) -> tuple:
    analog = getattr(aqm, "analog", aqm)
    codel = getattr(aqm, "fallback", None)
    return (getattr(analog, "_delay_ewma", None),
            None if codel is None else vars(codel).copy())


def manager_state(manager) -> tuple:
    return ([vars(s).copy() for s in manager.stats],
            [manager.backlog(p) for p in range(manager.n_ports)],
            [manager.last_sojourn_s(p) for p in range(manager.n_ports)],
            [aqm_state(manager.aqm(p)) for p in range(manager.n_ports)])


#: (budget bytes, time step) per drain; fractional budgets exercise
#: the carried float credit.
drains = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=6000.0),
              st.floats(min_value=1e-4, max_value=0.08)),
    min_size=1, max_size=12)


@pytest.mark.parametrize("kind", ["pcam", "degraded", "taildrop"])
@given(columns=chunks(max_rows=120), schedule=drains)
@settings(max_examples=20, deadline=None)
def test_serve_matches_the_per_packet_loop(kind, columns, schedule):
    vector, scalar = make_switch(kind), make_switch(kind)
    vector.process_batch(columns, now=0.0, chunk_size=32)
    scalar.process_batch(columns, now=0.0, chunk_size=32)
    credits_v = [0.0] * N_PORTS
    credits_s = [0.0] * N_PORTS
    now = 0.0
    for budget, step in schedule:
        now += step
        for port in range(N_PORTS):
            credits_v[port] = vector.traffic_manager.serve(
                port, credits_v[port] + budget, now)
            credits_s[port] = reference_serve(
                scalar.traffic_manager, port, credits_s[port] + budget,
                now)
        assert credits_v == credits_s  # bit-identical floats
        assert manager_state(vector.traffic_manager) \
            == manager_state(scalar.traffic_manager)


def test_serve_keeps_strict_priority():
    switch = make_switch("taildrop")
    columns = ChunkColumns(
        times_s=[0.0] * 4, sizes_bytes=[100, 200, 300, 400],
        flow_ids=[1, 2, 3, 4], priorities=[1, 0, 1, 0],
        src_ip=[1] * 4, dst_ip=[0x0A010203] * 4, src_port=[1] * 4,
        dst_port=[2] * 4, protocol=[6] * 4, has_dst=[True] * 4)
    switch.process_batch(columns, now=0.0)
    manager = switch.traffic_manager
    # 250 B of credit serves the 200 B class-0 head, then the 400 B
    # one (credit still positive), and stops at -350 B.
    assert manager.serve(0, 250.0, now=1.0) == -350.0
    assert [manager.dequeue(0, 1.0).size_bytes for _ in range(2)] \
        == [100, 300]
    # An idle port forfeits whatever credit it is offered.
    assert manager.serve(0, 500.0, now=1.0) == 0.0


def fabric_traffic(n: int = 200) -> ChunkColumns:
    rng = np.random.default_rng(3)
    return ChunkColumns(
        times_s=np.zeros(n), sizes_bytes=rng.integers(64, 1500, n),
        flow_ids=np.arange(n), priorities=rng.integers(0, 2, n),
        src_ip=rng.integers(1, 2**31, n),
        dst_ip=rng.choice([0x0A010203, 0xC0A80707, 0xAC100005], n),
        src_port=rng.integers(1024, 1100, n), dst_port=np.full(n, 80),
        protocol=np.full(n, 6), has_dst=np.ones(n, dtype=bool))


def fabric_state(fabric) -> tuple:
    switches = [shard.processor for shard in fabric.shards]
    return ([switch.slice_extremes() for switch in switches],
            [switch.verdict_counts for switch in switches],
            list(fabric._dequeue_cursor))


# The ids name where the shards run: in the caller's process.
@pytest.mark.parametrize("n_shards", [1, 2, 4],
                         ids=lambda n: f"{n}-in_process")
def test_fabric_serve_matches_the_per_packet_loop(n_shards):
    def factory():
        return make_switch("pcam")

    with SwitchFabric(factory, n_shards) as vector, \
            SwitchFabric(factory, n_shards) as scalar:
        traffic = fabric_traffic()
        vector.process_batch(traffic, now=0.0, chunk_size=64)
        scalar.process_batch(traffic, now=0.0, chunk_size=64)
        credits_v = [0.0] * N_PORTS
        credits_s = [0.0] * N_PORTS
        now = 0.0
        for budget in (700.5, 1499.25, 0.0, 3000.0, 90.125, 1e6):
            now += 0.01
            for port in range(N_PORTS):
                credits_v[port] = vector.serve(
                    port, credits_v[port] + budget, now)
                credits_s[port] = reference_serve(
                    scalar, port, credits_s[port] + budget, now)
            assert credits_v == credits_s
            assert fabric_state(vector) == fabric_state(scalar)


@pytest.mark.parametrize("kind", ["pcam", "degraded", "mixed",
                                  "taildrop"])
@given(columns=chunks(max_rows=120), schedule=drains)
@settings(max_examples=20, deadline=None)
def test_serve_ports_matches_the_per_packet_loop(kind, columns,
                                                 schedule):
    vector, scalar = make_switch(kind), make_switch(kind)
    vector.process_batch(columns, now=0.0, chunk_size=32)
    scalar.process_batch(columns, now=0.0, chunk_size=32)
    credits_v = [0.0] * N_PORTS
    credits_s = [0.0] * N_PORTS
    now = 0.0
    for budget, step in schedule:
        now += step
        credits_v = vector.traffic_manager.serve_ports(credits_v, budget,
                                                       now)
        credits_s = [reference_serve(scalar.traffic_manager, port,
                                     credit + budget, now)
                     for port, credit in enumerate(credits_s)]
        assert credits_v == credits_s  # bit-identical floats
        assert manager_state(vector.traffic_manager) \
            == manager_state(scalar.traffic_manager)


def test_serve_ports_needs_one_credit_per_port():
    switch = make_switch("taildrop")
    with pytest.raises(ValueError, match="one credit per port"):
        switch.traffic_manager.serve_ports([0.0], 100.0, 1.0)


@pytest.mark.parametrize("kind", ["pcam", "degraded", "mixed"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_fabric_serve_ports_matches_the_per_packet_loop(n_shards, kind):
    # "mixed": port 1 is degraded on every other shard only.
    def factory():
        kinds = iter([kind, "pcam"] * n_shards)
        return lambda: make_switch(next(kinds))

    with SwitchFabric(factory(), n_shards) as vector, \
            SwitchFabric(factory(), n_shards) as scalar:
        traffic = fabric_traffic()
        vector.process_batch(traffic, now=0.0, chunk_size=64)
        scalar.process_batch(traffic, now=0.0, chunk_size=64)
        credits_v = [0.0] * N_PORTS
        credits_s = [0.0] * N_PORTS
        now = 0.0
        for budget in (700.5, 1499.25, 0.0, 3000.0, 90.125, 1e6, 5.0):
            now += 0.01
            credits_v = vector.serve_ports(credits_v, budget, now)
            credits_s = [reference_serve(scalar, port, credit + budget,
                                         now)
                         for port, credit in enumerate(credits_s)]
            assert credits_v == credits_s
            assert fabric_state(vector) == fabric_state(scalar)


# ----------------------------------------------------------------------
# Drain: the covered criterion at its boundary
# ----------------------------------------------------------------------
#: Packets queued per (source, port) before each drain: uneven counts
#: with a tie on the maximum (on one source the tie is the whole port).
LOADS = {
    1: ([[5, 3, 4]], [[2, 6, 1]]),
    2: ([[3, 5, 4], [5, 2, 4]], [[1, 4, 3], [2, 4, 0]]),
    4: ([[2, 5, 1], [5, 0, 3], [1, 5, 3], [5, 2, 0]],
        [[3, 1, 2], [0, 3, 2], [3, 2, 0], [1, 3, 2]]),
}


def load_sources(managers, counts, now, seed):
    """Queue ``counts[source][port]`` rows straight on every copy of
    each source, in two admissions (two segments, mixed classes)."""
    rng = np.random.default_rng(seed)
    for index, per_port in enumerate(counts):
        for port, count in enumerate(per_port):
            for part, at in ((count // 2, now), (count - count // 2,
                                                 now + 1e-3)):
                columns = ChunkColumns(
                    times_s=np.zeros(part),
                    sizes_bytes=rng.integers(64, 1500, part),
                    flow_ids=np.arange(part), priorities=rng.integers(
                        0, 2, part),
                    src_ip=np.ones(part, dtype=np.int64),
                    dst_ip=np.full(part, DSTS[0]),
                    src_port=np.ones(part, dtype=np.int64),
                    dst_port=np.full(part, 80), protocol=np.full(part, 6),
                    has_dst=np.ones(part, dtype=bool))
                for copy in managers:
                    copy[index].enqueue_batch(port, columns, at)
    for copy in managers:
        assert [[manager.backlog(port) for port in range(N_PORTS)]
                for manager in copy] == counts


def backlog_bytes(managers, port) -> int:
    return sum(manager.queue_view(port).backlog_bytes
               for manager in managers)


@pytest.mark.parametrize("case", ["equal", "half_over", "carried"])
@pytest.mark.parametrize("n_shards", [1, 2, 4],
                         ids=["switch", "2-shard", "4-shard"])
def test_covered_boundary_matches_the_per_packet_loop(n_shards, case):
    # Offers at the covered boundary (credit == backlog bytes, just
    # over it, and a fractional carried credit topped up past it), then
    # a refill served partially: the cursor a whole-backlog serve left
    # must feed the next round robin exactly as the per-packet loop's.
    if n_shards == 1:
        vector, scalar = make_switch("pcam"), make_switch("pcam")
        sources = [[vector.traffic_manager], [scalar.traffic_manager]]

        def state(switch):
            return manager_state(switch.traffic_manager)
    else:
        vector = SwitchFabric(lambda: make_switch("pcam"), n_shards)
        scalar = SwitchFabric(lambda: make_switch("pcam"), n_shards)
        sources = [[shard.processor.traffic_manager
                    for shard in fabric.shards]
                   for fabric in (vector, scalar)]

        def state(fabric):
            return (fabric_state(fabric),
                    [manager_state(shard.processor.traffic_manager)
                     for shard in fabric.shards])
    serve_ports = getattr(vector, "traffic_manager", vector).serve_ports
    reference = getattr(scalar, "traffic_manager", scalar)
    first, refill = LOADS[n_shards]

    def drain(credits, budget, now):
        got = serve_ports(credits, budget, now)
        want = [reference_serve(reference, port, credit + budget, now)
                for port, credit in enumerate(credits)]
        assert got == want  # bit-identical floats
        assert state(vector) == state(scalar)
        return got

    load_sources(sources, first, 0.0, seed=5)
    credits = [0.0] * N_PORTS
    if case == "carried":
        # A fractional partial serve leaves a fractional overdraft.
        credits = drain(credits, 1300.375, 0.01)
        assert all(credit < 0.0 and credit % 1.0 for credit in credits)
    backlogs = [backlog_bytes(sources[0], port) for port in range(N_PORTS)]
    offers = {"equal": [float(b) for b in backlogs],
              "half_over": [b + 0.5 for b in backlogs],
              "carried": [credit + (b - credit + 0.625)
                          for credit, b in zip(credits, backlogs)]}[case]
    credits = drain(offers, 0.0, 0.02)
    assert credits == [0.0] * N_PORTS
    assert all(manager.backlog(port) == 0 for manager in sources[0]
               for port in range(N_PORTS))
    load_sources(sources, refill, 0.03, seed=6)
    credits = drain(credits, 700.25, 0.04)
    drain(credits, 1e6, 0.05)
