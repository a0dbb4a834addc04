"""Synchronous packet buffers."""

import numpy as np
import pytest

from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.queues import PacketQueue, PortQueue
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.packet import Packet


def test_fifo_order():
    queue = PacketQueue("q")
    first, second = Packet(), Packet()
    queue.push(first)
    queue.push(second)
    assert queue.pop() is first
    assert queue.pop() is second


def test_byte_accounting():
    queue = PacketQueue("q")
    queue.push(Packet(size_bytes=100))
    queue.push(Packet(size_bytes=250))
    assert queue.backlog_bytes == 350
    queue.pop()
    assert queue.backlog_bytes == 250


def test_packet_capacity_overflow():
    queue = PacketQueue("q", capacity_packets=2)
    assert queue.push(Packet())
    assert queue.push(Packet())
    overflow = Packet()
    assert not queue.push(overflow)
    assert overflow.dropped
    assert queue.dropped == 1


def test_byte_capacity_overflow():
    queue = PacketQueue("q", capacity_packets=100, capacity_bytes=1000)
    assert queue.push(Packet(size_bytes=900))
    assert queue.push(Packet(size_bytes=200))  # crosses after admit
    assert queue.is_full
    assert not queue.push(Packet(size_bytes=10))


def test_timestamps_set_on_push_pop():
    queue = PacketQueue("q")
    packet = Packet()
    queue.push(packet, now=1.0)
    queue.pop(now=2.5)
    assert packet.sojourn_time == pytest.approx(1.5)


def test_pushed_packets_serve_like_admitted_rows():
    # A pushed packet is its own one-row segment; the credit path
    # (segment_sizes + serve) sees it exactly like admitted rows.
    queue = PacketQueue("q")
    first = Packet(size_bytes=100)
    queue.push(first, now=0.0)
    batch = PacketBatch.of([Packet(size_bytes=200), Packet(size_bytes=300)])
    queue.push_rows(batch, np.arange(2), now=1.0)
    queue.push(Packet(size_bytes=400), now=2.0)
    sizes = np.concatenate(list(queue.segment_sizes()))
    assert sizes.tolist() == [100, 200, 300, 400]
    # One (sojourn, rows) run per segment served.
    assert queue.serve(3, now=4.0) == [(4.0, 1), (3.0, 2)]
    assert first.dequeued_at == 4.0
    assert len(queue) == 1 and queue.backlog_bytes == 400
    assert queue.pop(now=5.0).sojourn_time == pytest.approx(3.0)
    assert queue.backlog_bytes == 0


def test_run_replay_equals_the_per_packet_pop_loop():
    # Three admissions spread over both classes: each class queue holds
    # several segments.  The first serve stops inside the class-0 head
    # segment; the second resumes there and crosses into class 1.
    def port():
        return PortQueue("p", PCAMAQM(rng=np.random.default_rng(2)),
                         n_classes=2)

    runs, loop = port(), port()
    rng = np.random.default_rng(4)
    for at in (0.0, 1.3e-3, 2.9e-3):
        batch = PacketBatch.of([
            Packet(size_bytes=int(size), priority=int(prio))
            for size, prio in zip(rng.integers(64, 1500, 7),
                                  [0, 1, 0, 0, 1, 1, 0])])
        for queue in (runs, loop):
            queue.push_rows(batch, np.arange(len(batch)), at)
    assert [len(queue._segments) for queue in runs.classes] == [3, 3]
    for count, now in ((2, 0.0101), (15, 0.0207)):
        runs.serve_count(count, now)
        for _ in range(count):
            assert loop.pop(now)[0] is not None
        assert runs.aqm.delay_ewma_s == loop.aqm.delay_ewma_s
        assert runs.last_sojourn_s == loop.last_sojourn_s
        assert runs.stats.dequeued == loop.stats.dequeued
    assert runs.backlog_packets == loop.backlog_packets == 4
    assert runs.backlog_bytes == loop.backlog_bytes


def test_pop_empty_returns_none():
    assert PacketQueue("q").pop() is None


def test_peek_does_not_remove():
    queue = PacketQueue("q")
    packet = Packet()
    queue.push(packet)
    assert queue.peek() is packet
    assert len(queue) == 1
    assert PacketQueue("empty").peek() is None


def test_counters():
    queue = PacketQueue("q", capacity_packets=1)
    queue.push(Packet())
    queue.push(Packet())
    assert queue.enqueued == 1
    assert queue.dropped == 1


def test_validation():
    with pytest.raises(ValueError):
        PacketQueue("q", capacity_packets=0)
    with pytest.raises(ValueError):
        PacketQueue("q", capacity_bytes=0)


def test_repr():
    assert "q" in repr(PacketQueue("q"))
