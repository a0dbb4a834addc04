"""Synchronous packet buffers."""

import numpy as np
import pytest

from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.queues import PacketQueue
from repro.dataplane.traffic_manager import CognitiveTrafficManager
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


def test_timestamps_set_on_push_pop():
    queue = PacketQueue("q")
    packet = Packet()
    queue.push(packet, now=1.0)
    queue.pop(now=2.5)
    assert packet.sojourn_time == pytest.approx(1.5)


def test_pushed_packets_serve_like_admitted_rows():
    # A pushed packet is its own one-row segment; the credit path
    # (segments + serve) sees it exactly like rows the traffic manager
    # admitted.
    manager = CognitiveTrafficManager(1, n_priorities=1)
    queue = manager.queue(0, 0)
    first = Packet(size_bytes=100)
    queue.push(first, now=0.0)
    manager.enqueue_batch(0, [Packet(size_bytes=200),
                              Packet(size_bytes=300)], now=1.0)
    queue.push(Packet(size_bytes=400), now=2.0)
    segments = list(queue.segments())
    assert [nbytes for _, nbytes in segments] == [100, 500, 400]
    sizes = np.concatenate([sizes for sizes, _ in segments])
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
    def manager():
        return CognitiveTrafficManager(
            1, lambda: PCAMAQM(rng=np.random.default_rng(2)))

    managers = manager(), manager()
    runs, loop = (copy.queue_view(0) for copy in managers)
    rng = np.random.default_rng(4)
    for at in (0.0, 1.3e-3, 2.9e-3):
        batch = PacketBatch.of([
            Packet(size_bytes=int(size), priority=int(prio))
            for size, prio in zip(rng.integers(64, 1500, 7),
                                  [0, 1, 0, 0, 1, 1, 0])])
        for copy in managers:
            copy.enqueue_batch(0, batch, at)
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


def test_queued_sizes_cuts_one_segment_past_the_limit():
    # Five segments over two classes: a partially served batch segment,
    # a lone pushed packet, another batch; then a batch and a lone
    # packet in class 1.
    manager = CognitiveTrafficManager(
        1, lambda: PCAMAQM(rng=np.random.default_rng(0)))
    port = manager.queue_view(0)

    def rows(sizes, prio):
        manager.enqueue_batch(0, [Packet(size_bytes=size, priority=prio)
                                  for size in sizes], 0.0)

    rows([100, 200, 300], 0)
    port.push(Packet(size_bytes=400, priority=0), 0.0)
    rows([500, 600], 0)
    rows([700, 800], 1)
    port.push(Packet(size_bytes=900, priority=1), 0.0)
    port.serve_count(1, 1e-3)
    segments = [[200, 300], [400], [500, 600], [700, 800], [900]]

    def reference(limit):
        totals = np.cumsum([sum(segment) for segment in segments])
        reached = np.flatnonzero(totals >= limit)
        end = reached[0] + 2 if len(reached) else len(segments)
        return [size for segment in segments[:end] for size in segment]

    for limit in (0, 250, 500, 550, 700, 900, 2000, 2500, 3500, 4400,
                  1e4):
        assert port.queued_sizes(limit).tolist() == reference(limit), limit


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


def test_repr():
    assert "q" in repr(PacketQueue("q"))
