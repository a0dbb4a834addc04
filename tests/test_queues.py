"""Synchronous packet buffers."""

import numpy as np
import pytest

from repro.dataplane.fastpath import PacketBatch
from repro.dataplane.queues import PacketQueue
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
    assert queue.serve(3, now=4.0).tolist() == [4.0, 3.0, 3.0]
    assert first.dequeued_at == 4.0
    assert len(queue) == 1 and queue.backlog_bytes == 400
    assert queue.pop(now=5.0).sojourn_time == pytest.approx(3.0)
    assert queue.backlog_bytes == 0


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
