"""Egress scheduling and the cognitive AQM hook."""

import numpy as np
import pytest

from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.netfunc.aqm.base import AQMAlgorithm
from repro.packet import Packet


class AlwaysDropAQM(AQMAlgorithm):
    name = "always-drop"

    def on_enqueue(self, packet, queue, now):
        return True


class DropAtDequeueAQM(AQMAlgorithm):
    name = "head-drop"

    def __init__(self):
        self.dropped = 0

    def on_dequeue(self, packet, queue, now, sojourn_s):
        if self.dropped == 0:
            self.dropped += 1
            return True
        return False


class TestTrafficManager:
    # No AQM factory: every port is plain tail drop.
    def test_strict_priority_scheduling(self):
        manager = CognitiveTrafficManager(n_ports=1, n_priorities=2)
        low = Packet(priority=1)
        high = Packet(priority=0)
        manager.enqueue(0, low)
        manager.enqueue(0, high)
        assert manager.dequeue(0) is high
        assert manager.dequeue(0) is low

    def test_priority_clamped_to_classes(self):
        manager = CognitiveTrafficManager(n_ports=1, n_priorities=2)
        manager.enqueue(0, Packet(priority=7))
        assert manager.backlog(0) == 1

    def test_overflow_counted(self):
        manager = CognitiveTrafficManager(n_ports=1, queue_capacity=1)
        manager.enqueue(0, Packet())
        assert not manager.enqueue(0, Packet())
        assert manager.stats[0].overflow_drops == 1

    def test_dequeue_empty_port(self):
        assert CognitiveTrafficManager(n_ports=1).dequeue(0) is None

    def test_port_bounds_checked(self):
        manager = CognitiveTrafficManager(n_ports=2)
        with pytest.raises(IndexError):
            manager.enqueue(5, Packet())
        with pytest.raises(IndexError):
            manager.dequeue(-1)
        with pytest.raises(IndexError):
            manager.queue(9, 0)
        with pytest.raises(IndexError):
            manager.queue(0, 2)

    @pytest.mark.parametrize("port", [-1, 2])
    @pytest.mark.parametrize("call", [
        lambda m, port: m.enqueue(port, Packet()),
        lambda m, port: m.enqueue_batch(port, [Packet()]),
        lambda m, port: m.dequeue(port),
        lambda m, port: m.serve(port, 100.0, 0.5),
        lambda m, port: m.aqm(port),
        lambda m, port: m.queue_view(port),
        lambda m, port: m.queue(port, 0),
        lambda m, port: m.backlog(port),
        lambda m, port: m.last_sojourn_s(port),
        lambda m, port: m.replays_dequeues(port),
        lambda m, port: m.occupancy({port: 100.0}),
        lambda m, port: m.heads({port: 100.0}),
        lambda m, port: m.serve_counts({port: 1}, 0.5),
    ], ids=["enqueue", "enqueue_batch", "dequeue", "serve", "aqm",
            "queue_view", "queue", "backlog", "last_sojourn_s",
            "replays_dequeues", "occupancy", "heads", "serve_counts"])
    def test_every_port_accessor_checks_range(self, call, port):
        # -1 must not wrap around to the last port: a 2-port manager
        # holding one packet on port 1 keeps it.
        manager = CognitiveTrafficManager(n_ports=2)
        manager.enqueue(1, Packet(size_bytes=100))
        with pytest.raises(IndexError):
            call(manager, port)
        assert manager.backlog(1) == 1
        assert manager.stats[1].dequeued == 0

    @pytest.mark.parametrize("ports, error", [
        (np.array([0, 0, 5]), IndexError),
        (np.array([0, -1, 1]), IndexError),
        (np.array([0, 1]), ValueError),
        (np.array([0]), ValueError),
    ], ids=["out_of_range", "negative", "too_short", "one_for_three"])
    def test_port_array_checked_before_any_state_changes(self, ports,
                                                         error):
        # The whole per-row port array is checked first: no AQM is
        # consulted and no row is queued or dropped before the error.
        judged = []

        class Recording(AQMAlgorithm):
            def on_enqueue_batch(self, packets, queue, now):
                judged.append(len(packets))
                return super().on_enqueue_batch(packets, queue, now)

        manager = CognitiveTrafficManager(n_ports=2, aqm_factory=Recording)
        manager.enqueue(1, Packet(size_bytes=100))
        judged.clear()
        stats = [vars(port_stats).copy() for port_stats in manager.stats]
        packets = [Packet() for _ in range(3)]
        with pytest.raises(error):
            manager.enqueue_batch(ports, packets)
        assert judged == []
        assert manager.backlogs() == [0, 1]
        assert [vars(port_stats) for port_stats in manager.stats] == stats
        assert not any(packet.dropped for packet in packets)

    def test_validation(self):
        with pytest.raises(ValueError):
            CognitiveTrafficManager(n_ports=0)
        with pytest.raises(ValueError):
            CognitiveTrafficManager(n_ports=1, n_priorities=0)


class TestCognitiveTrafficManager:
    def test_enqueue_aqm_drop(self):
        manager = CognitiveTrafficManager(1, AlwaysDropAQM)
        packet = Packet()
        assert not manager.enqueue(0, packet)
        assert packet.dropped
        assert manager.stats[0].aqm_drops == 1
        assert manager.backlog(0) == 0

    def test_dequeue_aqm_drop_skips_to_next(self):
        manager = CognitiveTrafficManager(1, DropAtDequeueAQM)
        first, second = Packet(), Packet()
        manager.enqueue(0, first, now=0.0)
        manager.enqueue(0, second, now=0.0)
        served = manager.dequeue(0, now=1.0)
        assert served is second
        assert first.dropped
        assert manager.stats[0].aqm_drops == 1

    def test_per_port_independent_aqms(self):
        manager = CognitiveTrafficManager(2, DropAtDequeueAQM)
        assert manager.aqm(0) is not manager.aqm(1)
        with pytest.raises(IndexError):
            manager.aqm(5)

    def test_last_sojourn_tracked(self):
        manager = CognitiveTrafficManager(1, DropAtDequeueAQM)
        manager.enqueue(0, Packet(), now=0.0)
        manager.enqueue(0, Packet(), now=0.0)
        manager.dequeue(0, now=0.25)
        assert manager.last_sojourn_s(0) == pytest.approx(0.25)

    def test_sojourn_visible_to_on_dequeue_including_head_drops(self):
        # Slice time: service is instantaneous, so a packet leaving the
        # head sets the port's last sojourn before its AQM judges it.
        seen = []

        class Peek(DropAtDequeueAQM):
            def on_dequeue(self, packet, queue, now, sojourn_s):
                seen.append((queue.last_sojourn_s, sojourn_s))
                return super().on_dequeue(packet, queue, now, sojourn_s)

        manager = CognitiveTrafficManager(1, Peek)
        manager.enqueue(0, Packet(), now=0.0)
        manager.enqueue(0, Packet(), now=0.5)
        manager.dequeue(0, now=1.0)
        assert seen == [(1.0, 1.0), (0.5, 0.5)]

    def test_port_rate_validated(self):
        with pytest.raises(ValueError):
            CognitiveTrafficManager(1, AlwaysDropAQM, port_rate_bps=0.0)
