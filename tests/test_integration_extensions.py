"""Integration tests across the extension subsystems."""

import numpy as np

from repro.acam import ACAMClassifier, classifier_spec_from_tree
from repro.core.dsl import parse_table
from repro.dataplane.pipeline import AnalogPacketProcessor, Verdict
from repro.netfunc.decision_tree import CARTTree
from repro.netfunc.load_balancer import Backend, PCAMLoadBalancer
from repro.packet import Packet


class TestClassifierDrivenLoadBalancing:
    """An aCAM-compiled tree steers flows to per-class backends."""

    def test_tree_class_selects_backend_pool(self, rng):
        interactive = rng.normal([0.3, 0.3], 0.05, size=(100, 2))
        bulk = rng.normal([1.2, 1.6], 0.1, size=(100, 2))
        features = np.vstack([interactive, bulk])
        labels = np.array([0] * 100 + [1] * 100)
        tree = CARTTree(max_depth=3).fit(features, labels)
        classifier = ACAMClassifier(
            classifier_spec_from_tree(tree, ("size", "rate")))

        balancers = {
            0: PCAMLoadBalancer([Backend("fast-a"), Backend("fast-b")],
                                rng=np.random.default_rng(1)),
            1: PCAMLoadBalancer([Backend("bulk-a"), Backend("bulk-b")],
                                rng=np.random.default_rng(2)),
        }
        assignments = {0: 0, 1: 0}
        for klass in classifier.predict_batch(features[::4]).tolist():
            balancers[klass].pick()
            assignments[klass] += 1
        assert assignments[0] > 0 and assignments[1] > 0
        # Both pools served traffic for their class only.
        assert sum(b.served for b in balancers[0].backends) == \
            assignments[0]
        assert sum(b.served for b in balancers[1].backends) == \
            assignments[1]


class TestDslDrivenPipelineAQM:
    """A text-programmed AQM installed into the Figure 5 switch."""

    def test_parsed_pipeline_runs_in_processor(self):
        text = """table analogAQM { output { pipeline {
            pCAM(sojourn_time: 0.00001, 0.0001, 0.16, 0.19) } } }"""
        table = parse_table(text)

        from repro.netfunc.aqm.base import AQMAlgorithm

        class TableAQM(AQMAlgorithm):
            name = "dsl-aqm"

            def __init__(self) -> None:
                self._rng = np.random.default_rng(0)

            def on_enqueue(self, packet, queue, now):
                if queue.backlog_packets <= 2:
                    return False
                delay = (8.0 * queue.backlog_bytes
                         / queue.service_rate_bps)
                output = table.process(
                    {"sojourn_time": min(delay, 0.16)}).output
                return bool(self._rng.random() < output)

        processor = AnalogPacketProcessor(
            n_ports=1, aqm_factory=TableAQM, port_rate_bps=1e5)
        processor.add_route("10.0.0.0/8", port=0)
        drops = 0
        for index in range(300):
            packet = Packet(fields={"src_ip": "10.0.0.1",
                                    "dst_ip": "10.0.0.2",
                                    "protocol": 17})
            result = processor.process(packet, now=index * 1e-4)
            drops += result.verdict is Verdict.DROPPED_AQM
        assert drops > 0
        # Telemetry saw the drops too.
        assert processor.telemetry.event_count("aqm_drop") == drops
