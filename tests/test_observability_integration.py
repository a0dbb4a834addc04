"""End-to-end observability: one hub wired through the whole pipeline."""

import numpy as np

from repro.crossbar.array import Crossbar
from repro.dataplane.parser import build_ethernet_frame, build_ipv4_packet
from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.observability import Observability
from repro.observability.export import lint_prometheus
from repro.observability.registry import MetricsRegistry
from repro.packet import Packet
from repro.robustness.degradation import DegradingAQM


def make_processor(observability, **kwargs):
    processor = AnalogPacketProcessor(
        n_ports=2, observability=observability, **kwargs)
    processor.add_route("10.0.0.0/8", port=0)
    processor.add_route("192.168.0.0/16", port=1)
    return processor


def make_packet(dst="10.2.2.2"):
    return Packet(fields={"src_ip": "10.1.1.1", "dst_ip": dst,
                          "protocol": 17, "src_port": 1000,
                          "dst_port": 80})


def run_traffic(processor):
    frame = build_ethernet_frame(build_ipv4_packet(
        "10.1.1.1", "10.9.9.9"))
    processor.process_frame(frame, now=0.0)
    # Build a backlog first: the pCAM AQM only searches under load.
    for index in range(4):
        processor.process(make_packet(), now=(index + 1) * 1e-4)
    processor.process_batch([make_packet() for _ in range(8)],
                            now=6e-4)
    processor.drain(0, now=7e-4)


class TestTracedPipeline:
    def test_every_stage_produces_spans(self):
        obs = Observability()
        run_traffic(make_processor(obs))
        names = {span.name for span in obs.tracer.finished}
        for expected in ("dataplane.parse", "dataplane.process",
                         "dataplane.firewall", "dataplane.ip_lookup",
                         "dataplane.process_batch",
                         "dataplane.digital_mats",
                         "tm.enqueue", "tm.aqm", "tm.queue",
                         "tm.dequeue", "pcam.evaluate_batch"):
            assert expected in names, f"missing span {expected!r}"
        assert any(name.startswith("pcam.stage.") for name in names)

    def test_pcam_stage_spans_nest_under_evaluate_batch(self):
        obs = Observability()
        run_traffic(make_processor(obs))
        parents = {span.span_id: span for span in obs.tracer.finished}
        stage_spans = [span for span in obs.tracer.finished
                       if span.name.startswith("pcam.stage.")]
        assert stage_spans
        for span in stage_spans:
            chain = []
            cursor = span
            while cursor.parent_id is not None:
                cursor = parents[cursor.parent_id]
                chain.append(cursor.name)
            assert "pcam.evaluate_batch" in chain or "tm.aqm" in chain

    def test_span_timestamps_follow_sim_clock(self):
        obs = Observability()
        processor = make_processor(obs)
        processor.process(make_packet(), now=42.0)
        spans = obs.tracer.spans("dataplane.process")
        assert spans and spans[0].start_s == 42.0

    def test_without_hub_no_spans_and_paths_still_work(self):
        processor = make_processor(None)
        assert processor.observability is None
        run_traffic(processor)  # inert hooks must not break anything
        assert processor.processed > 0


class TestUnifiedSnapshot:
    def test_one_snapshot_carries_all_sources(self):
        obs = Observability()
        processor = make_processor(
            obs, aqm_factory=lambda: DegradingAQM(PCAMAQM()))
        run_traffic(processor)
        snapshot = obs.snapshot()
        names = {entry["name"] for entry in snapshot["metrics"]}
        # Table hit/miss statistics.
        assert {"dataplane_table_lookups_total",
                "dataplane_table_hits_total",
                "dataplane_table_misses_total"} <= names
        # Energy-account totals.
        assert {"energy_account_joules_total",
                "energy_joules_total"} <= names
        # Degradation fallback/retry counters.
        assert {"degradation_fallback_total",
                "degradation_retries_total",
                "degradation_degraded"} <= names
        # Per-stage latency histograms (tracing + profiling).
        assert {"span_wall_seconds", "span_sim_seconds",
                "profiled_wall_seconds"} <= names

    def test_profiled_sites_cover_batch_kernels(self):
        obs = Observability()
        run_traffic(make_processor(obs))
        snapshot = obs.snapshot()
        (entry,) = [e for e in snapshot["metrics"]
                    if e["name"] == "profiled_wall_seconds"]
        sites = {sample["labels"]["site"] for sample in entry["samples"]}
        assert "pcam.evaluate_batch" in sites

    def test_table_counts_match_telemetry(self):
        obs = Observability()
        processor = make_processor(obs)
        run_traffic(processor)
        snapshot = obs.snapshot()
        (entry,) = [e for e in snapshot["metrics"]
                    if e["name"] == "dataplane_table_lookups_total"]
        by_table = {sample["labels"]["table"]: sample["value"]
                    for sample in entry["samples"]}
        assert by_table["firewall"] == \
            processor.telemetry.table("firewall").lookups
        assert by_table["ip_lookup"] == \
            processor.telemetry.table("ip_lookup").lookups

    def test_prometheus_export_lints_clean(self):
        obs = Observability()
        run_traffic(make_processor(
            obs, aqm_factory=lambda: DegradingAQM(PCAMAQM())))
        assert lint_prometheus(obs.to_prometheus()) == []


class TestCrossbarTracing:
    def test_matvec_batch_traced_and_profiled(self):
        obs = Observability()
        bar = Crossbar(4, 4)
        bar.tracer = obs.tracer
        bar.profiler = obs.profiler
        result = bar.matvec_batch(np.full((3, 4), 0.2))
        assert result.currents_a.shape == (3, 4)
        spans = obs.tracer.spans("crossbar.matvec_batch")
        assert len(spans) == 1
        assert spans[0].attributes == {"batch": 3, "rows": 4, "cols": 4}
        assert obs.profiler.site_histogram(
            "crossbar.matvec_batch").count == 1

    def test_untraced_matvec_batch_matches_traced(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        plain = Crossbar(4, 4, rng=rng_a)
        traced = Crossbar(4, 4, rng=rng_b)
        traced.tracer = Observability().tracer
        voltages = np.full((2, 4), 0.3)
        np.testing.assert_allclose(
            plain.matvec_batch(voltages).currents_a,
            traced.matvec_batch(voltages).currents_a)


class TestSharedRegistry:
    def test_external_registry_is_used(self):
        registry = MetricsRegistry()
        obs = Observability(registry=registry)
        run_traffic(make_processor(obs))
        assert len(registry) > 0
        assert obs.registry is registry
