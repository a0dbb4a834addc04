"""Middleware ordering and idempotence on the staged runtime.

The stock middleware are designed to be order independent: tracing is
the only one opening spans, energy attribution only reads ledger
totals.  These tests register them in every permutation and require
identical verdicts, span nesting, telemetry totals and ledger totals
(stages write telemetry straight into the switch's collector, so
every order must leave the same counts there).
"""

import itertools

import numpy as np
import pytest

from repro.dataplane.pipeline import AnalogPacketProcessor, Verdict
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.observability import Observability
from repro.packet import Packet
from repro.runtime import (
    EnergyAttributionMiddleware,
    SupervisionMiddleware,
    TracingMiddleware,
)

PERMUTATIONS = list(itertools.permutations(["tracing", "energy"]))


def build_processor():
    obs = Observability()
    processor = AnalogPacketProcessor(
        n_ports=2,
        aqm_factory=lambda: PCAMAQM(rng=np.random.default_rng(11)),
        observability=obs)
    processor.add_firewall_rule(FirewallRule(
        action=Action.DENY, dst_prefix="203.0.113.0/24"))
    processor.add_route("10.0.0.0/8", 0)
    processor.add_route("192.168.0.0/16", 1)
    return processor, obs


def middleware_for(processor, obs, order):
    built = {
        "tracing": TracingMiddleware(obs.tracer),
        "energy": EnergyAttributionMiddleware(processor.ledger),
    }
    return [built[name] for name in order]


def make_traffic(n=60, seed=3):
    rng = np.random.default_rng(seed)
    dsts = ["10.1.2.3", "192.168.7.7", "203.0.113.9", "8.8.8.8"]
    return [Packet(size_bytes=int(rng.integers(64, 1500)),
                   fields={"src_ip": "1.2.3.4",
                           "dst_ip": dsts[int(rng.integers(len(dsts)))],
                           "src_port": 1000, "dst_port": 80,
                           "protocol": 6})
            for _ in range(n)]


def span_shape(obs):
    """Span nesting as comparable (name, parent-name) pairs in order."""
    by_id = {span.span_id: span for span in obs.tracer.finished}
    return [(span.name,
             by_id[span.parent_id].name
             if span.parent_id in by_id else None)
            for span in obs.tracer.finished]


def run_with_order(order):
    processor, obs = build_processor()
    processor.use_middleware(middleware_for(processor, obs, order))
    results = processor.process_batch(make_traffic(), now=0.25,
                                      chunk_size=16)
    results += [processor.process(packet, now=0.5)
                for packet in make_traffic(n=5, seed=9)]
    return {
        "verdicts": [r.verdict for r in results],
        "ports": [r.port for r in results],
        "telemetry": processor.telemetry.snapshot(),
        "ledger_total": processor.ledger.total,
        "ledger_accounts": processor.energy_breakdown(),
        "spans": span_shape(obs),
        "by_stage": processor.energy_by_stage(),
    }


class TestOrderingIndependence:
    def test_all_permutations_equivalent(self):
        reference = run_with_order(PERMUTATIONS[0])
        assert reference["spans"], "tracing produced no spans"
        assert reference["by_stage"], "no energy attributed to stages"
        assert reference["telemetry"]["tables"], "no telemetry recorded"
        for order in PERMUTATIONS[1:]:
            observed = run_with_order(order)
            for field in reference:
                assert observed[field] == reference[field], \
                    f"middleware order {order} changed {field!r}"

    def test_matches_default_assembly(self):
        # The default middleware set is one of the permutations, so
        # an untouched processor must agree with the permuted ones.
        processor, obs = build_processor()
        results = processor.process_batch(make_traffic(), now=0.25,
                                          chunk_size=16)
        results += [processor.process(packet, now=0.5)
                    for packet in make_traffic(n=5, seed=9)]
        reference = run_with_order(PERMUTATIONS[0])
        assert [r.verdict for r in results] == reference["verdicts"]
        assert processor.telemetry.snapshot() == reference["telemetry"]
        assert processor.ledger.total == reference["ledger_total"]
        assert span_shape(obs) == reference["spans"]

    def test_energy_attribution_reads_do_not_charge(self):
        # Attribution must be observational: totals with and without
        # the middleware are identical.
        with_mw = run_with_order(PERMUTATIONS[0])["ledger_total"]
        processor, obs = build_processor()
        processor.use_middleware(middleware_for(
            processor, obs, ["tracing"]))
        processor.process_batch(make_traffic(), now=0.25,
                                chunk_size=16)
        for packet in make_traffic(n=5, seed=9):
            processor.process(packet, now=0.5)
        assert processor.ledger.total == with_mw


class TestRegistrationIdempotence:
    def test_reassembling_same_set_changes_nothing(self):
        processor, obs = build_processor()
        middleware = middleware_for(processor, obs,
                                    ["tracing", "energy"])
        processor.use_middleware(middleware)
        processor.use_middleware(middleware)  # re-register: no-op
        results = processor.process_batch(make_traffic(), now=0.25,
                                          chunk_size=16)
        results += [processor.process(packet, now=0.5)
                    for packet in make_traffic(n=5, seed=9)]
        reference = run_with_order(("tracing", "energy"))
        assert [r.verdict for r in results] == reference["verdicts"]
        assert processor.telemetry.snapshot() == \
            reference["telemetry"]


class TestSupervisionMiddleware:
    def test_supervisor_called_once_per_chunk(self):
        ticks = []
        processor, obs = build_processor()
        processor.use_middleware(
            processor.default_middleware()
            + [SupervisionMiddleware(ticks.append)])
        processor.process_batch(make_traffic(n=40), now=0.5,
                                chunk_size=16)  # 3 chunks
        processor.process(make_traffic(n=1)[0], now=0.75)
        assert ticks == [0.5, 0.5, 0.5, 0.75]

    def test_verdicts_unchanged_by_supervision(self):
        reference = run_with_order(PERMUTATIONS[0])
        processor, obs = build_processor()
        processor.use_middleware(
            processor.default_middleware()
            + [SupervisionMiddleware(lambda now: None)])
        results = processor.process_batch(make_traffic(), now=0.25,
                                          chunk_size=16)
        assert [r.verdict for r in results] == \
            reference["verdicts"][:len(results)]
