"""Transactional fabric programming: no chunk spans two generations.

The controller's two-phase commit promises that a chunk classified
concurrently with a reprogramming observes the old configuration on
every shard or the new configuration on every shard — never a mix.
These tests drive probe flows whose verdict differs across the
generations (a route that only exists after the commit) and assert
chunk-level purity under a concurrent commit storm.
"""

import threading

import pytest

from repro.dataplane.results import Verdict
from repro.dataplane.switch import SwitchSpec, build_switch
from repro.fabric import SwitchFabric
from repro.netfunc.aqm.base import TailDropAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.packet import Packet

#: Probe destinations chosen to spread across shards (distinct
#: 5-tuples) while all riding the same route prefix.
PROBE_DSTS = [f"198.51.100.{host}" for host in range(1, 33)]


def build_shard():
    spec = SwitchSpec(n_ports=2, routes=(("10.0.0.0/8", 0),),
                      flow_cache_size=0)
    return build_switch(spec)


def build_tail_drop_shard():
    """A shard whose port AQMs cannot be retargeted."""
    spec = SwitchSpec(n_ports=2, routes=(("10.0.0.0/8", 0),),
                      flow_cache_size=0)
    return build_switch(spec, aqm_factory=TailDropAQM)


def probe_chunk(now: float) -> list[Packet]:
    return [Packet(size_bytes=200, created_at=now,
                   fields={"src_ip": f"10.9.{i}.1", "src_port": 1000 + i,
                           "dst_ip": dst, "dst_port": 80,
                           "protocol": 6})
            for i, dst in enumerate(PROBE_DSTS)]


def chunk_verdicts(results) -> set:
    return {r.verdict for r in results}


def test_staged_ops_are_invisible_until_commit():
    with SwitchFabric(build_shard, 2) as fabric:
        fabric.controller.add_route("198.51.100.0/24", 1)
        # Staged locally: nothing pushed, nothing visible.
        results = fabric.process_batch(probe_chunk(0.0), now=0.0)
        assert chunk_verdicts(results) == {Verdict.DROPPED_NO_ROUTE}
        assert fabric.generation == 0

        generation = fabric.controller.commit()
        assert generation == 1
        results = fabric.process_batch(probe_chunk(0.0), now=0.0)
        assert chunk_verdicts(results) == {Verdict.QUEUED}


def test_abort_discards_staged_ops():
    with SwitchFabric(build_shard, 2) as fabric:
        fabric.controller.add_route("198.51.100.0/24", 1)
        assert fabric.controller.abort() == 1
        assert fabric.controller.commit() == 1  # empty barrier commit
        results = fabric.process_batch(probe_chunk(0.0), now=0.0)
        assert chunk_verdicts(results) == {Verdict.DROPPED_NO_ROUTE}


def test_empty_commit_is_a_generation_barrier():
    with SwitchFabric(build_shard, 2) as fabric:
        assert fabric.controller.commit() == 1
        assert fabric.controller.commit() == 2
        assert fabric.generation == 2


# The id names where the shards run: in the caller's process.
@pytest.mark.parametrize("n_shards", [4], ids=["in_process"])
def test_no_chunk_observes_mixed_generations(n_shards):
    """Commit storm against a chunk stream: every chunk is pure.

    Before the commit the probe flows all drop (no route); after it
    they all queue.  A chunk that mixes QUEUED with DROPPED_NO_ROUTE
    would prove one shard flipped mid-chunk.
    """
    with SwitchFabric(build_shard, n_shards) as fabric:
        stop = threading.Event()
        impure = []
        chunks_seen = [0]

        def traffic():
            while not stop.is_set():
                results = fabric.process_batch(probe_chunk(0.0),
                                               now=0.0)
                verdicts = chunk_verdicts(results)
                chunks_seen[0] += 1
                if len(verdicts) != 1:
                    impure.append(verdicts)

        worker = threading.Thread(target=traffic)
        worker.start()
        try:
            # Several commits while the chunk stream is running: the
            # route flip changes every probe's verdict.
            for _ in range(3):
                fabric.controller.add_route("198.51.100.0/24", 1)
                fabric.controller.commit()
                fabric.controller.invalidate_flow_caches()
                fabric.controller.commit()
        finally:
            stop.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert chunks_seen[0] > 0
        assert impure == [], \
            f"chunks spanned two generations: {impure[:3]}"
        assert fabric.generation == 6


def test_commit_applies_to_every_shard():
    with SwitchFabric(build_shard, 4) as fabric:
        fabric.controller.add_route("198.51.100.0/24", 1)
        fabric.controller.commit()
        # Every probe queues regardless of which shard it steered to.
        results = fabric.process_batch(probe_chunk(0.0), now=0.0)
        assert chunk_verdicts(results) == {Verdict.QUEUED}
        ports = {r.port for r in results}
        assert ports == {1}


def test_retarget_reaches_all_shard_aqms():
    with SwitchFabric(build_shard, 2) as fabric:
        fabric.controller.retarget(0.004)
        fabric.controller.commit()
        for shard in fabric.shards:
            manager = shard.processor.traffic_manager
            for port in range(manager.n_ports):
                aqm = manager.aqm(port)
                analog = getattr(aqm, "analog", aqm)
                assert analog.target_delay_s == pytest.approx(0.004)


def test_unknown_op_rejected_at_stage_time():
    with SwitchFabric(build_shard, 2) as fabric:
        fabric.controller.stage("format_tables")
        with pytest.raises(ValueError):
            fabric.controller.commit()


def shard_routes(fabric) -> list[int]:
    return [len(shard.processor.lookup) for shard in fabric.shards]


@pytest.mark.parametrize("bad_op, error, shard_factory", [
    (("add_route", "203.0.113.0/24", 7), IndexError, build_shard),
    (("retarget", -0.01), ValueError, build_shard),
    (("retarget", 0.01, 0.02), ValueError, build_shard),
    (("add_route", "203.0.113.0/99", 1), ValueError, build_shard),
    (("add_firewall_rule", FirewallRule(Action.DENY, dst_port=70000)),
     ValueError, build_shard),
    # Valid arguments, but the shards' AQMs cannot retarget.
    (("retarget", 0.005), TypeError, build_tail_drop_shard),
], ids=["port_out_of_range", "negative_target", "wide_deviation",
        "bad_prefix", "bad_rule", "retarget_unsupported"])
def test_refused_commit_changes_no_shard(bad_op, error, shard_factory):
    """A valid op followed by a failing one: the commit is refused
    whole, before any shard applies anything."""
    with SwitchFabric(shard_factory, 2) as fabric:
        before = shard_programmings(fabric)
        fabric.controller.add_route("198.51.100.0/24", 1)
        fabric.controller.stage(*bad_op)
        with pytest.raises(error):
            fabric.controller.commit()
        assert fabric.generation == 0
        assert shard_routes(fabric) == [1, 1]
        assert shard_programmings(fabric) == before
        results = fabric.process_batch(probe_chunk(0.0), now=0.0)
        assert chunk_verdicts(results) == {Verdict.DROPPED_NO_ROUTE}
        # The refused ops are discarded: the next commit is clean.
        assert fabric.controller.staged == ()
        assert fabric.controller.commit() == 1


# ----------------------------------------------------------------------
# Learned commits (an SPSA sweep drives the same primitive)
# ----------------------------------------------------------------------
def shard_programmings(fabric) -> set:
    programmings = set()
    for shard in fabric.shards:
        manager = shard.processor.traffic_manager
        for port in range(manager.n_ports):
            analog = getattr(manager.aqm(port), "analog",
                             manager.aqm(port))
            programmings.add((getattr(analog, "target_delay_s", None),
                              getattr(analog, "max_deviation_s", None)))
    return programmings


def test_learned_commit_storm_keeps_chunks_and_programmings_pure():
    """A learning sweep's retargets ride the same two-phase commit.

    While a traffic thread streams probe chunks, the main thread runs
    an :class:`SPSAPolicy` sweep and commits every candidate it
    deploys as one staged ``retarget`` on the fabric controller.  No
    chunk may mix verdicts across a commit, and after every single
    commit the fabric must be programming-uniform — a shard still
    running the previous candidate would be a torn commit.
    """
    import time

    import numpy as np

    from repro.control.learning import SPSAPolicy

    # Delay far above the envelope: every decision is an episode, so
    # every decision deploys a candidate.
    congested = {"packets": 1000, "drops": 0, "drop_rate": 0.0,
                 "delay_s": 0.100}

    with SwitchFabric(build_shard, 4) as fabric:
        fabric.controller.add_route("198.51.100.0/24", 1)
        fabric.controller.commit()

        stop = threading.Event()
        impure = []
        chunks_sent = [0]

        def traffic():
            # Bounded stream: backlog must stay below any learnable
            # AQM band, so admission verdicts remain deterministic
            # (probabilistic AQM drops would fake impurity).
            while not stop.is_set() and chunks_sent[0] < 150:
                results = fabric.process_batch(probe_chunk(0.0)[:16],
                                               now=0.0)
                chunks_sent[0] += 1
                verdicts = chunk_verdicts(results)
                if len(verdicts) != 1:
                    impure.append(verdicts)
                time.sleep(0.001)

        policy = SPSAPolicy(0, np.log([0.120, 0.5]))
        commits = 0
        deployed = None
        worker = threading.Thread(target=traffic)
        worker.start()
        try:
            for tick in range(20):
                for action in policy.decide(0.05 * tick, congested):
                    fabric.controller.retarget(*action.args).commit()
                    commits += 1
                    deployed = action.args
                    # After each commit every shard runs one
                    # programming.
                    assert len(shard_programmings(fabric)) == 1
                time.sleep(0.002)
        finally:
            stop.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert chunks_sent[0] > 0
        assert impure == [], \
            f"chunks spanned two generations: {impure[:3]}"
        assert commits >= 5
        # One generation per commit, plus the route commit up front.
        assert fabric.generation == 1 + commits
        assert shard_programmings(fabric) == {deployed}
