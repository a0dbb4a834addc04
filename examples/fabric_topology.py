#!/usr/bin/env python3
"""A topology of sharded cognitive switches, end to end.

Stands up a two-hop path where each hop is a whole
:class:`~repro.fabric.fabric.SwitchFabric` — N complete memristor
switches behind a symmetric Toeplitz RSS front end — then:

1. reprograms the ingress fabric transactionally (two-phase commit:
   every op checked first, then applied to every shard under one
   generation);
2. streams a flash-crowd scenario through the path with line-rate
   drains and link delays between hops;
3. prints per-hop verdicts, fabric steering balance, and the exact
   merged energy ledgers.

Run:  python examples/fabric_topology.py
"""

from repro.energy import format_energy
from repro.fabric import build_fabric
from repro.simnet.multihop import run_switch_path
from repro.simnet.scenarios import default_switch_spec, scenario

N_PACKETS = 5000
SEED = 42


def main() -> None:
    spec = default_switch_spec()

    # --- Two hops: a 4-shard ingress fabric, a 2-shard core hop. ---
    ingress = build_fabric(spec, SEED, 4)
    core = build_fabric(spec, SEED + 1, 2)

    # --- Transactional programming of the ingress fabric. ----------
    generation = (ingress.controller
                  .add_route("198.51.100.0/24", 2)
                  .retarget(0.015)
                  .commit())
    print(f"ingress fabric reprogrammed: generation {generation} "
          f"({ingress.n_shards} shards flipped atomically)")

    # --- Drive the scenario through the path. ----------------------
    entry = scenario("flash_crowd")
    result = run_switch_path(
        [ingress, core],
        entry.stream(seed=SEED, n_packets=N_PACKETS, chunk_size=2048),
        link_delays_s=[0.002, 0.002],
        port_rate_bps=spec.port_rate_bps)

    print(f"\npath: {N_PACKETS} offered, {result.delivered} delivered "
          f"end to end")
    print(f"mean end-to-end delay: {result.mean_delay_s * 1e3:.2f} ms, "
          f"p95: {result.p95_delay_s * 1e3:.2f} ms")
    for index, hop in enumerate(result.hops):
        name = "ingress" if index == 0 else f"core{index}"
        print(f"\nhop {index} ({name}): admitted {hop.admitted}")
        for verdict, count in sorted(hop.verdict_counts.items()):
            print(f"  {verdict:>18}: {count}")
        print(f"  energy: {format_energy(hop.energy_total_j)}")

    # --- Fabric observability: steering balance + merged ledger. ---
    metrics = ingress.poll_metrics()
    steering = metrics["steering"]
    print(f"\ningress steering: {steering['hashed_packets']} hashed, "
          f"per-shard {steering['per_shard_packets']}, "
          f"imbalance {steering['imbalance']:.3f}")
    print(f"path energy (exact merged ledgers): "
          f"{format_energy(result.energy_total_j)}")

    ingress.close()
    core.close()


if __name__ == "__main__":
    main()
