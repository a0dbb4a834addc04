#!/usr/bin/env python3
"""The full Figure 5 architecture: a cognitive packet processor.

Builds the memristor-based switch — parser, digital match-action
tables (firewall + LPM lookup on memristor TCAMs), analog AQM in the
cognitive traffic manager — programs it through the cognitive network
controller, pushes wire-format traffic through it, and prints the
verdicts plus the per-component energy breakdown.

Run:  python examples/cognitive_switch.py
"""

import numpy as np

from repro.core.compiler import (
    FunctionKind,
    NetworkFunctionSpec,
    PrecisionClass,
)
from repro.control import CognitiveNetworkController
from repro.dataplane import SwitchSpec, build_switch
from repro.dataplane.parser import build_ethernet_frame, build_ipv4_packet
from repro.energy import format_energy
from repro.netfunc.firewall import Action, FirewallRule


def main() -> None:
    # --- Control plane: declare functions, compile the split. ------
    controller = CognitiveNetworkController()
    controller.register(NetworkFunctionSpec(
        "ip_lookup", PrecisionClass.HIGH, FunctionKind.DETERMINISTIC))
    controller.register(NetworkFunctionSpec(
        "firewall", PrecisionClass.HIGH, FunctionKind.DETERMINISTIC))
    controller.register(NetworkFunctionSpec(
        "aqm", PrecisionClass.LOW, FunctionKind.COGNITIVE))
    controller.compile()
    print("Cognitive network controller placement:")
    for line in controller.report():
        print(" ", line)

    # --- Data plane: declared once, assembled by the builder. --------
    spec = SwitchSpec(
        n_ports=2,
        use_memristor_tcam=True,
        port_rate_bps=1e9,
        routes=(("10.0.0.0/8", 0), ("192.168.0.0/16", 1)),
        firewall_rules=(FirewallRule(
            action=Action.DENY, src_prefix="172.16.0.0/12"),))
    processor = build_switch(spec, controller=controller)

    # --- Push traffic. ----------------------------------------------
    rng = np.random.default_rng(4)
    sources = ["10.1.0.1", "172.16.9.9", "203.0.113.7"]
    destinations = ["10.9.9.9", "192.168.4.4", "198.51.100.1"]
    for index in range(600):
        frame = build_ethernet_frame(build_ipv4_packet(
            src_ip=str(rng.choice(sources)),
            dst_ip=str(rng.choice(destinations)),
            dst_port=int(rng.choice([80, 443, 53]))))
        processor.process_frame(frame, now=index * 1e-5)

    print(f"\nProcessed {processor.processed} frames:")
    for verdict, count in processor.verdict_counts.items():
        if count:
            print(f"  {verdict.value:<20} {count:>5}")

    served = processor.drain(0, now=0.01) + processor.drain(1, now=0.01)
    print(f"  served from egress queues: {len(served)}")

    print("\nEnergy breakdown (whole run):")
    for account, energy in processor.energy_breakdown().items():
        print(f"  {account:<16} {format_energy(energy):>14}")
    print(f"  {'TOTAL':<16} {format_energy(processor.energy_total_j()):>14}")


if __name__ == "__main__":
    main()
