"""The memristor-based cognitive packet-processing architecture (Figure 5)."""

from repro.dataplane.classify import ClassificationStage
from repro.packet import FIVE_TUPLE_FIELDS, Packet
from repro.dataplane.parser import (
    HeaderParser,
    ParseError,
    build_ethernet_frame,
    build_ipv4_packet,
)
from repro.dataplane.pipeline import (
    AnalogPacketProcessor,
    ProcessResult,
    Verdict,
)
from repro.dataplane.queues import PacketQueue, PortQueue, PortStats
from repro.dataplane.results import DROP_EVENTS, drop_event
from repro.dataplane.stages import DigitalMatsStage, EgressStage
from repro.dataplane.switch import SwitchSpec, build_switch
from repro.dataplane.telemetry import (
    TableStats,
    TelemetryCollector,
    int_metadata,
    stamp_packet,
)
from repro.dataplane.traffic_manager import CognitiveTrafficManager

__all__ = [
    "AnalogPacketProcessor",
    "ClassificationStage",
    "DROP_EVENTS",
    "DigitalMatsStage",
    "EgressStage",
    "SwitchSpec",
    "TableStats",
    "TelemetryCollector",
    "int_metadata",
    "stamp_packet",
    "CognitiveTrafficManager",
    "FIVE_TUPLE_FIELDS",
    "HeaderParser",
    "Packet",
    "PacketQueue",
    "ParseError",
    "PortQueue",
    "PortStats",
    "ProcessResult",
    "Verdict",
    "build_ethernet_frame",
    "build_ipv4_packet",
    "build_switch",
    "drop_event",
]
