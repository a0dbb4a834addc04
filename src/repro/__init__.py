"""repro — reproduction of "The Future is Analog: Energy-Efficient
Cognitive Network Functions over Memristor-Based Analog Computations"
(Saleh & Koldehofe, HotNets 2023).

Packages
--------
``repro.device``     Nb:SrTiO3 memristor model + synthetic chip dataset
``repro.crossbar``   analog circuit substrate (arrays, DAC, sensing)
``repro.tcam``       digital baseline (TCAM, memristor TCAM, Table 1)
``repro.core``       the pCAM: cells, pipelines, arrays, tables, compiler
``repro.dataplane``  the Figure 5 packet-processing architecture
``repro.netfunc``    network functions (AQM family, lookup, firewall, ...)
``repro.simnet``     discrete-event queue simulator (Figure 8 workload)
``repro.energy``     energy accounting and the Table 1 harness
``repro.analysis``   per-figure series builders and statistics

Quickstart
----------
>>> from repro import PCAMCell, prog_pcam
>>> cell = PCAMCell(prog_pcam(m1=1.5, m2=2.4, m3=2.6, m4=3.5))
>>> cell.response(2.5)   # deterministic match
1.0
>>> 0.0 < cell.response(2.0) < 1.0   # probabilistic (partial) match
True
"""

from repro.core import (
    AnalogMatchActionTable,
    CognitiveCompiler,
    DevicePCAMCell,
    FunctionKind,
    NetworkFunctionSpec,
    PCAMArray,
    PCAMCell,
    PCAMParams,
    PCAMPipeline,
    PipelineProgram,
    PrecisionClass,
    TableProgram,
    prog_pcam,
    update_pcam,
)
from repro.dataplane import AnalogPacketProcessor
from repro.device import (
    MemristorDataset,
    MemristorParams,
    NbSTOMemristor,
    VariabilityModel,
    generate_dataset,
)
from repro.energy import EnergyLedger
from repro.netfunc.aqm import PCAMAQM
from repro.observability import MetricsRegistry, Observability
from repro.packet import Packet

__version__ = "1.0.0"

__all__ = [
    "AnalogMatchActionTable",
    "AnalogPacketProcessor",
    "CognitiveCompiler",
    "DevicePCAMCell",
    "EnergyLedger",
    "FunctionKind",
    "MemristorDataset",
    "MemristorParams",
    "MetricsRegistry",
    "NbSTOMemristor",
    "NetworkFunctionSpec",
    "Observability",
    "PCAMAQM",
    "PCAMArray",
    "PCAMCell",
    "PCAMParams",
    "PCAMPipeline",
    "Packet",
    "PipelineProgram",
    "PrecisionClass",
    "TableProgram",
    "VariabilityModel",
    "__version__",
    "generate_dataset",
    "prog_pcam",
    "update_pcam",
]
