"""Neuromorphic extensions (the paper's future-work direction): a
self-learning analog AQM and spiking blocks."""

from repro.neuro.neuromorphic import NeuromorphicAQM
from repro.neuro.spiking import (
    LIFNeuron,
    MemristiveSynapses,
    SpikingBurstDetector,
)

__all__ = [
    "LIFNeuron",
    "MemristiveSynapses",
    "NeuromorphicAQM",
    "SpikingBurstDetector",
]
