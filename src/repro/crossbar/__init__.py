"""Analog circuit substrate: crossbar arrays, the DAC, sensing, losses."""

from repro.crossbar.array import Crossbar, MatVecResult
from repro.crossbar.converters import DAC
from repro.crossbar.losses import LineLossModel
from repro.crossbar.sensing import SenseAmplifier

__all__ = [
    "Crossbar",
    "DAC",
    "LineLossModel",
    "MatVecResult",
    "SenseAmplifier",
]
