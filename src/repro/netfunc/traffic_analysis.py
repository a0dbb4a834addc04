"""Flow features for cognitive traffic analysis.

Figure 5 lists traffic analysis among the analog network functions:
classify flows by how *closely* their feature vector (packet size,
inter-arrival time, burstiness) matches stored class profiles.  A
digital TCAM can only answer "inside/outside the profile box"; an
analog CAM returns a graded similarity per class, so a flow that
matches no profile exactly is still assigned to the nearest one —
the RQ1 "zero matches" capability.

The classifier is the aCAM bank the switch's classification stage
uses: a :class:`repro.acam.array.ACAMArray` over :data:`FEATURES`
with one row per class, each ``(lo, hi, fade)`` acceptance window an
``ACAMInterval(lo, hi, margin=fade)``, classified by the search's
``best_rows``.  This module only turns raw packet observations into
the query (``examples/cognitive_functions.py`` wires the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlowFeatures"]

#: The feature fields, in query order.
FEATURES = ("mean_packet_size", "mean_interarrival_s", "burstiness")


@dataclass(frozen=True)
class FlowFeatures:
    """Aggregate statistics of one observed flow."""

    mean_packet_size: float
    mean_interarrival_s: float
    burstiness: float

    def as_query(self) -> dict[str, float]:
        """The features as a query mapping keyed by :data:`FEATURES`."""
        return {
            "mean_packet_size": self.mean_packet_size,
            "mean_interarrival_s": self.mean_interarrival_s,
            "burstiness": self.burstiness,
        }

    @classmethod
    def from_samples(cls, sizes: np.ndarray,
                     arrival_times: np.ndarray) -> "FlowFeatures":
        """Compute features from raw per-packet observations.

        Burstiness is the coefficient of variation of inter-arrival
        times (1.0 for Poisson, > 1 for bursty traffic).
        """
        sizes = np.asarray(sizes, dtype=float)
        times = np.sort(np.asarray(arrival_times, dtype=float))
        if sizes.size == 0 or times.size < 2:
            raise ValueError("need at least 2 packets to build features")
        gaps = np.diff(times)
        mean_gap = float(gaps.mean())
        burstiness = (float(gaps.std() / mean_gap)
                      if mean_gap > 0 else 0.0)
        return cls(mean_packet_size=float(sizes.mean()),
                   mean_interarrival_s=mean_gap,
                   burstiness=burstiness)
