"""Traffic classification on an aCAM bank: one row per class profile.

Each profile's ``(lo, hi, fade)`` acceptance window is stored as
``ACAMInterval(lo, hi, margin=fade)``; a flow classifies to the
search's ``best_rows``.
"""

import numpy as np
import pytest

from repro.acam import ACAMArray, ACAMInterval
from repro.core.pcam_cell import PCAMParams
from repro.energy.ledger import EnergyLedger
from repro.netfunc.traffic_analysis import FEATURES, FlowFeatures

PROFILES = {
    "web": {"mean_packet_size": (200.0, 600.0, 200.0),
            "mean_interarrival_s": (0.01, 0.2, 0.05),
            "burstiness": (0.5, 1.5, 0.5)},
    "video": {"mean_packet_size": (1000.0, 1500.0, 200.0),
              "mean_interarrival_s": (0.001, 0.01, 0.005),
              "burstiness": (0.2, 1.0, 0.5)},
    "bulk": {"mean_packet_size": (1200.0, 1500.0, 150.0),
             "mean_interarrival_s": (0.0001, 0.002, 0.001),
             "burstiness": (0.0, 0.6, 0.3)},
}
NAMES = tuple(PROFILES)


def make_bank(ledger=None):
    bank = ACAMArray(FEATURES, ledger=ledger)
    for windows in PROFILES.values():
        bank.add_row({feature: ACAMInterval(lo, hi, margin=fade)
                      for feature, (lo, hi, fade) in windows.items()})
    return bank


def classify(bank, flow):
    result = bank.search(flow.as_query())
    return NAMES[result.best_row], result.best_probability


def test_exact_profile_classifies_deterministically():
    flow = FlowFeatures(mean_packet_size=400.0,
                        mean_interarrival_s=0.05, burstiness=1.0)
    name, score = classify(make_bank(), flow)
    assert name == "web"
    assert score == pytest.approx(1.0)


def test_video_flow_classified():
    flow = FlowFeatures(mean_packet_size=1300.0,
                        mean_interarrival_s=0.005, burstiness=0.5)
    name, _ = classify(make_bank(), flow)
    assert name in ("video", "bulk")  # overlapping profiles


def test_partial_match_flow_still_classified():
    # RQ1: a flow matching no profile box exactly still gets the
    # nearest class with a graded score.
    bank = make_bank()
    flow = FlowFeatures(mean_packet_size=700.0,
                        mean_interarrival_s=0.05, burstiness=1.2)
    name, score = classify(bank, flow)
    assert 0.0 < score < 1.0
    assert name == "web"
    assert not bank.search(flow.as_query()).matched


def test_scores_one_per_class():
    result = make_bank().search(FlowFeatures(400.0, 0.05, 1.0).as_query())
    assert result.probabilities.shape == (len(NAMES),)
    # The other classes are far outside their skirts.
    assert result.probabilities.tolist() == [1.0, 0.0, 0.0]


def test_features_from_samples_poisson_burstiness():
    rng = np.random.default_rng(0)
    times = np.cumsum(rng.exponential(0.01, size=4000))
    sizes = np.full(4000, 500.0)
    features = FlowFeatures.from_samples(sizes, times)
    assert features.mean_packet_size == 500.0
    assert features.burstiness == pytest.approx(1.0, abs=0.1)


def test_features_from_samples_constant_rate():
    times = np.arange(100) * 0.01
    features = FlowFeatures.from_samples(np.full(100, 100.0), times)
    assert features.burstiness == pytest.approx(0.0, abs=1e-9)
    assert features.mean_interarrival_s == pytest.approx(0.01)


def test_features_require_two_packets():
    with pytest.raises(ValueError):
        FlowFeatures.from_samples(np.array([100.0]), np.array([0.0]))


def test_energy_charged():
    ledger = EnergyLedger()
    bank = make_bank(ledger)
    bank.search(FlowFeatures(400.0, 0.05, 1.0).as_query())
    assert ledger.total > 0.0
    assert ledger.total == ledger.breakdown()["acam.search"] \
        == bank.energy_model.search_energy_j(3, 3, 1)


def test_profile_validation():
    # A profile must constrain every feature; the bank needs fields.
    windows = {"mean_packet_size": ACAMInterval(0.0, 1.0, margin=1.0)}
    with pytest.raises(KeyError):
        make_bank().add_row(windows)
    with pytest.raises(ValueError):
        ACAMArray(())
    with pytest.raises(ValueError):
        ACAMArray(FEATURES + FEATURES[:1])


def test_bad_window_rejected():
    with pytest.raises(ValueError):
        ACAMInterval(600.0, 200.0, margin=100.0)  # lo > hi
    with pytest.raises(ValueError):
        ACAMInterval(200.0, 600.0, margin=-1.0)  # negative fade


def test_windows_compile_to_the_profile_cells():
    # A (lo, hi, fade) window is the pCAM cell (lo - fade, lo, hi,
    # hi + fade): full match inside, a linear fade on both sides.
    for (lo, hi, fade) in (window for profile in PROFILES.values()
                           for window in profile.values()):
        assert ACAMInterval(lo, hi, margin=fade).to_pcam_params() == \
            PCAMParams.canonical(m1=lo - fade, m2=lo, m3=hi, m4=hi + fade)
