"""Retargeting the pCAM AQM, the action the learned loop applies."""

import numpy as np
import pytest

from repro.netfunc.aqm.pcam_aqm import PCAMAQM


def make_aqm(**kwargs):
    kwargs.setdefault("rng", np.random.default_rng(1))
    kwargs.setdefault("adaptation", False)
    return PCAMAQM(**kwargs)


class TestRetarget:
    def test_retarget_moves_the_band(self):
        aqm = make_aqm(target_delay_s=0.020, max_deviation_s=0.010)
        aqm.retarget(0.040)
        assert aqm.target_delay_s == pytest.approx(0.040)
        # Relative band width preserved: 10/20 -> 20/40.
        assert aqm.max_deviation_s == pytest.approx(0.020)

    def test_retargeted_aqm_drops_at_the_new_band(self):
        class Queue:
            backlog_packets = 400
            backlog_bytes = 200_000  # 40 ms at 40 Mb/s
            capacity_packets = 2000
            service_rate_bps = 40e6
            last_sojourn_s = 0.04

        tight = make_aqm(target_delay_s=0.020)
        loose = make_aqm(target_delay_s=0.020,
                         rng=np.random.default_rng(1))
        loose.retarget(0.100)
        for step in range(30):
            now = step * 0.01
            tight_pdp = tight.pdp(Queue(), now)
            loose_pdp = loose.pdp(Queue(), now)
        assert tight_pdp > 0.9     # 40 ms >> 20 ms band
        assert loose_pdp < 0.2     # 40 ms below the 100 ms band

    def test_explicit_deviation(self):
        aqm = make_aqm()
        aqm.retarget(0.050, max_deviation_s=0.005)
        assert aqm.max_deviation_s == pytest.approx(0.005)
