"""Crossbar-level stuck-cell injection."""

import numpy as np
import pytest

from repro.crossbar.array import Crossbar
from repro.crossbar.losses import LineLossModel
from repro.device.faults import CrossbarFaultPlan, inject_crossbar_faults
from repro.device.variability import VariabilityModel


class TestCrossbarFaults:
    def make_crossbar(self):
        bar = Crossbar(8, 8, losses=LineLossModel.ideal(),
                       variability=VariabilityModel.ideal())
        bar.program_normalised(np.full((8, 8), 0.5))
        return bar

    def test_injection_pins_cells_at_rails(self):
        bar = self.make_crossbar()
        mask = inject_crossbar_faults(bar, fault_rate=0.25,
                                      rng=np.random.default_rng(1))
        g_min, g_max = bar.conductance_bounds
        conductances = bar.conductances
        faulted = conductances[mask]
        assert mask.any()
        assert np.all(np.isclose(faulted, g_min)
                      | np.isclose(faulted, g_max))

    def test_zero_rate_injects_nothing(self):
        bar = self.make_crossbar()
        mask = inject_crossbar_faults(bar, fault_rate=0.0,
                                      rng=np.random.default_rng(1))
        assert not mask.any()

    def test_faults_distort_matvec(self):
        clean = self.make_crossbar()
        faulty = self.make_crossbar()
        inject_crossbar_faults(faulty, fault_rate=0.3,
                               rng=np.random.default_rng(2))
        voltages = np.ones(8)
        clean_out = clean.matvec(voltages, noisy=False).currents_a
        faulty_out = faulty.matvec(voltages, noisy=False).currents_a
        assert not np.allclose(clean_out, faulty_out)

    def test_validation(self):
        bar = self.make_crossbar()
        with pytest.raises(ValueError):
            inject_crossbar_faults(bar, fault_rate=2.0,
                                   rng=np.random.default_rng(0))


class TestComposableFaults:
    def test_plan_sampling_is_seeded(self):
        bounds = (1e-9, 1e-2)
        a = CrossbarFaultPlan.sample((6, 6), 0.3,
                                     np.random.default_rng(5), bounds)
        b = CrossbarFaultPlan.sample((6, 6), 0.3,
                                     np.random.default_rng(5), bounds)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.n_faults == int(a.mask.sum())
        assert a.shape == (6, 6)

    def test_plans_compose_with_right_bias(self):
        mask_a = np.zeros((2, 2), dtype=bool)
        mask_a[0, 0] = mask_a[0, 1] = True
        mask_b = np.zeros((2, 2), dtype=bool)
        mask_b[0, 1] = mask_b[1, 1] = True
        merged = (CrossbarFaultPlan(mask_a, np.where(mask_a, 1.0, 0.0))
                  | CrossbarFaultPlan(mask_b, np.where(mask_b, 2.0, 0.0)))
        assert merged.n_faults == 3
        assert merged.values[0, 0] == 1.0
        assert merged.values[0, 1] == 2.0  # right-hand plan wins
        assert merged.values[1, 1] == 2.0

    def test_plan_shape_mismatch_rejected(self):
        plan = CrossbarFaultPlan(np.zeros((2, 2), dtype=bool),
                                 np.zeros((2, 2)))
        with pytest.raises(ValueError):
            plan | CrossbarFaultPlan(np.zeros((3, 3), dtype=bool),
                                     np.zeros((3, 3)))
        with pytest.raises(ValueError):
            plan.pin(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            CrossbarFaultPlan(np.zeros((2, 2), dtype=bool),
                              np.zeros((3, 3)))

    def test_installed_plan_survives_reprogramming(self):
        bar = Crossbar(8, 8, losses=LineLossModel.ideal(),
                       variability=VariabilityModel.ideal())
        bar.program_normalised(np.full((8, 8), 0.5))
        mask = inject_crossbar_faults(bar, fault_rate=0.25,
                                      rng=np.random.default_rng(3))
        pinned = bar.conductances[mask]
        # No manual re-application: the installed plan re-pins inside
        # every later program() pass.
        bar.program_normalised(np.full((8, 8), 0.9))
        np.testing.assert_allclose(bar.conductances[mask], pinned)
        bar.clear_fault_plan()
        bar.program_normalised(np.full((8, 8), 0.9))
        assert not np.allclose(bar.conductances[mask], pinned)

    def test_repeated_injection_composes_populations(self):
        bar = Crossbar(8, 8, losses=LineLossModel.ideal(),
                       variability=VariabilityModel.ideal())
        bar.program_normalised(np.full((8, 8), 0.5))
        first = inject_crossbar_faults(bar, fault_rate=0.15,
                                       rng=np.random.default_rng(1))
        second = inject_crossbar_faults(bar, fault_rate=0.15,
                                        rng=np.random.default_rng(2))
        assert bar.fault_plan is not None
        np.testing.assert_array_equal(bar.fault_plan.mask,
                                      first | second)
