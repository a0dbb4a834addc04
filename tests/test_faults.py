"""Device fault injection and pCAM robustness under defects."""

import numpy as np
import pytest

from repro.crossbar.array import Crossbar
from repro.crossbar.losses import LineLossModel
from repro.device.faults import (
    CrossbarFaultPlan,
    FaultType,
    FaultyMemristor,
    inject_crossbar_faults,
)
from repro.device.variability import VariabilityModel


class TestFaultyMemristor:
    def test_stuck_off_never_programs(self):
        device = FaultyMemristor(FaultType.STUCK_OFF,
                                 variability=VariabilityModel.ideal())
        energy = device.program_state(0.8)
        assert device.state == 0.0
        assert energy > 0.0  # the attempt still costs energy

    def test_stuck_on_never_programs(self):
        device = FaultyMemristor(FaultType.STUCK_ON,
                                 variability=VariabilityModel.ideal())
        device.program_state(0.2)
        assert device.state == 1.0

    def test_stuck_program_to_current_state_is_free(self):
        device = FaultyMemristor(FaultType.STUCK_OFF,
                                 variability=VariabilityModel.ideal())
        assert device.program_state(0.0) == 0.0

    def test_stuck_pulse_moves_nothing(self):
        device = FaultyMemristor(FaultType.STUCK_OFF,
                                 variability=VariabilityModel.ideal())
        device.apply_pulse(3.0, 100e-9)
        assert device.state == 0.0
        assert device.pulses == 1

    def test_imprecise_lands_loosely(self):
        rng = np.random.default_rng(0)
        loose = FaultyMemristor(FaultType.IMPRECISE,
                                imprecision_factor=40.0,
                                variability=VariabilityModel.ideal(),
                                rng=rng)
        loose.program_state(0.5, tolerance=0.01)
        # Landed somewhere within the inflated tolerance.
        assert abs(loose.state - 0.5) <= 0.4 + 1e-9

    def test_imprecision_factor_validated(self):
        with pytest.raises(ValueError):
            FaultyMemristor(FaultType.IMPRECISE, imprecision_factor=0.5)

    def test_stuck_cells_still_conduct(self):
        on = FaultyMemristor(FaultType.STUCK_ON,
                             variability=VariabilityModel.ideal())
        off = FaultyMemristor(FaultType.STUCK_OFF,
                              variability=VariabilityModel.ideal())
        assert on.current(1.0) > 1e3 * off.current(1.0)


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
    def test_memristor_accepts_fault_sets(self):
        device = FaultyMemristor(
            {FaultType.STUCK_ON, FaultType.IMPRECISE},
            variability=VariabilityModel.ideal())
        assert device.faults == {FaultType.STUCK_ON, FaultType.IMPRECISE}
        assert device.fault is FaultType.STUCK_ON  # stuck dominates
        device.program_state(0.2)
        assert device.state == 1.0  # pinned, imprecision irrelevant

    def test_conflicting_stuck_faults_rejected(self):
        with pytest.raises(ValueError):
            FaultyMemristor({FaultType.STUCK_OFF, FaultType.STUCK_ON})
        with pytest.raises(ValueError):
            FaultyMemristor([])

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


class TestPCAMUnderFaults:
    def test_stuck_threshold_device_degrades_to_mismatch(self):
        """A pCAM cell with a stuck threshold device fails safe."""
        from repro.core.device_cell import DevicePCAMCell
        from repro.core.pcam_cell import prog_pcam

        cell = DevicePCAMCell(prog_pcam(1.5, 2.4, 2.6, 3.5),
                              variability=VariabilityModel.ideal(),
                              rng=np.random.default_rng(4))
        # Break the low-threshold device after programming.
        cell._lo = FaultyMemristor(FaultType.STUCK_ON,
                                   params=cell.device_params,
                                   variability=VariabilityModel.ideal())
        responses = [cell.response(v) for v in (2.0, 2.5, 3.0)]
        # The cell misbehaves but stays inside the probability rails.
        assert all(0.0 <= r <= 1.0 for r in responses)
