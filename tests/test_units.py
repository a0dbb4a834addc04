"""Unit-conversion helpers."""

import pytest

from repro.energy import units


def test_femtojoule_round_trip():
    assert units.joules_to_femtojoules(units.femtojoules(0.58)) == \
        pytest.approx(0.58)


def test_nanojoule_round_trip():
    assert units.joules_to_nanojoules(units.nanojoules(0.16)) == \
        pytest.approx(0.16)


def test_paper_anchor_energies_in_si():
    # The two headline figures of Sec. 6.
    assert units.femtojoules(0.01) == pytest.approx(1e-17)
    assert units.nanojoules(0.16) == pytest.approx(1.6e-10)
    assert units.nanoseconds(2.3) == pytest.approx(2.3e-9)
    assert units.milliseconds(20.0) == pytest.approx(0.02)


def test_format_energy_picks_prefixes():
    assert units.format_energy(1e-17) == "0.010 fJ"
    assert units.format_energy(1.6e-10) == "0.160 nJ"
    assert units.format_energy(0.0) == "0 J"
    assert units.format_energy(2.5) == "2.500 J"


def test_format_energy_negative_values():
    assert units.format_energy(-1.6e-10) == "-0.160 nJ"


def test_format_energy_below_atto():
    text = units.format_energy(1e-21)
    assert "aJ" in text
