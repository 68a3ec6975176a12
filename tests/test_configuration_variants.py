"""Tests for less-common macro configurations: interleave phases, other
geometries, WLUD-configured functional macros and mixed-precision banks."""

import pytest

from oracle.alu import ReferenceALU
from repro.circuits.wordline import WordlineScheme
from repro.core import IMCBank, IMCMacro, MacroConfig, Opcode
from repro.core.layout import ColumnLayout
from repro.errors import ConfigurationError


class TestInterleavePhases:
    @pytest.mark.parametrize("phase", [0, 1, 2, 3])
    def test_macro_computes_on_every_phase(self, phase):
        macro = IMCMacro(MacroConfig(phase=phase))
        assert macro.add(123, 45) == 168
        assert macro.multiply(19, 21) == 399

    def test_phases_use_disjoint_columns(self):
        layouts = [ColumnLayout(columns=128, interleave=4, phase=p) for p in range(4)]
        seen = set()
        for layout in layouts:
            columns = set(layout.active_columns().tolist())
            assert not (seen & columns)
            seen |= columns
        assert len(seen) == 128

    def test_invalid_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            MacroConfig(phase=4)


class TestAlternativeGeometries:
    def test_wide_macro(self):
        macro = IMCMacro(MacroConfig(cols=512))
        assert macro.words_per_row() == 16
        assert macro.add(200, 55) == 255

    def test_short_macro(self):
        macro = IMCMacro(MacroConfig(rows=32))
        assert macro.multiply(100, 100) == 10000

    def test_eight_way_interleave(self):
        macro = IMCMacro(MacroConfig(cols=256, interleave=8, precision_bits=8))
        assert macro.words_per_row() == 4
        assert macro.subtract(9, 200) == (9 - 200) % 256

    def test_capacity_scales_with_geometry(self):
        small = MacroConfig(rows=64, cols=64)
        assert small.capacity_bytes == 512
        assert MacroConfig().capacity_bytes == 4 * small.capacity_bytes


class TestWLUDConfiguredMacro:
    """Functionally the WLUD-driven macro computes the same results; only the
    timing (and disturb susceptibility) differs."""

    def test_results_identical_to_proposed(self):
        proposed = IMCMacro(MacroConfig())
        wlud = IMCMacro(MacroConfig(wordline_scheme=WordlineScheme.WLUD))
        alu = ReferenceALU(8)
        for a, b in ((5, 9), (200, 100), (255, 255)):
            for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MULT, Opcode.XOR):
                expected = alu.evaluate(opcode, a, b)
                assert proposed.compute(opcode, a, b) == expected
                assert wlud.compute(opcode, a, b) == expected

    def test_wlud_decoder_issues_underdriven_pulses(self):
        macro = IMCMacro(MacroConfig(wordline_scheme=WordlineScheme.WLUD))
        macro.add(1, 2)
        pulses = [sel.pulse.voltage for sel in macro.decoder.activation_history]
        assert all(v == pytest.approx(0.55) for v in pulses)

    def test_proposed_decoder_issues_full_vdd_pulses(self):
        macro = IMCMacro(MacroConfig())
        macro.add(1, 2)
        pulses = [sel.pulse.voltage for sel in macro.decoder.activation_history]
        assert all(v == pytest.approx(0.9) for v in pulses)


class TestMixedPrecisionBank:
    def test_macros_in_a_bank_can_run_different_precisions(self):
        bank = IMCBank(macros_per_bank=2)
        bank.macro(0).set_precision(8)
        bank.macro(1).set_precision(4)
        assert bank.macro(0).multiply(200, 200) == 40000
        assert bank.macro(1).multiply(15, 14) == 210

    def test_bank_statistics_capture_both(self):
        bank = IMCBank(macros_per_bank=2)
        bank.macro(0).add(1, 2)
        bank.macro(1).multiply(3, 4, precision_bits=4)
        stats = bank.statistics()
        assert stats.cycles_for(Opcode.ADD) == 1
        assert stats.cycles_for(Opcode.MULT) == 6


class TestOperatingPointVariants:
    @pytest.mark.parametrize("vdd", [0.6, 0.8, 1.1])
    def test_functionality_across_supply_range(self, vdd):
        from repro.tech import OperatingPoint

        macro = IMCMacro(MacroConfig(operating_point=OperatingPoint(vdd=vdd)))
        assert macro.multiply(77, 91) == 7007

    def test_low_temperature_and_hot_corner(self):
        from repro.tech import OperatingPoint, ProcessCorner

        hot = IMCMacro(
            MacroConfig(
                operating_point=OperatingPoint(
                    vdd=0.9, temperature_c=85.0, corner=ProcessCorner.SS
                )
            )
        )
        cold = IMCMacro(MacroConfig())
        assert hot.add(10, 20) == cold.add(10, 20) == 30
        assert hot.cycle_time_s() > cold.cycle_time_s()
