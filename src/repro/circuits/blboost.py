"""Behavioural model of the BL boosting circuit.

The booster (Fig. 3, "BL Boost") consists of an LVT PMOS (P0) whose gate is
connected to the bit line and two LVT NMOS devices (N0, N1) forming a large
pull-down path controlled by the "BL mirror" node:

1. During precharge, ``BSTRS`` resets the mirror node to VSS, keeping N0/N1
   off.
2. When the short WL pulse lets the accessed cells discharge the BL slightly,
   P0 gradually turns on and pulls the mirror node high.
3. The mirror node then enables the N0-N1 stack, which has a much larger
   discharge strength than the bit cell, so the remaining BL swing develops
   quickly even though the WL pulse has already closed.

Behaviourally the booster is characterised by a *trigger swing* (how far the
BL must fall before the mirror flips) and a *boosted discharge current*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.calibration import MacroCalibration
from repro.tech.devices import DeviceType, Transistor
from repro.tech.technology import OperatingPoint, TechnologyProfile

__all__ = ["BitlineBooster"]


@dataclass
class BitlineBooster:
    """The per-column BL boosting circuit."""

    technology: TechnologyProfile
    calibration: MacroCalibration

    def __post_init__(self) -> None:
        bitline = self.calibration.bitline
        # N0/N1 pull-down stack: LVT, sized several times wider than a cell
        # transistor (drive factor already expresses the stack strength).
        self._pulldown = Transistor(
            technology=self.technology,
            device_type=DeviceType.NMOS,
            drive_factor=bitline.boost_drive_factor,
            width_factor=bitline.boost_width_factor,
            lvt=True,
        )

    @property
    def trigger_swing(self) -> float:
        """BL swing (volts) needed before the booster engages."""
        return self.calibration.bitline.boost_trigger_v

    def boost_current(
        self, point: OperatingPoint, vth_shift: float = 0.0
    ) -> float:
        """Discharge current (A) of the N0-N1 stack once triggered.

        The stack's gate (the BL mirror node) is driven to VDD by P0, so the
        current is evaluated at ``Vgs = VDD``; ``vth_shift`` injects local
        mismatch (scaled down in the Monte-Carlo engine because the boost
        devices are much larger than bit-cell devices).
        """
        return self._pulldown.on_current(point, vgs=point.vdd, vth_shift=vth_shift)

    def boost_currents(
        self, point: OperatingPoint, vth_shifts
    ):
        """Vectorised :meth:`boost_current` over an array of mismatches."""
        return self._pulldown.on_current_batch(
            point, vth_shifts, vgs=point.vdd
        )

    def residual_discharge_time(
        self,
        remaining_swing: float,
        capacitance: float,
        point: OperatingPoint,
        vth_shift: float = 0.0,
    ) -> float:
        """Time for the boost path to develop ``remaining_swing`` volts."""
        if remaining_swing <= 0:
            return 0.0
        current = self.boost_current(point, vth_shift=vth_shift)
        return capacitance * remaining_swing / current
