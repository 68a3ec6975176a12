"""Monte-Carlo engine for local-variation analysis (Fig. 2).

The paper compares the BL-computing delay *distribution* of the conventional
WLUD scheme against the proposed short-WL + BL-boosting scheme at an iso
read-disturb failure rate.  The distributions come from local threshold
mismatch of the minimum-size bit-cell devices (large sigma) and of the much
larger boost devices (small sigma), plus sense-amplifier resolve-time
variation.

The WLUD delay is inversely proportional to ``(V_WL - Vth)^alpha`` with a
small overdrive (0.55 V - Vth), so threshold mismatch produces the long right
tail seen in the paper; the proposed scheme operates the cell at full
overdrive and hands most of the swing to the booster, so its distribution is
short-tailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.circuits.bitline import BitlineComputeModel
from repro.circuits.wordline import WordlineScheme
from repro.tech.calibration import MacroCalibration
from repro.tech.technology import OperatingPoint, TechnologyProfile
from repro.utils.validation import check_positive

__all__ = ["DelayDistribution", "MonteCarloEngine"]


@dataclass(frozen=True)
class DelayDistribution:
    """Summary statistics of a Monte-Carlo delay population."""

    scheme: WordlineScheme
    samples_s: np.ndarray
    mean_s: float
    std_s: float
    minimum_s: float
    maximum_s: float
    p50_s: float
    p99_s: float
    p999_s: float

    @classmethod
    def from_samples(
        cls, scheme: WordlineScheme, samples: np.ndarray
    ) -> "DelayDistribution":
        """Build the summary from raw delay samples (seconds)."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot summarise an empty sample population")
        return cls(
            scheme=scheme,
            samples_s=samples,
            mean_s=float(np.mean(samples)),
            std_s=float(np.std(samples)),
            minimum_s=float(np.min(samples)),
            maximum_s=float(np.max(samples)),
            p50_s=float(np.percentile(samples, 50)),
            p99_s=float(np.percentile(samples, 99)),
            p999_s=float(np.percentile(samples, 99.9)),
        )

    @property
    def tail_ratio(self) -> float:
        """p99.9 delay divided by the median — a scalar 'tail length' metric."""
        return self.p999_s / self.p50_s

    def histogram(self, bins: int = 40) -> tuple[np.ndarray, np.ndarray]:
        """Normalised occurrence histogram (counts sum to 1), like Fig. 2."""
        counts, edges = np.histogram(self.samples_s, bins=bins)
        total = counts.sum()
        fractions = counts / total if total else counts.astype(np.float64)
        return fractions, edges


class MonteCarloEngine:
    """Samples BL-computing delays under local threshold mismatch."""

    def __init__(
        self,
        technology: TechnologyProfile,
        calibration: MacroCalibration,
        rows: int = 128,
        seed: Optional[int] = 2020,
    ) -> None:
        self.technology = technology
        self.calibration = calibration
        self.model = BitlineComputeModel(
            technology=technology, calibration=calibration, rows=rows
        )
        self._rng = np.random.default_rng(seed)

    def _sample_variations(
        self, samples: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw the three mismatch populations (cell, boost, SA offsets)."""
        check_positive("samples", samples)
        sigma_cell = self.technology.sigma_vth_mismatch
        sigma_boost = sigma_cell * self.technology.boost_mismatch_scale
        sigma_sa = self.calibration.bitline.sa_resolve_sigma_s
        cell_shifts = self._rng.normal(0.0, sigma_cell, size=samples)
        boost_shifts = self._rng.normal(0.0, sigma_boost, size=samples)
        sa_offsets = self._rng.normal(0.0, sigma_sa, size=samples)
        return cell_shifts, boost_shifts, sa_offsets

    def sample_delays(
        self,
        scheme: WordlineScheme,
        samples: int,
        point: Optional[OperatingPoint] = None,
    ) -> np.ndarray:
        """Draw ``samples`` BL-computing delays (seconds) for a drive scheme.

        The population is priced through the vectorised
        :meth:`~repro.circuits.bitline.BitlineComputeModel.compute_delays`
        path — element-for-element equal, to floating-point round-off, to
        the per-sample scalar loop the test suite keeps as its oracle
        (``tests/oracle/montecarlo.py``), and two to three orders of
        magnitude faster for Fig. 2-scale populations.
        """
        if point is None:
            point = OperatingPoint(vdd=self.technology.vdd_nominal)
        cell_shifts, boost_shifts, sa_offsets = self._sample_variations(samples)
        return self.model.compute_delays(
            point, scheme, cell_shifts, boost_shifts, sa_offsets
        )

    def sample_delays_with_offset(
        self,
        scheme: WordlineScheme,
        samples: int,
        vth_offset_v: float,
        point: Optional[OperatingPoint] = None,
    ) -> np.ndarray:
        """Delay population of one *specific* chip instance.

        Chip binning decomposes variation into a chip-wide (global) threshold
        offset — one die landing fast or slow on the process distribution —
        plus the per-access local mismatch the Fig. 2 engine already models.
        The offset is added to both the cell and the boost draws (a global
        shift moves every device on the die), while the sense-amp electrical
        offsets stay purely local.  Same RNG discipline as
        :meth:`sample_delays`: identically seeded engines produce identical
        populations for identical offsets.
        """
        if point is None:
            point = OperatingPoint(vdd=self.technology.vdd_nominal)
        cell_shifts, boost_shifts, sa_offsets = self._sample_variations(samples)
        return self.model.compute_delays(
            point,
            scheme,
            cell_shifts + vth_offset_v,
            boost_shifts + vth_offset_v,
            sa_offsets,
        )

    def delay_distribution(
        self,
        scheme: WordlineScheme,
        samples: int = 2000,
        point: Optional[OperatingPoint] = None,
    ) -> DelayDistribution:
        """Sample and summarise the delay distribution for a drive scheme."""
        return DelayDistribution.from_samples(
            scheme, self.sample_delays(scheme, samples, point)
        )

    def compare_schemes(
        self,
        samples: int = 2000,
        point: Optional[OperatingPoint] = None,
    ) -> dict[WordlineScheme, DelayDistribution]:
        """Fig. 2 payload: WLUD vs short-WL + boost delay distributions."""
        return {
            WordlineScheme.WLUD: self.delay_distribution(
                WordlineScheme.WLUD, samples, point
            ),
            WordlineScheme.SHORT_PULSE_BOOST: self.delay_distribution(
                WordlineScheme.SHORT_PULSE_BOOST, samples, point
            ),
        }
