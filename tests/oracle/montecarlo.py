"""The per-sample scalar Monte-Carlo loop: the delay sampler's oracle.

:meth:`repro.circuits.montecarlo.MonteCarloEngine.sample_delays` prices a
whole population through the vectorised
:meth:`~repro.circuits.bitline.BitlineComputeModel.compute_delays`; this is
its original loop, one scalar ``compute_delay`` call per sample, kept as the
reference ``tests/test_montecarlo.py`` compares it against.  No production
path uses it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.montecarlo import MonteCarloEngine
from repro.circuits.wordline import WordlineScheme
from repro.tech.technology import OperatingPoint

__all__ = ["sample_delays_reference"]


def sample_delays_reference(
    engine: MonteCarloEngine,
    scheme: WordlineScheme,
    samples: int,
    point: Optional[OperatingPoint] = None,
) -> np.ndarray:
    """Draw ``samples`` delays from ``engine`` through the scalar loop.

    Draws from the engine's RNG exactly like ``engine.sample_delays`` (same
    three normal populations in the same order), so two engines seeded
    identically must agree through either path to round-off.
    """
    if point is None:
        point = OperatingPoint(vdd=engine.technology.vdd_nominal)
    cell_shifts, boost_shifts, sa_offsets = engine._sample_variations(samples)

    delays = np.empty(samples, dtype=np.float64)
    for index in range(samples):
        delays[index] = engine.model.compute_delay(
            point,
            scheme=scheme,
            cell_vth_shift=float(cell_shifts[index]),
            boost_vth_shift=float(boost_shifts[index]),
            sa_offset_s=float(sa_offsets[index]),
        )
    return delays
