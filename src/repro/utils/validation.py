"""Small argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with a message that names
the offending parameter, which keeps the constructors of configuration
dataclasses short and uniform.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_power_of_two",
    "check_probability",
    "MAX_INPUT_MAGNITUDE",
    "within_input_range",
    "check_finite",
    "check_ledger_conservation",
]

#: Largest magnitude an admitted input value may have.  Far above any real
#: pixel, yet far enough below the float64 range (about 1.8e308) that an
#: image's activation scale and the forward's arithmetic stay finite:
#: both repository CNNs overflow once their test images are scaled by 1e306.
MAX_INPUT_MAGNITUDE = 1e100


def check_positive(name: str, value: Real) -> None:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def check_non_negative(name: str, value: Real) -> None:
    """Raise unless ``value`` is zero or positive."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


def check_in_range(name: str, value: Real, low: Real, high: Real) -> None:
    """Raise unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a positive power of two, got {value}")


def check_probability(name: str, value: Real) -> None:
    """Raise unless ``value`` is a valid probability in [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value}")


def within_input_range(array: np.ndarray) -> bool:
    """Whether every value is finite with ``|x| <= MAX_INPUT_MAGNITUDE``.

    One scan: NaN fails the comparison, so it is refused with the
    infinities and the huge finite values.
    """
    return bool(np.abs(array).max(initial=0.0) <= MAX_INPUT_MAGNITUDE)


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise unless :func:`within_input_range` accepts ``array``."""
    if not within_input_range(array):
        raise ConfigurationError(
            f"{name} must be finite with magnitude at most {MAX_INPUT_MAGNITUDE:g}"
        )


def check_ledger_conservation(cluster, parts, rel: float = 1e-12) -> None:
    """Raise unless a cluster ledger equals the sum of its per-node parts.

    The conservation law every router/kernel configuration must satisfy:
    cycles and operation counts (integers) match exactly, energy (a float
    accumulated in a fixed fold order) matches to relative ``rel``.  Used
    by the differential test suites and the fleet studies; ``cluster`` and
    each entry of ``parts`` are chip-ledger-like objects exposing
    ``total_cycles``, ``total_energy_j`` and ``total_operations``.
    """
    parts = list(parts)
    cycles = sum(p.total_cycles for p in parts)
    if cluster.total_cycles != cycles:
        raise ConfigurationError(
            "ledger conservation violated: cluster cycles "
            f"{cluster.total_cycles} != sum of node cycles {cycles}"
        )
    operations = sum(p.total_operations for p in parts)
    if cluster.total_operations != operations:
        raise ConfigurationError(
            "ledger conservation violated: cluster operations "
            f"{cluster.total_operations} != sum of node operations {operations}"
        )
    energy = sum(p.total_energy_j for p in parts)
    scale = max(abs(energy), abs(cluster.total_energy_j), 1e-300)
    if abs(cluster.total_energy_j - energy) > rel * scale:
        raise ConfigurationError(
            "ledger conservation violated: cluster energy "
            f"{cluster.total_energy_j!r} J != sum of node energies {energy!r} J"
        )
