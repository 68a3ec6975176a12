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
    "check_finite",
    "check_ledger_conservation",
]


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


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise unless every element of ``array`` is finite (no NaN or infinity)."""
    if not np.isfinite(array).all():
        raise ConfigurationError(f"{name} must be finite (no NaN or infinity)")


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
