"""Symmetric fixed-point quantisation for IMC inference.

Weights and activations are quantised to signed integers of 2/4/8 bits with
symmetric scales: weights per tensor (:func:`quantize_tensor`, on
:class:`repro.utils.fixedpoint.FixedPointFormat`), activations per image
(:func:`repro.utils.fixedpoint.quantize_rows`, called by the dense and conv
layers).  The integer codes are what the IMC macro actually
multiplies/accumulates; the scales are folded back in after the integer
arithmetic, exactly as an integer-only inference accelerator would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.fixedpoint import FixedPointFormat

__all__ = ["QuantizedTensor", "quantize_tensor"]


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer-code tensor plus the fixed-point format that produced it."""

    codes: np.ndarray
    fmt: FixedPointFormat

    @property
    def width(self) -> int:
        """Bit width of the codes."""
        return self.fmt.width

    @property
    def scale(self) -> float:
        """Real value of one LSB."""
        return self.fmt.scale

    def dequantize(self) -> np.ndarray:
        """Recover the (lossy) real-valued tensor."""
        return self.fmt.dequantize(self.codes)

    def quantization_error(self, reference: np.ndarray) -> float:
        """Root-mean-square error against the original tensor."""
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != self.codes.shape:
            raise ConfigurationError(
                "reference tensor shape does not match the quantised tensor"
            )
        return float(np.sqrt(np.mean((self.dequantize() - reference) ** 2)))


def quantize_tensor(tensor: np.ndarray, width: int) -> QuantizedTensor:
    """Quantise a float tensor to ``width``-bit symmetric signed integers."""
    tensor = np.asarray(tensor, dtype=np.float64)
    fmt = FixedPointFormat.for_tensor(tensor, width)
    return QuantizedTensor(codes=fmt.quantize(tensor), fmt=fmt)
