"""Fixed-point formats used by the DNN evaluation layer.

The paper motivates reconfigurable bit-precision with machine-learning
inference; the DNN layer quantises weights/activations to 2/4/8-bit integers
before mapping them onto the IMC macro.  This module defines the symmetric
fixed-point format used for that quantisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitops import from_twos_complement, to_twos_complement

__all__ = ["FixedPointFormat", "quantize_value", "dequantize_value"]


@dataclass(frozen=True)
class FixedPointFormat:
    """A symmetric signed fixed-point format.

    Attributes
    ----------
    width:
        Total number of bits, including the sign bit.
    scale:
        Real value represented by one least-significant bit.
    """

    width: int
    scale: float

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ConfigurationError(
                f"fixed-point width must be at least 2 bits, got {self.width}"
            )
        if not 0 < self.scale < math.inf:
            raise ConfigurationError(
                f"fixed-point scale must be finite and > 0, got {self.scale}"
            )

    @property
    def min_code(self) -> int:
        """Most negative representable integer code (symmetric: -(2^(w-1)-1))."""
        return -((1 << (self.width - 1)) - 1)

    @property
    def max_code(self) -> int:
        """Most positive representable integer code."""
        return (1 << (self.width - 1)) - 1

    @property
    def min_value(self) -> float:
        """Most negative representable real value."""
        return self.min_code * self.scale

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""
        return self.max_code * self.scale

    @classmethod
    def for_tensor(cls, tensor: np.ndarray, width: int) -> "FixedPointFormat":
        """Choose a scale so that the absolute maximum of ``tensor`` maps onto
        the largest representable code.

        The magnitude is ``max(max, -min)``: two reductions, no ``abs()``
        copy of a possibly batch-sized tensor.
        """
        tensor = np.asarray(tensor)
        abs_max = max(float(tensor.max()), -float(tensor.min())) if tensor.size else 0.0
        if abs_max == 0.0:
            abs_max = 1.0
        max_code = (1 << (width - 1)) - 1
        return cls(width=width, scale=abs_max / max_code)

    def quantize(self, tensor: np.ndarray) -> np.ndarray:
        """Quantise a float tensor to integer codes (numpy int64 array).

        ``rint`` and ``clip`` run in place on the one float temporary.
        """
        codes = np.asarray(tensor, dtype=np.float64) / self.scale
        np.rint(codes, out=codes)
        np.clip(codes, self.min_code, self.max_code, out=codes)
        return codes.astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes back to real values."""
        return np.asarray(codes, dtype=np.float64) * self.scale

    def encode(self, value: float) -> int:
        """Quantise a scalar and return its two's-complement bit pattern."""
        code = int(self.quantize(np.asarray([value]))[0])
        return to_twos_complement(code, self.width)

    def decode(self, pattern: int) -> float:
        """Decode a two's-complement bit pattern back to a real value."""
        return from_twos_complement(pattern, self.width) * self.scale


def quantize_value(value: float, fmt: FixedPointFormat) -> int:
    """Quantise a single real value to an integer code in ``fmt``."""
    return int(fmt.quantize(np.asarray([value]))[0])


def dequantize_value(code: int, fmt: FixedPointFormat) -> float:
    """Convert an integer code in ``fmt`` back to its real value."""
    return code * fmt.scale
