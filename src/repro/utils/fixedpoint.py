"""Fixed-point formats used by the DNN evaluation layer.

The paper motivates reconfigurable bit-precision with machine-learning
inference; the DNN layer quantises weights/activations to 2/4/8-bit integers
before mapping them onto the IMC macro.  This module defines the symmetric
fixed-point format used for that quantisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitops import from_twos_complement, to_twos_complement

__all__ = ["FixedPointFormat", "quantize_rows", "quantize_value", "dequantize_value"]


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
        the largest representable code (the scale rule of
        :func:`quantize_rows`, over the tensor as one row).

        Weights take one such scale per tensor; activations take one per row
        through :func:`quantize_rows`.
        """
        tensor = np.asarray(tensor)
        return cls(width=width, scale=float(_row_scales(tensor.reshape(1, -1), width)[0]))

    def quantize(self, tensor: np.ndarray) -> np.ndarray:
        """Quantise a float tensor to integer codes (numpy int64 array)."""
        return _round_clip(np.asarray(tensor, dtype=np.float64) / self.scale, self.max_code)

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


def _row_scales(covered: np.ndarray, width: int) -> np.ndarray:
    """The one scale rule: per leading-axis row, ``max |x| / max_code``.

    A row whose scale is 0 (all zeros, or so small that the division
    underflows) takes the scale ``1 / max_code``, under which its codes are
    all 0, so every scale is finite and > 0 as :class:`FixedPointFormat`
    requires.

    Raises:
        ConfigurationError: A row holds NaN or infinity.
    """
    # One C-order |x| copy with the rows on its last axis: the max over the
    # leading axes then runs across all rows at once.
    magnitudes = np.abs(covered.T, order="C").max(axis=tuple(range(covered.ndim - 1)), initial=0.0)
    max_code = (1 << (width - 1)) - 1
    scales = magnitudes / max_code
    if not np.isfinite(scales).all():
        raise ConfigurationError("fixed-point scales must be finite; a row holds NaN or infinity")
    scales[scales == 0.0] = 1.0 / max_code
    return scales


def _round_clip(codes: np.ndarray, max_code: int) -> np.ndarray:
    """The one code rule: round half to even, clip to ``[-max_code, max_code]``.

    ``codes`` is a float temporary the caller owns; it is rounded and
    clipped in place (``np.maximum``/``np.minimum`` with ``out=``, which
    skip ``np.clip``'s Python-level dispatch).
    """
    np.rint(codes, out=codes)
    np.maximum(codes, -max_code, out=codes)
    np.minimum(codes, max_code, out=codes)
    return codes.astype(np.int64)


def quantize_rows(
    tensor: np.ndarray, width: int, covered: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantise each leading-axis row of ``tensor`` under its own scale.

    Row ``i``'s scale maps the absolute maximum of ``covered[i]`` (by
    default ``tensor[i]``) onto the largest code.  :class:`FixedPointFormat`
    shares the scale and code rules, so a row's codes never depend on the
    other rows, and a one-row tensor gets ``for_tensor`` + ``quantize``'s
    scale and codes bit for bit.

    Returns ``(int64 codes shaped like tensor, float64 scale per row)``.

    Raises:
        ConfigurationError: A row of ``covered`` holds NaN or infinity.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    scales = _row_scales(tensor if covered is None else covered, width)
    codes = tensor / scales.reshape((-1,) + (1,) * (tensor.ndim - 1))
    return _round_clip(codes, (1 << (width - 1)) - 1), scales


def quantize_value(value: float, fmt: FixedPointFormat) -> int:
    """Quantise a single real value to an integer code in ``fmt``."""
    return int(fmt.quantize(np.asarray([value]))[0])


def dequantize_value(code: int, fmt: FixedPointFormat) -> float:
    """Convert an integer code in ``fmt`` back to its real value."""
    return code * fmt.scale
