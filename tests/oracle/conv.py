"""The frozen quantise-after-lowering conv forward: the differential oracle.

This is the quantised convolution's original forward — lower the images to
the im2col matrix, then quantise that matrix, each pixel ``k^2`` times over,
with its absolute maximum as the activation scale — kept unchanged, with
the im2col lowering and the ``FixedPointFormat`` scale and quantise steps it
ran on, as the reference :meth:`repro.dnn.conv.QuantizedConv2DLayer.forward`
must match bit for bit.  No production path uses it; the differential
suite (``tests/test_conv_oracle.py``) runs both on the same layers, images
and backends and compares every observable.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.dnn.conv import QuantizedConv2DLayer, conv_output_shape
from repro.utils.fixedpoint import FixedPointFormat

__all__ = ["im2col", "for_tensor", "quantize", "quantized_conv_forward"]


def im2col(
    images: np.ndarray, kernel_size: int, stride: int = 1
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """The ``(batch * out_h * out_w, channels * k^2)`` patch matrix."""
    images = np.asarray(images, dtype=np.float64)
    batch, channels, height, width = images.shape
    out_height, out_width = conv_output_shape(height, width, kernel_size, stride)
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    columns = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * out_height * out_width, channels * kernel_size * kernel_size
    )
    return columns, (out_height, out_width)


def for_tensor(tensor: np.ndarray, width: int) -> FixedPointFormat:
    """The format whose largest code represents ``max(abs(tensor))``."""
    abs_max = float(np.max(np.abs(tensor))) if tensor.size else 0.0
    if abs_max == 0.0:
        abs_max = 1.0
    max_code = (1 << (width - 1)) - 1
    return FixedPointFormat(width=width, scale=abs_max / max_code)


def quantize(fmt: FixedPointFormat, tensor: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even integer codes, clipped to the symmetric range."""
    codes = np.rint(np.asarray(tensor, dtype=np.float64) / fmt.scale)
    return np.clip(codes, fmt.min_code, fmt.max_code).astype(np.int64)


def quantized_conv_forward(
    layer: QuantizedConv2DLayer, images: np.ndarray, matmul: Optional[Callable] = None
) -> np.ndarray:
    """``layer``'s forward as quantise-after-lowering computes it."""
    float_layer = layer.float_layer
    columns, (out_height, out_width) = im2col(
        images, float_layer.kernel_size, float_layer.stride
    )
    fmt = for_tensor(columns, layer.activation_bits)
    codes = quantize(fmt, columns)
    if matmul is None:
        accumulator = codes.astype(np.int64) @ layer.quantized_weights.codes
    else:
        accumulator = matmul(codes, layer.quantized_weights.codes)
    outputs = (
        accumulator.astype(np.float64) * fmt.scale * layer.quantized_weights.scale
        + float_layer.bias
    )
    if float_layer.relu:
        outputs = np.maximum(outputs, 0.0)
    batch = np.asarray(images).shape[0]
    return outputs.reshape(batch, out_height, out_width, float_layer.out_channels).transpose(
        0, 3, 1, 2
    )
