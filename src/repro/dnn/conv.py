"""Quantised 2-D convolution layer for IMC inference.

The CONV-SRAM / Neural-Cache line of work the paper cites targets
convolutional networks, so the DNN package also provides a small quantised
``Conv2D`` layer.  It is implemented with the standard im2col lowering: every
output position's receptive field is flattened into a row of an activation
matrix, and the convolution becomes exactly the integer matrix product the
:class:`repro.dnn.imc_backend.IMCMatmulBackend` already executes on the
macro.  This keeps a single, well-tested integer code path for both dense and
convolutional layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.dnn.quantization import QuantizedTensor, quantize_tensor
from repro.errors import ConfigurationError
from repro.utils.fixedpoint import quantize_rows

__all__ = ["Conv2DLayer", "QuantizedConv2DLayer", "conv_output_shape", "im2col"]


def conv_output_shape(
    height: int, width: int, kernel_size: int, stride: int = 1
) -> Tuple[int, int]:
    """(out_height, out_width) of a no-padding square-kernel convolution.

    The single source of the output-shape arithmetic: :func:`im2col` sizes
    its patch matrix with it, and the cluster layer prices conv dispatches
    from it — both must agree on the row count per image.
    """
    if kernel_size <= 0 or stride <= 0:
        raise ConfigurationError("kernel_size and stride must be positive")
    if height < kernel_size or width < kernel_size:
        raise ConfigurationError("image smaller than the convolution kernel")
    return (height - kernel_size) // stride + 1, (width - kernel_size) // stride + 1


def _check_images(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ConfigurationError(
            f"im2col expects (batch, channels, height, width), got shape {images.shape}"
        )
    return images


def _windows(array: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Strided ``(batch, channels, out_y, out_x, k, k)`` window view (no copy)."""
    return np.lib.stride_tricks.sliding_window_view(
        array, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]


def _lower(array: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Gather the windows of a 4-D array of any dtype into im2col rows.

    Transposing the window view to ``(batch, out_y, out_x, channels, k, k)``
    reproduces the reference row-major patch order exactly (one row per
    output position, each row a flattened ``(channels, k, k)`` receptive
    field); the one contiguous copy is the only allocation.
    """
    windows = _windows(array, kernel_size, stride)
    batch, channels, out_height, out_width = windows.shape[:4]
    return np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * out_height * out_width, channels * kernel_size * kernel_size
    )


def im2col(
    images: np.ndarray, kernel_size: int, stride: int = 1
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower a batch of images into the im2col matrix.

    Parameters
    ----------
    images:
        Array of shape ``(batch, channels, height, width)``.
    kernel_size / stride:
        Square kernel size and stride (no padding).

    Returns
    -------
    (matrix, (out_height, out_width)) where ``matrix`` has shape
    ``(batch * out_height * out_width, channels * kernel_size^2)``.
    """
    images = _check_images(images)
    out_shape = conv_output_shape(images.shape[2], images.shape[3], kernel_size, stride)
    return _lower(images, kernel_size, stride), out_shape


@dataclass
class Conv2DLayer:
    """A float 2-D convolution layer (square kernel, no padding)."""

    weights: np.ndarray  # (out_channels, in_channels, k, k)
    bias: np.ndarray  # (out_channels,)
    stride: int = 1
    relu: bool = True

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise ConfigurationError(
                "conv weights must have shape (out_channels, in_channels, k, k)"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise ConfigurationError("bias length must equal the output channel count")
        if self.stride <= 0:
            raise ConfigurationError("stride must be positive")

    @property
    def out_channels(self) -> int:
        """Number of output channels."""
        return self.weights.shape[0]

    @property
    def kernel_size(self) -> int:
        """Square kernel size."""
        return self.weights.shape[2]

    @classmethod
    def random(
        cls,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        relu: bool = True,
        seed: int = 0,
    ) -> "Conv2DLayer":
        """He-initialised random convolution layer."""
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        weights = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        return cls(weights=weights, bias=np.zeros(out_channels), stride=stride, relu=relu)

    def _weight_matrix(self) -> np.ndarray:
        return self.weights.reshape(self.out_channels, -1).T  # (C*k*k, out_channels)

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Float forward pass; returns (batch, out_channels, out_h, out_w)."""
        columns, (out_height, out_width) = im2col(images, self.kernel_size, self.stride)
        outputs = columns @ self._weight_matrix() + self.bias
        if self.relu:
            outputs = np.maximum(outputs, 0.0)
        batch = images.shape[0]
        return (
            outputs.reshape(batch, out_height, out_width, self.out_channels)
            .transpose(0, 3, 1, 2)
        )


@dataclass
class QuantizedConv2DLayer:
    """Integer-arithmetic convolution derived from a float layer."""

    float_layer: Conv2DLayer
    weight_bits: int
    activation_bits: int
    quantized_weights: Optional[QuantizedTensor] = None

    def __post_init__(self) -> None:
        if self.weight_bits < 2 or self.activation_bits < 2:
            raise ConfigurationError("quantisation widths must be at least 2 bits")
        if self.quantized_weights is None:
            self.quantized_weights = quantize_tensor(
                self.float_layer._weight_matrix(), self.weight_bits
            )

    def forward(
        self, images: np.ndarray, matmul: Optional[Callable] = None
    ) -> np.ndarray:
        """Quantised forward pass through an integer matmul backend.

        Each image has its own activation scale, set by the pixels its
        windows cover, so an image's outputs do not depend on its
        batchmates.  Every im2col entry is a pixel and quantisation is
        elementwise, so it commutes with the gather: the pixels are
        quantised once and their integer codes are lowered.  The code matrix
        equals the one quantising the k^2-fold im2col matrix would give,
        without that matrix's float temporaries.  Each image's output rows
        are rescaled by its scale after the integer accumulation.
        """
        layer = self.float_layer
        kernel, stride = layer.kernel_size, layer.stride
        images = _check_images(images)
        out_height, out_width = conv_output_shape(
            images.shape[2], images.shape[3], kernel, stride
        )
        # The windows span this crop; with stride <= kernel they cover all
        # of it, with stride > kernel they skip the gaps between them.
        span_height = (out_height - 1) * stride + kernel
        span_width = (out_width - 1) * stride + kernel
        pixels = images[:, :, :span_height, :span_width]
        covered = pixels if stride <= kernel else _windows(pixels, kernel, stride)
        codes, scales = quantize_rows(pixels, self.activation_bits, covered)
        codes = _lower(codes, kernel, stride)
        if matmul is None:
            accumulator = codes @ self.quantized_weights.codes
        else:
            accumulator = matmul(codes, self.quantized_weights.codes)
        batch = images.shape[0]
        outputs = accumulator.astype(np.float64).reshape(
            batch, out_height * out_width, layer.out_channels
        )
        outputs *= scales[:, None, None]
        outputs *= self.quantized_weights.scale
        outputs += layer.bias
        if layer.relu:
            np.maximum(outputs, 0.0, out=outputs)
        return (
            outputs.reshape(batch, out_height, out_width, layer.out_channels)
            .transpose(0, 3, 1, 2)
        )

    def mac_count(self, images: np.ndarray) -> int:
        """Multiply-accumulate operations for a batch of images."""
        layer = self.float_layer
        _, (out_height, out_width) = im2col(images, layer.kernel_size, layer.stride)
        per_position = layer.weights[0].size
        return images.shape[0] * out_height * out_width * layer.out_channels * per_position
