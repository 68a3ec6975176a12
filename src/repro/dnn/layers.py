"""Dense layers: float reference and integer-quantised versions.

A :class:`DenseLayer` is an ordinary ``y = activation(x @ W + b)`` layer used
for training the float reference network.  A :class:`QuantizedDenseLayer` is
derived from a trained float layer: weights and incoming activations are
quantised to signed integers, the matrix product is carried out **entirely in
integer arithmetic** (which is what gets mapped onto the IMC macro), and the
result is rescaled back to floats before the activation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.dnn.quantization import QuantizedTensor, quantize_tensor
from repro.utils.fixedpoint import quantize_rows

__all__ = ["DenseLayer", "QuantizedDenseLayer"]


def _relu(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, 0.0)


@dataclass
class DenseLayer:
    """A float dense layer with an optional ReLU."""

    weights: np.ndarray
    bias: np.ndarray
    relu: bool = True

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ConfigurationError("weights must be a 2-D matrix (in x out)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ConfigurationError(
                f"bias shape {self.bias.shape} does not match weight columns "
                f"{self.weights.shape[1]}"
            )

    @property
    def input_size(self) -> int:
        """Number of input features."""
        return self.weights.shape[0]

    @property
    def output_size(self) -> int:
        """Number of output features."""
        return self.weights.shape[1]

    @classmethod
    def random(
        cls,
        input_size: int,
        output_size: int,
        relu: bool = True,
        seed: int = 0,
    ) -> "DenseLayer":
        """He-initialised random layer."""
        rng = np.random.default_rng(seed)
        scale = np.sqrt(2.0 / input_size)
        return cls(
            weights=rng.normal(0.0, scale, size=(input_size, output_size)),
            bias=np.zeros(output_size),
            relu=relu,
        )

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Float forward pass."""
        outputs = np.asarray(inputs, dtype=np.float64) @ self.weights + self.bias
        return _relu(outputs) if self.relu else outputs


@dataclass
class QuantizedDenseLayer:
    """An integer-arithmetic dense layer derived from a float layer."""

    float_layer: DenseLayer
    weight_bits: int
    activation_bits: int
    quantized_weights: QuantizedTensor = None  # filled in __post_init__

    def __post_init__(self) -> None:
        if self.weight_bits < 2 or self.activation_bits < 2:
            raise ConfigurationError("quantisation widths must be at least 2 bits")
        if self.quantized_weights is None:
            self.quantized_weights = quantize_tensor(
                self.float_layer.weights, self.weight_bits
            )

    @property
    def relu(self) -> bool:
        """Whether the layer applies a ReLU."""
        return self.float_layer.relu

    def quantize_activations(self, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Quantise an activation batch to the configured width, row by row.

        Each row (one input of the batch) has its own scale, so its codes
        do not depend on its batchmates.  Returns ``(int64 codes, float64
        scale per row)``: the codes :meth:`forward` sends to the matmul.
        """
        return quantize_rows(inputs, self.activation_bits)

    def integer_matmul_reference(
        self, activation_codes: np.ndarray
    ) -> np.ndarray:
        """Pure-numpy integer matrix product (golden path for the backend)."""
        return activation_codes.astype(np.int64) @ self.quantized_weights.codes

    def forward(
        self,
        inputs: np.ndarray,
        matmul: Optional[callable] = None,
    ) -> np.ndarray:
        """Quantised forward pass.

        ``matmul`` lets the caller substitute the integer matrix-product
        implementation — the IMC backend plugs in here.  The function
        receives (activation codes, weight codes) and must return the int64
        product matrix.
        """
        codes, scales = self.quantize_activations(inputs)
        if matmul is None:
            accumulator = self.integer_matmul_reference(codes)
        else:
            accumulator = matmul(codes, self.quantized_weights.codes)
        # Each row's scale applies after its integer accumulation.
        outputs = accumulator.astype(np.float64)
        outputs *= scales[:, None]
        outputs *= self.quantized_weights.scale
        outputs += self.float_layer.bias
        return _relu(outputs) if self.relu else outputs

    def mac_count(self, batch: int) -> int:
        """Multiply-accumulate operations needed for a batch."""
        return batch * self.float_layer.input_size * self.float_layer.output_size
