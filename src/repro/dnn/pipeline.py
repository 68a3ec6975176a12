"""End-to-end quantised CNN pipeline (conv feature extractor + MLP head).

The conv layer of :mod:`repro.dnn.conv` becomes genuinely useful only when it
is part of a network.  This module provides the small image-classification
pipeline used by the tests and examples:

* :func:`make_pattern_image_dataset` generates a synthetic image task
  (horizontal stripes vs vertical stripes vs checkerboard, plus noise) that a
  tiny CNN solves easily in float and that degrades under aggressive
  quantisation — mirroring the MLP study at the image level;
* :class:`QuantizedCNN` chains quantised conv layers with a quantised MLP
  head; the convolution filters are fixed (random, He-scaled) feature
  extractors and the head is trained on the extracted float features with the
  existing numpy trainer — no conv backprop needed;
* every integer matrix product (conv via im2col and dense) goes through the
  same pluggable matmul backend, so the whole network can run on the
  :class:`repro.dnn.imc_backend.IMCMatmulBackend` bit-exactly — or, for
  batched serving, on the weight-stationary
  :class:`repro.core.matmul.TiledMatmulEngine`
  (:meth:`QuantizedCNN.with_chip` builds and binds one in one call, and
  :class:`repro.cluster.ClusterNode` batches request streams on top).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.conv import Conv2DLayer, QuantizedConv2DLayer
from repro.dnn.datasets import DatasetSplit
from repro.dnn.model import QuantizedMLP
from repro.dnn.training import TrainingResult, train_mlp
from repro.errors import ConfigurationError
from repro.utils.validation import check_in_range, check_positive

__all__ = ["ImageDatasetSplit", "make_pattern_image_dataset", "QuantizedCNN", "train_pattern_cnn"]


@dataclass(frozen=True)
class ImageDatasetSplit:
    """Train/test split of an image-classification dataset.

    Images have shape ``(samples, channels, height, width)``.
    """

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        """(channels, height, width) of one image."""
        return tuple(self.train_images.shape[1:])

    @property
    def class_count(self) -> int:
        """Number of target classes."""
        return int(max(self.train_labels.max(), self.test_labels.max())) + 1


def _pattern_image(kind: int, size: int, rng: np.random.Generator, noise: float) -> np.ndarray:
    coords = np.indices((size, size))
    if kind == 0:  # horizontal stripes
        image = (coords[0] // 2) % 2
    elif kind == 1:  # vertical stripes
        image = (coords[1] // 2) % 2
    else:  # checkerboard
        image = (coords[0] + coords[1]) % 2
    image = image.astype(np.float64)
    image += rng.normal(0.0, noise, size=(size, size))
    phase_shift = rng.integers(0, 2)
    if phase_shift:
        image = np.roll(image, 1, axis=kind % 2)
    return image


def make_pattern_image_dataset(
    samples: int = 480,
    size: int = 8,
    noise: float = 0.3,
    test_fraction: float = 0.25,
    seed: int = 13,
) -> ImageDatasetSplit:
    """Synthetic 3-class image dataset (stripes / stripes / checkerboard)."""
    check_positive("samples", samples)
    check_positive("size", size)
    check_in_range("noise", noise, 0.0, 2.0)
    check_in_range("test_fraction", test_fraction, 0.05, 0.9)
    rng = np.random.default_rng(seed)
    images = np.empty((samples, 1, size, size), dtype=np.float64)
    labels = np.empty(samples, dtype=np.int64)
    for index in range(samples):
        label = index % 3
        images[index, 0] = _pattern_image(label, size, rng, noise)
        labels[index] = label
    order = rng.permutation(samples)
    images, labels = images[order], labels[order]
    images = (images - images.mean()) / (images.std() + 1e-9)
    test_count = int(round(samples * test_fraction))
    return ImageDatasetSplit(
        train_images=images[test_count:],
        train_labels=labels[test_count:],
        test_images=images[:test_count],
        test_labels=labels[:test_count],
    )


@dataclass
class QuantizedCNN:
    """A quantised conv feature extractor followed by a quantised MLP head."""

    conv_layers: List[QuantizedConv2DLayer]
    head: QuantizedMLP
    matmul: Optional[Callable] = None

    def with_backend(self, matmul: Callable) -> "QuantizedCNN":
        """Bind every integer matmul of the pipeline to a backend."""
        return QuantizedCNN(
            conv_layers=self.conv_layers,
            head=self.head.with_backend(matmul),
            matmul=matmul,
        )

    def with_chip(
        self, num_macros: int = 8, precision_bits: int = 8
    ) -> "QuantizedCNN":
        """Bind the pipeline to a weight-stationary engine on a fresh chip.

        Builds an ``num_macros``-shard :class:`repro.core.chip.IMCChip`,
        wraps it in a :class:`repro.core.matmul.TiledMatmulEngine` and binds
        every integer matmul (conv via im2col and dense) to it; the engine
        is reachable afterwards as ``model.matmul`` for statistics.
        """
        from repro.core.chip import IMCChip
        from repro.core.config import MacroConfig
        from repro.core.matmul import TiledMatmulEngine

        engine = TiledMatmulEngine(
            IMCChip(num_macros, MacroConfig(precision_bits=precision_bits))
        )
        return self.with_backend(engine)

    def _features(self, images: np.ndarray) -> np.ndarray:
        values = np.asarray(images, dtype=np.float64)
        for layer in self.conv_layers:
            values = layer.forward(values, matmul=self.matmul)
        return values.reshape(values.shape[0], -1)

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class logits for a batch of images."""
        return self.head.forward(self._features(images))

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(images), axis=1)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy."""
        return float(np.mean(self.predict(images) == np.asarray(labels)))

    def mac_count(self, images: np.ndarray) -> int:
        """Total MACs for a batch (conv + dense)."""
        conv_macs = sum(layer.mac_count(images) for layer in self.conv_layers)
        return conv_macs + self.head.mac_count(images.shape[0])


def train_pattern_cnn(
    dataset: ImageDatasetSplit,
    conv_channels: Sequence[int] = (4,),
    kernel_size: int = 3,
    hidden_sizes: Tuple[int, ...] = (16,),
    weight_bits: int = 8,
    activation_bits: Optional[int] = None,
    epochs: int = 20,
    seed: int = 0,
) -> Tuple[QuantizedCNN, TrainingResult]:
    """Build and train the quantised CNN pipeline.

    The convolution filters are fixed random feature extractors; only the MLP
    head is trained (on the float features), which keeps training simple
    while still exercising the full conv + dense integer path at inference
    time.  Returns the quantised pipeline and the head's training result.
    """
    if not conv_channels:
        raise ConfigurationError("at least one convolution layer is required")
    if activation_bits is None:
        activation_bits = weight_bits

    channels, _, _ = dataset.image_shape
    float_convs: List[Conv2DLayer] = []
    in_channels = channels
    for index, out_channels in enumerate(conv_channels):
        float_convs.append(
            Conv2DLayer.random(
                in_channels, out_channels, kernel_size=kernel_size, seed=seed + index
            )
        )
        in_channels = out_channels

    def extract(images: np.ndarray) -> np.ndarray:
        values = images
        for layer in float_convs:
            values = layer.forward(values)
        return values.reshape(values.shape[0], -1)

    train_features = extract(dataset.train_images)
    test_features = extract(dataset.test_images)
    feature_split = DatasetSplit(
        train_x=train_features,
        train_y=dataset.train_labels,
        test_x=test_features,
        test_y=dataset.test_labels,
    )
    training = train_mlp(feature_split, hidden_sizes=hidden_sizes, epochs=epochs, seed=seed)

    quantized_convs = [
        QuantizedConv2DLayer(layer, weight_bits=weight_bits, activation_bits=activation_bits)
        for layer in float_convs
    ]
    head = QuantizedMLP.from_float(
        training.model, weight_bits=weight_bits, activation_bits=activation_bits
    )
    return QuantizedCNN(conv_layers=quantized_convs, head=head), training
