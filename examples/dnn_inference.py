"""Quantised neural-network inference on the IMC macro.

Run with::

    python examples/dnn_inference.py

This is the machine-learning use case that motivates the paper's
reconfigurable bit-precision: a small MLP is trained in float (numpy), its
weights and activations are quantised to 8/4/2-bit integers, and the integer
matrix products are executed with the macro's in-memory multiply/add.  The
script reports accuracy, per-inference energy and latency at each precision,
and verifies on a data slice that the in-memory arithmetic matches the
integer reference bit-exactly.
"""

from __future__ import annotations

import numpy as np

from repro import IMCMacro, MacroConfig
from repro.dnn import (
    IMCMatmulBackend,
    NumpyIntBackend,
    make_classification_dataset,
    train_mlp,
)


def main() -> None:
    print("=== Training the float reference model ===")
    dataset = make_classification_dataset(samples=900, features=16, classes=4, seed=11)
    train_n, test_n, features, classes = dataset.summary()
    print(f"dataset: {train_n} train / {test_n} test samples, "
          f"{features} features, {classes} classes")
    training = train_mlp(dataset, hidden_sizes=(32, 16), epochs=30, seed=11)
    print(f"float accuracy: train {training.train_accuracy * 100:.1f} %, "
          f"test {training.test_accuracy * 100:.1f} %")

    print("\n=== Quantised inference at reconfigurable precision ===")
    header = (
        f"{'precision':>10} | {'accuracy':>9} | {'MACs/inf':>9} | "
        f"{'energy/inf':>11} | {'latency/inf':>11}"
    )
    print(header)
    print("-" * len(header))
    for bits in (8, 4, 2):
        quantized = training.model.quantize(bits)
        accuracy = quantized.accuracy(dataset.test_x, dataset.test_y)
        macro = IMCMacro(MacroConfig(precision_bits=max(bits, 2)))
        backend = IMCMatmulBackend(macro, precision_bits=max(bits, 2))
        macs = quantized.mac_count(1)
        cost = backend.estimate_inference_cost(macs)
        print(
            f"{bits:>7}bit | {accuracy * 100:>8.1f}% | {macs:>9d} | "
            f"{cost['energy_j'] * 1e9:>8.2f} nJ | {cost['latency_s'] * 1e6:>8.2f} us"
        )

    print("\n=== Bit-exact verification on the macro ===")
    quantized = training.model.quantize(8)
    macro = IMCMacro()
    imc_backend = IMCMatmulBackend(macro, precision_bits=8)
    reference_backend = NumpyIntBackend()
    layer = quantized.layers[0]
    codes, _ = layer.quantize_activations(dataset.test_x[:4])
    reference = reference_backend(codes, layer.quantized_weights.codes)
    on_macro = imc_backend(codes, layer.quantized_weights.codes)
    matches = bool(np.array_equal(reference, on_macro))
    print(f"first-layer integer matmul on the macro matches numpy: {matches}")
    stats = imc_backend.statistics()
    print(f"in-memory cycles spent: {stats['cycles']:.0f}, "
          f"energy: {stats['energy_j'] * 1e9:.2f} nJ, "
          f"MACs executed: {stats['mac_count']:.0f}")

    print("\nPrecision can be traded for energy/latency at runtime by "
          "reconfiguring the carry chain — no hardware change needed.")


if __name__ == "__main__":
    main()
