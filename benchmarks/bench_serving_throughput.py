"""Batched CNN serving on the weight-stationary engine + the 50x gate.

Two measurements:

* **Acceptance gate** — end-to-end CNN inference (conv via im2col + MLP
  head) on the pattern dataset through the weight-stationary
  :class:`TiledMatmulEngine` must beat the per-scalar IMC matmul path (one
  ``macro.compute(MULT)`` round trip per multiply — the seed's execution
  discipline) by >= 50x per image.  The per-scalar path runs on a small
  image slice; both paths are timed on the *same* slice, so the ratio is a
  direct measurement, not an extrapolation.
* **Serving sweep** — :func:`repro.analysis.experiments.serving_throughput_study`:
  the trained CNN served as one request stream on one
  :class:`repro.cluster.ClusterNode` per coalescing batch size, whose batch
  loop cuts the stream into ``max_batch_size`` batches; throughput rises
  with the batch budget while the weight cache keeps every layer
  programmed exactly once.

JSON lands in ``benchmarks/results/serving_throughput.json`` for the
`bench-regression` CI gate.
"""

import os
import time

import numpy as np

from repro.analysis import experiments
from repro.analysis.report import format_table
from repro.core import IMCMacro, MacroConfig, Opcode
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SAMPLES = 120 if SMOKE else 240
EPOCHS = 8 if SMOKE else 12
BATCH_SIZES = (1, 8, 32) if SMOKE else (1, 4, 16, 64)
GATE_IMAGES = 2
NUM_MACROS = 16
SPEEDUP_GATE = 50.0


class PerScalarIMCBackend:
    """The seed's discipline: one in-memory round trip per scalar multiply.

    Every multiply writes both operand words into scratch rows, runs the
    full MULT micro-sequence on the array, and reads the product back —
    reprogramming the operands for every MAC, which is exactly what the
    weight-stationary engine exists to avoid.
    """

    def __init__(self, precision_bits: int = 8) -> None:
        self.macro = IMCMacro(MacroConfig(precision_bits=precision_bits))
        self.precision_bits = precision_bits

    def __call__(self, activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
        activations = np.asarray(activations, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        batch, inner = activations.shape
        outer = weights.shape[1]
        output = np.zeros((batch, outer), dtype=np.int64)
        for row in range(batch):
            for col in range(outer):
                total = 0
                for k in range(inner):
                    a = int(activations[row, k])
                    w = int(weights[k, col])
                    magnitude = self.macro.compute(
                        Opcode.MULT, abs(a), abs(w), self.precision_bits
                    )
                    total += (1 if a >= 0 else -1) * (1 if w >= 0 else -1) * magnitude
                output[row, col] = total
        return output


def test_cnn_speedup_vs_per_scalar_path(reporter, write_results_json):
    dataset = make_pattern_image_dataset(samples=SAMPLES, size=8)
    cnn, training = train_pattern_cnn(dataset, epochs=EPOCHS)
    slice_images = dataset.test_images[:GATE_IMAGES]

    scalar_model = cnn.with_backend(PerScalarIMCBackend())
    start = time.perf_counter()
    scalar_predictions = scalar_model.predict(slice_images)
    scalar_wall = time.perf_counter() - start

    engine_model = cnn.with_chip(num_macros=NUM_MACROS)
    start = time.perf_counter()
    engine_predictions = engine_model.predict(slice_images)
    engine_wall = time.perf_counter() - start

    reference_predictions = cnn.predict(slice_images)
    assert np.array_equal(engine_predictions, reference_predictions)
    assert np.array_equal(scalar_predictions, reference_predictions)

    macs = cnn.mac_count(slice_images)
    speedup = scalar_wall / engine_wall
    reporter(
        f"End-to-end CNN inference, {GATE_IMAGES} images "
        f"({macs} MACs) — weight-stationary engine vs per-scalar path",
        format_table(
            ["path", "host wall [s]", "per-image [ms]", "speedup"],
            [
                ["per-scalar IMC backend", scalar_wall, scalar_wall / GATE_IMAGES * 1e3, 1.0],
                [
                    f"tiled engine ({NUM_MACROS} macros)",
                    engine_wall,
                    engine_wall / GATE_IMAGES * 1e3,
                    speedup,
                ],
            ],
        ),
    )

    write_results_json(
        "serving_speedup",
        {
            "smoke": SMOKE,
            "gate_images": GATE_IMAGES,
            "mac_count": macs,
            "per_scalar_wall_s": scalar_wall,
            "engine_wall_s": engine_wall,
            "speedup": speedup,
            "gate": SPEEDUP_GATE,
            "float_test_accuracy": training.test_accuracy,
        },
    )
    # Acceptance gate of the matmul-engine PR.
    assert speedup >= SPEEDUP_GATE


def test_serving_throughput_sweep(benchmark, reporter, write_results_json):
    result = benchmark.pedantic(
        experiments.serving_throughput_study,
        kwargs={
            "batch_sizes": BATCH_SIZES,
            "num_macros": NUM_MACROS,
            "samples": SAMPLES,
            "epochs": EPOCHS,
        },
        rounds=1,
        iterations=1,
    )

    rows = []
    for batch_size in BATCH_SIZES:
        point = result[batch_size]
        rows.append(
            [
                batch_size,
                point.batches,
                point.mean_batch_size,
                point.throughput_images_per_s,
                point.modeled_chip_time_s * 1e6,
                point.mean_utilization,
                point.accuracy,
            ]
        )
    reporter(
        f"Batched serving on {NUM_MACROS} macros — coalescing sweep",
        format_table(
            [
                "max batch",
                "batches",
                "mean size",
                "imgs/s (host)",
                "chip time [us]",
                "utilization",
                "accuracy",
            ],
            rows,
        ),
    )

    write_results_json(
        "serving_throughput",
        {
            "smoke": SMOKE,
            "num_macros": NUM_MACROS,
            "points": {
                str(batch_size): {
                    "requests": point.requests,
                    "images": point.images,
                    "batches": point.batches,
                    "mean_batch_size": point.mean_batch_size,
                    "throughput_images_per_s": point.throughput_images_per_s,
                    "modeled_chip_time_s": point.modeled_chip_time_s,
                    "mean_utilization": point.mean_utilization,
                    "cache_hits": point.cache_hits,
                    "cache_misses": point.cache_misses,
                    "accuracy": point.accuracy,
                }
                for batch_size, point in result.items()
            },
        },
    )

    largest = result[BATCH_SIZES[-1]]
    smallest = result[BATCH_SIZES[0]]
    # Coalescing must pay: bigger batches -> strictly higher host throughput
    # (generous 1.5x floor; in practice it is much larger).
    assert largest.throughput_images_per_s > 1.5 * smallest.throughput_images_per_s
    # Every point classifies the pattern task essentially as well as float.
    for point in result.values():
        assert point.accuracy >= 0.8
