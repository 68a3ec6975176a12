"""Batched CNN inference serving on the weight-stationary chip engine.

Run with::

    python examples/serve_cnn.py

The production path of the reproduction: a trained quantised CNN is
registered on a :class:`repro.cluster.ClusterNode`, whose 16-macro sharded
chip runs a :class:`repro.core.matmul.TiledMatmulEngine`, and the node's
batch loop cuts a stream of small client requests into activation batches.
Weights are programmed into the arrays once (the ``ProgrammedWeights`` cache
charges programming on first touch only), every batch streams past the
stationary tiles, and the dispatch reports its modeled chip time; the
engine's ledger gives chip utilization.  The same requests are served at
several coalescing budgets by
:func:`repro.analysis.experiments.serving_throughput_study` (img/s is the
fastest of five timings) to show why batching pays; one node then serves
them at the largest budget to check the answers and show its accounting.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import serving_throughput_study
from repro.cluster import ClusterNode
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn

NUM_MACROS = 16
REQUEST_IMAGES = 3
BATCH_SIZES = (1, 8, 32)


def main() -> None:
    print("=== Serving 3-image requests at three coalescing budgets ===")
    points = serving_throughput_study(
        batch_sizes=BATCH_SIZES, num_macros=NUM_MACROS, request_images=REQUEST_IMAGES
    )
    first = points[BATCH_SIZES[0]]
    print(f"workload: {first.requests} requests x {REQUEST_IMAGES} images")
    header = (
        f"{'max batch':>9} | {'batches':>7} | {'imgs/s':>8} | "
        f"{'chip time [us]':>14} | {'util':>5} | {'hits/misses':>11}"
    )
    print(header)
    print("-" * len(header))
    for max_batch_size, point in points.items():
        print(
            f"{max_batch_size:>9} | {point.batches:>7} | "
            f"{point.throughput_images_per_s:>8.0f} | "
            f"{point.modeled_chip_time_s * 1e6:>14.2f} | "
            f"{point.mean_utilization:>5.2f} | "
            f"{point.cache_hits:>5}/{point.cache_misses}"
        )

    print("\n=== Training the pattern CNN (8-bit) ===")
    dataset = make_pattern_image_dataset(samples=240, size=8, seed=13)
    cnn, training = train_pattern_cnn(dataset, epochs=12, weight_bits=8)
    print(f"float head accuracy: {training.test_accuracy * 100:.1f} %")

    test_images = dataset.test_images
    requests = [
        (test_images[start : start + REQUEST_IMAGES], None)
        for start in range(0, test_images.shape[0], REQUEST_IMAGES)
    ]
    node = ClusterNode("serve", num_macros=NUM_MACROS, max_batch_size=BATCH_SIZES[-1])
    node.register_model("cnn", cnn)
    _, dispatch = node.execute_group("cnn", requests)

    print("\n=== Checking the served answers ===")
    predictions = dispatch.predictions
    reference = cnn.predict(test_images)
    accuracy = float(np.mean(predictions == dataset.test_labels))
    print(f"bit-exact vs integer reference : {bool(np.array_equal(predictions, reference))}")
    print(f"served accuracy                : {accuracy * 100:.1f} %")

    stats = node.engine.statistics()
    print(f"\n=== Weight-stationary accounting (one node, max batch {BATCH_SIZES[-1]}) ===")
    print(f"programmed tiles               : {stats['programmed_tiles']:.0f}")
    print(f"programming cycles (1st touch) : {stats['program_cycles']:.0f}")
    print(f"resident array rows            : {stats['cache_resident_rows']:.0f} "
          f"of {stats['cache_capacity_rows']:.0f}")
    print(f"in-memory work cycles          : {stats['cycles']:.0f}")
    print(f"in-memory energy               : {stats['energy_j'] * 1e9:.2f} nJ")
    print(
        "\nLarger coalescing budgets amortise the fixed per-dispatch cost over "
        "more images;\nthe weights were programmed once and stayed stationary "
        "for every batch."
    )


if __name__ == "__main__":
    main()
