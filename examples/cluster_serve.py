"""Mixed-SLA serving on a DVFS-aware multi-chip cluster.

Run with::

    python examples/cluster_serve.py

The fleet-scale path of the reproduction: two quantised CNNs are served by
a :class:`repro.cluster.ClusterRouter` over four chips pinned to different
supply-voltage operating points (two fast 1.0 V nodes, two efficient 0.6 V
nodes).  Latency-class requests carry deadlines and ride the fast rung;
throughput-class requests ride the efficient rung (joules scale with VDD^2,
cycle time with the delay model); weight-affinity routing keeps each
model's traffic on nodes whose caches already hold its layers until the
model runs hot and replicates.  A reactive autoscaler then parks the idle
half of the fleet once the burst passes.  Everything runs in modeled
virtual time, so every number printed here is deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterNode, ClusterRouter, ReactiveAutoscaler, SLAClass
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn

NUM_MACROS = 16
WAVES = 5


def main() -> None:
    print("=== Training two pattern CNNs (8-bit) ===")
    dataset = make_pattern_image_dataset(samples=150, size=8, seed=13)
    model_a, _ = train_pattern_cnn(dataset, epochs=8, seed=0)
    model_b, _ = train_pattern_cnn(dataset, epochs=8, seed=1)

    print("\n=== Building the DVFS fleet ===")
    fleet = [
        ClusterNode("fast-0", vdd=1.0, num_macros=NUM_MACROS),
        ClusterNode("fast-1", vdd=1.0, num_macros=NUM_MACROS),
        ClusterNode("eco-0", vdd=0.6, num_macros=NUM_MACROS),
        ClusterNode("eco-1", vdd=0.6, num_macros=NUM_MACROS),
    ]
    for node in fleet:
        print(
            f"  {node.node_id}: {node.vdd:.1f} V, "
            f"{node.max_frequency_hz / 1e6:7.0f} MHz, "
            f"{node.num_macros} macros"
        )

    with ClusterRouter(fleet) as router:
        router.register_model("model-a", model_a)
        router.register_model("model-b", model_b)

        # Deadline: 3x the warm modeled latency of a fast node.
        probe = dataset.test_images[:2]
        fleet[0].execute("model-a", probe)  # warm one fast node
        deadline_s = 3.0 * fleet[0].estimate_request("model-a", probe).latency_s
        print(f"\nlatency-class deadline: {deadline_s * 1e6:.1f} us")

        print(f"\n=== Serving {WAVES} mixed-SLA waves ===")
        cursor = 0
        for wave in range(WAVES):
            arrival = wave * 4.0 * deadline_s
            for model_id, count, sla in (
                ("model-a", 2, SLAClass.LATENCY),
                ("model-b", 6, SLAClass.THROUGHPUT),
                ("model-a", 2, SLAClass.BEST_EFFORT),
            ):
                images = dataset.test_images[cursor : cursor + count]
                cursor = (cursor + count) % (dataset.test_images.shape[0] - 8)
                router.submit(
                    model_id,
                    images,
                    sla=sla,
                    deadline_s=deadline_s if sla is SLAClass.LATENCY else None,
                    arrival_s=arrival,
                )
            for result in router.drain():
                flag = "MISS" if result.deadline_missed else (
                    "warm" if result.affinity_hit else "cold"
                )
                print(
                    f"  wave {wave}: {result.sla.value:>11} {result.model_id} "
                    f"-> {result.node_id:7s} lat {result.latency_s * 1e6:7.2f} us "
                    f"E {result.energy_j * 1e9:7.2f} nJ [{flag}]"
                )

        telemetry = router.telemetry
        print("\n=== Class outcomes (modeled) ===")
        for sla in SLAClass:
            traces = telemetry.traces_for(sla=sla.value)
            if not traces:
                continue
            print(
                f"  {sla.value:>11}: {len(traces):2d} requests, "
                f"mean latency {telemetry.mean_latency_s(sla=sla.value) * 1e6:7.2f} us, "
                f"energy/image {telemetry.energy_per_image_j(sla=sla.value) * 1e9:6.2f} nJ, "
                f"miss rate {telemetry.deadline_miss_rate(sla=sla.value):.2f}"
            )

        print("\n=== Per-node ledger (sums to the cluster ledger) ===")
        cluster = router.ledger()
        for node in router.nodes:
            ledger = node.ledger()
            dispatches = telemetry.node_summary(node.node_id)["dispatches"]
            print(
                f"  {node.node_id}: {dispatches:2.0f} dispatches, "
                f"{ledger.total_cycles:9d} cycles, "
                f"{ledger.total_energy_j * 1e9:8.2f} nJ"
            )
        print(
            f"  cluster: {cluster.total_cycles:9d} cycles, "
            f"{cluster.total_energy_j * 1e9:8.2f} nJ"
        )

        print("\n=== Autoscaler reaction to the quiet period ===")
        scaler = ReactiveAutoscaler(router, min_active=1, park_after_idle=2)
        for _ in range(4):
            for action in scaler.observe():
                print(
                    f"  step {action.step}: {action.action} {action.node_id} "
                    f"(vdd {action.vdd:.1f}) — {action.reason}"
                )
        active = [node.node_id for node in router.active_nodes]
        print(f"  still active: {', '.join(active)}")

        # Sanity: the routed predictions match the reference models.
        check = dataset.test_images[:4]
        request = router.submit("model-a", check, sla=SLAClass.BEST_EFFORT)
        router.drain()
        assert np.array_equal(
            router.result(request).predictions, model_a.predict(check)
        )
        print("\nrouted predictions verified bit-exact against the reference")


if __name__ == "__main__":
    main()
