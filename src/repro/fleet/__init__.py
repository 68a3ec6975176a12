"""Multi-process fleet workers: parallel forwards, one coordinator ledger.

``repro.fleet`` shards a cluster's :class:`~repro.cluster.node.ClusterNode`
fleet across spawn-context worker processes while keeping the entire
virtual-time admission/scheduling loop — and therefore every ledger sum,
deadline outcome and trace — bit-identical to the single-process
:class:`~repro.cluster.router.ClusterRouter` oracle.

The split that makes this possible:

* The **coordinator** (:class:`FleetCluster`) runs the unmodified router
  loop over charge-only :class:`ShadowNode` replicas: every dispatch is
  priced through the engine's exact-charge API (pinned bit-identical to
  EXACT execution by the execution-mode tests), so scheduling never waits
  on a worker.
* **Workers** (:func:`worker_main`) only forward: they keep the
  registered models and nothing else, and run the numpy forwards in
  parallel, one golden forward per model over each run of dispatches
  they receive; the predictions land in place inside the shadows'
  placeholder arrays.  The shadows keep the fleet's one ledger.
* Activation tensors cross the process boundary once per distinct digest
  via the shared-memory :class:`TensorStore`/:class:`TensorReader` pair.
* Delivery is audited as completions land: each must answer exactly one
  in-flight group, with one prediction array per part, each as long as
  its part (:class:`FleetFidelityError` otherwise).  At
  :meth:`FleetCluster.sync` barriers worker ``repro.obs`` snapshots are
  merged in stable rank order — the deterministic merge.

Worker death is a fault, not a failure: queued requests replay onto
survivors through the router's backlog-replay machinery, and in-flight
groups are recovered coordinator-side with the same fused forward.
"""

from repro.cluster.node import NodeSpec
from repro.fleet import messages
from repro.fleet.coordinator import FleetCluster, FleetError, FleetFidelityError
from repro.fleet.shadow import FleetRouter, ShadowNode
from repro.fleet.shm import TensorReader, TensorStore
from repro.fleet.worker import WorkerConfig, worker_main

__all__ = [
    "FleetCluster",
    "FleetError",
    "FleetFidelityError",
    "FleetRouter",
    "NodeSpec",
    "ShadowNode",
    "TensorReader",
    "TensorStore",
    "WorkerConfig",
    "messages",
    "worker_main",
]
