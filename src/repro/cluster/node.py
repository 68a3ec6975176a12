"""One cluster node: a chip pinned to a supply-voltage operating point.

The paper's central trade-off is operating-point dependent: the macro runs
at 2.25 GHz at 1.0 V but is most energy-efficient at 0.6 V / 372 MHz.  A
:class:`ClusterNode` turns one point of that trade-off into a serving
resource:

* it owns an :class:`repro.core.chip.IMCChip` built at the node's
  :class:`~repro.tech.technology.OperatingPoint` (frequency from the delay
  model, joules from the energy model — both already scale with VDD) and a
  :class:`repro.core.matmul.TiledMatmulEngine` on that chip, which every
  registered model shares (and therefore the weight cache — multi-model
  residency contention is real on a node);
* :meth:`estimate_request` prices a request *before* running it — modeled
  latency and energy per layer via the engine's planning path, including the
  re-programming charge when the model's weights are not resident — which is
  what the scheduler ranks nodes by;
* :meth:`execute_group` is the node's one dispatch body: it slices a group
  of requests into consecutive ``max_batch_size`` batches and reads each
  batch's *measured* modeled compute time and energy off the engine's
  ledger marks, whichever compute module landed the charges (exact charges
  plus the golden forward, the memo or a subclass's placeholders; the
  engine-bound forward on read-disturb chips); :meth:`execute` is a group
  of one;
* the lifecycle (:meth:`park` / :meth:`wake` / :meth:`retune`) is plain
  state: a forward is synchronous, so there is nothing to stop.  Retuning
  to a new supply rebuilds the chip (a real rail change invalidates the
  programmed arrays) while the retired chip's ledger is preserved so
  :meth:`ledger` is lifetime-accurate.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chip import IMCChip
from repro.dnn.conv import conv_output_shape
from repro.core.config import MacroConfig
from repro.core.matmul import TiledMatmulEngine
from repro.core.stats import MacroStatistics
from repro.errors import ConfigurationError
from repro.tech.technology import OperatingPoint
from repro.utils.validation import check_positive

__all__ = [
    "ExecutionMode",
    "ForwardMemo",
    "NodeSpec",
    "NodeState",
    "RequestEstimate",
    "NodeDispatch",
    "ClusterNode",
    "model_weight_codes",
]


class NodeState(enum.Enum):
    """Lifecycle state of a cluster node.

    ``PARKED`` is an *operator* decision (autoscaler, maintenance) and
    ``FAILED`` a *fault* outcome (crash injection, dead hardware); the
    router treats both as out-of-rotation — queued work is re-placed onto
    survivors — but the autoscaler only ever wakes parked nodes: a failed
    node returns through :meth:`ClusterNode.recover`, not :meth:`wake`.
    """

    ACTIVE = "active"
    PARKED = "parked"
    FAILED = "failed"


class ExecutionMode(enum.Enum):
    """How a node turns an admitted request into results and charges.

    Both modes land every batch's charges through the engine's exact-charge
    API (:meth:`repro.core.matmul.TiledMatmulEngine.charge_layers`) in the
    node's one batch loop, and differ only in where predictions come from.
    ``EXACT`` runs each batch's slice through the model's golden int64
    forward — every integer product is actually computed, and the charges
    are the ones the tile-streaming ``matmul`` lands, statement for
    statement.  ``ANALYTIC`` memoises the numeric forward per request,
    keyed by ``(model_id, input_digest)``, so the numpy model runs once per
    *unique* input instead of once per request.  Activation scales are per
    image, so a request's predictions do not depend on the batch it shares:
    one slice or memo entry serves it coalesced or alone.  Both modes fold
    modeled time with one formula, so degraded nodes agree too.  On a chip
    that injects read disturb, stored bits can flip, so an ``EXACT`` node
    there runs each batch through the model bound to the engine (the
    per-lane reference path) instead.

    The fidelity contract: on any workload an ``ANALYTIC`` node produces
    bit-identical predictions, ledgers, dispatch accounting and (virtual-
    time) telemetry to an ``EXACT`` node, and an ``EXACT`` node to one whose
    batches run through the engine-bound model — the fast paths are
    accounting short-circuits, never approximations.
    ``tests/test_execution_modes.py`` pins both down to equality.
    """

    EXACT = "exact"
    ANALYTIC = "analytic"


class ForwardMemo:
    """LRU memo of numeric forward passes, keyed by (model, input digest).

    The analytic execution mode charges a request's accounting without
    running the model; the *predictions* still have to come from somewhere.
    Trace-driven studies draw requests from a finite pool of distinct
    inputs, so memoising the forward per ``(model_id, input_digest)`` makes
    the numpy model run once per unique input across millions of requests.
    One entry per request serves it wherever it lands: predictions depend
    neither on the chip that served the request (a memo can be shared by
    every node of a fleet) nor on its batchmates (activation scales are per
    image).  Entries are stored read-only, because every request carrying
    the digest is handed the same array.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        check_positive("max_entries", max_entries)
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: object) -> Optional[np.ndarray]:
        """Memoised predictions for a key (touches LRU order)."""
        predictions = self._entries.get(key)
        if predictions is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return predictions

    def store(self, key: object, predictions: np.ndarray) -> None:
        """Memoise one forward pass (made read-only), evicting LRU entries."""
        predictions.setflags(write=False)
        self._entries[key] = predictions
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def summary(self) -> Dict[str, float]:
        """Flat counters for reports."""
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
        }


def model_weight_codes(model) -> List[np.ndarray]:
    """The integer weight matrices a model's forward pass sends to a matmul.

    Enumerates both pipeline shapes of :mod:`repro.dnn` — a
    :class:`~repro.dnn.pipeline.QuantizedCNN` (im2col conv weights + dense
    head weights) and a :class:`~repro.dnn.model.QuantizedMLP` (dense
    weights only).  The matrices identify the model's layers on a chip: the
    engine derives its cache keys from exactly these codes.  Note that the
    cluster *serving* path (:meth:`ClusterNode.execute_group`) accepts image
    pipelines only; a bare MLP can be enumerated and priced but not routed.
    """
    if hasattr(model, "conv_layers") and hasattr(model, "head"):
        return [layer.quantized_weights.codes for layer in model.conv_layers] + [
            layer.quantized_weights.codes for layer in model.head.layers
        ]
    if hasattr(model, "layers"):
        return [layer.quantized_weights.codes for layer in model.layers]
    raise ConfigurationError(
        "model must be a QuantizedCNN or QuantizedMLP (or expose "
        "conv_layers/head or layers with quantized_weights)"
    )


def _layer_row_factors(model, image_shape: Tuple[int, ...]) -> List[int]:
    """Activation rows *per image* of each integer matmul of a forward pass.

    Conv layers multiply the im2col matrix (``out_h * out_w`` rows per
    image), dense layers the flat feature batch (one row per image); the
    factors mirror the forward implementations in :mod:`repro.dnn` exactly,
    so pricing and charging cover the same products the dispatch executes.
    """
    if hasattr(model, "conv_layers") and hasattr(model, "head"):
        _, _, height, width = image_shape
        factors: List[int] = []
        for layer in model.conv_layers:
            height, width = conv_output_shape(
                height, width, layer.float_layer.kernel_size, layer.float_layer.stride
            )
            factors.append(height * width)
        factors.extend(1 for _ in model.head.layers)
        return factors
    return [1 for _ in model.layers]


def _part_views(
    grouped: np.ndarray, parts: Sequence[Tuple[np.ndarray, Optional[str]]]
) -> List[np.ndarray]:
    """Consecutive row views of ``grouped``, one per part of a group."""
    views: List[np.ndarray] = []
    offset = 0
    for images, _ in parts:
        size = int(images.shape[0])
        views.append(grouped[offset : offset + size])
        offset += size
    return views


@dataclass(frozen=True)
class RequestEstimate:
    """Modeled cost of serving one request on one node (planning only)."""

    node_id: str
    model_id: str
    images: int
    resident: bool
    latency_s: float
    energy_j: float
    program_cycles: int
    critical_path_cycles: int

    @property
    def energy_per_image_j(self) -> float:
        """Modeled energy per image of the request."""
        return self.energy_j / self.images if self.images else 0.0


@dataclass(frozen=True)
class NodeDispatch:
    """Measured outcome of one executed request (or group) on a node."""

    predictions: np.ndarray
    compute_s: float
    energy_j: float
    affinity_hit: bool
    programmed: bool
    batches: int
    critical_path_cycles: int
    #: Execution mode the dispatch ran under ("exact" / "analytic").
    execution_mode: str = ExecutionMode.EXACT.value
    #: Per request of the dispatch (in ``parts`` order): whether a fresh
    #: forward spot-checked that request's memoised predictions.
    spot_checked: Tuple[bool, ...] = ()


@dataclass(frozen=True)
class NodeSpec:
    """A node's picklable construction recipe (the handle/state split).

    A :class:`ClusterNode` itself cannot cross a process boundary — it owns
    an :class:`~repro.core.chip.IMCChip`, a live engine, registered models
    and mutable ledgers.  The spec is the *recipe* side of that
    split: everything needed to build an equivalent node from scratch, and
    nothing that is runtime state.  ``node.spec()`` captures it,
    :meth:`build` replays it — the idiom :mod:`repro.fleet` uses to shard
    one fleet description across spawn-context worker processes while the
    coordinator keeps its own replicas.

    ``config`` is the node's *resolved* configuration: precision and the
    variation-bin derate are already baked in (exactly what the node
    itself retained), so :meth:`build` must not re-apply the bin — it is
    attached to the rebuilt node for introspection/hazard only.
    """

    node_id: str
    vdd: float
    num_macros: int
    max_batch_size: int
    execution_mode: str
    spot_check_every: int
    config: MacroConfig
    bin: Optional[object] = None

    def build(
        self,
        forward_memo: Optional[ForwardMemo] = None,
        node_cls: Optional[type] = None,
    ) -> "ClusterNode":
        """Construct a fresh node from the recipe.

        Args:
            forward_memo: Optional shared forward memo for the new node
                (analytic mode); omitted, the node builds its own.
            node_cls: The class to instantiate — :class:`ClusterNode` by
                default; :class:`repro.fleet.ShadowNode` passes itself to
                build coordinator-side replicas from the same recipe.
        """
        cls = node_cls if node_cls is not None else ClusterNode
        node = cls(
            self.node_id,
            vdd=self.vdd,
            num_macros=self.num_macros,
            max_batch_size=self.max_batch_size,
            config=self.config,
            execution_mode=ExecutionMode(self.execution_mode),
            forward_memo=forward_memo,
            spot_check_every=self.spot_check_every,
        )
        # The resolved config already carries the bin derate; passing the
        # bin through the constructor would derate twice (see ClusterNode).
        node.bin = self.bin
        node.chip.bin = self.bin
        return node


class ClusterNode:
    """One chip + engine + serving path pinned to an operating point."""

    def __init__(
        self,
        node_id: str,
        vdd: float = 0.9,
        num_macros: int = 8,
        precision_bits: Optional[int] = None,
        max_batch_size: int = 64,
        config: Optional[MacroConfig] = None,
        execution_mode: ExecutionMode = ExecutionMode.EXACT,
        forward_memo: Optional[ForwardMemo] = None,
        spot_check_every: int = 0,
        bin: Optional[object] = None,
    ) -> None:
        if not node_id:
            raise ConfigurationError("node_id must be non-empty")
        if spot_check_every < 0:
            raise ConfigurationError("spot_check_every must be non-negative")
        check_positive("max_batch_size", max_batch_size)
        base = config if config is not None else MacroConfig()
        if precision_bits is not None:
            # An explicit precision always wins, also over a passed config —
            # silently ignoring it would run every estimate and dispatch at
            # the wrong width.
            base = base.with_precision(precision_bits)
        if bin is not None:
            # The variation bin (repro.reliability.ChipBin) derates the
            # calibrated constants: this node serves on one specific die.
            # Applied before the chip is built so the derate survives every
            # retune (it is baked into the configuration, not re-applied).
            base = bin.apply_to_config(base)
        point = base.operating_point.at_voltage(vdd)
        self.node_id = node_id
        self.num_macros = num_macros
        self.max_batch_size = max_batch_size
        self.execution_mode = execution_mode
        #: The die's variation bin (None = nominal-corner clone).
        self.bin = bin
        #: Modeled compute-time multiplier (>1 = degraded / throttled).
        self.degrade_factor = 1.0
        #: Shared (or per-node) memo of numeric forwards; analytic mode only.
        self.forward_memo = forward_memo if forward_memo is not None else ForwardMemo()
        #: Every Nth memo *hit* re-runs the real forward and compares
        #: (0 disables).  The sampled insurance policy of the analytic mode.
        self.spot_check_every = spot_check_every
        self.spot_checks = 0
        self._memo_hits_since_check = 0
        self.config = base.with_operating_point(point)
        # The bin is already baked into the configuration; attach it to the
        # chip for introspection only (passing it would derate twice).
        self.chip = IMCChip(num_macros, self.config)
        self.chip.bin = bin
        self.engine = TiledMatmulEngine(self.chip)
        self.state = NodeState.ACTIVE
        #: Virtual-time point at which the node's backlog finishes.
        self.available_s = 0.0
        self._models: Dict[str, object] = {}
        self._layer_ids: Dict[str, Tuple[str, ...]] = {}
        #: model_id -> [batches, images] the exact batch loop has run.
        self.forward_counts: Dict[str, List[int]] = {}
        #: (model_id, image shape tail) -> per-layer (row factor, codes, id).
        self._charge_specs: Dict[Tuple, Tuple[Tuple[int, np.ndarray, str], ...]] = {}
        #: Planning cache: estimates keyed by model/shape/residency state.
        self._estimate_cache: Dict[Tuple, RequestEstimate] = {}
        #: Ledgers of chips retired by :meth:`retune`.
        self._retired = MacroStatistics()
        #: Called (no args) just before the chip/engine are torn down and
        #: rebuilt (retune).  The router registers a flush here so its
        #: deferred charges land on the engine they were priced against.
        self._pre_mutate_hooks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Serialization (handle/state split)
    # ------------------------------------------------------------------ #
    def spec(self) -> NodeSpec:
        """The node's picklable construction recipe.

        Captures configuration, not runtime state: registered models,
        ledger history, residency, degradation and lifecycle state stay
        behind.  ``node.spec().build()`` yields a node that prices and
        charges identically to this one when driven through the same
        dispatch sequence (pinned by the fleet fidelity tests).
        """
        return NodeSpec(
            node_id=self.node_id,
            vdd=self.vdd,
            num_macros=self.num_macros,
            max_batch_size=self.max_batch_size,
            execution_mode=self.execution_mode.value,
            spot_check_every=self.spot_check_every,
            config=self.config,
            bin=self.bin,
        )

    # ------------------------------------------------------------------ #
    # Operating point
    # ------------------------------------------------------------------ #
    @property
    def operating_point(self) -> OperatingPoint:
        """The supply/temperature/corner point the chip runs at."""
        return self.chip.operating_point

    @property
    def vdd(self) -> float:
        """Supply voltage of the node's chip."""
        return self.operating_point.vdd

    @property
    def max_frequency_hz(self) -> float:
        """Clock frequency the operating point supports."""
        return self.chip.max_frequency_hz()

    @property
    def cycle_time_s(self) -> float:
        """Cycle time the operating point supports."""
        return self.chip.cycle_time_s()

    @property
    def hazard(self) -> float:
        """The die's binned failure hazard (0.0 for a nominal clone).

        A pure scheduling weight: the scheduler multiplies its ranking
        scores by ``1 + hazard_weight * hazard``, so risky silicon needs a
        real speed/energy advantage to win a placement.
        """
        if self.bin is None:
            return 0.0
        return float(self.bin.failure_hazard)

    def retune(self, vdd: float) -> None:
        """Move the node to another supply voltage (DVFS actuation).

        A rail change invalidates the programmed arrays, so the chip and
        engine are rebuilt — every resident model must be re-programmed (and
        re-charged) on first touch, exactly the cost the autoscaler weighs
        against the new operating point.  The retired chip's ledger is
        folded into :attr:`_retired` so :meth:`ledger` stays lifetime-exact.

        Args:
            vdd: The new supply voltage in volts (no-op when unchanged).
        """
        if vdd == self.vdd:
            return
        for hook in self._pre_mutate_hooks:
            hook()
        self._retired.merge(self.chip.stats)
        self.chip = self.chip.at_operating_point(self.operating_point.at_voltage(vdd))
        self.config = self.chip.config
        self.engine = TiledMatmulEngine(self.chip)
        # Estimates were priced against the retired engine's residency and
        # operating point; the charge specs (weight codes / layer ids / row
        # factors) are engine-independent and stay valid.
        self._estimate_cache.clear()

    # ------------------------------------------------------------------ #
    # Models and residency
    # ------------------------------------------------------------------ #
    def register_model(self, model_id: str, model, allow_transient: bool = False) -> None:
        """Make a model servable on this node (weights stay cold until used).

        The serving path expects an image pipeline (``predict`` over a 4-D
        image batch, e.g. :class:`~repro.dnn.pipeline.QuantizedCNN`).

        A model whose tiles exceed the node's weight-cache capacity — any
        single layer, or all layers together — can never be fully resident:
        every forward pass would re-program (and re-charge) evicted layers,
        and affinity routing would silently never apply to the model.
        Registration refuses such models unless ``allow_transient=True``
        makes the trade-off explicit; sizing up ``num_macros`` is the
        usual fix.
        """
        if model_id in self._models:
            raise ConfigurationError(f"model {model_id!r} is already registered")
        codes = model_weight_codes(model)
        if not allow_transient:
            capacity = self.engine.cache.capacity_rows
            total_rows = sum(
                sum(
                    tile.rows
                    for tile in self.engine.plan_tiles(matrix.shape[0], matrix.shape[1])
                )
                for matrix in codes
            )
            if total_rows > capacity:
                raise ConfigurationError(
                    f"model {model_id!r} needs {total_rows} resident array "
                    f"rows across its layers but node {self.node_id!r} has "
                    f"{capacity}; increase num_macros or pass "
                    "allow_transient=True"
                )
        self._models[model_id] = model
        self._layer_ids[model_id] = tuple(
            TiledMatmulEngine.layer_id_for(matrix) for matrix in codes
        )
        self.forward_counts[model_id] = [0, 0]

    @property
    def model_ids(self) -> List[str]:
        """Models registered on this node."""
        return list(self._models)

    def layer_ids(self, model_id: str) -> Tuple[str, ...]:
        """Content-derived cache keys of the model's weight matrices."""
        if model_id not in self._layer_ids:
            raise ConfigurationError(f"model {model_id!r} is not registered")
        return self._layer_ids[model_id]

    def holds_model(self, model_id: str) -> bool:
        """Whether every layer of the model is resident in the weight cache."""
        return all(
            self.engine.is_resident(layer_id) for layer_id in self.layer_ids(model_id)
        )

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _layer_charge_specs(
        self, model_id: str, image_shape: Tuple[int, ...]
    ) -> Tuple[Tuple[int, np.ndarray, str], ...]:
        """Per-layer ``(rows per image, weight codes, layer id)`` for a model.

        Derived once per (model, image geometry) and cached: the pricing
        path, the analytic charge path and the exact forward pass must all
        walk the same layers in the same order with the same row counts.
        """
        key = (model_id, tuple(image_shape[1:]))
        specs = self._charge_specs.get(key)
        if specs is None:
            model = self._models.get(model_id)
            if model is None:
                raise ConfigurationError(f"model {model_id!r} is not registered")
            specs = tuple(
                zip(
                    _layer_row_factors(model, image_shape),
                    model_weight_codes(model),
                    self.layer_ids(model_id),
                )
            )
            self._charge_specs[key] = specs
        return specs

    def estimate_request(self, model_id: str, images: np.ndarray) -> RequestEstimate:
        """Price a request without running it (no charges, no LRU touches).

        Sums the engine's per-layer dispatch estimates; non-resident layers
        include the re-programming charge, so the affinity advantage of a
        node that already holds the model falls out of the numbers instead
        of needing a separate bonus term.

        Estimates are memoised per (model, image geometry, residency
        state): any (re-)programming or invalidation changes the key, so a
        cached estimate is always what a fresh pricing pass would produce.
        On the admission hot path of a trace study the scheduler prices
        every candidate node per request, which makes this cache worth
        roughly two orders of magnitude of router throughput.

        Args:
            model_id: A model previously passed to ``register_model``.
            images: ``(batch, channels, height, width)`` float64 tensor
                (only its geometry matters to the price).

        Returns:
            The request's :class:`RequestEstimate` (modeled latency,
            energy and programming need).

        Raises:
            ConfigurationError: The model is not registered on this node.
        """
        images_shape = np.shape(images)
        if model_id not in self._models:
            raise ConfigurationError(f"model {model_id!r} is not registered")
        specs = self._layer_charge_specs(model_id, images_shape)
        engine = self.engine
        residency = tuple(
            engine.cache.peek(layer_id) is not None for _, _, layer_id in specs
        )
        key = (
            model_id,
            images_shape,
            engine.counters.programmed_tiles,
            residency,
            self.degrade_factor,
        )
        cached = self._estimate_cache.get(key)
        if cached is not None:
            return cached

        batch_images = int(images_shape[0])
        latency = 0.0
        energy = 0.0
        program_cycles = 0
        critical = 0
        resident = True
        for factor, matrix, layer_id in specs:
            estimate = engine.estimate_dispatch(
                batch_images * factor,
                (matrix.shape[0], matrix.shape[1]),
                layer_id=layer_id,
            )
            latency += estimate.latency_s
            energy += estimate.energy_j
            program_cycles += estimate.program_cycles
            critical += estimate.critical_path_cycles
            resident = resident and estimate.resident
        result = RequestEstimate(
            node_id=self.node_id,
            model_id=model_id,
            images=batch_images,
            resident=resident,
            # A degraded node really is slower: pricing must see the same
            # stretch the dispatch path applies, or placement would chase
            # latencies the node cannot deliver.
            latency_s=latency * self.degrade_factor,
            energy_j=energy,
            program_cycles=program_cycles,
            critical_path_cycles=critical,
        )
        if len(self._estimate_cache) >= 4096:
            self._estimate_cache.clear()
        self._estimate_cache[key] = result
        return result

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        model_id: str,
        images: np.ndarray,
        input_digest: Optional[str] = None,
    ) -> NodeDispatch:
        """Run one request: a dispatch group of one (see :meth:`execute_group`).

        Args:
            model_id: A model previously passed to ``register_model``.
            images: ``(batch, channels, height, width)`` float64 tensor.
            input_digest: Optional caller-supplied identity of the
                request's images (trace generators know their pool
                indices); the analytic mode memoises forwards by it
                instead of hashing the image bytes.  Two requests may
                share a digest only if their images are identical — the
                sampled spot checks guard the contract.

        Returns:
            The :class:`NodeDispatch` with the *measured* modeled compute
            time / energy of the batches the request produced (programming
            charges included when the weights were cold), which is what
            the router advances the node's virtual clock by.

        Raises:
            ConfigurationError: The node is parked/failed, or the model is
                not registered.
        """
        return self.execute_group(model_id, [(images, input_digest)])[1]

    def execute_group(
        self,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
    ) -> Tuple[List[np.ndarray], NodeDispatch]:
        """Serve same-model requests as one dispatch: the node's one body.

        ``parts`` is a sequence of ``(images, input_digest)`` in queue
        order.  The group's images run in consecutive batches of at most
        ``max_batch_size`` (a request may straddle two batches), each
        through :meth:`_compute_group`'s compute module: exact charges plus
        the golden forward of the batch's slice in EXACT mode (the
        engine-bound model on a read-disturb chip), exact charges plus the
        forward memo in ANALYTIC mode.

        Returns the per-request prediction arrays (in ``parts`` order,
        consecutive views of one array) and one :class:`NodeDispatch`
        covering the whole group.

        Raises:
            ConfigurationError: The node is parked/failed, the group is
                empty or mixes image geometries, or the model is not
                registered.
        """
        if self.state is not NodeState.ACTIVE:
            raise ConfigurationError(
                f"node {self.node_id!r} is {self.state.value}; it must return "
                "to rotation (wake/recover) before dispatching"
            )
        if not parts:
            raise ConfigurationError("execute_group needs at least one request")
        shape_tail = parts[0][0].shape[1:]
        total = 0
        for images, _ in parts:
            if images.shape[1:] != shape_tail:
                raise ConfigurationError(
                    "coalesced requests must share one image geometry"
                )
            total += int(images.shape[0])
        engine = self.engine
        affinity_hit = self.holds_model(model_id)
        misses_before = engine.cache.misses
        grouped, totals, spot_checked = self._compute_group(model_id, parts, total)
        batches, compute, energy, critical = totals
        return _part_views(grouped, parts), NodeDispatch(
            predictions=grouped,
            compute_s=compute,
            energy_j=energy,
            affinity_hit=affinity_hit,
            programmed=engine.cache.misses > misses_before,
            batches=batches,
            critical_path_cycles=critical,
            execution_mode=self.execution_mode.value,
            spot_checked=spot_checked,
        )

    def _compute_group(
        self,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
        total: int,
    ) -> Tuple[np.ndarray, Tuple[int, float, float, int], Tuple[bool, ...]]:
        """The swappable compute module of :meth:`execute_group`.

        Lands the group's charges through :meth:`_run_batches` and returns
        (predictions of all ``total`` images in part order, the batch
        loop's totals, per part whether a memo spot check ran).  Subclasses
        replace only this hook (:class:`repro.fleet.ShadowNode` charges and
        hands out placeholders).
        """
        if self.execution_mode is ExecutionMode.ANALYTIC:
            totals = self._charge_batches(model_id, parts[0][0].shape, total)
            answers, spot_checked = self._memo_predict(model_id, parts)
            grouped = answers[0] if len(answers) == 1 else np.concatenate(answers)
            return grouped, totals, tuple(spot_checked)
        images = parts[0][0] if len(parts) == 1 else np.concatenate([part for part, _ in parts])
        outputs: List[np.ndarray] = []
        disturb = self.config.inject_read_disturb
        run = self._engine_bound_batches if disturb else self._golden_batches
        totals = run(model_id, images, total, outputs.append)
        counts = self.forward_counts[model_id]
        counts[0] += totals[0]
        counts[1] += total
        return np.concatenate(outputs), totals, (False,) * len(parts)

    def _golden_batches(
        self, model_id: str, images: np.ndarray, total: int, emit: Callable
    ) -> Tuple[int, float, float, int]:
        """The exact batch loop: each slice's exact charges, then its golden forward."""
        return self._charge_batches(
            model_id,
            images.shape,
            total,
            lambda start, size: emit(self._plain_forward(model_id, images[start : start + size])),
        )

    def _engine_bound_batches(
        self, model_id: str, images: np.ndarray, total: int, emit: Callable
    ) -> Tuple[int, float, float, int]:
        """The batch loop with each slice forwarded by the engine-bound model.

        Read-disturb chips keep it: there ``matmul`` runs the per-lane
        reference, whose stored bits can flip, so results depend on the data.
        """
        model = self._models[model_id].with_backend(self.engine)
        return self._run_batches(
            total, lambda start, size: emit(model.predict(images[start : start + size]))
        )

    def _run_batches(
        self, total: int, run: Callable[[int, int], object]
    ) -> Tuple[int, float, float, int]:
        """The node's batch loop over ``total`` images.

        Consecutive slices of at most ``max_batch_size`` images;
        ``run(start, size)`` lands one slice's charges on the engine, and
        the ledger marks around it read what the slice cost.  Modeled time
        folds as ``critical * cycle_time * degrade`` per batch — the one
        formula every mode shares, and the one the router's deferred
        charge signatures replay.  Returns (batches, compute_s, energy_j,
        critical sum).
        """
        engine = self.engine
        cycle_time = engine.chip.cycle_time_s()
        degrade = self.degrade_factor
        step = self.max_batch_size
        batches = 0
        compute = 0.0
        energy = 0.0
        critical_total = 0
        for start in range(0, total, step):
            mark = engine.ledger_mark()
            run(start, min(step, total - start))
            _, critical, batch_energy = engine.ledger_since(mark)
            # Degradation stretches modeled time only — the work (cycles)
            # and energy ledgers are what the silicon actually switched.
            compute += critical * cycle_time * degrade
            energy += batch_energy
            critical_total += critical
            batches += 1
        return batches, compute, energy, critical_total

    def _charge_batches(
        self,
        model_id: str,
        image_shape: Tuple[int, ...],
        total: int,
        forward: Optional[Callable[[int, int], object]] = None,
    ) -> Tuple[int, float, float, int]:
        """The batch loop with exact charges (then an optional forward).

        Each slice walks the model's layers in forward order through
        :meth:`~repro.core.matmul.TiledMatmulEngine.charge_layers`, so the
        macro ledgers receive the same charges in the same order as the
        engine-bound forward; ``forward(start, size)``, when given, then
        computes the slice's predictions.
        """
        specs = self._layer_charge_specs(model_id, image_shape)
        charge = self.engine.charge_layers

        def run(start: int, size: int) -> None:
            charge([(factor * size, codes, layer_id) for factor, codes, layer_id in specs])
            if forward is not None:
                forward(start, size)

        return self._run_batches(total, run)

    def _plain_forward(self, model_id: str, images: np.ndarray) -> np.ndarray:
        """The numeric forward of any images, with no charges.

        Activation scales are per image, so predicting in one piece gives
        what the batch loop's slices give.  The model runs on its own
        (golden int64) backend: bit-identical to the engine path.
        """
        return self._models[model_id].predict(images)

    def _memo_predict(
        self, model_id: str, parts: Sequence[Tuple[np.ndarray, Optional[str]]]
    ) -> Tuple[List[np.ndarray], List[bool]]:
        """Each request's memoised forward, with sampled spot checks.

        One memo entry per request: a miss forwards that request alone.
        Returns (predictions per part, per part whether a spot check ran).
        """
        memo = self.forward_memo
        answers: List[np.ndarray] = []
        spot_checked: List[bool] = []
        for images, digest in parts:
            key = self._memo_key(model_id, images, digest)
            predictions = memo.lookup(key)
            checked = False
            if predictions is None:
                predictions = self._plain_forward(model_id, images)
                memo.store(key, predictions)
            elif self.spot_check_every:
                self._memo_hits_since_check += 1
                if self._memo_hits_since_check >= self.spot_check_every:
                    self._memo_hits_since_check = 0
                    self.spot_checks += 1
                    fresh = self._plain_forward(model_id, images)
                    if not np.array_equal(fresh, predictions):
                        raise ConfigurationError(
                            f"analytic spot check failed on node {self.node_id!r} "
                            f"for model {model_id!r}: memoised predictions "
                            "diverge from a fresh forward (input digests must "
                            "uniquely identify request images)"
                        )
                    checked = True
            answers.append(predictions)
            spot_checked.append(checked)
        return answers, spot_checked

    @staticmethod
    def _content_digest(images: np.ndarray) -> str:
        """Content-derived digest for digest-less requests.

        Hashing keeps the memo keys ~64 bytes instead of retaining the raw
        image bytes (megabytes per entry at serving geometries).
        """
        digest = hashlib.sha256(np.ascontiguousarray(images).tobytes())
        return f"{images.shape}:{digest.hexdigest()}"

    @staticmethod
    def _memo_key(model_id: str, images: np.ndarray, digest: Optional[str]) -> object:
        """The forward memo's key for one request (the one key format).

        A request is keyed by its digest, or by a content hash when it has
        none.
        """
        if digest is None:
            digest = ClusterNode._content_digest(images)
        return (model_id, digest)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def park(self) -> None:
        """Take the node out of rotation (weights stay resident)."""
        self.state = NodeState.PARKED

    def wake(self) -> None:
        """Return a *parked* node to rotation.

        Refuses failed nodes: a crash is not an operator decision, and the
        autoscaler must never be able to "wake" dead silicon — recovery is
        the fault plan's (or the operator's) explicit :meth:`recover`.
        """
        if self.state is NodeState.FAILED:
            raise ConfigurationError(
                f"node {self.node_id!r} has failed; recover() it instead"
            )
        self.state = NodeState.ACTIVE

    def fail(self) -> None:
        """Take the node out of rotation as a fault (crash injection).

        Like a park, but the state is ``FAILED`` so the autoscaler treats
        the node as dead capacity, not a spare.  The chip's programmed
        weights are modeled as retained (a controller crash, not a power
        loss): recovery costs rescheduling, not re-programming.
        """
        self.state = NodeState.FAILED

    def recover(self) -> None:
        """Return a failed (or parked) node to rotation at full health."""
        self.state = NodeState.ACTIVE
        self.degrade_factor = 1.0

    def degrade(self, factor: float) -> None:
        """Throttle the node: modeled compute time stretches by ``factor``."""
        check_positive("degrade factor", factor)
        self.degrade_factor = float(factor)
        # Cached estimates embed the previous factor; the key carries it,
        # so stale entries simply stop being hit — nothing to flush.

    def restore(self) -> None:
        """End degradation (compute time back to the binned baseline)."""
        self.degrade_factor = 1.0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def ledger(self) -> MacroStatistics:
        """Lifetime statistics: retired chips (pre-retune) + the live chip."""
        merged = MacroStatistics()
        merged.merge(self._retired)
        merged.merge(self.chip.stats)
        return merged

    def summary(self) -> Dict[str, float]:
        """Flat description of the node for fleet reports."""
        ledger = self.ledger()
        return {
            "vdd": self.vdd,
            "max_frequency_hz": self.max_frequency_hz,
            "state": 1.0 if self.state is NodeState.ACTIVE else 0.0,
            "failed": 1.0 if self.state is NodeState.FAILED else 0.0,
            "hazard": self.hazard,
            "degrade_factor": self.degrade_factor,
            "bin_speed_factor": (
                float(self.bin.speed_factor) if self.bin is not None else 1.0
            ),
            "available_s": self.available_s,
            "resident_layers": float(len(self.engine.resident_layer_ids)),
            "ledger_cycles": float(ledger.total_cycles),
            "ledger_energy_j": ledger.total_energy_j,
            "analytic": 1.0 if self.execution_mode is ExecutionMode.ANALYTIC else 0.0,
            "spot_checks": float(self.spot_checks),
            **{f"memo_{k}": v for k, v in self.forward_memo.summary().items()},
        }
