"""Weight-stationary tiled integer matmul engine on the sharded chip.

The seed's DNN path (:class:`repro.dnn.imc_backend.IMCMatmulBackend`)
re-sends *both* operands of every scalar product to the engine on every
call — the opposite of how an IMC accelerator amortises its array.  Real
deployments program a layer's weight matrix into the arrays **once** and
then stream activation batches past the stationary weights.  This module is
that execution discipline:

* :class:`TiledMatmulEngine` cuts a weight matrix into ``tile_rows x
  tile_cols`` tiles, deals the tiles round-robin across the macros of an
  :class:`repro.core.chip.IMCChip`, and charges the array-write cost of
  programming a tile **once** — on first touch — through a
  :class:`WeightCache` keyed by layer id;
* subsequent matmuls with the same weights stream activation batches
  through the vectorized column-parallel MULT path of each tile's macro and
  accumulate the per-tile partial sums near-memory (accounted as one ADD
  per product at the accumulator precision), merging every per-tile ledger
  into the chip-level statistics;
* the cache is capacity-aware: when the resident tiles would exceed the
  chip's capacity the least-recently-used layers are evicted, and touching
  an evicted layer charges the re-programming cost again (exactly the
  behaviour a serving system has to plan around);
* :meth:`TiledMatmulEngine.matmul_reference` retains the per-lane on-array
  execution as the bit-exactness oracle, and configurations that inject
  read disturb are routed to it automatically;
* :meth:`TiledMatmulEngine.charge_dispatch` is the *exact-charge* API: it
  lands a dispatch's complete accounting (programming, per-tile MULT/ADD
  streams, cache and engine counters) through the very same code path as
  :meth:`TiledMatmulEngine.matmul` without computing the product — the
  primitive both cluster execution modes charge through (exact nodes add
  the golden forward, analytic ones a forward memo), so million-request
  scheduling studies run at wall-clock speed with ledgers bit-identical
  to real execution.

The engine is a drop-in integer matmul backend: calling it with
``(activation_codes, weight_codes)`` mirrors
:class:`~repro.dnn.imc_backend.NumpyIntBackend` bit-exactly (including
``mac_count`` accounting), so ``QuantizedMLP.with_backend(engine)`` and
``QuantizedCNN.with_backend(engine)`` run whole networks weight-stationary.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chip import IMCChip
from repro.core.operations import Opcode, cycles_for
from repro.errors import ConfigurationError
from repro.utils.bitops import mask
from repro.utils.validation import check_positive

__all__ = [
    "TileAssignment",
    "ProgrammedWeights",
    "WeightCache",
    "MatmulDispatch",
    "DispatchEstimate",
    "TiledMatmulEngine",
    "matmul_mac_count",
]


def matmul_mac_count(activations: np.ndarray, weights: np.ndarray) -> int:
    """Multiply-accumulates of one ``(B x I) @ (I x O)`` integer product.

    Counted from the operand shapes alone — the single source of truth for
    every matmul backend.  Zero-valued activations whose products the sign
    path suppresses (``sign(0) * sign(w) = 0``) still traverse the MAC
    array, so they count exactly once; deriving the count from the executed
    multiplication stream instead would double-charge them whenever a
    backend both issues the magnitude MULT and re-walks the sign mask.
    """
    return activations.shape[0] * weights.shape[0] * weights.shape[1]


@dataclass(frozen=True)
class TileAssignment:
    """One weight tile pinned to one macro shard.

    ``rows`` spans the inner (contraction) dimension of the weight matrix,
    ``cols`` the output dimension; the tile occupies ``row_stop - row_start``
    array rows of macro ``macro_index``.
    """

    tile_index: int
    macro_index: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def rows(self) -> int:
        """Weight rows (array rows) the tile occupies."""
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        """Weight columns (output channels) the tile holds."""
        return self.col_stop - self.col_start

    @property
    def words(self) -> int:
        """Weight words stored by the tile."""
        return self.rows * self.cols


@dataclass
class ProgrammedWeights:
    """A weight matrix resident on the chip, tiled across macros.

    ``program_cycles`` / ``program_energy_j`` record what programming the
    tiles cost; the cost is charged when the entry is (re-)programmed, never
    on a cache hit — that is the whole point of weight-stationary execution.

    ``charge_plan`` caches the per-tile constants the dispatch path charges
    with — ``(macro_index, rows * cols, rows * col_groups)`` per tile — so
    streaming a resident layer costs a handful of integer multiplies per
    tile instead of re-deriving the tile geometry on every call.
    """

    layer_id: str
    shape: Tuple[int, int]
    precision_bits: int
    tiles: Tuple[TileAssignment, ...]
    program_cycles: int
    program_energy_j: float
    programmed_count: int = 1
    hits: int = 0
    charge_plan: Tuple[Tuple[int, int, int], ...] = ()
    #: Per-batch-size memo of fully evaluated per-tile charge rows (see
    #: :meth:`TiledMatmulEngine.charge_layers`); values only — applying a
    #: cached row performs the identical arithmetic in the identical order.
    charge_rows: Dict[int, Tuple[Tuple, ...]] = field(default_factory=dict)

    @property
    def tile_count(self) -> int:
        """Number of tiles the weight matrix occupies."""
        return len(self.tiles)

    @property
    def resident_rows(self) -> int:
        """Array rows the tiles occupy across the chip."""
        return sum(tile.rows for tile in self.tiles)


class WeightCache:
    """LRU cache of :class:`ProgrammedWeights`, bounded in resident array rows.

    A tile of ``r`` weight rows occupies ``r`` array rows of its macro (every
    multiplication slot of those rows), so the natural capacity unit is array
    rows across the chip.  The invariant the property tests pin down:
    ``resident_rows`` never exceeds ``capacity_rows``, and programming cost
    is charged exactly once per period of residency (program → hits →
    eviction → re-program).
    """

    def __init__(self, capacity_rows: int) -> None:
        check_positive("capacity_rows", capacity_rows)
        self.capacity_rows = capacity_rows
        self._entries: "OrderedDict[str, ProgrammedWeights]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_rows(self) -> int:
        """Array rows currently occupied by resident tiles."""
        return sum(entry.resident_rows for entry in self._entries.values())

    @property
    def resident_tiles(self) -> int:
        """Tiles currently held on the chip."""
        return sum(entry.tile_count for entry in self._entries.values())

    @property
    def resident_layers(self) -> List[str]:
        """Layer ids in LRU → MRU order."""
        return list(self._entries)

    def peek(self, layer_id: str) -> Optional[ProgrammedWeights]:
        """Return a resident entry without touching LRU order or counters.

        Planning-only view: the cluster router uses it to score weight
        affinity of candidate nodes without perturbing the very recency
        state it is scoring.
        """
        return self._entries.get(layer_id)

    def lookup(self, layer_id: str) -> Optional[ProgrammedWeights]:
        """Return (and touch) a resident entry, or record a miss."""
        entry = self._entries.get(layer_id)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(layer_id)
        entry.hits += 1
        self.hits += 1
        return entry

    def insert(self, entry: ProgrammedWeights) -> List[ProgrammedWeights]:
        """Make an entry resident, evicting LRU entries to fit.

        Returns the evicted entries.  An entry larger than the whole cache
        cannot become resident; the caller treats it as a transient
        programming (charged on every call) and nothing is evicted for it.
        """
        if entry.resident_rows > self.capacity_rows:
            return []
        evicted: List[ProgrammedWeights] = []
        while self.resident_rows + entry.resident_rows > self.capacity_rows:
            _, victim = self._entries.popitem(last=False)
            self.evictions += 1
            evicted.append(victim)
        self._entries[entry.layer_id] = entry
        return evicted

    def invalidate(self, layer_id: str) -> bool:
        """Drop one entry (e.g. after a weight update); True if it existed."""
        return self._entries.pop(layer_id, None) is not None

    def clear(self) -> None:
        """Drop every resident entry (counters are kept)."""
        self._entries.clear()

    def summary(self) -> Dict[str, float]:
        """Flat counters for reports."""
        return {
            "capacity_rows": float(self.capacity_rows),
            "resident_rows": float(self.resident_rows),
            "resident_tiles": float(self.resident_tiles),
            "resident_layers": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
        }


@dataclass(frozen=True)
class MatmulDispatch:
    """Chip-level accounting of one engine matmul call."""

    layer_id: str
    batch: int
    inner: int
    outer: int
    tile_count: int
    programmed: bool
    macros: int
    total_cycles: int
    critical_path_cycles: int
    program_cycles: int
    energy_j: float
    latency_s: float

    @property
    def utilization(self) -> float:
        """Shard balance: work cycles over (macros x critical-path cycles)."""
        if self.critical_path_cycles == 0:
            return 0.0
        return self.total_cycles / (self.macros * self.critical_path_cycles)

    @property
    def parallel_speedup(self) -> float:
        """Work cycles over critical-path cycles (ideal = number of macros)."""
        if self.critical_path_cycles == 0:
            return 1.0
        return self.total_cycles / self.critical_path_cycles


@dataclass(frozen=True)
class DispatchEstimate:
    """Modeled cost of one matmul *before* running it (planning only).

    Produced by :meth:`TiledMatmulEngine.estimate_dispatch` without touching
    the chip ledgers, the weight cache's LRU order, or its hit/miss counters
    — the estimate a cluster scheduler ranks candidate nodes by.  For a
    resident layer the estimate reproduces the accounting of the real
    dispatch exactly (same tile plan, same cycle/energy recipes); for a
    non-resident layer the tile plan is hypothesised from the current
    round-robin cursor and includes the programming charge.
    """

    layer_id: Optional[str]
    batch: int
    inner: int
    outer: int
    resident: bool
    tile_count: int
    program_cycles: int
    program_energy_j: float
    compute_cycles: int
    critical_path_cycles: int
    energy_j: float
    latency_s: float

    @property
    def total_cycles(self) -> int:
        """Work cycles including the programming charge (if any)."""
        return self.compute_cycles + self.program_cycles


@dataclass
class _EngineCounters:
    """Lifetime counters of the engine (all calls, all layers)."""

    mac_count: int = 0
    matmul_calls: int = 0
    programmed_tiles: int = 0
    program_cycles: int = 0
    program_energy_j: float = 0.0


class TiledMatmulEngine:
    """Weight-stationary tiled integer matmul on an :class:`IMCChip`.

    Parameters
    ----------
    chip:
        The sharded execution engine; defaults to a single-macro chip.
    precision_bits:
        Operand precision of the in-memory multiplications; defaults to the
        chip's configured precision.
    tile_rows:
        Weight rows per tile (array rows a tile occupies).  Defaults to the
        macro height minus the three scratch rows the scalar path reserves.
    tile_cols:
        Weight columns per tile.  Defaults to the macro's multiplication
        slots per row, so one activation broadcast fills every slot.
    capacity_rows:
        Array-row budget of the :class:`WeightCache` across the chip.
        Defaults to every non-scratch row of every macro shard.
    accumulator_bits:
        Precision of the near-memory accumulation ADDs (default 32).
    """

    def __init__(
        self,
        chip: Optional[IMCChip] = None,
        precision_bits: Optional[int] = None,
        tile_rows: Optional[int] = None,
        tile_cols: Optional[int] = None,
        capacity_rows: Optional[int] = None,
        accumulator_bits: int = 32,
    ) -> None:
        self.chip = chip if chip is not None else IMCChip()
        self.precision_bits = (
            precision_bits if precision_bits is not None else self.chip.precision_bits
        )
        config = self.chip.config
        default_rows = max(1, config.rows - config.dummy_rows)
        self.tile_rows = tile_rows if tile_rows is not None else default_rows
        self.tile_cols = (
            tile_cols
            if tile_cols is not None
            else self.chip.macro(0).mult_slots_per_row(self.precision_bits)
        )
        check_positive("tile_rows", self.tile_rows)
        check_positive("tile_cols", self.tile_cols)
        if self.tile_rows > config.rows:
            raise ConfigurationError(
                f"tile_rows {self.tile_rows} exceeds the macro height {config.rows}"
            )
        if capacity_rows is None:
            capacity_rows = self.chip.num_macros * default_rows
        self.cache = WeightCache(capacity_rows)
        self.accumulator_bits = accumulator_bits
        self.counters = _EngineCounters()
        self.last_dispatch: Optional[MatmulDispatch] = None
        self._slots = self.chip.macro(0).mult_slots_per_row(self.precision_bits)
        self._next_tile_macro = 0
        # Hot-path constants and running accounting accumulators.  The
        # accumulators mirror every cycle/energy charge the engine lands in
        # the macro ledgers, so callers can bracket a dispatch with
        # :meth:`ledger_mark` / :meth:`ledger_since` instead of snapshotting
        # the merged chip ledger (which is O(macros x opcodes) per read).
        self._macros = list(self.chip.macros)
        self._mult_cycles_per_invocation = cycles_for(Opcode.MULT, self.precision_bits)
        self._add_cycles_per_word = cycles_for(Opcode.ADD, accumulator_bits)
        self._copy_cycles_per_row = cycles_for(Opcode.COPY, self.precision_bits)
        self._macro_cycle_acc = [0] * self.chip.num_macros
        self._energy_acc = 0.0
        # Per-word energies are construction-time constants (every macro
        # shares the config's operating point), so hoist them off the
        # per-tile dispatch path.
        lead = self.chip.macro(0)
        vdd = lead.config.operating_point.vdd
        separator = lead.config.bl_separator
        self._mult_energy_per_word = lead.energy_model.energy_for(
            Opcode.MULT.energy_mnemonic,
            self.precision_bits,
            vdd=vdd,
            bl_separator=separator,
        ).total_j
        self._add_energy_per_word = lead.energy_model.energy_for(
            Opcode.ADD.energy_mnemonic,
            self.accumulator_bits,
            vdd=vdd,
            bl_separator=separator,
        ).total_j
        self._copy_energy_per_word = lead.energy_model.energy_for(
            Opcode.COPY.energy_mnemonic,
            self.precision_bits,
            vdd=vdd,
            bl_separator=separator,
        ).total_j

    # ------------------------------------------------------------------ #
    # Tiling and programming
    # ------------------------------------------------------------------ #
    @staticmethod
    def layer_id_for(weights: np.ndarray) -> str:
        """Content-derived id for a weight matrix, stable across processes.

        The digest is ``sha256`` over the int64 codes, so unlike the
        interpreter's salted ``hash()`` it does not depend on
        ``PYTHONHASHSEED``.
        """
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        digest = hashlib.sha256(weights).hexdigest()[:12]
        return f"auto-{weights.shape[0]}x{weights.shape[1]}-{digest}"

    def plan_tiles(self, inner: int, outer: int) -> List[TileAssignment]:
        """Cut an ``inner x outer`` weight matrix into macro-pinned tiles.

        Tiles are dealt round-robin across the macros, continuing from where
        the previous layer stopped so successive layers spread instead of
        piling onto macro 0.
        """
        tiles: List[TileAssignment] = []
        index = 0
        for row_start in range(0, inner, self.tile_rows):
            row_stop = min(row_start + self.tile_rows, inner)
            for col_start in range(0, outer, self.tile_cols):
                col_stop = min(col_start + self.tile_cols, outer)
                tiles.append(
                    TileAssignment(
                        tile_index=index,
                        macro_index=(self._next_tile_macro + index)
                        % self.chip.num_macros,
                        row_start=row_start,
                        row_stop=row_stop,
                        col_start=col_start,
                        col_stop=col_stop,
                    )
                )
                index += 1
        return tiles

    def _charge_programming(self, tiles: List[TileAssignment]) -> Tuple[int, float]:
        """Charge the array writes that make a layer's tiles resident.

        Programming one tile is one row write per weight row (the weights
        land in the multiplication slots), accounted as COPY operations on
        the owning macro so the cost lands in that shard's ledger.
        """
        bits = self.precision_bits
        total_cycles = 0
        total_energy = 0.0
        for tile in tiles:
            macro = self.chip.macro(tile.macro_index)
            cycles = tile.rows * cycles_for(Opcode.COPY, bits)
            energy = self._copy_energy_per_word * tile.words
            macro.stats.record_batch(
                Opcode.COPY,
                invocations=tile.rows,
                words=tile.words,
                cycles=cycles,
                energy_j=energy,
            )
            macro.array.access_count += tile.rows
            macro.stats.array_accesses = macro.array.access_count
            self._macro_cycle_acc[tile.macro_index] += cycles
            self._energy_acc += energy
            total_cycles += cycles
            total_energy += energy
        return total_cycles, total_energy

    def program(
        self, weights: np.ndarray, layer_id: Optional[str] = None
    ) -> Tuple[ProgrammedWeights, bool]:
        """Make a weight matrix resident; returns (entry, was_programmed).

        On a cache hit nothing is charged.  On a miss the tiles are planned,
        the programming cost is charged to the owning macros, and the entry
        becomes resident (evicting LRU layers as needed).  A layer too large
        for the cache is programmed transiently: charged on *every* call and
        never resident.
        """
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 2:
            raise ConfigurationError("weights must be a 2-D code matrix")
        if layer_id is None:
            layer_id = self.layer_id_for(weights)
        entry = self.cache.lookup(layer_id)
        if entry is not None:
            if entry.shape != weights.shape:
                raise ConfigurationError(
                    f"layer {layer_id!r} is resident with shape {entry.shape}, "
                    f"got weights of shape {weights.shape}"
                )
            return entry, False

        inner, outer = weights.shape
        tiles = self.plan_tiles(inner, outer)
        self._next_tile_macro = (self._next_tile_macro + len(tiles)) % self.chip.num_macros
        cycles, energy = self._charge_programming(tiles)
        entry = ProgrammedWeights(
            layer_id=layer_id,
            shape=(inner, outer),
            precision_bits=self.precision_bits,
            tiles=tuple(tiles),
            program_cycles=cycles,
            program_energy_j=energy,
            charge_plan=self._build_charge_plan(tiles),
        )
        self.cache.insert(entry)
        self.counters.programmed_tiles += len(tiles)
        self.counters.program_cycles += cycles
        self.counters.program_energy_j += energy
        return entry, True

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _check_operands(self, activations: np.ndarray, weights: np.ndarray) -> None:
        if activations.ndim != 2 or weights.ndim != 2:
            raise ConfigurationError("the engine expects 2-D code matrices")
        if activations.shape[1] != weights.shape[0]:
            raise ConfigurationError(
                f"shape mismatch: activations {activations.shape} x weights "
                f"{weights.shape}"
            )
        # Bounds via max/min: no abs() copy of a batch-sized operand, and
        # INT64_MIN (whose abs() wraps negative) cannot slip through.
        limit = mask(self.precision_bits - 1)
        for operand in (activations, weights):
            if operand.size and (operand.max() > limit or operand.min() < -limit):
                raise ConfigurationError(
                    f"operand magnitudes exceed the {self.precision_bits}-bit precision"
                )

    def _build_charge_plan(
        self, tiles: Sequence[TileAssignment]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Per-tile charging constants: (macro, rows*cols, rows*col_groups)."""
        return tuple(
            (
                tile.macro_index,
                tile.rows * tile.cols,
                tile.rows * -(-tile.cols // self._slots),
            )
            for tile in tiles
        )

    def _charge_plan_for(self, entry: ProgrammedWeights) -> Tuple[Tuple[int, int, int], ...]:
        """The entry's charge plan (derived lazily for hand-built entries)."""
        if not entry.charge_plan:
            entry.charge_plan = self._build_charge_plan(entry.tiles)
        return entry.charge_plan

    def _charge_tile(
        self, macro_index: int, products_pr: int, invocations_pr: int, batch: int
    ) -> None:
        """Charge one tile's MULT/ADD stream for a ``batch``-row dispatch.

        ``products_pr`` / ``invocations_pr`` are the per-activation-row
        product and MULT-invocation counts of the tile (from its charge
        plan).  This is the single charging path of the engine: the real
        dispatch and the analytic fast path both land their accounting here,
        which is what makes the two modes ledger-identical by construction.
        Every charge is mirrored into the engine's running accumulators so
        dispatch-level accounting never has to re-read the macro ledgers.
        """
        macro = self._macros[macro_index]
        bits = self.precision_bits
        products = batch * products_pr

        # MULT accounting: each activation scalar is broadcast over the
        # tile's columns; a row invocation covers min(tile_cols, slots)
        # product slots.
        invocations = batch * invocations_pr
        mult_cycles = self._mult_cycles_per_invocation * invocations
        mult_energy = self._mult_energy_per_word * products
        record = macro.stats.records[Opcode.MULT]
        record.invocations += invocations
        record.words += products
        record.cycles += mult_cycles
        record.energy_j += mult_energy
        macro.array.access_count += (bits + 1) * invocations

        # Accumulation: one near-memory ADD per product at the accumulator
        # precision (the partial sums never leave the tile's periphery).
        add_cycles = self._add_cycles_per_word * products
        add_energy = self._add_energy_per_word * products
        record = macro.stats.records[Opcode.ADD]
        record.invocations += products
        record.words += products
        record.cycles += add_cycles
        record.energy_j += add_energy
        macro.array.access_count += products
        macro.stats.array_accesses = macro.array.access_count

        self._macro_cycle_acc[macro_index] += mult_cycles + add_cycles
        self._energy_acc += mult_energy + add_energy

    def _tile_dispatch(
        self,
        tile: TileAssignment,
        plan: Tuple[int, int, int],
        activations: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Stream one activation batch past one stationary tile.

        The charging goes through :meth:`_charge_tile`; the arithmetic
        itself is the macro's exact column-parallel model (int64 products +
        signed accumulation), so the result is bit-identical to the golden
        int64 matrix product.
        """
        a_block = activations[:, tile.row_start : tile.row_stop]
        w_block = weights[tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
        self._charge_tile(plan[0], plan[1], plan[2], a_block.shape[0])
        return a_block @ w_block

    def matmul(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        layer_id: Optional[str] = None,
    ) -> np.ndarray:
        """Weight-stationary integer product of ``(B x I) @ (I x O)`` codes.

        Bit-exact against the int64 golden path; statistics land in the
        per-macro ledgers of the tiles' owners and therefore in the merged
        chip ledger.  Read-disturb-injecting configurations are routed to
        the per-lane reference oracle.
        """
        activations = np.asarray(activations, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        self._check_operands(activations, weights)
        if self.chip.config.inject_read_disturb:
            return self.matmul_reference(activations, weights, layer_id=layer_id)

        batch, inner = activations.shape
        outer = weights.shape[1]
        entry, programmed = self.program(weights, layer_id=layer_id)
        plan = self._charge_plan_for(entry)

        mark = self.ledger_mark()
        output = np.zeros((batch, outer), dtype=np.int64)
        for tile, tile_plan in zip(entry.tiles, plan):
            partial = self._tile_dispatch(tile, tile_plan, activations, weights)
            output[:, tile.col_start : tile.col_stop] += partial

        self.last_dispatch = self._dispatch_from_mark(
            mark, entry, programmed, batch, inner, outer
        )
        self.counters.mac_count += matmul_mac_count(activations, weights)
        self.counters.matmul_calls += 1
        return output

    def __call__(self, activations: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Drop-in matmul backend interface (layer id derived from content)."""
        return self.matmul(activations, weights)

    # ------------------------------------------------------------------ #
    # Dispatch accounting (running accumulators)
    # ------------------------------------------------------------------ #
    def ledger_mark(self) -> Tuple[float, Tuple[int, ...]]:
        """Cheap accounting bookmark: (energy so far, per-macro cycles so far).

        The accumulators track every charge the engine lands in the macro
        ledgers (tile streams *and* programming writes), so bracketing any
        stretch of engine work with a mark and :meth:`ledger_since` yields
        exactly the cycles/energy that stretch added — without the
        O(macros x opcodes) cost of merging the chip ledger per read.
        Read-disturb-injecting configurations compute on the per-lane
        reference path, whose charges bypass the accumulators; there the
        marks snapshot the macro ledgers themselves.
        """
        if self.chip.config.inject_read_disturb:
            return self._ledger_snapshot()
        return (self._energy_acc, tuple(self._macro_cycle_acc))

    def ledger_since(self, mark: Tuple[float, Tuple[int, ...]]) -> Tuple[int, int, float]:
        """(total_cycles, critical_path_cycles, energy_j) since a mark."""
        energy_before, cycles_before = mark
        if self.chip.config.inject_read_disturb:
            energy_now, cycles_now = self._ledger_snapshot()
        else:
            energy_now, cycles_now = self._energy_acc, self._macro_cycle_acc
        total = 0
        critical = 0
        for after, before in zip(cycles_now, cycles_before):
            delta = after - before
            total += delta
            if delta > critical:
                critical = delta
        return total, critical, energy_now - energy_before

    def _ledger_snapshot(self) -> Tuple[float, Tuple[int, ...]]:
        """(chip energy, per-macro cycles) read off the macro ledgers."""
        return (
            float(self.chip.stats.total_energy_j),
            tuple(macro.stats.total_cycles for macro in self._macros),
        )

    def _dispatch_from_mark(
        self,
        mark: Tuple[float, Tuple[int, ...]],
        entry: ProgrammedWeights,
        programmed: bool,
        batch: int,
        inner: int,
        outer: int,
    ) -> MatmulDispatch:
        """Build the dispatch record from the accumulator deltas."""
        total_cycles, critical, energy = self.ledger_since(mark)
        return MatmulDispatch(
            layer_id=entry.layer_id,
            batch=batch,
            inner=inner,
            outer=outer,
            tile_count=entry.tile_count,
            programmed=programmed,
            macros=self.chip.num_macros,
            total_cycles=total_cycles,
            critical_path_cycles=critical,
            program_cycles=entry.program_cycles if programmed else 0,
            energy_j=energy,
            latency_s=critical * self.chip.cycle_time_s(self.precision_bits),
        )

    def charge_dispatch(
        self,
        batch: int,
        weights: np.ndarray,
        layer_id: Optional[str] = None,
    ) -> MatmulDispatch:
        """Charge a ``(batch x I) @ (I x O)`` dispatch without computing it.

        The exact-charge half of :meth:`matmul`: weights are programmed (or
        LRU-touched) through the same :meth:`program` path, every tile's
        MULT/ADD stream lands in the macro ledgers through the same
        :meth:`_charge_tile` calls in the same order, and the engine/cache
        counters advance identically — only the integer arithmetic itself is
        skipped.  The returned :class:`MatmulDispatch` is field-for-field
        identical to what the real ``matmul`` would have produced, which is
        the fidelity contract the analytic cluster execution mode rests on
        (pinned by the property tests in ``tests/test_execution_modes.py``).

        Read-disturb-injecting configurations execute on the per-lane
        reference path whose accounting depends on the actual operand
        values, so they cannot be charged analytically and are refused.
        """
        if batch <= 0:
            check_positive("batch", batch)
        if self.chip.config.inject_read_disturb:
            raise ConfigurationError(
                "analytic charging is undefined under read-disturb injection; "
                "use matmul() (which routes to the reference oracle)"
            )

        # Resident fast path: the weights were validated when they were
        # programmed, so a hit only needs the same lookup + shape check the
        # program() hit path performs (identical LRU / counter effects).
        # peek() first so a cold layer does not record a double miss (the
        # program() path below runs its own counted lookup).
        entry = self.cache.peek(layer_id) if layer_id is not None else None
        if entry is not None:
            self.cache.lookup(layer_id)
            shape = getattr(weights, "shape", None)
            if shape is not None and entry.shape != shape:
                raise ConfigurationError(
                    f"layer {layer_id!r} is resident with shape {entry.shape}, "
                    f"got weights of shape {shape}"
                )
            programmed = False
        else:
            weights = np.asarray(weights, dtype=np.int64)
            if weights.ndim != 2:
                raise ConfigurationError("the engine expects a 2-D weight code matrix")
            if weights.size:
                if int(np.abs(weights).max()) > mask(self.precision_bits - 1):
                    raise ConfigurationError(
                        f"operand magnitudes exceed the "
                        f"{self.precision_bits}-bit precision"
                    )
            entry, programmed = self.program(weights, layer_id=layer_id)
        inner, outer = entry.shape
        plan = self._charge_plan_for(entry)

        mark = self.ledger_mark()
        for macro_index, products_pr, invocations_pr in plan:
            self._charge_tile(macro_index, products_pr, invocations_pr, batch)

        dispatch = self._dispatch_from_mark(mark, entry, programmed, batch, inner, outer)
        self.last_dispatch = dispatch
        self.counters.mac_count += batch * inner * outer
        self.counters.matmul_calls += 1
        return dispatch

    def _charge_rows_for(self, entry: ProgrammedWeights, batch: int) -> Tuple[Tuple, ...]:
        """Fully evaluated per-tile charge rows of one (entry, batch) pair.

        Each row holds exactly the values :meth:`_charge_tile` would compute
        for the tile at this batch size — the same multiplications, memoised
        — so applying a cached row replays the identical float/int updates.
        """
        rows = entry.charge_rows.get(batch)
        if rows is None:
            bits_plus = self.precision_bits + 1
            built = []
            for macro_index, products_pr, invocations_pr in self._charge_plan_for(entry):
                products = batch * products_pr
                invocations = batch * invocations_pr
                mult_cycles = self._mult_cycles_per_invocation * invocations
                mult_energy = self._mult_energy_per_word * products
                add_cycles = self._add_cycles_per_word * products
                add_energy = self._add_energy_per_word * products
                built.append(
                    (
                        macro_index,
                        invocations,
                        products,
                        mult_cycles,
                        mult_energy,
                        add_cycles,
                        add_energy,
                        bits_plus * invocations + products,
                        mult_cycles + add_cycles,
                        mult_energy + add_energy,
                    )
                )
            rows = tuple(built)
            if len(entry.charge_rows) >= 64:
                entry.charge_rows.clear()
            entry.charge_rows[batch] = rows
        return rows

    def charge_layers(self, layers: Sequence[Tuple[int, np.ndarray, Optional[str]]]) -> None:
        """Lean exact-charge of several dispatches: (batch, weights, id) each.

        The trace-replay hot path: per resident layer this is one counted
        cache lookup plus the application of memoised per-tile charge rows —
        no dispatch record, no per-layer accounting mark.  Every ledger and
        counter mutation is value- and order-identical to a
        :meth:`charge_dispatch` (and therefore :meth:`matmul`) of the same
        layers; cold layers fall back to :meth:`charge_dispatch` so the
        programming path stays the single shared one.
        """
        cache_peek = self.cache.peek
        macros = self._macros
        acc = self._macro_cycle_acc
        counters = self.counters
        mult_op = Opcode.MULT
        add_op = Opcode.ADD
        for batch, weights, layer_id in layers:
            entry = cache_peek(layer_id) if layer_id is not None else None
            if entry is None:
                self.charge_dispatch(batch, weights, layer_id=layer_id)
                continue
            self.cache.lookup(layer_id)
            for row in self._charge_rows_for(entry, batch):
                macro = macros[row[0]]
                stats = macro.stats
                record = stats.records[mult_op]
                record.invocations += row[1]
                record.words += row[2]
                record.cycles += row[3]
                record.energy_j += row[4]
                record = stats.records[add_op]
                record.invocations += row[2]
                record.words += row[2]
                record.cycles += row[5]
                record.energy_j += row[6]
                macro.array.access_count += row[7]
                stats.array_accesses = macro.array.access_count
                acc[row[0]] += row[8]
                self._energy_acc += row[9]
            inner, outer = entry.shape
            counters.mac_count += batch * inner * outer
            counters.matmul_calls += 1

    # ------------------------------------------------------------------ #
    # Planning (no side effects)
    # ------------------------------------------------------------------ #
    @property
    def resident_layer_ids(self) -> List[str]:
        """Layer ids currently programmed on the chip (LRU -> MRU order)."""
        return self.cache.resident_layers

    def is_resident(self, layer_id: str) -> bool:
        """Whether a layer is programmed, without touching the LRU order."""
        return self.cache.peek(layer_id) is not None

    def estimate_dispatch(
        self,
        batch: int,
        weights_shape: Tuple[int, int],
        layer_id: Optional[str] = None,
    ) -> DispatchEstimate:
        """Model the cost of ``matmul`` on a ``(batch x I) @ (I x O)`` product.

        Pure planning: nothing is charged, programmed, or LRU-touched.  When
        ``layer_id`` is resident the tile plan is the entry's actual plan and
        the estimate matches the subsequent dispatch's accounting exactly;
        otherwise the plan is hypothesised from the current round-robin
        cursor and the programming charge is included (which is precisely the
        re-programming penalty weight-affinity routing tries to avoid).
        """
        check_positive("batch", batch)
        inner, outer = weights_shape
        check_positive("inner", inner)
        check_positive("outer", outer)
        entry = self.cache.peek(layer_id) if layer_id is not None else None
        resident = entry is not None
        tiles = entry.tiles if entry is not None else tuple(self.plan_tiles(inner, outer))

        bits = self.precision_bits
        mult_cycles_per_invocation = cycles_for(Opcode.MULT, bits)
        add_cycles_per_word = cycles_for(Opcode.ADD, self.accumulator_bits)
        copy_cycles_per_row = cycles_for(Opcode.COPY, bits)

        per_macro = [0] * self.chip.num_macros
        program_cycles = 0
        program_energy = 0.0
        compute_cycles = 0
        energy = 0.0
        for tile in tiles:
            products = batch * tile.rows * tile.cols
            col_groups = -(-tile.cols // self._slots)
            tile_cycles = (
                batch * tile.rows * col_groups * mult_cycles_per_invocation
                + products * add_cycles_per_word
            )
            compute_cycles += tile_cycles
            energy += (self._mult_energy_per_word + self._add_energy_per_word) * products
            per_macro[tile.macro_index] += tile_cycles
            if not resident:
                tile_program = tile.rows * copy_cycles_per_row
                program_cycles += tile_program
                program_energy += self._copy_energy_per_word * tile.words
                per_macro[tile.macro_index] += tile_program
        critical = max(per_macro, default=0)
        return DispatchEstimate(
            layer_id=layer_id,
            batch=batch,
            inner=inner,
            outer=outer,
            resident=resident,
            tile_count=len(tiles),
            program_cycles=program_cycles,
            program_energy_j=program_energy,
            compute_cycles=compute_cycles,
            critical_path_cycles=critical,
            energy_j=energy + program_energy,
            latency_s=critical * self.chip.cycle_time_s(self.precision_bits),
        )

    # ------------------------------------------------------------------ #
    # Reference oracle
    # ------------------------------------------------------------------ #
    def matmul_reference(
        self,
        activations: np.ndarray,
        weights: np.ndarray,
        layer_id: Optional[str] = None,
    ) -> np.ndarray:
        """Per-lane on-array execution of the tiled matmul (ground truth).

        Every tile's products run through the owning macro's
        :meth:`~repro.core.macro.IMCMacro.elementwise_reference` — the full
        decoder / bit-line / Y-Path machinery — and the signed accumulation
        is done with exact Python integers.  Slow; used by the tests to pin
        the fast path down and by disturb-injecting configurations.
        """
        activations = np.asarray(activations, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        self._check_operands(activations, weights)
        batch = activations.shape[0]
        outer = weights.shape[1]
        entry, _ = self.program(weights, layer_id=layer_id)

        output = np.zeros((batch, outer), dtype=np.int64)
        for tile in entry.tiles:
            macro = self.chip.macro(tile.macro_index)
            a_block = activations[:, tile.row_start : tile.row_stop]
            w_block = weights[
                tile.row_start : tile.row_stop, tile.col_start : tile.col_stop
            ]
            a_mag = np.abs(a_block).reshape(batch, tile.rows, 1)
            w_mag = np.abs(w_block).reshape(1, tile.rows, tile.cols)
            a_flat = np.broadcast_to(a_mag, (batch, tile.rows, tile.cols)).reshape(-1)
            w_flat = np.broadcast_to(w_mag, (batch, tile.rows, tile.cols)).reshape(-1)
            magnitudes = macro.elementwise_reference(
                Opcode.MULT,
                a_flat.tolist(),
                w_flat.tolist(),
                precision_bits=self.precision_bits,
            )
            signs = np.sign(a_block)[:, :, None] * np.sign(w_block)[None, :, :]
            products = np.asarray(magnitudes, dtype=np.int64).reshape(
                batch, tile.rows, tile.cols
            )
            output[:, tile.col_start : tile.col_stop] += (products * signs).sum(axis=1)
        self.counters.mac_count += matmul_mac_count(activations, weights)
        self.counters.matmul_calls += 1
        return output

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def mac_count(self) -> int:
        """Multiply-accumulates executed so far (matches the golden backend)."""
        return self.counters.mac_count

    def statistics(self) -> Dict[str, float]:
        """Chip ledger + engine counters + cache counters in one flat dict."""
        summary = self.chip.stats.summary()
        summary["mac_count"] = float(self.counters.mac_count)
        summary["matmul_calls"] = float(self.counters.matmul_calls)
        summary["programmed_tiles"] = float(self.counters.programmed_tiles)
        summary["program_cycles"] = float(self.counters.program_cycles)
        summary["program_energy_j"] = self.counters.program_energy_j
        for key, value in self.cache.summary().items():
            summary[f"cache_{key}"] = value
        return summary

    def reset_stats(self) -> None:
        """Clear the chip ledgers and engine counters (cache stays resident)."""
        self.chip.reset_stats()
        self.counters = _EngineCounters()
        self.last_dispatch = None
        self._macro_cycle_acc = [0] * self.chip.num_macros
        self._energy_acc = 0.0
