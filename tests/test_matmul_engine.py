"""Tests for the weight-stationary tiled matmul engine.

Three pillars:

* **Bit-exactness** — the tiled engine must agree with the int64 golden
  backend on every shape, including the awkward ones (non-divisible tile
  edges, batch=1, single-column weights), and with the per-lane on-array
  reference oracle on a sampled layer.
* **Cache properties** — random program/evict sequences never exceed the
  capacity, and programming cost is charged exactly once per period of
  residency.
* **Accounting** — per-tile ledgers merge into the chip ledger, MAC counts
  match the golden backend, and cache hits skip re-programming.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import IMCChip, MacroConfig, Opcode, TiledMatmulEngine
from repro.core.matmul import (
    ProgrammedWeights,
    TileAssignment,
    WeightCache,
    matmul_mac_count,
)
from repro.dnn.imc_backend import NumpyIntBackend
from repro.errors import ConfigurationError


#: The directory ``repro`` is imported from, for child interpreters.
IMPORT_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _engine(num_macros=2, precision_bits=8, **kwargs) -> TiledMatmulEngine:
    chip = IMCChip(num_macros, MacroConfig(precision_bits=precision_bits))
    return TiledMatmulEngine(chip, **kwargs)


def _random_operands(rng, batch, inner, outer, limit=127):
    return (
        rng.integers(-limit, limit + 1, size=(batch, inner)),
        rng.integers(-limit, limit + 1, size=(inner, outer)),
    )


class TestBitExactness:
    @pytest.mark.parametrize(
        "batch,inner,outer",
        [
            (1, 1, 1),       # minimal
            (1, 9, 4),       # batch=1 conv-ish shape
            (3, 7, 1),       # single-column weights
            (5, 144, 16),    # larger than one tile row span? no, odd inner
            (2, 127, 3),     # prime-ish inner, not divisible by tile rows
            (4, 5, 9),       # outer not divisible by tile cols
        ],
    )
    def test_matches_numpy_backend(self, batch, inner, outer):
        rng = np.random.default_rng(batch * 100 + inner + outer)
        activations, weights = _random_operands(rng, batch, inner, outer)
        engine = _engine(num_macros=3)
        golden = NumpyIntBackend()
        assert np.array_equal(
            engine(activations, weights), golden(activations, weights)
        )
        assert engine.mac_count == golden.mac_count

    def test_non_divisible_tile_edges(self):
        # Force tiny tiles so both dimensions have ragged tails.
        rng = np.random.default_rng(11)
        activations, weights = _random_operands(rng, 4, 13, 7)
        engine = _engine(num_macros=2, tile_rows=5, tile_cols=3)
        assert np.array_equal(
            engine(activations, weights),
            activations.astype(np.int64) @ weights.astype(np.int64),
        )
        entry, programmed = engine.program(weights)
        assert not programmed  # already resident from the call above
        # ceil(13/5) x ceil(7/3) tiles
        assert entry.tile_count == 3 * 3

    def test_zero_activations_and_weights(self):
        engine = _engine()
        activations = np.zeros((3, 8), dtype=np.int64)
        weights = np.zeros((8, 2), dtype=np.int64)
        assert np.array_equal(engine(activations, weights), np.zeros((3, 2)))

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(5)
        activations, weights = _random_operands(rng, 2, 5, 3, limit=15)
        fast = _engine(num_macros=2)
        slow = _engine(num_macros=2)
        assert np.array_equal(
            fast.matmul(activations, weights),
            slow.matmul_reference(activations, weights),
        )

    def test_read_disturb_routes_to_reference(self):
        chip = IMCChip(
            2, MacroConfig(precision_bits=4, inject_read_disturb=True, seed=9)
        )
        engine = TiledMatmulEngine(chip)
        rng = np.random.default_rng(3)
        activations, weights = _random_operands(rng, 2, 3, 2, limit=7)
        result = engine.matmul(activations, weights)
        assert result.shape == (2, 2)
        # The reference path performs real per-lane array accesses.
        assert chip.stats.array_accesses > 0

    def test_precision_range_check(self):
        engine = _engine(precision_bits=4)
        with pytest.raises(ConfigurationError):
            engine(np.array([[100]]), np.array([[1]]))

    @pytest.mark.parametrize("code", [8, -8, np.iinfo(np.int64).min])
    def test_precision_range_check_is_two_sided(self, code):
        # INT64_MIN is what a NaN activation casts to; its abs() wraps
        # negative, so only a max/min bound refuses it.
        engine = _engine(precision_bits=4)
        ok = np.array([[7, -7]], dtype=np.int64)
        bad = np.array([[1, code]], dtype=np.int64)
        engine(ok, np.ones((2, 1), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="precision"):
            engine(bad, np.ones((2, 1), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="precision"):
            engine(np.ones((1, 2), dtype=np.int64), bad.T)

    def test_shape_check(self):
        engine = _engine()
        with pytest.raises(ConfigurationError):
            engine(np.ones((2, 3), dtype=np.int64), np.ones((4, 2), dtype=np.int64))


class TestWeightCacheProperties:
    def test_capacity_never_exceeded_under_random_sequences(self):
        rng = np.random.default_rng(2020)
        for trial in range(10):
            capacity = int(rng.integers(10, 60))
            cache = WeightCache(capacity)
            for step in range(40):
                rows = int(rng.integers(1, 30))
                entry = ProgrammedWeights(
                    layer_id=f"t{trial}-s{step}",
                    shape=(rows, 2),
                    precision_bits=8,
                    tiles=(
                        TileAssignment(
                            tile_index=0,
                            macro_index=0,
                            row_start=0,
                            row_stop=rows,
                            col_start=0,
                            col_stop=2,
                        ),
                    ),
                    program_cycles=rows,
                    program_energy_j=0.0,
                )
                cache.insert(entry)
                assert cache.resident_rows <= cache.capacity_rows
                if rows <= capacity:
                    assert entry.layer_id in cache

    def test_layer_id_is_stable_across_hash_seeds(self):
        script = (
            "import numpy as np;"
            "from repro.core.matmul import TiledMatmulEngine;"
            "print(TiledMatmulEngine.layer_id_for(np.arange(12).reshape(3, 4)))"
        )
        ids = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=IMPORT_ROOT)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            ids.add(done.stdout.strip())
        assert len(ids) == 1
        (layer_id,) = ids
        assert re.fullmatch(r"auto-3x4-[0-9a-f]{12}", layer_id)
        assert layer_id == TiledMatmulEngine.layer_id_for(np.arange(12).reshape(3, 4))

    def test_lru_eviction_order(self):
        engine = _engine(num_macros=1, capacity_rows=20)
        rng = np.random.default_rng(0)
        w1 = rng.integers(-5, 6, size=(10, 2))
        w2 = rng.integers(-5, 6, size=(10, 2))
        a = rng.integers(-5, 6, size=(1, 10))
        engine(a, w1)
        engine(a, w2)
        id1 = engine.layer_id_for(w1)
        id2 = engine.layer_id_for(w2)
        assert set(engine.cache.resident_layers) == {id1, id2}
        # Touch w1 so w2 becomes LRU, then force an eviction with w3.
        engine(a, w1)
        w3 = rng.integers(-5, 6, size=(10, 2))
        engine(a, w3)
        assert id2 not in engine.cache
        assert id1 in engine.cache
        assert engine.cache.evictions == 1

    def test_programming_charged_exactly_once_while_resident(self):
        engine = _engine(num_macros=2)
        rng = np.random.default_rng(1)
        activations, weights = _random_operands(rng, 3, 20, 4, limit=31)
        engine(activations, weights)
        charged_after_first = engine.counters.program_cycles
        assert charged_after_first > 0
        for _ in range(5):
            engine(activations, weights)
        assert engine.counters.program_cycles == charged_after_first
        assert engine.cache.misses == 1
        assert engine.cache.hits == 5

    def test_reprogramming_charged_after_eviction(self):
        engine = _engine(num_macros=1, capacity_rows=25)
        rng = np.random.default_rng(2)
        w1 = rng.integers(-5, 6, size=(20, 2))
        w2 = rng.integers(-5, 6, size=(20, 2))
        a = rng.integers(-5, 6, size=(2, 20))
        engine(a, w1)
        first_charge = engine.counters.program_cycles
        engine(a, w2)  # evicts w1
        engine(a, w1)  # re-programs w1: charged again
        assert engine.cache.evictions >= 1
        assert engine.counters.program_cycles > 2 * first_charge - 1

    def test_oversized_layer_is_transient_and_charged_every_call(self):
        engine = _engine(num_macros=1, capacity_rows=10)
        rng = np.random.default_rng(3)
        weights = rng.integers(-5, 6, size=(50, 2))  # 50 rows > capacity 10
        a = rng.integers(-5, 6, size=(1, 50))
        engine(a, weights)
        charge_one = engine.counters.program_cycles
        engine(a, weights)
        assert engine.layer_id_for(weights) not in engine.cache
        assert engine.cache.resident_rows == 0
        assert engine.counters.program_cycles == 2 * charge_one

    def test_resident_shape_conflict_rejected(self):
        engine = _engine()
        rng = np.random.default_rng(4)
        weights = rng.integers(-5, 6, size=(4, 2))
        engine.program(weights, layer_id="layer")
        with pytest.raises(ConfigurationError):
            engine.program(
                rng.integers(-5, 6, size=(6, 2)), layer_id="layer"
            )

    def test_invalidate_forces_reprogram(self):
        engine = _engine()
        rng = np.random.default_rng(5)
        weights = rng.integers(-5, 6, size=(4, 2))
        _, programmed = engine.program(weights, layer_id="x")
        assert programmed
        assert engine.cache.invalidate("x")
        _, programmed = engine.program(weights, layer_id="x")
        assert programmed


class TestAccounting:
    def test_tile_ledgers_merge_into_chip_ledger(self):
        engine = _engine(num_macros=4)
        rng = np.random.default_rng(6)
        activations, weights = _random_operands(rng, 2, 30, 8)
        engine(activations, weights)
        chip = engine.chip
        per_macro = chip.per_macro_statistics()
        # More than one macro worked (tiles are dealt round-robin)...
        assert sum(1 for stats in per_macro if stats.total_cycles > 0) > 1
        # ...and the merged ledger is exactly the sum of the shards.
        assert chip.stats.total_cycles == sum(s.total_cycles for s in per_macro)
        assert chip.stats.cycles_for(Opcode.MULT) > 0
        assert chip.stats.cycles_for(Opcode.ADD) > 0    # accumulation
        assert chip.stats.cycles_for(Opcode.COPY) > 0   # programming

    def test_dispatch_reports_critical_path_and_utilization(self):
        engine = _engine(num_macros=4)
        rng = np.random.default_rng(7)
        activations, weights = _random_operands(rng, 4, 48, 8)
        engine(activations, weights)
        dispatch = engine.last_dispatch
        assert dispatch is not None
        assert dispatch.macros == 4
        assert 0 < dispatch.critical_path_cycles <= dispatch.total_cycles
        assert 0.0 < dispatch.utilization <= 1.0
        assert dispatch.parallel_speedup >= 1.0
        assert dispatch.latency_s > 0.0

    def test_mac_count_helper_is_shape_derived(self):
        activations = np.zeros((3, 5))
        weights = np.zeros((5, 7))
        assert matmul_mac_count(activations, weights) == 3 * 5 * 7

    def test_statistics_include_cache_and_program_counters(self):
        engine = _engine()
        rng = np.random.default_rng(8)
        activations, weights = _random_operands(rng, 1, 6, 2)
        engine(activations, weights)
        stats = engine.statistics()
        for key in (
            "mac_count",
            "matmul_calls",
            "program_cycles",
            "programmed_tiles",
            "cache_hits",
            "cache_misses",
            "cache_capacity_rows",
        ):
            assert key in stats
        assert stats["matmul_calls"] == 1.0

    def test_quantized_mlp_runs_weight_stationary(self):
        from repro.dnn.datasets import make_classification_dataset
        from repro.dnn.training import train_mlp

        dataset = make_classification_dataset(samples=150, features=8, classes=3)
        training = train_mlp(dataset, hidden_sizes=(8,), epochs=8, seed=0)
        quantized = training.model.quantize(8)
        engine = _engine(num_macros=4)
        stationary = quantized.with_backend(engine)
        sample = dataset.test_x[:4]
        assert np.array_equal(stationary.predict(sample), quantized.predict(sample))
        # Two layers -> two programmed entries, hit on the second batch.
        stationary.predict(sample)
        assert engine.cache.misses == 2
        assert engine.cache.hits == 2


class TestMultiModelContention:
    """Two models alternating past the residency bound (the cluster's
    node-local reality: every node serves several models from one cache)."""

    def _contended_engine(self):
        # One macro, capacity pinned to fit exactly one model (two 100-row
        # column tiles = 200 resident rows): the second model always evicts
        # the first.
        engine = _engine(num_macros=1, capacity_rows=250)
        rng = np.random.default_rng(7)
        a = rng.integers(-9, 10, size=(100, 4))
        b = rng.integers(-9, 10, size=(100, 4))
        acts = rng.integers(-9, 10, size=(3, 100))
        return engine, acts, a, b

    def test_alternating_models_recharge_programming(self):
        engine, acts, a, b = self._contended_engine()
        golden = NumpyIntBackend()
        charges = []
        for weights in (a, b, a, b):
            before = engine.counters.program_cycles
            result = engine.matmul(acts, weights)
            assert np.array_equal(result, golden(acts, weights))
            charges.append(engine.counters.program_cycles - before)
        # Every touch re-programs (the other model evicted it), and every
        # re-programming costs exactly what the first programming did.
        assert all(charge > 0 for charge in charges)
        assert len(set(charges)) == 1
        assert engine.cache.evictions == 3
        assert engine.cache.hits == 0

    def test_affinity_metadata_tracks_the_evictions(self):
        engine, acts, a, b = self._contended_engine()
        id_a = TiledMatmulEngine.layer_id_for(np.asarray(a, dtype=np.int64))
        id_b = TiledMatmulEngine.layer_id_for(np.asarray(b, dtype=np.int64))
        engine.matmul(acts, a)
        assert engine.is_resident(id_a) and not engine.is_resident(id_b)
        assert engine.resident_layer_ids == [id_a]
        engine.matmul(acts, b)
        assert engine.is_resident(id_b) and not engine.is_resident(id_a)
        assert engine.resident_layer_ids == [id_b]
        # The invariant the cluster router leans on: residency never
        # overstates what the cache holds.
        assert engine.cache.resident_rows <= engine.cache.capacity_rows

    def test_interleaved_hits_within_capacity_stay_free(self):
        # Same two models but capacity for both (2 x 200 resident rows):
        # after the cold touches, alternation is all hits and programming is
        # never re-charged.
        engine = _engine(num_macros=2, capacity_rows=500)
        rng = np.random.default_rng(7)
        a = rng.integers(-9, 10, size=(100, 4))
        b = rng.integers(-9, 10, size=(100, 4))
        acts = rng.integers(-9, 10, size=(3, 100))
        engine.matmul(acts, a)
        engine.matmul(acts, b)
        programmed = engine.counters.program_cycles
        for weights in (a, b, a, b):
            engine.matmul(acts, weights)
        assert engine.counters.program_cycles == programmed
        assert engine.cache.evictions == 0
        assert engine.cache.hits == 4  # every alternating touch hits


class TestDispatchEstimates:
    """The planning path the cluster scheduler prices nodes with."""

    def test_peek_does_not_perturb_lru_or_counters(self):
        engine = _engine(num_macros=1, capacity_rows=250)
        rng = np.random.default_rng(3)
        weights = rng.integers(-9, 10, size=(50, 4))
        acts = rng.integers(-9, 10, size=(2, 50))
        engine.matmul(acts, weights)
        layer_id = engine.resident_layer_ids[0]
        hits, misses = engine.cache.hits, engine.cache.misses
        assert engine.cache.peek(layer_id) is not None
        assert engine.cache.peek("nope") is None
        assert engine.is_resident(layer_id)
        assert (engine.cache.hits, engine.cache.misses) == (hits, misses)

    def test_resident_estimate_matches_dispatch_accounting_exactly(self):
        engine = _engine(num_macros=4)
        rng = np.random.default_rng(5)
        acts, weights = _random_operands(rng, 6, 80, 12, limit=9)
        engine.matmul(acts, weights, layer_id="layer")
        estimate = engine.estimate_dispatch(6, (80, 12), layer_id="layer")
        assert estimate.resident
        assert estimate.program_cycles == 0

        before = engine.chip.stats.total_cycles
        energy_before = engine.chip.stats.total_energy_j
        engine.matmul(acts, weights, layer_id="layer")
        dispatch = engine.last_dispatch
        assert estimate.compute_cycles == engine.chip.stats.total_cycles - before
        assert estimate.critical_path_cycles == dispatch.critical_path_cycles
        assert estimate.energy_j == pytest.approx(
            engine.chip.stats.total_energy_j - energy_before, rel=1e-12
        )
        assert estimate.latency_s == pytest.approx(dispatch.latency_s, rel=1e-12)

    def test_cold_estimate_prices_the_programming_charge(self):
        engine = _engine(num_macros=4)
        rng = np.random.default_rng(5)
        acts, weights = _random_operands(rng, 6, 80, 12, limit=9)
        estimate = engine.estimate_dispatch(6, (80, 12), layer_id="cold")
        assert not estimate.resident
        assert estimate.program_cycles > 0
        assert estimate.program_energy_j > 0
        entry, programmed = engine.program(weights, layer_id="cold")
        assert programmed
        assert estimate.program_cycles == entry.program_cycles
        assert estimate.program_energy_j == pytest.approx(
            entry.program_energy_j, rel=1e-12
        )
        # The cold estimate dominates the warm one: affinity is worth
        # exactly the programming charge.
        warm = engine.estimate_dispatch(6, (80, 12), layer_id="cold")
        assert warm.resident
        assert estimate.total_cycles == warm.compute_cycles + estimate.program_cycles
        assert estimate.energy_j > warm.energy_j

    def test_estimate_scales_with_operating_point(self):
        from repro.tech.technology import OperatingPoint

        rng = np.random.default_rng(5)
        fast = TiledMatmulEngine(
            IMCChip(2, MacroConfig(operating_point=OperatingPoint(vdd=1.0)))
        )
        slow = TiledMatmulEngine(
            IMCChip(2, MacroConfig(operating_point=OperatingPoint(vdd=0.6)))
        )
        est_fast = fast.estimate_dispatch(4, (60, 8), layer_id="x")
        est_slow = slow.estimate_dispatch(4, (60, 8), layer_id="x")
        # Same work, different physics: cycles identical, the slow rung is
        # slower in seconds and cheaper in joules.
        assert est_fast.total_cycles == est_slow.total_cycles
        assert est_slow.latency_s > est_fast.latency_s
        assert est_slow.energy_j < est_fast.energy_j

    def test_estimate_rejects_bad_shapes(self):
        engine = _engine()
        with pytest.raises(Exception):
            engine.estimate_dispatch(0, (4, 4))
        with pytest.raises(Exception):
            engine.estimate_dispatch(2, (0, 4))
