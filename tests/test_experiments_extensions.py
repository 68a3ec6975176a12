"""Tests for the extension experiment drivers (area, data movement, serving)."""

import math

import numpy as np
import pytest

from repro.analysis import experiments as exp
from repro.cluster import ClusterNode
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn


class TestAreaOverheadStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return exp.area_overhead_study()

    def test_matches_paper_claim(self, study):
        assert study["overhead_fraction"] == pytest.approx(
            study["paper_overhead_fraction"], abs=0.003
        )

    def test_components_listed(self, study):
        assert "fa_logics" in study["components"]
        assert "bl_booster" in study["components"]

    def test_overhead_shrinks_with_rows(self, study):
        sweep = study["overhead_vs_rows"]
        values = [sweep[rows] for rows in sorted(sweep)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_peripheral_beats_cell_modification(self, study):
        comparison = study["cell_modification_comparison"]
        assert (
            comparison["proposed_peripheral_overhead"]
            < comparison["cell_modification_overhead"]
        )


class TestDataMovementStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return exp.data_movement_study()

    def test_all_operations_present(self, study):
        assert set(study.keys()) == {"ADD", "SUB", "XOR", "MULT"}

    def test_elementwise_ops_favour_imc(self, study):
        for name in ("ADD", "SUB", "XOR"):
            assert study[name]["energy_ratio"] > 2.0

    def test_data_movement_dominates_processor_energy(self, study):
        for entry in study.values():
            assert entry["data_movement_share"] > 0.5

    def test_throughput_favours_imc_for_single_cycle_ops(self, study):
        for name in ("ADD", "SUB", "XOR"):
            assert study[name]["throughput_ratio"] > 1.0

    def test_mult_throughput_needs_the_full_memory(self, study):
        # A single macro's iterative multiplier is roughly at parity with a
        # 2 GHz scalar core; the 64-macro 128 KB memory wins by ~30x.
        single_macro = study["MULT"]["throughput_ratio"]
        assert 0.2 < single_macro < 1.5
        assert single_macro * 64 > 10.0

    def test_voltage_parameter_scales_energies(self):
        low = exp.data_movement_study(vdd=0.6)
        high = exp.data_movement_study(vdd=0.9)
        assert low["ADD"]["processor_energy_j"] < high["ADD"]["processor_energy_j"]
        assert low["ADD"]["imc_energy_j"] < high["ADD"]["imc_energy_j"]


class TestServingThroughputStudy:
    BATCH_SIZES = (1, 4)

    @pytest.fixture(scope="class")
    def served(self):
        """The study at a small config, plus every dispatch's predictions."""
        predictions = []
        execute_group = ClusterNode.execute_group

        def recording(node, model_id, parts):
            views, dispatch = execute_group(node, model_id, parts)
            predictions.append(dispatch.predictions)
            return views, dispatch

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClusterNode, "execute_group", recording)
            study = exp.serving_throughput_study(
                batch_sizes=self.BATCH_SIZES, samples=60, epochs=2
            )
        return study, predictions

    def test_batch_loop_cuts_the_stream_into_budgets(self, served):
        study, _ = served
        for size in self.BATCH_SIZES:
            point = study[size]
            assert point.batches == math.ceil(point.images / size)
            assert point.mean_batch_size == point.images / point.batches

    def test_weights_are_programmed_once_per_point(self, served):
        study, _ = served
        for point in study.values():
            assert point.cache_misses == 3
            assert point.cache_hits == (point.batches - 1) * 3

    def test_served_predictions_are_the_reference_forward(self, served):
        study, predictions = served
        dataset = make_pattern_image_dataset(samples=60, size=8, seed=13)
        cnn, _ = train_pattern_cnn(dataset, epochs=2, weight_bits=8)
        reference = cnn.predict(dataset.test_images)
        assert all(point.images == reference.size for point in study.values())
        # One cold dispatch per point, then 4 warm repeats for the timing.
        assert len(predictions) == 5 * len(self.BATCH_SIZES)
        for served_predictions in predictions:
            assert np.array_equal(served_predictions, reference)
        accuracy = float(np.mean(reference == dataset.test_labels))
        assert all(point.accuracy == accuracy for point in study.values())

    def test_modeled_chip_time_does_not_depend_on_the_budget(self, served):
        study, _ = served
        first, second = (study[size] for size in self.BATCH_SIZES)
        assert second.modeled_chip_time_s == pytest.approx(
            first.modeled_chip_time_s, rel=1e-12
        )
        assert 0 < first.mean_utilization <= 1.0
