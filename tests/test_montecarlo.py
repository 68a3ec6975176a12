"""Unit tests for the Monte-Carlo delay-distribution engine (Fig. 2 substrate)."""

import numpy as np
import pytest

from oracle.montecarlo import sample_delays_reference
from repro.circuits.montecarlo import DelayDistribution, MonteCarloEngine
from repro.circuits.wordline import WordlineScheme
from repro.tech import OperatingPoint


@pytest.fixture(scope="module")
def engine():
    from repro.tech import CALIBRATED_28NM, default_macro_calibration

    return MonteCarloEngine(CALIBRATED_28NM, default_macro_calibration(), seed=123)


class TestDelayDistribution:
    def test_from_samples_statistics(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        dist = DelayDistribution.from_samples(WordlineScheme.WLUD, samples)
        assert dist.mean_s == pytest.approx(2.5)
        assert dist.minimum_s == 1.0
        assert dist.maximum_s == 4.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            DelayDistribution.from_samples(WordlineScheme.WLUD, np.array([]))

    def test_histogram_fractions_sum_to_one(self):
        samples = np.random.default_rng(0).normal(1.0, 0.1, 500)
        dist = DelayDistribution.from_samples(WordlineScheme.WLUD, samples)
        fractions, edges = dist.histogram(bins=20)
        assert fractions.sum() == pytest.approx(1.0)
        assert len(edges) == 21

    def test_tail_ratio(self):
        samples = np.concatenate([np.full(999, 1.0), [10.0]])
        dist = DelayDistribution.from_samples(WordlineScheme.WLUD, samples)
        assert dist.tail_ratio > 1.0


class TestMonteCarloEngine:
    def test_sample_count(self, engine):
        delays = engine.sample_delays(WordlineScheme.WLUD, samples=200)
        assert delays.shape == (200,)
        assert np.all(delays > 0)

    def test_seed_reproducibility(self, technology, calibration):
        first = MonteCarloEngine(technology, calibration, seed=7).sample_delays(
            WordlineScheme.WLUD, 100
        )
        second = MonteCarloEngine(technology, calibration, seed=7).sample_delays(
            WordlineScheme.WLUD, 100
        )
        assert np.allclose(first, second)

    def test_wlud_distribution_has_long_tail(self, engine):
        comparison = engine.compare_schemes(samples=800)
        wlud = comparison[WordlineScheme.WLUD]
        proposed = comparison[WordlineScheme.SHORT_PULSE_BOOST]
        # Fig. 2: WLUD shows a long-tail distribution, the proposed scheme a
        # short-tail one.
        assert wlud.tail_ratio > 1.5
        assert proposed.tail_ratio < 1.3
        assert wlud.tail_ratio > 1.5 * proposed.tail_ratio

    def test_proposed_is_faster_on_average(self, engine):
        comparison = engine.compare_schemes(samples=500)
        assert (
            comparison[WordlineScheme.SHORT_PULSE_BOOST].mean_s
            < 0.4 * comparison[WordlineScheme.WLUD].mean_s
        )

    def test_proposed_spread_is_much_tighter(self, engine):
        comparison = engine.compare_schemes(samples=500)
        wlud = comparison[WordlineScheme.WLUD]
        proposed = comparison[WordlineScheme.SHORT_PULSE_BOOST]
        assert proposed.std_s / proposed.mean_s < 0.5 * (wlud.std_s / wlud.mean_s)

    def test_low_voltage_increases_delays(self, engine):
        nominal = engine.delay_distribution(
            WordlineScheme.SHORT_PULSE_BOOST, samples=150, point=OperatingPoint(vdd=0.9)
        )
        low = engine.delay_distribution(
            WordlineScheme.SHORT_PULSE_BOOST, samples=150, point=OperatingPoint(vdd=0.7)
        )
        assert low.mean_s > nominal.mean_s

    def test_rejects_non_positive_sample_count(self, engine):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            engine.sample_delays(WordlineScheme.WLUD, 0)


class TestVectorizedSampling:
    """The batched delay path against its per-sample scalar oracle."""

    @pytest.mark.parametrize("scheme", list(WordlineScheme))
    def test_vectorized_matches_scalar_oracle(self, scheme):
        from repro.tech import CALIBRATED_28NM, default_macro_calibration

        calibration = default_macro_calibration()
        fast = MonteCarloEngine(CALIBRATED_28NM, calibration, seed=2020)
        scalar = MonteCarloEngine(CALIBRATED_28NM, calibration, seed=2020)
        vectorized = fast.sample_delays(scheme, 1500)
        reference = sample_delays_reference(scalar, scheme, 1500)
        # Identically seeded engines draw identical variation populations;
        # the delays agree to floating-point round-off (the vectorised
        # power function has last-ulp freedom).
        assert np.allclose(vectorized, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("vdd", [0.6, 0.9, 1.1])
    def test_vectorized_matches_oracle_across_voltages(self, vdd):
        from repro.tech import CALIBRATED_28NM, default_macro_calibration

        calibration = default_macro_calibration()
        point = OperatingPoint(vdd=vdd)
        fast = MonteCarloEngine(CALIBRATED_28NM, calibration, seed=7)
        scalar = MonteCarloEngine(CALIBRATED_28NM, calibration, seed=7)
        vectorized = fast.sample_delays(
            WordlineScheme.SHORT_PULSE_BOOST, 400, point=point
        )
        reference = sample_delays_reference(
            scalar, WordlineScheme.SHORT_PULSE_BOOST, 400, point=point
        )
        assert np.allclose(vectorized, reference, rtol=1e-12, atol=0.0)

    def test_compute_delays_matches_scalar_compute_delay(self, engine):
        """Direct model-level check, including the weak-cell fallback branch."""
        point = OperatingPoint(vdd=0.6)
        rng = np.random.default_rng(42)
        sigma = engine.technology.sigma_vth_mismatch
        # Oversized shifts push some cells into the no-boost fallback branch.
        cell_shifts = rng.normal(0.0, 4.0 * sigma, size=300)
        boost_shifts = rng.normal(0.0, sigma, size=300)
        sa_offsets = rng.normal(0.0, engine.calibration.bitline.sa_resolve_sigma_s, size=300)
        batched = engine.model.compute_delays(
            point,
            WordlineScheme.SHORT_PULSE_BOOST,
            cell_shifts,
            boost_shifts,
            sa_offsets,
        )
        scalar = np.array(
            [
                engine.model.compute_delay(
                    point,
                    scheme=WordlineScheme.SHORT_PULSE_BOOST,
                    cell_vth_shift=float(cell_shifts[i]),
                    boost_vth_shift=float(boost_shifts[i]),
                    sa_offset_s=float(sa_offsets[i]),
                )
                for i in range(300)
            ]
        )
        assert np.allclose(batched, scalar, rtol=1e-12, atol=0.0)
