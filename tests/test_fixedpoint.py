"""Unit tests for repro.utils.fixedpoint."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.fixedpoint import (
    FixedPointFormat,
    dequantize_value,
    quantize_rows,
    quantize_value,
)


class TestFixedPointFormat:
    def test_code_range_is_symmetric(self):
        fmt = FixedPointFormat(width=8, scale=0.1)
        assert fmt.max_code == 127
        assert fmt.min_code == -127

    def test_value_range(self):
        fmt = FixedPointFormat(width=4, scale=0.5)
        assert fmt.max_value == pytest.approx(3.5)
        assert fmt.min_value == pytest.approx(-3.5)

    def test_rejects_width_below_two(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(width=1, scale=0.1)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ConfigurationError):
            FixedPointFormat(width=8, scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ConfigurationError, match="finite"):
            FixedPointFormat(width=8, scale=scale)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_for_tensor_refuses_non_finite_tensors(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FixedPointFormat.for_tensor(np.array([1.0, bad, -2.0]), 8)

    def test_quantize_leaves_its_input_untouched(self):
        tensor = np.array([0.26, -1.9, 5.0])
        fmt = FixedPointFormat(width=4, scale=0.5)
        assert fmt.quantize(tensor).tolist() == [1, -4, 7]
        assert tensor.tolist() == [0.26, -1.9, 5.0]

    def test_for_tensor_covers_abs_max(self):
        tensor = np.array([-2.0, 0.5, 1.5])
        fmt = FixedPointFormat.for_tensor(tensor, 8)
        assert fmt.max_value == pytest.approx(2.0)

    def test_for_tensor_all_zero(self):
        fmt = FixedPointFormat.for_tensor(np.zeros(4), 8)
        assert fmt.scale > 0

    def test_quantize_clips(self):
        fmt = FixedPointFormat(width=4, scale=1.0)
        codes = fmt.quantize(np.array([100.0, -100.0]))
        assert codes.tolist() == [7, -7]

    def test_quantize_dequantize_error_bounded(self):
        rng = np.random.default_rng(0)
        tensor = rng.normal(0, 1, size=100)
        fmt = FixedPointFormat.for_tensor(tensor, 8)
        recovered = fmt.dequantize(fmt.quantize(tensor))
        assert np.max(np.abs(recovered - tensor)) <= fmt.scale / 2 + 1e-12

    def test_encode_decode_roundtrip(self):
        fmt = FixedPointFormat(width=8, scale=0.01)
        pattern = fmt.encode(-0.5)
        assert fmt.decode(pattern) == pytest.approx(-0.5, abs=0.01)


class TestQuantizeRows:
    def test_each_row_gets_the_scale_and_codes_of_its_own_format(self):
        magnitudes = np.array([[1e-3], [1.0], [0.0], [1e3], [-2.0]])
        rows = np.random.default_rng(3).normal(size=(5, 7)) * magnitudes
        codes, scales = quantize_rows(rows, 4)
        for row, row_codes, scale in zip(rows, codes, scales):
            fmt = FixedPointFormat.for_tensor(row, 4)
            assert scale == fmt.scale
            assert row_codes.tolist() == fmt.quantize(row).tolist()

    @pytest.mark.parametrize("tiny", [1e-322, -5e-324])
    def test_a_row_whose_scale_underflows_quantises_like_a_zero_row(self, tiny):
        # max |x| / 127 rounds to 0.0: dividing by it would turn the row's
        # zeros into NaN codes.  The row takes the zero row's scale instead.
        rows = np.array([[tiny, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -0.5, 0.25]])
        codes, scales = quantize_rows(rows, 8)
        assert scales[0] == scales[1] == 1.0 / 127 and scales[2] == 1.0 / 127
        assert codes.tolist() == [[0, 0, 0], [0, 0, 0], [127, -64, 32]]
        fmt = FixedPointFormat.for_tensor(rows[0], 8)
        assert fmt.scale == scales[0]
        assert fmt.quantize(rows[0]).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_a_non_finite_row(self, bad):
        rows = np.ones((3, 4))
        rows[1, 2] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            quantize_rows(rows, 8)


class TestScalarHelpers:
    def test_quantize_value(self):
        fmt = FixedPointFormat(width=8, scale=0.5)
        assert quantize_value(2.0, fmt) == 4
        assert quantize_value(-2.6, fmt) == -5

    def test_dequantize_value(self):
        fmt = FixedPointFormat(width=8, scale=0.5)
        assert dequantize_value(4, fmt) == pytest.approx(2.0)

    def test_roundtrip_is_identity_on_grid(self):
        fmt = FixedPointFormat(width=6, scale=0.25)
        for code in range(fmt.min_code, fmt.max_code + 1):
            assert quantize_value(dequantize_value(code, fmt), fmt) == code
