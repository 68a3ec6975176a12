"""Unit tests for repro.utils.validation and the error hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro.utils.validation import (
    MAX_INPUT_MAGNITUDE,
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
    within_input_range,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(errors.ConfigurationError):
            check_positive("x", 0)
        with pytest.raises(errors.ConfigurationError):
            check_positive("x", -1)

    def test_message_names_parameter(self):
        with pytest.raises(errors.ConfigurationError, match="my_param"):
            check_positive("my_param", -2)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(errors.ConfigurationError):
            check_non_negative("x", -0.1)


class TestCheckInRange:
    def test_accepts_bounds(self):
        check_in_range("x", 0, 0, 1)
        check_in_range("x", 1, 0, 1)

    def test_rejects_outside(self):
        with pytest.raises(errors.ConfigurationError):
            check_in_range("x", 1.1, 0, 1)


class TestCheckPowerOfTwo:
    def test_accepts_powers(self):
        for value in (1, 2, 4, 8, 1024):
            check_power_of_two("x", value)

    def test_rejects_non_powers(self):
        for value in (0, 3, 6, -4):
            with pytest.raises(errors.ConfigurationError):
                check_power_of_two("x", value)


class TestCheckProbability:
    def test_accepts_valid(self):
        check_probability("p", 0.0)
        check_probability("p", 0.5)
        check_probability("p", 1.0)

    def test_rejects_invalid(self):
        with pytest.raises(errors.ConfigurationError):
            check_probability("p", -0.01)
        with pytest.raises(errors.ConfigurationError):
            check_probability("p", 1.01)


class TestWithinInputRange:
    def test_accepts_the_bound_itself(self):
        assert MAX_INPUT_MAGNITUDE == 1e100
        assert within_input_range(np.array([[0.0, MAX_INPUT_MAGNITUDE, -MAX_INPUT_MAGNITUDE]]))

    @pytest.mark.parametrize(
        "bad",
        [np.nextafter(1e100, np.inf), -np.nextafter(1e100, np.inf), np.nan, np.inf, -np.inf],
    )
    def test_refuses_past_the_bound_and_non_finite(self, bad):
        values = np.ones((2, 1, 3, 3))
        values[1, 0, 2, 1] = bad
        assert not within_input_range(values)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "OperandError",
            "AddressError",
            "PrecisionError",
            "DisturbanceError",
            "SequencerError",
            "CalibrationError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_address_error_is_operand_error(self):
        assert issubclass(errors.AddressError, errors.OperandError)

    def test_precision_error_is_configuration_error(self):
        assert issubclass(errors.PrecisionError, errors.ConfigurationError)
