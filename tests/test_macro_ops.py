"""Bit-exact correctness of every macro operation, checked against the
reference ALU at every supported precision."""

import random

import pytest

from oracle.alu import ReferenceALU
from repro.core import IMCMacro, MacroConfig, Opcode
from repro.errors import ConfigurationError, OperandError


LOGIC_OPS = (Opcode.AND, Opcode.NAND, Opcode.OR, Opcode.NOR, Opcode.XOR, Opcode.XNOR)


@pytest.fixture(scope="module")
def shared_macro():
    """One macro shared by the exhaustive sweeps in this module."""
    return IMCMacro()


class TestScalarCorrectness:
    @pytest.mark.parametrize("precision", [2, 4, 8])
    def test_exhaustive_2bit_random_other_precisions(self, shared_macro, precision):
        """2-bit ops are checked exhaustively; wider precisions use random
        sampling against the reference ALU."""
        macro = shared_macro
        macro.set_precision(precision)
        alu = ReferenceALU(precision)
        rng = random.Random(precision)
        if precision == 2:
            pairs = [(a, b) for a in range(4) for b in range(4)]
        else:
            pairs = [
                (rng.randrange(0, 1 << precision), rng.randrange(0, 1 << precision))
                for _ in range(12)
            ]
        for a, b in pairs:
            for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MULT, *LOGIC_OPS):
                assert macro.compute(opcode, a, b) == alu.evaluate(opcode, a, b), (
                    opcode,
                    precision,
                    a,
                    b,
                )

    @pytest.mark.parametrize("precision", [2, 4, 8])
    def test_single_operand_operations(self, shared_macro, precision):
        macro = shared_macro
        macro.set_precision(precision)
        alu = ReferenceALU(precision)
        rng = random.Random(precision + 100)
        values = range(4) if precision == 2 else [
            rng.randrange(0, 1 << precision) for _ in range(10)
        ]
        for a in values:
            for opcode in (Opcode.NOT, Opcode.COPY, Opcode.SHIFT_LEFT):
                assert macro.compute(opcode, a) == alu.evaluate(opcode, a)

    def test_add_shift(self, shared_macro):
        macro = shared_macro
        macro.set_precision(8)
        alu = ReferenceALU(8)
        for a, b in ((3, 5), (100, 60), (255, 255), (0, 0)):
            assert macro.compute(Opcode.ADD_SHIFT, a, b) == alu.evaluate(
                Opcode.ADD_SHIFT, a, b
            )

    def test_mult_full_product_width(self, shared_macro):
        macro = shared_macro
        macro.set_precision(8)
        assert macro.multiply(255, 255) == 65025
        assert macro.multiply(0, 123) == 0
        assert macro.multiply(1, 200) == 200

    def test_convenience_wrappers(self, shared_macro):
        macro = shared_macro
        macro.set_precision(8)
        assert macro.add(200, 100) == 44  # modulo 256
        assert macro.subtract(5, 10) == 251  # two's complement wrap
        assert macro.multiply(12, 12) == 144

    def test_16_bit_precision(self):
        macro = IMCMacro(MacroConfig(precision_bits=16))
        alu = ReferenceALU(16)
        rng = random.Random(16)
        for _ in range(5):
            a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
            assert macro.add(a, b) == alu.evaluate(Opcode.ADD, a, b)
            assert macro.subtract(a, b) == alu.evaluate(Opcode.SUB, a, b)
            assert macro.multiply(a, b) == a * b


class TestVectorExecution:
    def test_vector_add_processes_all_words(self, macro):
        macro.set_precision(8)
        values_a = [10, 20, 30, 40]
        values_b = [1, 2, 3, 4]
        macro.write_words(5, values_a)
        macro.write_words(6, values_b)
        result = macro.execute(Opcode.ADD, 5, 6, dest_row=7)
        assert list(result.values) == [11, 22, 33, 44]
        assert macro.read_words(7) == [11, 22, 33, 44]

    def test_vector_mult_uses_slots(self, macro):
        macro.set_precision(8)
        # Multiplicand/multiplier words live in the lower unit of each slot.
        macro.write_word(3, 0, 250)
        macro.write_word(3, 2, 17)
        macro.write_word(4, 0, 251)
        macro.write_word(4, 2, 19)
        result = macro.execute(Opcode.MULT, 3, 4, dest_row=8)
        assert list(result.values) == [250 * 251, 17 * 19]
        assert macro.read_slot_product(8, 0) == 250 * 251
        assert macro.read_slot_product(8, 1) == 17 * 19

    def test_elementwise_spans_multiple_accesses(self, macro):
        macro.set_precision(8)
        values_a = list(range(1, 11))
        values_b = list(range(11, 21))
        results = macro.elementwise(Opcode.ADD, values_a, values_b)
        assert results == [a + b for a, b in zip(values_a, values_b)]

    def test_elementwise_mult(self, macro):
        macro.set_precision(8)
        values_a = [3, 5, 250, 99, 128]
        values_b = [7, 11, 250, 101, 2]
        results = macro.elementwise(Opcode.MULT, values_a, values_b)
        assert results == [a * b for a, b in zip(values_a, values_b)]

    def test_elementwise_single_operand(self, macro):
        macro.set_precision(8)
        results = macro.elementwise(Opcode.NOT, [0, 255, 170])
        assert results == [255, 0, 85]

    def test_elementwise_length_mismatch(self, macro):
        with pytest.raises(OperandError):
            macro.elementwise(Opcode.ADD, [1, 2], [1])


class TestPrecisionReconfiguration:
    def test_set_precision_changes_vector_width(self, macro):
        macro.set_precision(8)
        assert macro.words_per_row() == 4
        macro.set_precision(2)
        assert macro.words_per_row() == 16
        macro.set_precision(4)
        assert macro.mult_slots_per_row() == 4

    def test_same_macro_computes_at_all_precisions(self, macro):
        for precision in (2, 4, 8, 16):
            macro.set_precision(precision)
            limit = (1 << precision) - 1
            assert macro.multiply(limit, limit) == limit * limit

    def test_unsupported_precision_rejected(self, macro):
        from repro.errors import PrecisionError

        with pytest.raises(PrecisionError):
            macro.set_precision(3)

    def test_per_call_precision_override(self, macro):
        macro.set_precision(8)
        assert macro.add(3, 2, precision_bits=4) == 5
        assert macro.precision_bits == 8


class TestStorageInterface:
    def test_write_read_word_roundtrip(self, macro):
        macro.set_precision(8)
        macro.write_word(10, 2, 171)
        assert macro.read_word(10, 2) == 171

    def test_word_value_range_checked(self, macro):
        with pytest.raises(OperandError):
            macro.write_word(0, 0, 256, precision_bits=8)

    def test_write_words_limit(self, macro):
        with pytest.raises(OperandError):
            macro.write_words(0, [1] * 5, precision_bits=8)

    def test_clear_erases_data(self, macro):
        macro.write_word(0, 0, 99)
        macro.clear()
        assert macro.read_word(0, 0) == 0


class TestArgumentValidation:
    def test_dual_op_requires_second_row(self, macro):
        with pytest.raises(ConfigurationError):
            macro.execute(Opcode.ADD, 0)

    def test_writeback_op_requires_dest(self, macro):
        with pytest.raises(ConfigurationError):
            macro.execute(Opcode.SUB, 0, 1)

    def test_words_accounting_bounds(self, macro):
        macro.write_words(0, [1, 2, 3, 4])
        macro.write_words(1, [1, 2, 3, 4])
        with pytest.raises(ConfigurationError):
            macro.execute(Opcode.ADD, 0, 1, words=5)

    def test_mult_requires_two_operands_in_compute(self, macro):
        with pytest.raises(OperandError):
            macro.compute(Opcode.MULT, 5)
