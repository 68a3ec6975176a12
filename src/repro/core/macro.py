"""The bit-parallel IMC macro: storage + computation + accounting.

:class:`IMCMacro` ties the functional pieces together:

* a :class:`repro.core.array.SRAMArray` (128 x 128 plus three dummy rows),
* a :class:`repro.core.decoder.RowDecoder` capable of dual-WL activation,
* one :class:`repro.core.ypath.YPath` per active column, orchestrated by
  :class:`repro.core.periphery.ColumnPeriphery` with a reconfigurable
  carry-chain cut (2/4/8/16/32-bit precision),
* the :class:`repro.core.controller.MicroSequencer` that expands SUB and
  MULT into single-cycle primitives,
* the calibrated delay/energy models from :mod:`repro.circuits` for timing
  and energy accounting, and
* a :class:`repro.core.stats.MacroStatistics` ledger.

Every public operation is *bit-exact*: results are produced by the same
bit-line AND/NOR primitives and Y-Path carry selection the hardware uses, so
tests can compare them against ordinary Python arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, OperandError
from repro.core.array import RowRef, SRAMArray
from repro.core.config import MacroConfig
from repro.core.controller import MicroOpKind, MicroSequencer
from repro.core.decoder import RowDecoder
from repro.core.layout import ColumnLayout
from repro.core.operations import Opcode, cycles_for
from repro.core.periphery import ColumnPeriphery
from repro.core.stats import MacroStatistics
from repro.circuits.delay import CycleDelayModel
from repro.circuits.energy import OperationEnergyModel
from repro.circuits.readdisturb import ReadDisturbModel
from repro.utils.bitops import (
    bits_to_int,
    from_twos_complement,
    int_to_bits,
    mask,
    to_twos_complement,
)

__all__ = ["OperationResult", "IMCMacro"]


@dataclass(frozen=True)
class OperationResult:
    """Outcome of one vector operation executed by the macro."""

    opcode: Opcode
    precision_bits: int
    words: int
    cycles: int
    energy_j: float
    latency_s: float
    values: Tuple[int, ...]
    carry_out: Tuple[int, ...] = ()

    @property
    def value(self) -> int:
        """The first (or only) word-level result."""
        return self.values[0]

    @property
    def energy_per_word_j(self) -> float:
        """Energy attributed to each word-level result."""
        return self.energy_j / self.words if self.words else 0.0


class IMCMacro:
    """One 128x128 bit-parallel in-memory-computing macro."""

    #: Dummy-row roles used by the multi-cycle sequences.
    _DUMMY_ACC_A = 0
    _DUMMY_MULTIPLICAND = 1
    _DUMMY_ACC_B = 2

    def __init__(self, config: Optional[MacroConfig] = None) -> None:
        self.config = config if config is not None else MacroConfig()
        self.layout: ColumnLayout = self.config.layout()
        self._rng = np.random.default_rng(self.config.seed)
        self.array = SRAMArray(
            rows=self.config.rows,
            cols=self.config.cols,
            dummy_rows=self.config.dummy_rows,
            rng=self._rng,
        )
        self.periphery = ColumnPeriphery(active_columns=self.config.active_columns)
        self.decoder = RowDecoder(
            rows=self.config.rows,
            dummy_rows=self.config.dummy_rows,
            technology=self.config.technology,
            calibration=self.config.calibration,
            scheme=self.config.wordline_scheme,
        )
        self.sequencer = MicroSequencer()
        self.energy_model = OperationEnergyModel(self.config.calibration)
        self.delay_model = CycleDelayModel(
            technology=self.config.technology,
            calibration=self.config.calibration,
            rows=self.config.rows,
        )
        self.disturb_model = ReadDisturbModel(
            technology=self.config.technology, calibration=self.config.calibration
        )
        self.stats = MacroStatistics()
        self._precision = self.config.precision_bits
        self._active_columns = self.layout.active_columns()

    # ------------------------------------------------------------------ #
    # Precision reconfiguration
    # ------------------------------------------------------------------ #
    @property
    def precision_bits(self) -> int:
        """The currently configured operand precision."""
        return self._precision

    def set_precision(self, precision_bits: int) -> None:
        """Reconfigure the carry-chain cut points (MX3) for a new precision."""
        self.layout.check_precision(precision_bits)
        self._precision = precision_bits

    def words_per_row(self, precision_bits: Optional[int] = None) -> int:
        """How many words one vector operation processes."""
        bits = self._resolve_precision(precision_bits)
        return self.layout.words_per_row(bits)

    def mult_slots_per_row(self, precision_bits: Optional[int] = None) -> int:
        """How many multiplications one vector MULT processes."""
        bits = self._resolve_precision(precision_bits)
        return self.layout.mult_slots_per_row(bits)

    def _resolve_precision(self, precision_bits: Optional[int]) -> int:
        if precision_bits is None:
            return self._precision
        self.layout.check_precision(precision_bits)
        return precision_bits

    # ------------------------------------------------------------------ #
    # Timing helpers
    # ------------------------------------------------------------------ #
    def cycle_time_s(self, precision_bits: Optional[int] = None) -> float:
        """Minimum cycle time at the configured operating point."""
        bits = self._resolve_precision(precision_bits)
        return self.delay_model.cycle_time(
            self.config.operating_point,
            precision_bits=bits,
            bl_separator=self.config.bl_separator,
        )

    def max_frequency_hz(self, precision_bits: Optional[int] = None) -> float:
        """Maximum clock frequency at the configured operating point."""
        return 1.0 / self.cycle_time_s(precision_bits)

    # ------------------------------------------------------------------ #
    # Word-level storage interface
    # ------------------------------------------------------------------ #
    def write_word(
        self,
        row: int,
        word_index: int,
        value: int,
        precision_bits: Optional[int] = None,
    ) -> None:
        """Store an unsigned word in (row, word_index)."""
        bits = self._resolve_precision(precision_bits)
        if not 0 <= value <= mask(bits):
            raise OperandError(
                f"value {value} does not fit in an unsigned {bits}-bit word"
            )
        columns = self.layout.word_columns(word_index, bits)
        self.array.write_bits(
            RowRef.main(row), columns, np.array(int_to_bits(value, bits), dtype=np.uint8)
        )

    def read_word(
        self,
        row: int,
        word_index: int,
        precision_bits: Optional[int] = None,
    ) -> int:
        """Read an unsigned word from (row, word_index)."""
        bits = self._resolve_precision(precision_bits)
        columns = self.layout.word_columns(word_index, bits)
        return bits_to_int(self.array.read_bits(RowRef.main(row), columns))

    def write_words(
        self,
        row: int,
        values: Sequence[int],
        precision_bits: Optional[int] = None,
    ) -> None:
        """Store a sequence of words starting at word index 0."""
        bits = self._resolve_precision(precision_bits)
        limit = self.words_per_row(bits)
        if len(values) > limit:
            raise OperandError(
                f"row holds at most {limit} words of {bits} bits, got {len(values)}"
            )
        for index, value in enumerate(values):
            self.write_word(row, index, value, precision_bits=bits)

    def read_words(
        self, row: int, precision_bits: Optional[int] = None
    ) -> List[int]:
        """Read every word of a row."""
        bits = self._resolve_precision(precision_bits)
        return [
            self.read_word(row, index, precision_bits=bits)
            for index in range(self.words_per_row(bits))
        ]

    def read_slot_product(
        self, row: int, slot_index: int, precision_bits: Optional[int] = None
    ) -> int:
        """Read the 2N-bit product stored in a multiplication slot."""
        bits = self._resolve_precision(precision_bits)
        columns = self.layout.slot_columns(slot_index, bits)
        return bits_to_int(self.array.read_bits(RowRef.main(row), columns))

    def clear(self) -> None:
        """Erase the array contents (statistics are kept)."""
        self.array.clear()
        self.periphery.reset()

    # ------------------------------------------------------------------ #
    # Low-level access helpers
    # ------------------------------------------------------------------ #
    def _disturb_probability(self) -> float:
        if not self.config.inject_read_disturb:
            return 0.0
        pulse = self.decoder.driver.pulse(self.config.operating_point)
        return self.disturb_model.failure_rate(pulse.voltage, pulse.width_s)

    def _dual_access(self, ref_a: RowRef, ref_b: RowRef):
        self.decoder.select(self.config.operating_point, ref_a, ref_b)
        return self.array.dual_wordline_access(
            ref_a,
            ref_b,
            self._active_columns,
            disturb_probability=self._disturb_probability(),
        )

    def _single_access(self, ref: RowRef):
        self.decoder.select(self.config.operating_point, ref)
        return self.array.single_wordline_access(ref, self._active_columns)

    def _write_active(self, ref: RowRef, bits: np.ndarray) -> None:
        self.array.write_bits(ref, self._active_columns, bits)

    # ------------------------------------------------------------------ #
    # Single-cycle primitives
    # ------------------------------------------------------------------ #
    def _single_cycle(
        self,
        opcode: Opcode,
        ref_a: RowRef,
        ref_b: Optional[RowRef],
        dest: Optional[RowRef],
        precision_bits: int,
        carry_in: int = 0,
    ) -> Tuple[np.ndarray, List[int]]:
        """Execute one single-cycle primitive and return (bits, carry-outs)."""
        groups = self.layout.precision_groups(precision_bits)
        carries: List[int] = []

        if opcode in (Opcode.NOT, Opcode.COPY, Opcode.SHIFT_LEFT):
            output = self._single_access(ref_a)
            if opcode is Opcode.NOT:
                result = output.nor_bits.copy()
            elif opcode is Opcode.COPY:
                result = output.and_bits.copy()
            else:
                result = self.periphery.shift_left_within_groups(
                    output.and_bits, groups
                )
        else:
            if ref_b is None:
                raise ConfigurationError(f"{opcode.name} needs two operand rows")
            output = self._dual_access(ref_a, ref_b)
            if opcode.is_logic:
                result = self.periphery.compute_logic(opcode, output)
            elif opcode is Opcode.ADD:
                ripple = self.periphery.ripple_add(output, groups, carry_in=carry_in)
                result = ripple.sum_bits
                carries = ripple.carry_out
            elif opcode is Opcode.ADD_SHIFT:
                ripple = self.periphery.ripple_add(output, groups, carry_in=carry_in)
                result = self.periphery.shift_left_within_groups(
                    ripple.sum_bits, groups
                )
                carries = ripple.carry_out
            else:
                raise ConfigurationError(
                    f"{opcode.name} is not a single-cycle primitive"
                )

        if dest is not None:
            self._write_active(dest, result)
        return result, carries

    # ------------------------------------------------------------------ #
    # Composite operations
    # ------------------------------------------------------------------ #
    def _execute_sub(
        self, ref_a: RowRef, ref_b: RowRef, dest: RowRef, precision_bits: int
    ) -> Tuple[np.ndarray, List[int]]:
        plan = self.sequencer.expand_sub(precision_bits)
        scratch = RowRef.dummy(self._DUMMY_ACC_A)
        result = np.zeros_like(self._active_columns, dtype=np.uint8)
        carries: List[int] = []
        for step in plan.steps:
            if step.kind is MicroOpKind.NOT_TO_DUMMY:
                self._single_cycle(Opcode.NOT, ref_b, None, scratch, precision_bits)
            elif step.kind is MicroOpKind.ADD_WITH_CARRY:
                result, carries = self._single_cycle(
                    Opcode.ADD, ref_a, scratch, dest, precision_bits, carry_in=1
                )
            else:  # pragma: no cover - the SUB plan only contains two kinds
                raise ConfigurationError(f"unexpected SUB micro-op {step.kind}")
        return result, carries

    def _load_multiplier_ffs(self, ref_b: RowRef, precision_bits: int) -> None:
        """Load each slot's multiplier word into the Y-Path flip-flops."""
        slot_groups = self.layout.slot_groups(precision_bits)
        bits: List[int] = []
        row_bits = self._read_active_row_for_ref(ref_b)
        for start, stop in slot_groups:
            # The multiplier word sits in the lower precision unit of the slot.
            word_bits = row_bits[start : start + precision_bits]
            bits.extend(int(bit) for bit in word_bits)
            bits.extend([0] * precision_bits)
        self.periphery.load_multiplier_bits(bits, slot_groups)

    def _read_active_row_for_ref(self, ref: RowRef) -> np.ndarray:
        return self.array.read_bits(ref, self._active_columns)

    def _execute_mult(
        self, ref_a: RowRef, ref_b: RowRef, dest: RowRef, precision_bits: int
    ) -> Tuple[np.ndarray, List[int]]:
        plan = self.sequencer.expand_mult(precision_bits)
        slot_groups = self.layout.slot_groups(precision_bits)
        acc_refs = (RowRef.dummy(self._DUMMY_ACC_A), RowRef.dummy(self._DUMMY_ACC_B))
        mcand_ref = RowRef.dummy(self._DUMMY_MULTIPLICAND)
        acc_index = 0
        result = np.zeros(self._active_columns.size, dtype=np.uint8)

        for step in plan.steps:
            if step.kind is MicroOpKind.INIT_ACCUMULATOR:
                # Zero the accumulator dummy row and capture the multiplier
                # words into the per-slot flip-flops in the same cycle.
                self._write_active(
                    acc_refs[acc_index],
                    np.zeros(self._active_columns.size, dtype=np.uint8),
                )
                self._load_multiplier_ffs(ref_b, precision_bits)
            elif step.kind is MicroOpKind.COPY_TO_DUMMY:
                # Copy the multiplicand words (lower unit of each slot) into
                # the dummy multiplicand row, zero-extended to the slot width.
                source_bits = self._read_active_row_for_ref(ref_a)
                mcand_bits = np.zeros_like(source_bits)
                for start, stop in slot_groups:
                    mcand_bits[start : start + precision_bits] = source_bits[
                        start : start + precision_bits
                    ]
                self._single_access(ref_a)
                self._write_active(mcand_ref, mcand_bits.astype(np.uint8))
            elif step.kind in (
                MicroOpKind.ADD_SHIFT_SELECT,
                MicroOpKind.FINAL_ADD_SELECT,
            ):
                acc_ref = acc_refs[acc_index]
                output = self._dual_access(acc_ref, mcand_ref)
                ripple = self.periphery.ripple_add(output, slot_groups)
                acc_bits = self._read_active_row_for_ref(acc_ref)
                selected = np.zeros_like(ripple.sum_bits)
                for slot, (start, stop) in enumerate(slot_groups):
                    multiplier_bit = self.periphery.multiplier_bit(
                        (start, stop), step.multiplier_bit_index
                    )
                    if multiplier_bit:
                        selected[start:stop] = ripple.sum_bits[start:stop]
                    else:
                        selected[start:stop] = acc_bits[start:stop]
                if step.kind is MicroOpKind.ADD_SHIFT_SELECT:
                    shifted = self.periphery.shift_left_within_groups(
                        selected, slot_groups
                    )
                    acc_index = 1 - acc_index
                    self._write_active(acc_refs[acc_index], shifted)
                else:
                    result = selected.astype(np.uint8)
                    self._write_active(dest, result)
            else:  # pragma: no cover - exhaustive over the MULT plan
                raise ConfigurationError(f"unexpected MULT micro-op {step.kind}")
        return result, []

    # ------------------------------------------------------------------ #
    # Public execution interface
    # ------------------------------------------------------------------ #
    def execute(
        self,
        opcode: Opcode,
        row_a: int,
        row_b: Optional[int] = None,
        dest_row: Optional[int] = None,
        precision_bits: Optional[int] = None,
        words: Optional[int] = None,
    ) -> OperationResult:
        """Execute one vector operation on main-array rows.

        Parameters
        ----------
        opcode:
            The operation to perform.
        row_a / row_b:
            Source rows.  ``row_b`` is required for every dual-WL operation.
        dest_row:
            Destination row for the result.  Required for operations that
            write back (moves, ADD-SHIFT, SUB, MULT); optional for logic and
            ADD, whose results are also returned directly.
        precision_bits:
            Operand precision; defaults to the macro's configured precision.
        words:
            How many word-level results to account for (defaults to the full
            vector width of the access).  This only affects the statistics,
            not the computation.
        """
        bits = self._resolve_precision(precision_bits)
        ref_a = RowRef.main(row_a)
        ref_b = RowRef.main(row_b) if row_b is not None else None
        dest = RowRef.main(dest_row) if dest_row is not None else None

        needs_dest = opcode in (
            Opcode.NOT,
            Opcode.COPY,
            Opcode.SHIFT_LEFT,
            Opcode.ADD_SHIFT,
            Opcode.SUB,
            Opcode.MULT,
        )
        if needs_dest and dest is None:
            raise ConfigurationError(f"{opcode.name} requires a destination row")
        if opcode.is_dual_wordline and ref_b is None:
            raise ConfigurationError(f"{opcode.name} requires two source rows")

        if opcode is Opcode.SUB:
            bits_out, carries = self._execute_sub(ref_a, ref_b, dest, bits)
        elif opcode is Opcode.MULT:
            bits_out, carries = self._execute_mult(ref_a, ref_b, dest, bits)
        else:
            bits_out, carries = self._single_cycle(
                opcode, ref_a, ref_b, dest, bits
            )

        if opcode is Opcode.MULT:
            vector_width = self.mult_slots_per_row(bits)
            group_width = 2 * bits
        else:
            vector_width = self.words_per_row(bits)
            group_width = bits
        accounted_words = vector_width if words is None else words
        if accounted_words <= 0 or accounted_words > vector_width:
            raise ConfigurationError(
                f"words must be in [1, {vector_width}], got {accounted_words}"
            )

        values = tuple(
            bits_to_int(bits_out[index * group_width : (index + 1) * group_width])
            for index in range(vector_width)
        )
        cycles = cycles_for(opcode, bits)
        energy = (
            self.energy_model.energy_for(
                opcode.energy_mnemonic,
                bits,
                vdd=self.config.operating_point.vdd,
                bl_separator=self.config.bl_separator,
            ).total_j
            * accounted_words
        )
        latency = cycles * self.cycle_time_s(bits)
        self.stats.record(opcode, words=accounted_words, cycles=cycles, energy_j=energy)
        self.stats.array_accesses = self.array.access_count
        self.stats.disturb_events = self.array.disturb_events
        return OperationResult(
            opcode=opcode,
            precision_bits=bits,
            words=accounted_words,
            cycles=cycles,
            energy_j=energy,
            latency_s=latency,
            values=values,
            carry_out=tuple(carries),
        )

    # ------------------------------------------------------------------ #
    # Scalar convenience interface
    # ------------------------------------------------------------------ #
    def _scratch_rows(self) -> Tuple[int, int, int]:
        return self.config.rows - 1, self.config.rows - 2, self.config.rows - 3

    def compute(
        self,
        opcode: Opcode,
        a: int,
        b: Optional[int] = None,
        precision_bits: Optional[int] = None,
    ) -> int:
        """Run a scalar operation through the macro and return the result.

        Operands are written into scratch rows at word/slot index 0, the
        vector operation is executed (accounted as a single word), and the
        first result is returned.
        """
        bits = self._resolve_precision(precision_bits)
        row_a, row_b, row_dest = self._scratch_rows()
        if opcode is Opcode.MULT:
            # Operands live in the lower precision unit of slot 0 (word 0).
            self.write_word(row_a, 0, a, precision_bits=bits)
            if b is None:
                raise OperandError("MULT needs two operands")
            self.write_word(row_b, 0, b, precision_bits=bits)
            result = self.execute(
                Opcode.MULT, row_a, row_b, row_dest, precision_bits=bits, words=1
            )
            return result.values[0]
        self.write_word(row_a, 0, a, precision_bits=bits)
        if opcode.is_dual_wordline:
            if b is None:
                raise OperandError(f"{opcode.name} needs two operands")
            self.write_word(row_b, 0, b, precision_bits=bits)
            result = self.execute(
                opcode, row_a, row_b, row_dest, precision_bits=bits, words=1
            )
        else:
            result = self.execute(
                opcode, row_a, None, row_dest, precision_bits=bits, words=1
            )
        return result.values[0]

    def add(self, a: int, b: int, precision_bits: Optional[int] = None) -> int:
        """In-memory addition (modulo 2^N)."""
        return self.compute(Opcode.ADD, a, b, precision_bits)

    def subtract(self, a: int, b: int, precision_bits: Optional[int] = None) -> int:
        """In-memory subtraction (two's complement, modulo 2^N)."""
        return self.compute(Opcode.SUB, a, b, precision_bits)

    def multiply(self, a: int, b: int, precision_bits: Optional[int] = None) -> int:
        """In-memory unsigned multiplication (full 2N-bit product)."""
        return self.compute(Opcode.MULT, a, b, precision_bits)

    # ------------------------------------------------------------------ #
    # Element-wise vector helper
    # ------------------------------------------------------------------ #
    def elementwise(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> List[int]:
        """Element-wise operation over arbitrarily long operand vectors.

        Operands are packed into as many row accesses as needed; the result
        list has the same length as the inputs.  This is the building block
        used by the DNN backend and the Fig. 9 workload generator.

        By default the call runs on the vectorized column-parallel path,
        which computes whole lane batches per call and accounts cycles,
        energy and array accesses analytically per batch — bit-exact and
        accounting-identical to :meth:`elementwise_reference`, the original
        per-lane on-array execution.  (:meth:`elementwise_array` routes
        read-disturb-injecting configurations to the reference path, which
        performs the real cell-level accesses.)
        """
        result = self.elementwise_array(opcode, a_values, b_values, precision_bits)
        return [int(v) for v in result]

    def elementwise_reference(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> List[int]:
        """Per-lane reference implementation of :meth:`elementwise`.

        Every operand word is individually written into a scratch row and the
        operation is executed on the array through the full decoder /
        bit-line / Y-Path machinery.  This is the ground truth the fast
        vectorized path is verified against (``tests/test_chip.py``).
        """
        bits = self._resolve_precision(precision_bits)
        if opcode.is_dual_wordline and b_values is None:
            raise OperandError(f"{opcode.name} needs two operand vectors")
        if b_values is not None and len(b_values) != len(a_values):
            raise OperandError("operand vectors must have the same length")

        if opcode is Opcode.MULT:
            lane_count = self.mult_slots_per_row(bits)
        else:
            lane_count = self.words_per_row(bits)
        row_a, row_b, row_dest = self._scratch_rows()
        results: List[int] = []

        for offset in range(0, len(a_values), lane_count):
            chunk_a = list(a_values[offset : offset + lane_count])
            chunk_b = (
                list(b_values[offset : offset + lane_count])
                if b_values is not None
                else None
            )
            for lane, value in enumerate(chunk_a):
                word_index = lane * 2 if opcode is Opcode.MULT else lane
                self.write_word(row_a, word_index, value, precision_bits=bits)
                if chunk_b is not None:
                    self.write_word(
                        row_b, word_index, chunk_b[lane], precision_bits=bits
                    )
            result = self.execute(
                opcode,
                row_a,
                row_b if chunk_b is not None else None,
                row_dest,
                precision_bits=bits,
                words=len(chunk_a),
            )
            results.extend(result.values[: len(chunk_a)])
        return results

    # ------------------------------------------------------------------ #
    # Vectorized column-parallel execution
    # ------------------------------------------------------------------ #
    def _array_accesses_for(self, opcode: Opcode, precision_bits: int) -> int:
        """Word-line activations one vector operation performs.

        Mirrors the micro-sequencer plans: SUB is a single-WL NOT plus a
        dual-WL ADD; an N-bit MULT is one multiplicand copy plus N add/select
        accesses; everything else is a single access.
        """
        if opcode is Opcode.SUB:
            return 2
        if opcode is Opcode.MULT:
            return precision_bits + 1
        return 1

    def lane_count(self, opcode: Opcode, precision_bits: Optional[int] = None) -> int:
        """Vector width of one row access for the given operation."""
        bits = self._resolve_precision(precision_bits)
        if opcode is Opcode.MULT:
            return self.mult_slots_per_row(bits)
        return self.words_per_row(bits)

    @staticmethod
    def _batch_values(
        opcode: Opcode, a: np.ndarray, b: Optional[np.ndarray], bits: int
    ) -> np.ndarray:
        """Numpy column-parallel result of one element-wise operation.

        The hardware model is exact, so the whole batch reduces to modular
        int64 arithmetic; MULT keeps the full 2N-bit product.
        """
        modulus_mask = (1 << bits) - 1
        if opcode is Opcode.NOT:
            return (~a) & modulus_mask
        if opcode is Opcode.COPY:
            return a.copy()
        if opcode is Opcode.SHIFT_LEFT:
            return (a << 1) & modulus_mask
        if b is None:
            raise OperandError(f"{opcode.name} needs two operand vectors")
        if opcode is Opcode.AND:
            return a & b
        if opcode is Opcode.NAND:
            return (~(a & b)) & modulus_mask
        if opcode is Opcode.OR:
            return a | b
        if opcode is Opcode.NOR:
            return (~(a | b)) & modulus_mask
        if opcode is Opcode.XOR:
            return a ^ b
        if opcode is Opcode.XNOR:
            return (~(a ^ b)) & modulus_mask
        if opcode is Opcode.ADD:
            return (a + b) & modulus_mask
        if opcode is Opcode.ADD_SHIFT:
            return ((a + b) << 1) & modulus_mask
        if opcode is Opcode.SUB:
            return (a - b) & modulus_mask
        if opcode is Opcode.MULT:
            if 2 * bits > 62:
                # int64 cannot hold the 2N-bit product; fall back to exact
                # Python integers (object dtype keeps the ndarray interface).
                return np.array(
                    [int(x) * int(y) for x, y in zip(a.tolist(), b.tolist())],
                    dtype=object,
                )
            return a * b
        raise ConfigurationError(f"unsupported opcode {opcode!r}")

    def _check_unsigned_operands(self, name: str, values: Sequence[int], bits: int) -> np.ndarray:
        array = np.asarray(values, dtype=np.int64)
        if array.size and (array.min() < 0 or array.max() > mask(bits)):
            raise OperandError(
                f"{name} contains values outside the unsigned {bits}-bit range"
            )
        return array

    def elementwise_array(
        self,
        opcode: Opcode,
        a_values: Sequence[int],
        b_values: Optional[Sequence[int]] = None,
        precision_bits: Optional[int] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`elementwise` returning a numpy array.

        The whole operand vector is processed as numpy column-parallel
        batches; the statistics ledger receives exactly the per-row-access
        records the reference path would produce (one invocation of
        ``cycles_for(opcode)`` cycles per lane batch, energy proportional to
        the accounted words, plus the word-line activations of the
        micro-sequencer plan), accumulated in one batch update.

        Configurations that inject read disturb are routed to
        :meth:`elementwise_reference` — disturb flips require the real
        cell-level accesses — so every caller gets the honest behaviour
        without branching on the configuration itself.
        """
        bits = self._resolve_precision(precision_bits)
        if self.config.inject_read_disturb:
            reference = self.elementwise_reference(
                opcode,
                np.asarray(a_values).tolist(),
                np.asarray(b_values).tolist() if b_values is not None else None,
                precision_bits=bits,
            )
            dtype = object if (opcode is Opcode.MULT and 2 * bits > 62) else np.int64
            return np.asarray(reference, dtype=dtype)
        if opcode.is_dual_wordline and b_values is None:
            raise OperandError(f"{opcode.name} needs two operand vectors")
        if b_values is not None and len(b_values) != len(a_values):
            raise OperandError("operand vectors must have the same length")
        lanes = self.lane_count(opcode, bits)

        a = self._check_unsigned_operands("a_values", a_values, bits)
        b = (
            self._check_unsigned_operands("b_values", b_values, bits)
            if b_values is not None
            else None
        )
        if a.size == 0:
            return np.zeros(0, dtype=np.int64)

        values = self._batch_values(opcode, a, b, bits)

        invocations = -(-a.size // lanes)  # ceil division: one per lane batch
        cycles_each = cycles_for(opcode, bits)
        energy_per_word = self.energy_model.energy_for(
            opcode.energy_mnemonic,
            bits,
            vdd=self.config.operating_point.vdd,
            bl_separator=self.config.bl_separator,
        ).total_j
        self.stats.record_batch(
            opcode,
            invocations=invocations,
            words=int(a.size),
            cycles=cycles_each * invocations,
            energy_j=energy_per_word * a.size,
        )
        self.array.access_count += self._array_accesses_for(opcode, bits) * invocations
        self.stats.array_accesses = self.array.access_count
        self.stats.disturb_events = self.array.disturb_events
        return values

    def reduce_add(self, values: Sequence[int], accumulator_bits: int) -> int:
        """Serial in-memory accumulation of signed values (vectorized).

        Models the reference reduction loop — one scalar ADD per element
        through a single accumulator at ``accumulator_bits`` precision, with
        two's-complement wrap-around at every step — but computes the values
        with numpy and accounts the whole chain in one batch update.  Raises
        :class:`~repro.errors.OperandError` if any intermediate total leaves
        the signed accumulator range, like the reference loop would.

        Configurations that inject read disturb are routed to
        :meth:`reduce_add_reference`, the per-step on-array execution.
        """
        self.layout.check_precision(accumulator_bits)
        if self.config.inject_read_disturb:
            return self.reduce_add_reference(values, accumulator_bits)
        array = np.asarray(list(values), dtype=np.int64)
        if array.size == 0:
            return 0
        limit = (1 << (accumulator_bits - 1)) - 1
        modulus = 1 << accumulator_bits
        totals = np.cumsum(array)
        # Two's-complement wrap of every intermediate total (mod arithmetic
        # composes, so wrapping the cumulative sums equals stepwise wrapping).
        wrapped = totals % modulus
        decoded = np.where(wrapped >= modulus // 2, wrapped - modulus, wrapped)
        if np.abs(decoded).max() > limit:
            raise OperandError("accumulator overflow in reduction")
        energy_per_add = self.energy_model.energy_for(
            Opcode.ADD.energy_mnemonic,
            accumulator_bits,
            vdd=self.config.operating_point.vdd,
            bl_separator=self.config.bl_separator,
        ).total_j
        count = int(array.size)
        self.stats.record_batch(
            Opcode.ADD,
            invocations=count,
            words=count,
            cycles=cycles_for(Opcode.ADD, accumulator_bits) * count,
            energy_j=energy_per_add * count,
        )
        self.array.access_count += count
        self.stats.array_accesses = self.array.access_count
        return int(decoded[-1])

    def reduce_add_reference(self, values: Sequence[int], accumulator_bits: int) -> int:
        """Per-step reference accumulation on the array (ground truth).

        One scalar in-memory ADD per element through a single accumulator,
        exactly the seed's reduction loop; kept as the oracle for
        :meth:`reduce_add` and for read-disturb injection.
        """
        self.layout.check_precision(accumulator_bits)
        limit = (1 << (accumulator_bits - 1)) - 1
        modulus = 1 << accumulator_bits
        total = 0
        for value in values:
            encoded_total = to_twos_complement(total, accumulator_bits)
            encoded_value = to_twos_complement(int(value), accumulator_bits)
            raw = self.compute(
                Opcode.ADD, encoded_total, encoded_value, precision_bits=accumulator_bits
            )
            total = from_twos_complement(raw % modulus, accumulator_bits)
            if abs(total) > limit:  # pragma: no cover - guarded by operand checks
                raise OperandError("accumulator overflow in reduction")
        return total

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Clear the statistics ledger (array contents are untouched)."""
        self.stats.reset()
        self.array.access_count = 0
        self.array.disturb_events = 0
        self.decoder.reset_history()
