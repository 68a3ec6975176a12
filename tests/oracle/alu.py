"""Golden-model ALU: the macro's scalar oracle.

Every in-memory result produced by :class:`repro.core.macro.IMCMacro` (and by
the bit-serial baseline) is checked against this plain-Python ALU in the test
suite; no production path uses it.  It implements exactly the modular
semantics the macro is specified to have: unsigned operands, results reduced
modulo ``2**precision`` except for multiplication, which returns the full
double-width product.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operations import Opcode
from repro.errors import OperandError
from repro.utils.bitops import mask

__all__ = ["ReferenceALU"]


@dataclass(frozen=True)
class ReferenceALU:
    """Bit-exact reference for the macro's operation set."""

    precision_bits: int = 8

    def _check(self, name: str, value: int) -> int:
        if not 0 <= value <= mask(self.precision_bits):
            raise OperandError(
                f"{name}={value} does not fit in {self.precision_bits} unsigned bits"
            )
        return value

    def evaluate(self, opcode: Opcode, a: int, b: int | None = None) -> int:
        """Evaluate one operation with the macro's semantics."""
        modulus = 1 << self.precision_bits
        a = self._check("a", a)
        if opcode in (Opcode.NOT, Opcode.COPY, Opcode.SHIFT_LEFT):
            if opcode is Opcode.NOT:
                return (~a) % modulus
            if opcode is Opcode.COPY:
                return a
            return (a << 1) % modulus
        if b is None:
            raise OperandError(f"{opcode.name} needs two operands")
        b = self._check("b", b)
        if opcode is Opcode.AND:
            return a & b
        if opcode is Opcode.NAND:
            return (~(a & b)) % modulus
        if opcode is Opcode.OR:
            return a | b
        if opcode is Opcode.NOR:
            return (~(a | b)) % modulus
        if opcode is Opcode.XOR:
            return a ^ b
        if opcode is Opcode.XNOR:
            return (~(a ^ b)) % modulus
        if opcode is Opcode.ADD:
            return (a + b) % modulus
        if opcode is Opcode.ADD_SHIFT:
            return ((a + b) << 1) % modulus
        if opcode is Opcode.SUB:
            return (a - b) % modulus
        if opcode is Opcode.MULT:
            return a * b
        raise OperandError(f"unknown opcode {opcode!r}")
