"""Baseline architectures the paper compares against.

* :mod:`bitserial` — the 8T-transposable-cell bit-serial compute SRAM of
  reference [2] (Wang et al., JSSC 2019), used as the cycle-count baseline of
  Fig. 9 and as a comparison column of Table III.
* :mod:`wlud`      — a conventional 6T BL-computing macro that relies on
  word-line under-drive instead of the proposed short pulse + BL boosting
  (the "conventional" curves of Fig. 2 and Fig. 7a).
* :mod:`logicfa`   — a logic-gate ripple-carry full adder, the baseline of the
  Fig. 7(b) critical-path comparison.
* :mod:`processor` — a processor-centric execution model (SRAM read, bus
  traversal, ALU, write-back) quantifying the data-movement cost the paper's
  introduction argues against.

The golden ALU every in-memory result is checked against is a test-only
oracle (``tests/oracle/alu.py``).
"""

from repro.baselines.bitserial import BitSerialConfig, BitSerialIMC
from repro.baselines.logicfa import LogicGateRippleAdder
from repro.baselines.processor import ProcessorCentricBaseline, ProcessorCostParameters
from repro.baselines.wlud import WLUDMacroModel

__all__ = [
    "BitSerialConfig",
    "BitSerialIMC",
    "LogicGateRippleAdder",
    "ProcessorCentricBaseline",
    "ProcessorCostParameters",
    "WLUDMacroModel",
]
