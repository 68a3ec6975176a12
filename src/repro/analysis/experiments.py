"""Experiment drivers: one function per table/figure of the paper.

Each driver returns a plain data structure (dataclass or dict) containing
everything needed to print the regenerated table/figure and to compare it
against the published numbers.  The benchmark harness under ``benchmarks/``
calls these functions and prints the rows/series the paper reports;
EXPERIMENTS.md records the paper-vs-measured comparison.

The published reference values are collected in :data:`PAPER` so that tests
and reports can quantify how close the reproduction lands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.bitserial import BitSerialConfig, BitSerialIMC
from repro.circuits.bitline import BitlineComputeModel
from repro.circuits.delay import CycleBreakdown, CycleDelayModel
from repro.circuits.energy import OperationEnergyModel
from repro.circuits.fa import AdderStyle, FullAdderTiming
from repro.circuits.frequency import FrequencyModel
from repro.circuits.montecarlo import DelayDistribution, MonteCarloEngine
from repro.circuits.readdisturb import ReadDisturbModel
from repro.circuits.wordline import WordlineScheme
from repro.core.chip import IMCChip
from repro.core.config import MacroConfig
from repro.core.macro import IMCMacro
from repro.core.operations import Opcode, cycles_for
from repro.dnn.datasets import make_classification_dataset
from repro.dnn.imc_backend import IMCMatmulBackend, NumpyIntBackend
from repro.dnn.training import train_mlp
from repro.tech.calibration import CALIBRATED_28NM, MacroCalibration, default_macro_calibration
from repro.tech.technology import OperatingPoint, ProcessCorner, TechnologyProfile

__all__ = [
    "PAPER",
    "Fig2Result",
    "fig2_bl_delay_distribution",
    "fig7a_corner_delays",
    "fig7b_fa_critical_path",
    "fig8_breakdown",
    "fig8_frequency_and_efficiency",
    "fig9_cycles_vs_blsize",
    "table1_operation_cycles",
    "table2_energy",
    "table3_comparison",
    "dnn_precision_study",
    "area_overhead_study",
    "data_movement_study",
    "ChipScalingPoint",
    "chip_scaling_study",
    "ServingThroughputPoint",
    "serving_throughput_study",
    "ClusterSchedulingPoint",
    "cluster_scheduling_study",
    "MillionRequestTracePoint",
    "million_request_trace_study",
    "FleetReliabilityPoint",
    "fleet_reliability_study",
]


#: Published reference values used for paper-vs-measured reporting.
PAPER: Dict[str, object] = {
    "iso_failure_rate": 2.5e-5,
    "wlud_wl_voltage": 0.55,
    "short_pulse_ps": 140.0,
    "fig7a_worst_case_ratio": 0.22,
    "fig7b_speedup_range": (1.8, 2.2),
    "fig8_breakdown_ps": {
        "bl_precharge": 60.0,
        "wl_activation": 140.0,
        "bl_sensing": 130.0,
        "logic": 222.0,
        "writeback": 51.0,
    },
    "max_frequency_ghz_at_1v": 2.25,
    "frequency_mhz_at_0p6v": 372.0,
    "tops_per_watt_add_8b_0p6v": 8.09,
    "tops_per_watt_mult_8b_0p6v": 0.68,
    "area_overhead_fraction": 0.052,
    "table1_cycles": {"LOGIC": 1, "ADD": 1, "ADD_SHIFT": 1, "SUB": 2, "MULT": "N+2"},
    "table2_energy_fj": {
        "ADD": {2: 68.2, 4: 138.4, 8: 274.8},
        "SUB": {
            2: {"with": 136.5, "without": 152.3},
            4: {"with": 274.9, "without": 307.5},
            8: {"with": 545.4, "without": 612.2},
        },
        "MULT": {
            2: {"with": 296.0, "without": 357.4},
            4: {"with": 922.4, "without": 1167.6},
            8: {"with": 3394.8, "without": 4186.4},
        },
    },
    "table3": {
        "16' JSSC [1]": {
            "cell": "6T",
            "area_overhead": None,
            "read_disturb": "WL under-drive",
            "supply_v": (0.7, 1.0),
            "technology": "28nm FDSOI",
            "array": "64x64 (4kB)",
            "max_frequency_hz": 787e6,
            "reconfigurable": False,
            "tops_per_watt_mult": None,
            "tops_per_watt_add": None,
        },
        "19' JSSC [2]": {
            "cell": "8T transposable",
            "area_overhead": 0.045,
            "read_disturb": "WL under-drive",
            "supply_v": (0.6, 1.1),
            "technology": "28nm CMOS",
            "array": "4x128x256",
            "max_frequency_hz": 475e6,
            "reconfigurable": True,
            "tops_per_watt_mult": 0.56,
            "tops_per_watt_add": 5.27,
        },
        "19' DAC [5]": {
            "cell": "6T w/ local group",
            "area_overhead": 0.040,
            "read_disturb": "local read BL",
            "supply_v": (0.6, 1.1),
            "technology": "28nm CMOS",
            "array": "256x128",
            "max_frequency_hz": 2.2e9,
            "reconfigurable": False,
            "tops_per_watt_mult": None,
            "tops_per_watt_add": None,
        },
        "Proposed": {
            "cell": "6T",
            "area_overhead": 0.052,
            "read_disturb": "short WL w/ BL boosting",
            "supply_v": (0.6, 1.1),
            "technology": "28nm CMOS",
            "array": "4x128x128",
            "max_frequency_hz": 2.25e9,
            "reconfigurable": True,
            "tops_per_watt_mult": 0.68,
            "tops_per_watt_add": 8.09,
        },
    },
    "fig9_bl_sizes": (128, 256, 512, 1024),
}


def _default_setup(
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Tuple[TechnologyProfile, MacroCalibration]:
    return (
        technology if technology is not None else CALIBRATED_28NM,
        calibration if calibration is not None else default_macro_calibration(),
    )


# ---------------------------------------------------------------------- #
# Fig. 2 — BL computation delay distribution at iso disturb failure rate
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Fig2Result:
    """Regenerated Fig. 2: delay distributions of the two drive schemes."""

    failure_rate: float
    wlud_wl_voltage: float
    short_pulse_width_s: float
    wlud: DelayDistribution
    proposed: DelayDistribution

    @property
    def mean_speedup(self) -> float:
        """WLUD mean delay divided by the proposed mean delay."""
        return self.wlud.mean_s / self.proposed.mean_s

    @property
    def tail_ratio_wlud(self) -> float:
        """p99.9 / median of the WLUD distribution (long tail)."""
        return self.wlud.tail_ratio

    @property
    def tail_ratio_proposed(self) -> float:
        """p99.9 / median of the proposed distribution (short tail)."""
        return self.proposed.tail_ratio


def fig2_bl_delay_distribution(
    samples: int = 2000,
    vdd: float = 0.9,
    failure_rate: float = 2.5e-5,
    seed: int = 2020,
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Fig2Result:
    """Monte-Carlo BL-computing delay distributions (WLUD vs proposed).

    Both schemes are first placed at the same read-disturb failure rate
    (2.5e-5 in the paper): the WLUD voltage and the short-pulse width are
    *derived* from the disturb model, then the Monte-Carlo engine samples
    local-variation delays for each scheme.
    """
    technology, calibration = _default_setup(technology, calibration)
    disturb = ReadDisturbModel(technology=technology, calibration=calibration)
    wlud_voltage = disturb.wlud_voltage_for_rate(failure_rate)
    pulse_width = disturb.pulse_width_for_rate(failure_rate, vdd)
    engine = MonteCarloEngine(
        technology=technology, calibration=calibration, seed=seed
    )
    point = OperatingPoint(vdd=vdd)
    comparison = engine.compare_schemes(samples=samples, point=point)
    return Fig2Result(
        failure_rate=failure_rate,
        wlud_wl_voltage=wlud_voltage,
        short_pulse_width_s=pulse_width,
        wlud=comparison[WordlineScheme.WLUD],
        proposed=comparison[WordlineScheme.SHORT_PULSE_BOOST],
    )


# ---------------------------------------------------------------------- #
# Fig. 7(a) — BL computing delay across process corners
# ---------------------------------------------------------------------- #
def fig7a_corner_delays(
    vdd: float = 0.9,
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Dict[str, Dict[str, float]]:
    """BL-computing delay of WLUD vs proposed at every process corner.

    Returns a mapping ``corner -> {"wlud_s", "proposed_s", "ratio"}`` plus a
    ``"worst_case"`` entry with the worst-corner ratio (0.22x in the paper).
    """
    technology, calibration = _default_setup(technology, calibration)
    model = BitlineComputeModel(technology=technology, calibration=calibration)
    results: Dict[str, Dict[str, float]] = {}
    worst_ratio = 0.0
    worst_wlud = 0.0
    for corner in ProcessCorner.evaluation_order():
        point = OperatingPoint(vdd=vdd, corner=corner)
        wlud = model.compute_delay(point, scheme=WordlineScheme.WLUD)
        proposed = model.compute_delay(point, scheme=WordlineScheme.SHORT_PULSE_BOOST)
        results[corner.value] = {
            "wlud_s": wlud,
            "proposed_s": proposed,
            "ratio": proposed / wlud,
        }
        if wlud > worst_wlud:
            worst_wlud = wlud
            worst_ratio = proposed / wlud
    results["worst_case"] = {
        "wlud_s": worst_wlud,
        "proposed_s": worst_ratio * worst_wlud,
        "ratio": worst_ratio,
    }
    return results


# ---------------------------------------------------------------------- #
# Fig. 7(b) — FA critical-path delay vs supply voltage
# ---------------------------------------------------------------------- #
def fig7b_fa_critical_path(
    voltages: Sequence[float] = (0.7, 0.8, 0.9, 1.0, 1.1),
    bit_widths: Sequence[int] = (8, 16),
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Dict[int, Dict[float, Dict[str, float]]]:
    """Proposed TG FA vs logic-gate FA critical path across supply voltages.

    Returns ``{bits: {vdd: {"proposed_s", "logic_s", "speedup"}}}``.
    """
    technology, calibration = _default_setup(technology, calibration)
    timing = FullAdderTiming(technology=technology, calibration=calibration)
    results: Dict[int, Dict[float, Dict[str, float]]] = {}
    for bits in bit_widths:
        results[bits] = {}
        for vdd in voltages:
            point = OperatingPoint(vdd=vdd)
            proposed = timing.critical_path_delay(bits, point, AdderStyle.TRANSMISSION_GATE)
            logic = timing.critical_path_delay(bits, point, AdderStyle.LOGIC_GATE)
            results[bits][round(vdd, 4)] = {
                "proposed_s": proposed,
                "logic_s": logic,
                "speedup": logic / proposed,
            }
    return results


# ---------------------------------------------------------------------- #
# Fig. 8 — cycle breakdown, maximum frequency and energy efficiency
# ---------------------------------------------------------------------- #
def fig8_breakdown(
    vdd: float = 0.9,
    corner: ProcessCorner = ProcessCorner.NN,
    precision_bits: int = 8,
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> CycleBreakdown:
    """The five-component cycle-delay breakdown (left half of Fig. 8)."""
    technology, calibration = _default_setup(technology, calibration)
    model = CycleDelayModel(technology=technology, calibration=calibration)
    return model.breakdown(
        OperatingPoint(vdd=vdd, corner=corner),
        precision_bits=precision_bits,
        bl_separator=True,
    )


def fig8_frequency_and_efficiency(
    voltages: Sequence[float] = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1),
    precision_bits: int = 8,
    corner: ProcessCorner = ProcessCorner.FF,
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Dict[float, Dict[str, float]]:
    """Maximum frequency and ADD/MULT TOPS/W across the supply range.

    Returns ``{vdd: {"frequency_hz", "add_tops_per_watt", "mult_tops_per_watt",
    "mult_tops_per_watt_no_separator", "add_energy_fj", "mult_energy_fj"}}``.
    """
    technology, calibration = _default_setup(technology, calibration)
    frequency_model = FrequencyModel(
        technology=technology, calibration=calibration, precision_bits=precision_bits
    )
    energy_model = OperationEnergyModel(calibration)
    results: Dict[float, Dict[str, float]] = {}
    for vdd in voltages:
        frequency = frequency_model.max_frequency(vdd, corner=corner)
        add = energy_model.add_energy(precision_bits, vdd=vdd)
        mult_sep = energy_model.mult_energy(precision_bits, vdd=vdd, bl_separator=True)
        mult_nosep = energy_model.mult_energy(precision_bits, vdd=vdd, bl_separator=False)
        results[round(vdd, 4)] = {
            "frequency_hz": frequency.max_frequency_hz,
            "add_energy_fj": add.total_fj,
            "mult_energy_fj": mult_sep.total_fj,
            "add_tops_per_watt": 1.0 / (add.total_j * 1e12),
            "mult_tops_per_watt": 1.0 / (mult_sep.total_j * 1e12),
            "mult_tops_per_watt_no_separator": 1.0 / (mult_nosep.total_j * 1e12),
        }
    return results


# ---------------------------------------------------------------------- #
# Fig. 9 — cycles per operation vs bit-line count
# ---------------------------------------------------------------------- #
def fig9_cycles_vs_blsize(
    bl_sizes: Sequence[int] = (128, 256, 512, 1024),
    precision_bits: int = 8,
    operations: Sequence[Opcode] = (Opcode.ADD, Opcode.SUB, Opcode.MULT),
    elements_per_point: Optional[int] = None,
    seed: int = 11,
    baseline_config: Optional[BitSerialConfig] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Cycles-per-operation of the proposed macro vs the bit-serial baseline.

    Both sides are *measured* by running a random 8-bit workload through the
    functional simulators and dividing the counted cycles by the number of
    produced results:

    * the proposed macro's vector width grows linearly with the number of
      bit lines (columns / interleave / words per access), while
    * the bit-serial baseline's usable lane count only grows with the square
      root of the bit-line count (2-D local-group scaling of its compute
      peripherals; ``BitSerialConfig.lane_scaling = "local_group"``), so the
      proposed architecture's advantage widens as the BL size increases —
      the behaviour Fig. 9 reports.  The paper does not specify its exact
      normalisation, so the absolute ratios differ (see EXPERIMENTS.md).

    Returns ``{opcode: {bl_size: {"proposed", "conventional", "ratio"}}}``.
    """
    rng = np.random.default_rng(seed)
    if baseline_config is None:
        baseline_config = BitSerialConfig(
            lane_scaling="local_group", lanes_at_reference=20, reference_columns=128
        )
    baseline = BitSerialIMC(baseline_config)
    results: Dict[str, Dict[int, Dict[str, float]]] = {}

    for opcode in operations:
        results[opcode.name] = {}
        for bl_size in bl_sizes:
            config = MacroConfig(cols=bl_size, precision_bits=precision_bits)
            macro = IMCMacro(config)
            if opcode is Opcode.MULT:
                lanes = macro.mult_slots_per_row(precision_bits)
            else:
                lanes = macro.words_per_row(precision_bits)
            elements = (
                elements_per_point if elements_per_point is not None else lanes
            )
            elements = max(elements, 1)
            operands_a = rng.integers(0, 1 << precision_bits, size=elements).tolist()
            operands_b = rng.integers(0, 1 << precision_bits, size=elements).tolist()

            macro.reset_stats()
            macro.elementwise(opcode, operands_a, operands_b, precision_bits)
            proposed_cpo = macro.stats.cycles_per_operation()

            conventional_cpo = baseline.cycles_per_operation(
                opcode, precision_bits, available_columns=bl_size
            )
            results[opcode.name][bl_size] = {
                "proposed": proposed_cpo,
                "conventional": conventional_cpo,
                "ratio": proposed_cpo / conventional_cpo,
            }
    return results


# ---------------------------------------------------------------------- #
# Table I — supported operations and cycle counts
# ---------------------------------------------------------------------- #
def table1_operation_cycles(
    precisions: Sequence[int] = (2, 4, 8),
) -> Dict[str, Dict[int, Dict[str, int]]]:
    """Measured vs specified cycle counts for every operation (Table I).

    The "measured" number is what the macro's statistics ledger records after
    actually executing the operation; the "specified" number is the Table I
    formula.
    """
    results: Dict[str, Dict[int, Dict[str, int]]] = {}
    sample_operands = {2: (2, 3), 4: (11, 13), 8: (173, 201), 16: (4011, 513), 32: (70001, 1234)}
    for opcode in Opcode:
        results[opcode.name] = {}
        for bits in precisions:
            macro = IMCMacro(MacroConfig(precision_bits=bits))
            a, b = sample_operands[bits]
            macro.reset_stats()
            if opcode.is_dual_wordline:
                macro.compute(opcode, a, b, precision_bits=bits)
            else:
                macro.compute(opcode, a, precision_bits=bits)
            results[opcode.name][bits] = {
                "measured": macro.stats.cycles_for(opcode),
                "specified": cycles_for(opcode, bits),
            }
    return results


# ---------------------------------------------------------------------- #
# Table II — energy per operation
# ---------------------------------------------------------------------- #
def table2_energy(
    vdd: float = 0.9,
    precisions: Sequence[int] = (2, 4, 8),
    calibration: Optional[MacroCalibration] = None,
) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Energy per operation [fJ] with and without the BL separator.

    Returns ``{op: {bits: {"with_separator", "without_separator",
    "paper_with", "paper_without"}}}``; ADD has no separator dependence, so
    both measured values coincide.
    """
    _, calibration = _default_setup(None, calibration)
    model = OperationEnergyModel(calibration)
    table = model.table2(vdd=vdd, precisions=tuple(precisions))
    paper = PAPER["table2_energy_fj"]
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    for op_name, per_bits in table.items():
        results[op_name] = {}
        for bits, values in per_bits.items():
            paper_entry = paper[op_name][bits]
            if isinstance(paper_entry, dict):
                paper_with = paper_entry["with"]
                paper_without = paper_entry["without"]
            else:
                paper_with = paper_entry
                paper_without = paper_entry
            results[op_name][bits] = {
                "with_separator": values["with_separator"],
                "without_separator": values["without_separator"],
                "paper_with": paper_with,
                "paper_without": paper_without,
            }
    return results


# ---------------------------------------------------------------------- #
# Table III — comparison with the state of the art
# ---------------------------------------------------------------------- #
def table3_comparison(
    technology: Optional[TechnologyProfile] = None,
    calibration: Optional[MacroCalibration] = None,
) -> Dict[str, Dict[str, object]]:
    """Regenerate the Table III comparison.

    Rows for the prior works reproduce their published descriptors (survey
    data); the "Proposed (measured)" row contains the values produced by this
    reproduction's models, and the bit-serial baseline row is additionally
    cross-checked against our own :class:`BitSerialIMC` energy model.
    """
    technology, calibration = _default_setup(technology, calibration)
    frequency_model = FrequencyModel(technology=technology, calibration=calibration)
    energy_model = OperationEnergyModel(calibration)
    baseline = BitSerialIMC()

    table: Dict[str, Dict[str, object]] = {
        name: dict(row) for name, row in PAPER["table3"].items()
    }
    measured = {
        "cell": "6T",
        "area_overhead": calibration.area_overhead_fraction,
        "read_disturb": "short WL w/ BL boosting",
        "supply_v": (technology.vdd_min, technology.vdd_max),
        "technology": f"{technology.node_nm:.0f}nm behavioural model",
        "array": "4x128x128",
        "max_frequency_hz": frequency_model.max_frequency(1.0).max_frequency_hz,
        "reconfigurable": True,
        "tops_per_watt_add": 1.0 / (energy_model.add_energy(8, vdd=0.6).total_j * 1e12),
        "tops_per_watt_mult": 1.0
        / (energy_model.mult_energy(8, vdd=0.6, bl_separator=True).total_j * 1e12),
    }
    table["Proposed (measured)"] = measured
    table["19' JSSC [2] (our model)"] = {
        "cell": "8T transposable",
        "area_overhead": 0.045,
        "read_disturb": "WL under-drive",
        "supply_v": (0.6, 1.1),
        "technology": "behavioural model",
        "array": f"{baseline.config.columns} columns",
        "max_frequency_hz": baseline.config.max_frequency_hz,
        "reconfigurable": True,
        "tops_per_watt_add": baseline.tops_per_watt(Opcode.ADD, 8, vdd=0.6),
        "tops_per_watt_mult": baseline.tops_per_watt(Opcode.MULT, 8, vdd=0.6),
    }
    return table


# ---------------------------------------------------------------------- #
# Chip scaling — sharded multi-macro execution engine
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChipScalingPoint:
    """One (macro count, vector length) point of the chip-scaling sweep."""

    num_macros: int
    elements: int
    total_cycles: int
    critical_path_cycles: int
    energy_j: float
    latency_s: float
    wall_time_s: float
    parallel_speedup: float
    verified: bool


def chip_scaling_study(
    macro_counts: Sequence[int] = (1, 2, 4, 8),
    vector_lengths: Sequence[int] = (1024, 4096, 16384, 65536),
    opcode: Opcode = Opcode.MULT,
    precision_bits: int = 8,
    seed: int = 2020,
    verify_elements: int = 256,
) -> Dict[int, Dict[int, ChipScalingPoint]]:
    """Sweep the sharded chip over macro counts and vector lengths.

    For every point the sharded dispatch is executed on the vectorized
    column-parallel path, the merged accounting is recorded (total work
    cycles, critical-path cycles of the busiest shard, energy) along with
    the host wall-clock time, and a ``verify_elements``-long prefix is
    cross-checked bit-exactly against a single macro's per-lane reference
    execution.

    Returns ``{num_macros: {elements: ChipScalingPoint}}``.
    """
    rng = np.random.default_rng(seed)
    results: Dict[int, Dict[int, ChipScalingPoint]] = {}
    for num_macros in macro_counts:
        results[num_macros] = {}
        for elements in vector_lengths:
            a = rng.integers(0, 1 << precision_bits, size=elements).tolist()
            b = rng.integers(0, 1 << precision_bits, size=elements).tolist()
            chip = IMCChip(num_macros, MacroConfig(precision_bits=precision_bits))
            start = time.perf_counter()
            dispatch = chip.run_elementwise(opcode, a, b, precision_bits)
            wall = time.perf_counter() - start

            prefix = min(verify_elements, elements)
            reference_macro = IMCMacro(MacroConfig(precision_bits=precision_bits))
            reference = reference_macro.elementwise_reference(
                opcode, a[:prefix], b[:prefix], precision_bits
            )
            verified = dispatch.values[:prefix].tolist() == reference

            results[num_macros][elements] = ChipScalingPoint(
                num_macros=num_macros,
                elements=elements,
                total_cycles=dispatch.total_cycles,
                critical_path_cycles=dispatch.critical_path_cycles,
                energy_j=dispatch.energy_j,
                latency_s=dispatch.latency_s,
                wall_time_s=wall,
                parallel_speedup=dispatch.parallel_speedup,
                verified=verified,
            )
    return results


# ---------------------------------------------------------------------- #
# Extension — DNN accuracy vs bit precision on the IMC macro
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PrecisionStudyResult:
    """Outcome of the reconfigurable-precision inference study."""

    float_accuracy: float
    accuracy_by_precision: Dict[int, float]
    energy_per_inference_j: Dict[int, float]
    latency_per_inference_s: Dict[int, float]
    imc_backend_verified: bool
    mac_count_per_inference: int = 0


def dnn_precision_study(
    precisions: Sequence[int] = (8, 4, 2),
    samples: int = 600,
    features: int = 12,
    classes: int = 3,
    hidden_sizes: Tuple[int, ...] = (24, 12),
    epochs: int = 25,
    verify_samples: int = 2,
    seed: int = 3,
    chip_macros: int = 2,
) -> PrecisionStudyResult:
    """Quantised-MLP accuracy and per-inference IMC cost vs bit precision.

    The float model is trained with numpy, quantised to each precision, and
    evaluated with the integer reference backend.  A small activation slice
    is additionally pushed through a sharded :class:`IMCChip` of
    ``chip_macros`` macros to verify that the integer backend and the
    (sharded) in-memory arithmetic agree bit-exactly.

    Per-inference energy is engine-independent, but the reported *latency*
    is chip-level: ``chip_macros`` shards process the MAC stream in
    parallel, so latency is 1/``chip_macros`` of the single-macro figure.
    Pass ``chip_macros=1`` for numbers comparable to the seed study.
    """
    dataset = make_classification_dataset(
        samples=samples, features=features, classes=classes, seed=seed
    )
    training = train_mlp(dataset, hidden_sizes=hidden_sizes, epochs=epochs, seed=seed)

    accuracy: Dict[int, float] = {}
    energy: Dict[int, float] = {}
    latency: Dict[int, float] = {}
    verified = True
    mac_count = 0
    for bits in precisions:
        quantized = training.model.quantize(bits)
        accuracy[bits] = quantized.accuracy(dataset.test_x, dataset.test_y)
        chip = IMCChip(chip_macros, MacroConfig(precision_bits=max(bits, 2)))
        backend = IMCMatmulBackend(chip, precision_bits=max(bits, 2))
        mac_count = quantized.mac_count(1)
        cost = backend.estimate_inference_cost(mac_count)
        energy[bits] = cost["energy_j"]
        latency[bits] = cost["latency_s"]
        if verify_samples > 0:
            layer = quantized.layers[0]
            codes, _ = layer.quantize_activations(dataset.test_x[:verify_samples])
            reference = NumpyIntBackend()(codes, layer.quantized_weights.codes)
            on_macro = backend(codes, layer.quantized_weights.codes)
            verified = verified and bool(np.array_equal(reference, on_macro))

    return PrecisionStudyResult(
        float_accuracy=training.test_accuracy,
        accuracy_by_precision=accuracy,
        energy_per_inference_j=energy,
        latency_per_inference_s=latency,
        imc_backend_verified=verified,
        mac_count_per_inference=mac_count,
    )


# ---------------------------------------------------------------------- #
# Extension — batched inference serving on the weight-stationary engine
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingThroughputPoint:
    """Serving metrics at one coalescing batch size."""

    max_batch_size: int
    requests: int
    images: int
    batches: int
    mean_batch_size: float
    throughput_images_per_s: float
    modeled_chip_time_s: float
    mean_utilization: float
    cache_hits: int
    cache_misses: int
    accuracy: float


def serving_throughput_study(
    batch_sizes: Sequence[int] = (1, 4, 16, 64),
    num_macros: int = 16,
    samples: int = 240,
    image_size: int = 8,
    request_images: int = 3,
    epochs: int = 12,
    weight_bits: int = 8,
    seed: int = 13,
) -> Dict[int, ServingThroughputPoint]:
    """Batched CNN serving throughput vs coalescing batch size.

    Trains the pattern CNN once, then serves the whole test split on one
    :class:`repro.cluster.ClusterNode` per point (0.9 V, 8-bit, a fresh
    weight-stationary engine on ``num_macros`` shards) as a stream of
    ``request_images``-image requests in one dispatch group, which the
    node's batch loop cuts into ``max_batch_size`` batches.  Larger
    coalescing budgets amortise the fixed per-dispatch cost over more
    images, which is the serving analogue of the DAC-codeword "expansion
    factor" argument: throughput comes from batching symbols past a
    programmed-once block.

    Every modeled field (chip time, utilization, cache counts, accuracy)
    comes from the first, cold dispatch.  The node then serves the same
    group 4 more times, warm, and ``throughput_images_per_s`` is images
    over the fastest of the 5 host wall times, since one short timing
    is noisy.  ``mean_utilization`` is the group's work cycles over
    ``num_macros`` times the summed per-batch critical paths.

    Returns ``{max_batch_size: ServingThroughputPoint}``.
    """
    from repro.cluster import ClusterNode
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    dataset = make_pattern_image_dataset(samples=samples, size=image_size, seed=seed)
    cnn, _ = train_pattern_cnn(dataset, epochs=epochs, weight_bits=weight_bits)
    test_images = dataset.test_images
    images = test_images.shape[0]
    parts = [
        (test_images[start : start + request_images], None)
        for start in range(0, images, request_images)
    ]

    results: Dict[int, ServingThroughputPoint] = {}
    for max_batch_size in batch_sizes:
        node = ClusterNode("serve", num_macros=num_macros, max_batch_size=max_batch_size)
        node.register_model("cnn", cnn)
        engine = node.engine
        mark = engine.ledger_mark()
        start_s = time.perf_counter()
        _, dispatch = node.execute_group("cnn", parts)
        wall_s = time.perf_counter() - start_s
        total_cycles, _, _ = engine.ledger_since(mark)
        utilization = total_cycles / (num_macros * dispatch.critical_path_cycles)
        cache_hits, cache_misses = engine.cache.hits, engine.cache.misses
        for _ in range(4):
            start_s = time.perf_counter()
            node.execute_group("cnn", parts)
            wall_s = min(wall_s, time.perf_counter() - start_s)
        results[max_batch_size] = ServingThroughputPoint(
            max_batch_size=max_batch_size,
            requests=len(parts),
            images=images,
            batches=dispatch.batches,
            mean_batch_size=images / dispatch.batches,
            throughput_images_per_s=images / wall_s,
            modeled_chip_time_s=dispatch.compute_s,
            mean_utilization=utilization,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            accuracy=float(np.mean(dispatch.predictions == dataset.test_labels)),
        )
    return results


# ---------------------------------------------------------------------- #
# Extension — DVFS-aware cluster scheduling (the voltage-mix dividend)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClusterSchedulingPoint:
    """Outcome of one fleet configuration on the mixed-SLA workload."""

    fleet: str
    vdds: Tuple[float, ...]
    requests: int
    images: int
    latency_requests: int
    latency_miss_rate: float
    latency_feasible_rate: float
    latency_mean_s: float
    throughput_energy_per_image_j: float
    total_energy_j: float
    affinity_hit_rate: float
    programmed_dispatches: int
    ledger_cycles: int
    ledger_energy_j: float
    ledger_conserved: bool
    bit_exact: bool
    accuracy: float


def _steady_request_latency_s(
    vdd: float, model, images, num_macros: int
) -> float:
    """Warm (weights-resident) modeled latency of one request at one VDD.

    A throwaway calibration node programs the model once, then prices the
    request from the engine's planning path — the number workloads derive
    deadlines from.
    """
    from repro.cluster import ClusterNode

    probe = ClusterNode("probe", vdd=vdd, num_macros=num_macros)
    probe.register_model("probe-model", model)
    probe.execute("probe-model", images)
    return probe.estimate_request("probe-model", images).latency_s


def cluster_scheduling_study(
    fleets: Optional[Dict[str, Tuple[float, ...]]] = None,
    num_macros: int = 16,
    samples: int = 150,
    image_size: int = 8,
    epochs: int = 10,
    waves: int = 6,
    latency_images: int = 2,
    throughput_images: int = 6,
    deadline_scale: float = 3.0,
    hot_threshold: int = 6,
    seed: int = 13,
    execution_mode: str = "exact",
) -> Dict[str, ClusterSchedulingPoint]:
    """Mixed-SLA serving across fleet voltage mixes (the cluster dividend).

    Two pattern CNNs (a latency-critical one and a throughput one) are
    served through a :class:`repro.cluster.ClusterRouter` on several fleet
    configurations — a DVFS-mixed fleet and the two homogeneous extremes —
    under an identical workload: per wave, two deadline-tagged latency
    requests of model A, two throughput requests of model B, and one
    best-effort request alternating between the models (which keeps the
    weight caches contended).  Deadlines are calibrated from the warm
    modeled latency at the *highest* rung (``deadline_scale`` times it), so
    they are comfortably feasible on fast silicon and infeasible on the
    0.6 V rung.

    The study exists to pin the two halves of the trade-off at once: the
    mixed fleet must match the high-voltage fleet on deadline misses (the
    latency traffic rides the fast nodes) *and* approach the low-voltage
    fleet on throughput-class joules per image (the batch traffic rides the
    efficient nodes).  Everything runs in modeled virtual time, so the
    returned numbers are deterministic.

    ``execution_mode`` selects the node execution path ("exact" or
    "analytic"); by the fidelity contract of
    :class:`~repro.cluster.node.ExecutionMode` the returned study points
    are bit-identical either way — the analytic run simply skips the numpy
    forwards (one per unique input remains, for the bit-exactness check).
    """
    from repro.cluster import (
        ClusterNode,
        ClusterRouter,
        ExecutionMode,
        SLAClass,
        SLAScheduler,
    )
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    mode = ExecutionMode(execution_mode)

    if fleets is None:
        fleets = {
            "dvfs_mixed": (1.0, 1.0, 0.6, 0.6),
            "homogeneous_high": (1.0, 1.0, 1.0, 1.0),
            "homogeneous_low": (0.6, 0.6, 0.6, 0.6),
            "dvfs_small": (1.0, 0.6),
        }

    dataset = make_pattern_image_dataset(samples=samples, size=image_size, seed=seed)
    model_a, _ = train_pattern_cnn(dataset, epochs=epochs, seed=seed)
    model_b, _ = train_pattern_cnn(dataset, epochs=epochs, seed=seed + 1)
    models = {"model-a": model_a, "model-b": model_b}
    test_images = dataset.test_images
    test_labels = dataset.test_labels

    probe_images = test_images[:latency_images]
    top_vdd = max(max(vdds) for vdds in fleets.values())
    deadline_s = deadline_scale * _steady_request_latency_s(
        top_vdd, model_a, probe_images, num_macros
    )
    wave_gap_s = 2.0 * deadline_s

    def take(cursor: int, count: int) -> Tuple[np.ndarray, np.ndarray, int]:
        stop = cursor + count
        if stop > test_images.shape[0]:
            cursor, stop = 0, count
        return test_images[cursor:stop], test_labels[cursor:stop], stop

    results: Dict[str, ClusterSchedulingPoint] = {}
    for fleet_name, vdds in fleets.items():
        nodes = [
            ClusterNode(
                f"{fleet_name}-{index}",
                vdd=vdd,
                num_macros=num_macros,
                execution_mode=mode,
            )
            for index, vdd in enumerate(vdds)
        ]
        scheduler = SLAScheduler(hot_threshold=hot_threshold)
        with ClusterRouter(nodes, scheduler=scheduler) as router:
            for model_id, model in models.items():
                router.register_model(model_id, model)

            cursor = 0
            expected: Dict[int, Tuple[np.ndarray, np.ndarray, str]] = {}
            for wave in range(waves):
                arrival = wave * wave_gap_s
                plan = [
                    ("model-a", latency_images, SLAClass.LATENCY),
                    ("model-a", latency_images, SLAClass.LATENCY),
                    ("model-b", throughput_images, SLAClass.THROUGHPUT),
                    ("model-b", throughput_images, SLAClass.THROUGHPUT),
                    (
                        "model-a" if wave % 2 else "model-b",
                        latency_images,
                        SLAClass.BEST_EFFORT,
                    ),
                ]
                for model_id, count, sla in plan:
                    images, labels, cursor = take(cursor, count)
                    request_id = router.submit(
                        model_id,
                        images,
                        sla=sla,
                        deadline_s=deadline_s if sla is SLAClass.LATENCY else None,
                        arrival_s=arrival,
                    )
                    expected[request_id] = (images, labels, model_id)
                # Drain between waves so residency (and therefore affinity
                # and heat) reflects executed history, as in live serving.
                router.drain()

            telemetry = router.telemetry
            traces = telemetry.traces
            latency_traces = [t for t in traces if t.sla == SLAClass.LATENCY.value]
            bit_exact = True
            correct = 0
            total = 0
            for request_id, (images, labels, model_id) in expected.items():
                predictions = router.result(request_id).predictions
                reference = models[model_id].predict(images)
                bit_exact = bit_exact and bool(np.array_equal(predictions, reference))
                correct += int(np.sum(predictions == labels))
                total += labels.size
            cluster_ledger = router.ledger()
            part_cycles = sum(node.ledger().total_cycles for node in nodes)
            part_energy = sum(node.ledger().total_energy_j for node in nodes)
            conserved = cluster_ledger.total_cycles == part_cycles and bool(
                np.isclose(cluster_ledger.total_energy_j, part_energy, rtol=1e-9)
            )

            results[fleet_name] = ClusterSchedulingPoint(
                fleet=fleet_name,
                vdds=tuple(vdds),
                requests=len(traces),
                images=sum(trace.images for trace in traces),
                latency_requests=len(latency_traces),
                latency_miss_rate=telemetry.deadline_miss_rate(
                    sla=SLAClass.LATENCY.value
                ),
                latency_feasible_rate=(
                    sum(t.feasible_at_admission for t in latency_traces)
                    / len(latency_traces)
                    if latency_traces
                    else 1.0
                ),
                latency_mean_s=telemetry.mean_latency_s(sla=SLAClass.LATENCY.value),
                throughput_energy_per_image_j=telemetry.energy_per_image_j(
                    sla=SLAClass.THROUGHPUT.value
                ),
                total_energy_j=sum(trace.energy_j for trace in traces),
                affinity_hit_rate=(
                    sum(trace.affinity_hit for trace in traces)
                    / len(traces)
                    if traces
                    else 0.0
                ),
                programmed_dispatches=sum(
                    trace.programmed for trace in traces
                ),
                ledger_cycles=cluster_ledger.total_cycles,
                ledger_energy_j=cluster_ledger.total_energy_j,
                ledger_conserved=conserved,
                bit_exact=bit_exact,
                accuracy=correct / total if total else 0.0,
            )
    return results


# ---------------------------------------------------------------------- #
# Extension — million-request trace studies on the analytic fast path
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MillionRequestTracePoint:
    """Outcome of one fleet configuration on a synthesised request trace."""

    fleet: str
    vdds: Tuple[float, ...]
    scenario: str
    requests: int
    images: int
    wall_s: float
    requests_per_s: float
    images_per_s: float
    latency_requests: int
    latency_miss_rate: float
    mean_latency_s: float
    throughput_energy_per_image_j: float
    total_energy_j: float
    affinity_hit_rate: float
    memo_entries: int
    memo_hits: int
    memo_misses: int
    spot_checks: int
    ledger_cycles: int
    ledger_energy_j: float
    ledger_conserved: bool


def million_request_trace_study(
    fleets: Optional[Dict[str, Tuple[float, ...]]] = None,
    requests: int = 1_000_000,
    scenario: str = "diurnal",
    num_macros: int = 16,
    image_size: int = 20,
    image_counts: Tuple[int, ...] = (32, 64, 128),
    samples: int = 1600,
    epochs: int = 6,
    load: float = 0.6,
    deadline_scale: float = 4.0,
    latency_share: float = 0.2,
    throughput_share: float = 0.5,
    spot_check_every: int = 1000,
    drain_every: int = 64,
    seed: int = 13,
    execution_mode: str = "analytic",
) -> Dict[str, MillionRequestTracePoint]:
    """Compare fleets over a synthesised trace of up to 10^6 modeled requests.

    The wall-clock-feasible version of the cluster scheduling study: two
    pattern CNNs served on each fleet configuration under one identical
    trace (Poisson / diurnal / burst arrivals, mixed SLA classes, varied
    request sizes drawn from a pool of distinct image batches).  On the
    analytic execution path every request is charged exactly — ledgers,
    virtual-time latencies and joules are what the full numpy run would
    produce — while the numpy forward runs once per unique pool entry, so
    a million requests cost minutes instead of hours.  ``spot_check_every``
    re-runs a real forward on a sampled fraction of memo hits as a
    continuous fidelity audit.

    The arrival rate is derived from the *top-rung* warm modeled request
    latency: ``load`` times the modeled capacity of a fleet of that many
    fast nodes, so the same trace pressures every fleet identically while
    staying inside the modeled service capacity of the fast configuration.

    Returns ``{fleet_name: MillionRequestTracePoint}``.
    """
    from repro.cluster import (
        ClusterNode,
        ClusterRouter,
        ExecutionMode,
        ForwardMemo,
        SLAClass,
        build_image_pool,
        burst_trace,
        diurnal_trace,
        poisson_trace,
    )
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    mode = ExecutionMode(execution_mode)
    if fleets is None:
        fleets = {
            "dvfs_mixed": (1.0, 1.0, 0.6, 0.6),
            "homogeneous_high": (1.0, 1.0, 1.0, 1.0),
            "homogeneous_low": (0.6, 0.6, 0.6, 0.6),
        }

    dataset = make_pattern_image_dataset(samples=samples, size=image_size, seed=seed)
    model_a, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(6,), epochs=epochs, seed=seed
    )
    model_b, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(6,), epochs=epochs, seed=seed + 1
    )
    models = {"model-a": model_a, "model-b": model_b}
    max_images = max(image_counts)

    # Deadline and arrival rate from warm modeled latencies: the deadline
    # must comfortably cover the *largest* request on the fastest rung
    # (tight-but-feasible on fast silicon, infeasible on the 0.6 V rung —
    # the same calibration the scheduling study uses), while the offered
    # load is set against the *slowest* rung's service time of the average
    # request.  Energy-ranked traffic concentrates on the efficient rung,
    # so rating the trace against the fast rung would melt every fleet's
    # queues; rating against the slow rung keeps the identical trace inside
    # every fleet's modeled capacity at ``load < 1``.
    top_vdd = max(max(vdds) for vdds in fleets.values())
    low_vdd = min(min(vdds) for vdds in fleets.values())

    def _warm_latencies(vdd: float) -> Dict[int, float]:
        probe = ClusterNode(
            "probe", vdd=vdd, num_macros=num_macros, max_batch_size=max_images
        )
        probe.register_model("model-a", model_a)
        probe.execute("model-a", dataset.test_images[:max_images])
        return {
            count: probe.estimate_request(
                "model-a", dataset.test_images[:count]
            ).latency_s
            for count in image_counts
        }

    top_latencies = _warm_latencies(top_vdd)
    low_latencies = top_latencies if low_vdd == top_vdd else _warm_latencies(low_vdd)
    deadline_s = deadline_scale * top_latencies[max_images]
    mean_low_latency = sum(low_latencies.values()) / len(low_latencies)
    fleet_size = max(len(vdds) for vdds in fleets.values())
    rate_rps = load * fleet_size / mean_low_latency

    sla_mix = {
        "latency": latency_share,
        "throughput": throughput_share,
        "best_effort": max(0.0, 1.0 - latency_share - throughput_share),
    }
    trace_kwargs = dict(
        model_ids=tuple(models),
        image_counts=image_counts,
        sla_mix=sla_mix,
        deadline_s=deadline_s,
        seed=seed,
    )
    if scenario == "poisson":
        trace = poisson_trace(requests, rate_rps=rate_rps, **trace_kwargs)
    elif scenario == "diurnal":
        period = max(1e-6, 4096.0 / rate_rps)
        trace = diurnal_trace(
            requests,
            period_s=period,
            base_rate_rps=0.4 * rate_rps,
            peak_rate_rps=1.6 * rate_rps,
            **trace_kwargs,
        )
    elif scenario == "burst":
        period = max(1e-6, 4096.0 / rate_rps)
        trace = burst_trace(
            requests,
            base_rate_rps=0.8 * rate_rps,
            burst_every_s=period,
            burst_duration_s=0.1 * period,
            burst_multiplier=6.0,
            **trace_kwargs,
        )
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    pool = build_image_pool(
        {model_id: dataset.test_images for model_id in models},
        image_counts,
    )

    results: Dict[str, MillionRequestTracePoint] = {}
    for fleet_name, vdds in fleets.items():
        memo = ForwardMemo()
        nodes = [
            ClusterNode(
                f"{fleet_name}-{index}",
                vdd=vdd,
                num_macros=num_macros,
                max_batch_size=max_images,
                execution_mode=mode,
                forward_memo=memo,
                spot_check_every=spot_check_every,
            )
            for index, vdd in enumerate(vdds)
        ]
        with ClusterRouter(nodes) as router:
            for model_id, model in models.items():
                router.register_model(model_id, model)
            stats = router.replay_trace(trace, pool, drain_every=drain_every)

            telemetry = router.telemetry
            fleet_summary = telemetry.summary()
            cluster_ledger = router.ledger()
            part_cycles = sum(node.ledger().total_cycles for node in nodes)
            part_energy = sum(node.ledger().total_energy_j for node in nodes)
            conserved = cluster_ledger.total_cycles == part_cycles and bool(
                np.isclose(cluster_ledger.total_energy_j, part_energy, rtol=1e-9)
            )
            results[fleet_name] = MillionRequestTracePoint(
                fleet=fleet_name,
                vdds=tuple(vdds),
                scenario=trace.scenario,
                requests=int(fleet_summary["requests"]),
                images=int(fleet_summary["images"]),
                wall_s=stats["wall_s"],
                requests_per_s=stats["requests_per_s"],
                images_per_s=stats["images_per_s"],
                latency_requests=telemetry.request_count(
                    sla=SLAClass.LATENCY.value
                ),
                latency_miss_rate=telemetry.deadline_miss_rate(
                    sla=SLAClass.LATENCY.value
                ),
                mean_latency_s=telemetry.mean_latency_s(),
                throughput_energy_per_image_j=telemetry.energy_per_image_j(
                    sla=SLAClass.THROUGHPUT.value
                ),
                total_energy_j=fleet_summary["energy_j"],
                affinity_hit_rate=fleet_summary["affinity_hit_rate"],
                memo_entries=len(memo),
                memo_hits=memo.hits,
                memo_misses=memo.misses,
                spot_checks=sum(node.spot_checks for node in nodes),
                ledger_cycles=cluster_ledger.total_cycles,
                ledger_energy_j=cluster_ledger.total_energy_j,
                ledger_conserved=conserved,
            )
    return results


# ---------------------------------------------------------------------- #
# Extension — fleet reliability under chip variation and injected faults
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetReliabilityPoint:
    """Outcome of one fault scenario on a variation-binned fleet."""

    scenario: str
    fleet: Tuple[str, ...]
    speed_grades: Tuple[str, ...]
    hazards: Tuple[float, ...]
    requests: int
    completed: int
    #: Requests that vanished (must be zero: conservation of requests).
    lost: int
    #: Requests whose dispatch raised an execution error.
    errored: int
    #: Distinct requests re-placed after admission (crash/park replay).
    replayed: int
    #: Fraction of admitted requests that needed a replay.
    replay_fraction: float
    fault_events_applied: int
    #: Scripted node-time availability over the trace span (1.0 = no
    #: downtime; crash-to-recovery windows and stalls count as down).
    scripted_availability: float
    #: Serving availability: completed over admitted requests.
    served_availability: float
    autoscaler_actions: int
    latency_requests: int
    latency_miss_rate: float
    #: Deadline-miss CDF summary: latency-class latency quantiles (s).
    latency_quantiles_s: Dict[float, float]
    mean_latency_s: float
    total_energy_j: float
    wall_s: float
    requests_per_s: float
    ledger_cycles: int
    ledger_energy_j: float
    ledger_conserved: bool


def _reliability_fault_plan(
    scenario: str, node_ids: Sequence[str], span_s: float
):
    """The scripted chaos of one named scenario, scaled to the trace span.

    Timestamps are fractions of the span so the same scenario shape holds
    from smoke-sized traces to the full 10^6-request run.
    """
    from repro.reliability import FaultEvent, FaultKind, FaultPlan

    if scenario == "baseline":
        return FaultPlan()
    if scenario == "crash":
        # The first node dies a quarter into the trace and comes back at
        # 60 % — queued work replays onto survivors (and the woken spare).
        return FaultPlan.node_crash(
            node_ids[0], at_s=0.25 * span_s, recover_at_s=0.6 * span_s
        )
    if scenario == "chaos":
        # Crash + thermal throttling + a transient stall, overlapping.
        events = [
            FaultEvent(at_s=0.25 * span_s, kind=FaultKind.CRASH, node_id=node_ids[0]),
            FaultEvent(at_s=0.6 * span_s, kind=FaultKind.RECOVER, node_id=node_ids[0]),
        ]
        if len(node_ids) > 1:
            events += [
                FaultEvent(
                    at_s=0.4 * span_s,
                    kind=FaultKind.DEGRADE,
                    node_id=node_ids[1],
                    factor=1.5,
                ),
                FaultEvent(
                    at_s=0.8 * span_s, kind=FaultKind.RESTORE, node_id=node_ids[1]
                ),
            ]
        if len(node_ids) > 2:
            events.append(
                FaultEvent(
                    at_s=0.5 * span_s,
                    kind=FaultKind.STALL,
                    node_id=node_ids[2],
                    duration_s=0.02 * span_s,
                )
            )
        return FaultPlan(events)
    raise ValueError(f"unknown reliability scenario {scenario!r}")


def fleet_reliability_study(
    scenarios: Sequence[str] = ("baseline", "crash", "chaos"),
    requests: int = 1_000_000,
    fleet_size: int = 3,
    spares: int = 1,
    num_macros: int = 16,
    image_size: int = 20,
    image_counts: Tuple[int, ...] = (32, 64, 128),
    samples: int = 1600,
    epochs: int = 6,
    load: float = 0.45,
    deadline_scale: float = 4.0,
    latency_share: float = 0.2,
    throughput_share: float = 0.5,
    bin_seed: int = 2020,
    bin_samples: int = 512,
    spot_check_every: int = 1000,
    drain_every: int = 64,
    seed: int = 13,
    execution_mode: str = "analytic",
) -> Dict[str, FleetReliabilityPoint]:
    """Serve one trace through crash/degrade scenarios on a binned fleet.

    The reliability counterpart of :func:`million_request_trace_study`: the
    fleet is built from :class:`repro.reliability.ChipBinner` variation
    bins (heterogeneous speed/energy/hazard, not nominal clones), ``spares``
    extra binned nodes start parked, and each scenario replays the *same*
    seeded trace through a scripted
    :class:`~repro.reliability.faults.FaultPlan` while a
    :class:`~repro.cluster.autoscale.ReactiveAutoscaler` observes inside
    the serving loop — a crash strands the dead node's queue, the router
    replays it onto survivors, and failure pressure wakes a spare.

    Everything runs on the cluster's virtual clock, so every scenario is
    deterministic and the two execution modes are bit-identical (ledgers,
    placements, latencies); the numbers to watch are

    * **conservation** — ``lost`` must be zero across every crash window,
    * **availability** — scripted node-time availability vs the served
      fraction (the fleet should serve through the hole),
    * **deadline-miss CDF** — how far the latency class degrades while
      capacity is out,
    * **replay overhead** — how many requests needed re-placement.

    Returns ``{scenario: FleetReliabilityPoint}``.
    """
    from repro.cluster import (
        ClusterNode,
        ClusterRouter,
        ExecutionMode,
        ForwardMemo,
        ReactiveAutoscaler,
        SLAClass,
        SLAScheduler,
        build_image_pool,
        poisson_trace,
    )
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
    from repro.reliability import ChipBinner

    mode = ExecutionMode(execution_mode)
    dataset = make_pattern_image_dataset(samples=samples, size=image_size, seed=seed)
    model_a, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(6,), epochs=epochs, seed=seed
    )
    model_b, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(6,), epochs=epochs, seed=seed + 1
    )
    models = {"model-a": model_a, "model-b": model_b}
    max_images = max(image_counts)

    bins = ChipBinner(seed=bin_seed, samples=bin_samples).bin_fleet(
        fleet_size + spares
    )

    # Deadline and rate calibration against the *slowest binned die* of the
    # fleet, so the identical trace stays inside modeled capacity even when
    # traffic concentrates on slow silicon (same discipline as the
    # million-request study's slow-rung rating).
    slowest = max(bins, key=lambda b: b.speed_factor)
    probe = ClusterNode(
        "probe",
        vdd=0.9,
        num_macros=num_macros,
        max_batch_size=max_images,
        bin=slowest,
    )
    probe.register_model("model-a", model_a)
    probe.execute("model-a", dataset.test_images[:max_images])
    warm_latencies = {
        count: probe.estimate_request(
            "model-a", dataset.test_images[:count]
        ).latency_s
        for count in image_counts
    }
    deadline_s = deadline_scale * warm_latencies[max_images]
    mean_latency = sum(warm_latencies.values()) / len(warm_latencies)
    rate_rps = load * fleet_size / mean_latency

    trace = poisson_trace(
        requests,
        rate_rps=rate_rps,
        model_ids=tuple(models),
        image_counts=image_counts,
        sla_mix={
            "latency": latency_share,
            "throughput": throughput_share,
            "best_effort": max(0.0, 1.0 - latency_share - throughput_share),
        },
        deadline_s=deadline_s,
        seed=seed,
    )
    span_s = trace.duration_s
    pool = build_image_pool(
        {model_id: dataset.test_images for model_id in models}, image_counts
    )

    results: Dict[str, FleetReliabilityPoint] = {}
    for scenario in scenarios:
        memo = ForwardMemo()
        nodes = [
            ClusterNode(
                chip_bin.chip_id,
                vdd=0.9,
                num_macros=num_macros,
                max_batch_size=max_images,
                execution_mode=mode,
                forward_memo=memo,
                spot_check_every=spot_check_every,
                bin=chip_bin,
            )
            for chip_bin in bins
        ]
        serving_ids = [node.node_id for node in nodes[:fleet_size]]
        for node in nodes[fleet_size:]:
            node.park()  # spares wait for failure/backlog pressure
        plan = _reliability_fault_plan(scenario, serving_ids, span_s)
        with ClusterRouter(nodes, scheduler=SLAScheduler(), fault_plan=plan) as router:
            autoscaler = ReactiveAutoscaler(
                router,
                min_active=1,
                wake_queue_depth=max(1, drain_every // 2),
                park_after_idle=1_000_000,  # spares park by script, not churn
            )
            for model_id, model in models.items():
                router.register_model(model_id, model)
            stats = router.replay_trace(
                trace, pool, drain_every=drain_every, autoscaler=autoscaler
            )

            telemetry = router.telemetry
            cluster_ledger = router.ledger()
            part_cycles = sum(node.ledger().total_cycles for node in nodes)
            part_energy = sum(node.ledger().total_energy_j for node in nodes)
            conserved = cluster_ledger.total_cycles == part_cycles and bool(
                np.isclose(cluster_ledger.total_energy_j, part_energy, rtol=1e-9)
            )
            completed = router.completed_requests
            lost = requests - completed - router.failed_requests - router.queue_depth()
            results[scenario] = FleetReliabilityPoint(
                scenario=scenario,
                fleet=tuple(node.node_id for node in nodes),
                speed_grades=tuple(b.speed_grade for b in bins),
                hazards=tuple(b.failure_hazard for b in bins),
                requests=requests,
                completed=completed,
                lost=lost,
                errored=router.failed_requests,
                replayed=router.replayed_requests,
                replay_fraction=router.replayed_requests / requests,
                fault_events_applied=len(router.fault_log),
                scripted_availability=plan.availability(serving_ids, span_s),
                served_availability=completed / requests if requests else 1.0,
                autoscaler_actions=len(autoscaler.actions),
                latency_requests=telemetry.request_count(
                    sla=SLAClass.LATENCY.value
                ),
                latency_miss_rate=telemetry.deadline_miss_rate(
                    sla=SLAClass.LATENCY.value
                ),
                latency_quantiles_s=telemetry.latency_quantiles_s(
                    sla=SLAClass.LATENCY.value
                ),
                mean_latency_s=telemetry.mean_latency_s(),
                total_energy_j=telemetry.total_energy_j(),
                wall_s=stats["wall_s"],
                requests_per_s=stats["requests_per_s"],
                ledger_cycles=cluster_ledger.total_cycles,
                ledger_energy_j=cluster_ledger.total_energy_j,
                ledger_conserved=conserved,
            )
    return results


# ---------------------------------------------------------------------- #
# Extension — area overhead (the 5.2 % claim of Table III)
# ---------------------------------------------------------------------- #
def area_overhead_study(
    row_options: Tuple[int, ...] = (64, 128, 256, 512),
) -> Dict[str, object]:
    """Component-level area overhead and its scaling with array height.

    Returns the per-component breakdown (bit-cell equivalents), the total
    overhead fraction for the paper's 128x128 macro, the paper's claimed
    value, and the overhead at other array heights.
    """
    from repro.analysis.area import MacroAreaModel

    model = MacroAreaModel()
    breakdown = model.breakdown()
    return {
        "components": dict(breakdown.components),
        "overhead_fraction": breakdown.overhead_fraction,
        "paper_overhead_fraction": PAPER["area_overhead_fraction"],
        "overhead_vs_rows": model.overhead_vs_geometry(row_options),
        "cell_modification_comparison": model.compare_to_cell_modification(),
    }


# ---------------------------------------------------------------------- #
# Extension — the data-movement argument of the introduction
# ---------------------------------------------------------------------- #
def data_movement_study(
    precision_bits: int = 8,
    vdd: float = 0.9,
    operations: Sequence[Opcode] = (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MULT),
) -> Dict[str, Dict[str, float]]:
    """Per-word energy/latency of processor-centric vs in-memory execution."""
    from repro.baselines.processor import ProcessorCentricBaseline

    macro = IMCMacro(MacroConfig(precision_bits=precision_bits))
    baseline = ProcessorCentricBaseline()
    results: Dict[str, Dict[str, float]] = {}
    for opcode in operations:
        parallel = (
            macro.mult_slots_per_row(precision_bits)
            if opcode is Opcode.MULT
            else macro.words_per_row(precision_bits)
        )
        results[opcode.name] = baseline.compare(
            opcode,
            precision_bits=precision_bits,
            vdd=vdd,
            imc_parallel_words=parallel,
            imc_cycle_time_s=macro.cycle_time_s(precision_bits),
        )
    return results
