"""``paper_error_pct``: the model's largest error against the paper's anchors.

Regenerates the Fig. 8 figures (maximum frequency at 1.0 V and 0.6 V,
ADD/MULT TOPS/W at 0.6 V, the five-part cycle breakdown) and the Table II
energies, and reduces them against ``repro.analysis.experiments.PAPER``
to one number: the largest relative error, in percent.
"""

from __future__ import annotations

from typing import Dict, Tuple


def relative_errors(paper: dict, sweep: dict, breakdown_ps: dict, table2: dict) -> Dict[str, float]:
    """Relative error of every regenerated figure against its anchor.

    Args:
        paper: The ``PAPER`` anchor dict.
        sweep: ``fig8_frequency_and_efficiency`` output covering 0.6 and 1.0 V.
        breakdown_ps: Fig. 8 cycle breakdown in picoseconds, by component.
        table2: ``table2_energy`` output.
    """
    def error(measured: float, anchor: float) -> float:
        return abs(measured - anchor) / abs(anchor)

    errors = {
        "fig8.f_max_1v": error(sweep[1.0]["frequency_hz"] / 1e9, paper["max_frequency_ghz_at_1v"]),
        "fig8.f_max_0p6v": error(sweep[0.6]["frequency_hz"] / 1e6, paper["frequency_mhz_at_0p6v"]),
        "fig8.add_tops_w_0p6v": error(
            sweep[0.6]["add_tops_per_watt"], paper["tops_per_watt_add_8b_0p6v"]
        ),
        "fig8.mult_tops_w_0p6v": error(
            sweep[0.6]["mult_tops_per_watt"], paper["tops_per_watt_mult_8b_0p6v"]
        ),
    }
    for component, anchor in paper["fig8_breakdown_ps"].items():
        errors[f"fig8.breakdown.{component}"] = error(breakdown_ps[component], anchor)
    for op_name, per_bits in table2.items():
        for bits, values in per_bits.items():
            errors[f"table2.{op_name}.{bits}b.with"] = error(
                values["with_separator"], values["paper_with"]
            )
            errors[f"table2.{op_name}.{bits}b.without"] = error(
                values["without_separator"], values["paper_without"]
            )
    return errors


def worst_error(errors: Dict[str, float]) -> Tuple[str, float]:
    """The figure with the largest relative error and that error in %."""
    name = max(errors, key=errors.get)
    return name, 100.0 * errors[name]


def paper_error_pct() -> Tuple[str, float, int]:
    """Regenerate the figures; returns (worst figure, its error %, figures)."""
    from repro.analysis import experiments

    sweep = experiments.fig8_frequency_and_efficiency(voltages=(0.6, 1.0))
    breakdown = experiments.fig8_breakdown().as_dict()
    errors = relative_errors(
        experiments.PAPER,
        sweep,
        {name: seconds * 1e12 for name, seconds in breakdown.items()},
        experiments.table2_energy(),
    )
    name, pct = worst_error(errors)
    return name, pct, len(errors)
