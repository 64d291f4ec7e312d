"""CSV and summary emission for runs and key-rate sweeps.

All numeric formatting is locale-independent and deterministic: integers are
printed plainly, floats through repr (exact round-trip) in per-pulse output
and through fixed scientific notation (13 significant digits) in the
key-rate grids.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .histogram import Histogram, bin_clicks, sbr_from_histogram
from .keyrate import (
    KeyRateMap,
    classical_bound_check,
    fidelity_from_sbr,
)
from .qubits import BASES, POLARIZATION_CYCLE
from .simulation import RunResult

PULSE_CSV_HEADER = (
    "index,emit_time_ns,state,mu_eff,bob_basis,clicks_d0,clicks_d1,"
    "leak_clicks,sifted,error"
)


def _num(value: float) -> str:
    """Integral floats print as integers, everything else as exact repr."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def pulse_csv_lines(result: RunResult) -> list[str]:
    """Header plus one row per pulse, written column by column."""
    states = [p.value for p in POLARIZATION_CYCLE]
    bases = [b.value for b in BASES]
    columns = (
        map(str, range(len(result.state))),
        map(_num, result.emit_time_ns.tolist()),
        map(states.__getitem__, result.state.tolist()),
        map(repr, result.mu_eff.tolist()),
        map(bases.__getitem__, result.bob_basis.tolist()),
        map(str, result.c0.tolist()),
        map(str, result.c1.tolist()),
        map(str, result.leak_clicks.tolist()),
        map(str, result.sifted.view(np.int8).tolist()),
        map(str, result.error.view(np.int8).tolist()),
    )
    return [PULSE_CSV_HEADER, *map(",".join, zip(*columns))]


def histogram_csv_lines(hist: Histogram) -> Iterable[str]:
    yield "bin_start_ns,count"
    for start, count in zip(hist.bin_starts, hist.counts):
        yield f"{_num(float(start))},{int(count)}"


def keyrate_csv_lines(grid: KeyRateMap) -> Iterable[str]:
    yield "mu,qber,rate"
    for i, mu in enumerate(grid.mu_axis):
        for j, qber in enumerate(grid.qber_axis):
            yield f"{mu:.12e},{qber:.12e},{grid.rates[i, j]:.12e}"


def boundary_csv_lines(grid: KeyRateMap) -> Iterable[str]:
    yield "mu,qber_star"
    for mu, q_star in grid.boundary:
        yield f"{mu:.12e},{q_star:.12e}"


def write_lines(path: Path, lines: Iterable[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def run_histogram(result: RunResult, config) -> Histogram:
    """Time-of-arrival histogram of every click, per the analysis settings."""
    analysis = config.analysis
    return bin_clicks(result.click_times_ns, analysis.bin_width_ns, analysis.window)


def summary_text(result: RunResult, config, hist: Histogram) -> str:
    """Plain-text key = value block with counts, error rates, and SBR.

    hist is the run's histogram (run_histogram), binned once by the caller.
    """
    analysis, memory = config.analysis, config.memory
    hist_sbr = sbr_from_histogram(
        hist,
        analysis.roi_center(memory),
        memory.roi_width_ns,
        analysis.background_region,
    )
    sample = result.sample

    def rate(value: float) -> str:
        return "n/a" if math.isnan(value) else repr(value)

    lines = [
        f"seed = {result.seed}",
        f"pulses = {config.source.n_pulses}",
        f"photons_arrived = {result.n_arrived}",
        f"photons_retrieved = {result.n_retrieved}",
        f"photons_leaked = {result.n_leaked}",
        f"photons_lost = {result.n_lost}",
        f"background_roi_counts = {result.n_background_roi}",
        f"sifted_z = {sample.n_sifted_z}",
        f"sifted_x = {sample.n_sifted_x}",
        f"errors_z = {sample.n_err_z}",
        f"errors_x = {sample.n_err_x}",
        f"qber_z = {rate(sample.qber_z)}",
        f"qber_x = {rate(sample.qber_x)}",
        f"qber_mean = {rate(sample.qber_mean)}",
        f"sbr_counting = {rate(result.sbr.sbr)}",
        f"sbr_histogram = {rate(hist_sbr.sbr)}",
    ]
    # Fidelity uses the counting ratio: its eta and q are exactly the
    # retrieved-signal and background quantities the estimator is defined on.
    counting = result.sbr
    if counting.sbr > 0.5 and not counting.is_infinite:
        fidelity = fidelity_from_sbr(counting.sbr)
        verdict = "pass" if classical_bound_check(fidelity) else "fail"
        lines.append(f"fidelity = {repr(fidelity)}")
        lines.append(f"classical_bound = {verdict}")
    else:
        lines.append("fidelity = n/a (sbr outside estimator validity)")
        lines.append("classical_bound = n/a")
    return "\n".join(lines) + "\n"
