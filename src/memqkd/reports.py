"""CSV and summary emission for runs and key-rate sweeps.

All numeric formatting is locale-independent and deterministic: integers are
printed plainly, floats through repr (exact round-trip) in per-pulse output
and through fixed scientific notation (13 significant digits) in the
key-rate grids.

A run's outputs are reduced block by block (block_outputs, the reducer that
memqkd run hands to simulation.simulate_blocks): each block becomes its
pulses.csv rows, its click histogram and its tallies, so no per-pulse array
or click time outlives its block.

pulses.csv rows are laid out as one (pulses, width) byte matrix per block:
each field is a column slot padded with NUL bytes, the slots are joined by
comma and newline columns, and dropping every NUL leaves the rows. Integers
(and integral emit times below 2**63) become digits by numpy arithmetic,
and states, bases and flags are looked up by their array codes. Only
repr(mu_eff), and _num of any other emit time, is still formatted per
pulse. write_lines writes the other files in batches of _BATCH lines, so
only one batch of lines is held at once.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np

from .histogram import Histogram, bin_clicks, sbr_from_histogram
from .keyrate import KeyRateMap, classical_bound_check, fidelity_from_sbr
from .qubits import BASES, POLARIZATION_CYCLE
from .simulation import PhotonTotals, SiftedSample

PULSE_CSV_HEADER = (
    "index,emit_time_ns,state,mu_eff,bob_basis,clicks_d0,clicks_d1,"
    "leak_clicks,sifted,error"
)


def _num(value: float) -> str:
    """Integral floats print as integers, everything else as exact repr."""
    return str(int(value)) if value.is_integer() else repr(value)


#: Lines joined and written at a time by write_lines: bounds the temporary
#: strings held at once.
_BATCH = 2**14

#: ASCII code of each state, basis and flag, indexed by its array code.
_STATE_CODES = np.frombuffer("".join(p.value for p in POLARIZATION_CYCLE).encode(), np.uint8)
_BASIS_CODES = np.frombuffer("".join(b.value for b in BASES).encode(), np.uint8)
_FLAG_CODES = np.frombuffer(b"01", np.uint8)


def _int_field(values: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots: each int64 as str prints it, NUL-padded on the left."""
    values = np.asarray(values, dtype=np.int64)
    # abs(-2**63) wraps to -2**63, whose uint64 view is 2**63.
    magnitude = rest = np.abs(values).view(np.uint64)
    width = len(str(int(magnitude.max(initial=0))))
    slots = np.zeros((1 + width, len(values)), np.uint8)
    slots[0][values < 0] = ord("-")
    for place in range(width, 0, -1):
        quotient = rest // 10
        slots[place] = rest - quotient * 10 + ord("0")
        rest = quotient
    # Leading zeros, the places above a value's highest digit, become NUL.
    slots[1:width] *= magnitude >= 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)[:, None]
    return slots.T


def _text_field(strings) -> np.ndarray:
    """(n, w) uint8 slots: each ASCII string, NUL-padded on the right."""
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _emit_time_field(times: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots of _num of each time; _int_field prints integral ones < 2**63."""
    exact = (np.trunc(times) == times) & (np.abs(times) < 2.0**63)
    ints = _int_field(np.where(exact, times, 0).astype(np.int64)) * exact[:, None]
    text = _text_field(list(map(_num, times[~exact].tolist())))
    others = np.zeros((len(times), text.shape[1]), np.uint8)
    others[~exact] = text
    return np.hstack([ints, others])


def pulse_csv_rows(start: int, columns: dict, pulse_period_ns: float) -> bytes:
    """pulses.csv rows, each ending in a newline, of pulses start, start + 1, ...

    columns maps the per-pulse column names of RunResult to equal-length
    arrays; pulse i is emitted at i * pulse_period_ns. Built as one byte
    matrix (module docstring).
    """
    index = np.arange(start, start + len(columns["state"]))
    fields = (
        _int_field(index),
        _emit_time_field(index * pulse_period_ns),
        _STATE_CODES[columns["state"]][:, None],
        _text_field(list(map(repr, columns["mu_eff"].tolist()))),
        _BASIS_CODES[columns["bob_basis"]][:, None],
        _int_field(columns["c0"]),
        _int_field(columns["c1"]),
        _int_field(columns["leak_clicks"]),
        _FLAG_CODES[columns["sifted"].astype(np.intp)][:, None],
        _FLAG_CODES[columns["error"].astype(np.intp)][:, None],
    )
    comma, newline = (np.full((len(index), 1), ord(c), np.uint8) for c in ",\n")
    matrix = np.hstack([slot for field in fields for slot in (field, comma)][:-1] + [newline])
    return matrix[matrix != 0].tobytes()


def block_outputs(
    config, start: int, columns: dict, click_times: np.ndarray, photons: PhotonTotals
) -> tuple[bytes, Histogram, SiftedSample, PhotonTotals]:
    """Reduce one block of a run to (pulses.csv rows, histogram, sample, photons).

    Each of the last three adds exactly across blocks, so a run's outputs
    are the rows in block order and the sums of the rest.
    """
    analysis = config.analysis
    return (
        pulse_csv_rows(start, columns, config.source.pulse_period_ns),
        bin_clicks(click_times, analysis.bin_width_ns, analysis.window),
        SiftedSample.from_flags(columns["bob_basis"], columns["sifted"], columns["error"]),
        photons,
    )


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
    """Write each line followed by a newline, one bounded batch at a time."""
    lines = iter(lines)
    with path.open("w") as out:
        while batch := list(islice(lines, _BATCH)):
            out.write("\n".join(batch) + "\n")


def summary_text(
    config, sample: SiftedSample, photons: PhotonTotals, hist: Histogram
) -> str:
    """Plain-text key = value block with counts, error rates, and SBR.

    sample, photons and hist are the run's totals, summed over its blocks.
    """
    analysis, memory = config.analysis, config.memory
    hist_sbr = sbr_from_histogram(
        hist,
        analysis.roi_center(memory),
        memory.roi_width_ns,
        analysis.background_region,
    )
    n_pulses = config.source.n_pulses
    counting = photons.counting_sbr(n_pulses)

    def rate(value: float) -> str:
        return "n/a" if math.isnan(value) else repr(value)

    lines = [
        f"seed = {config.seed}",
        f"pulses = {n_pulses}",
        f"photons_arrived = {photons.arrived}",
        f"photons_retrieved = {photons.retrieved}",
        f"photons_leaked = {photons.leaked}",
        f"photons_lost = {photons.lost}",
        f"background_roi_counts = {photons.background_roi}",
        f"sifted_z = {sample.n_sifted_z}",
        f"sifted_x = {sample.n_sifted_x}",
        f"errors_z = {sample.n_err_z}",
        f"errors_x = {sample.n_err_x}",
        f"qber_z = {rate(sample.qber_z)}",
        f"qber_x = {rate(sample.qber_x)}",
        f"qber_mean = {rate(sample.qber_mean)}",
        f"sbr_counting = {rate(counting.sbr)}",
        f"sbr_histogram = {rate(hist_sbr.sbr)}",
    ]
    # Fidelity uses the counting ratio: its eta and q are exactly the
    # retrieved-signal and background quantities the estimator is defined on.
    if counting.sbr > 0.5 and not counting.is_infinite:
        fidelity = fidelity_from_sbr(counting.sbr)
        verdict = "pass" if classical_bound_check(fidelity) else "fail"
        lines.append(f"fidelity = {repr(fidelity)}")
        lines.append(f"classical_bound = {verdict}")
    else:
        lines.append("fidelity = n/a (sbr outside estimator validity)")
        lines.append("classical_bound = n/a")
    return "\n".join(lines) + "\n"
