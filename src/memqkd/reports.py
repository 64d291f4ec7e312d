"""CSV and summary emission for runs and key-rate sweeps.

All numeric formatting is locale-independent and deterministic: integers are
printed plainly, floats through repr (exact round-trip) in per-pulse output
and through fixed scientific notation (13 significant digits) in the
key-rate grids.

pulses.csv is built from a table of distinct rows. The seven small-integer
columns (state, bob_basis, c0, c1, leak_clicks, sifted, error) take few
distinct value combinations (a few hundred in a single-photon run), so they
are grouped with one lexsort, each distinct combination is formatted once,
and its strings are expanded to every pulse by indexing. Per pulse, only the
index, emit_time_ns and mu_eff are formatted, and five fields are joined.
Rows are formatted, and every file written, in batches of _BATCH lines, so
the temporary strings and numbers of a batch are all that is held beside the
lines themselves.
"""

from __future__ import annotations

import math
from itertools import islice
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


#: The small-integer pulse columns, in CSV order, that distinct rows group.
_ROW_KEYS = ("state", "bob_basis", "c0", "c1", "leak_clicks", "sifted", "error")

#: Rows formatted, or lines joined and written, at a time: bounds the
#: temporary objects held at once. Of 2**10, 2**12, 2**14 and one batch for
#: all rows, 2**14 gave the lowest peak memory on a bright 2.5e4-pulse run.
_BATCH = 2**14


def _distinct_rows(result: RunResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, heads, tails): each pulse's distinct-row number and, per distinct
    row, its state field and its "bob_basis,...,error" fields.

    lexsort compares the key columns one by one, so no packed key can
    overflow; a sorted row starts a new distinct row wherever any key
    differs from its neighbour.
    """
    keys = [getattr(result, name) for name in _ROW_KEYS]
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    row = np.empty(len(order), dtype=np.intp)
    row[order] = np.cumsum(starts) - 1

    states = [p.value for p in POLARIZATION_CYCLE]
    bases = [b.value for b in BASES]
    state, bob_basis, c0, c1, leak, sifted, error = (
        key[order[starts]].tolist() for key in keys
    )
    heads = np.array([states[s] for s in state], dtype=object)
    tails = np.array(
        [
            f"{bases[b]},{d0},{d1},{k},{int(s)},{int(e)}"
            for b, d0, d1, k, s, e in zip(bob_basis, c0, c1, leak, sifted, error)
        ],
        dtype=object,
    )
    return row, heads, tails


def _emit_time_fields(times: np.ndarray) -> Iterable[str]:
    """_num of every time; int64 prints the integral ones below 2**63.

    Every preset's emit times are integral, and there this is about twice as
    fast as _num per time; on all non-integral times it is about 12% slower.
    """
    exact = (np.trunc(times) == times) & (np.abs(times) < 2.0**63)
    fields = np.where(exact, times, 0).astype(np.int64).astype(object)
    others = ~exact
    fields[others] = list(map(_num, times[others].tolist()))
    return map(str, fields)


def pulse_csv_lines(result: RunResult) -> list[str]:
    """Header plus one row per pulse, built from distinct rows (module docstring)."""
    row, heads, tails = _distinct_rows(result)
    lines = [PULSE_CSV_HEADER]
    for start in range(0, len(row), _BATCH):
        pulses = slice(start, start + _BATCH)
        batch_row = row[pulses]
        fields = (
            map(str, range(start, start + len(batch_row))),
            _emit_time_fields(result.emit_time_ns[pulses]),
            heads[batch_row],
            map(repr, result.mu_eff[pulses].tolist()),
            tails[batch_row],
        )
        lines += map(",".join, zip(*fields))
    return lines


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
