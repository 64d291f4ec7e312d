"""CSV and summary emission for runs and key-rate sweeps.

All numeric formatting is locale-independent and deterministic: integers are
printed plainly, floats through repr (exact round-trip) in per-pulse output
and through fixed scientific notation (13 significant digits) in the
key-rate grids.

A run's outputs are reduced block by block (block_outputs, the reducer that
memqkd run hands to simulation.simulate_blocks): each block becomes its
pulses.csv rows, its click histogram and its tallies, so no per-pulse array
or click time outlives its block.

pulses.csv rows are built from a table of distinct rows. The seven
small-integer columns (state, bob_basis, c0, c1, leak_clicks, sifted, error)
take few distinct value combinations (a few hundred in a single-photon
block), so they are grouped with one lexsort, each distinct combination is
formatted once, and its strings are expanded to every pulse by indexing.
Per pulse, only the index, emit_time_ns and mu_eff are formatted, and five
fields are joined. write_lines writes the other files in batches of _BATCH
lines, so only one batch of lines is held at once.
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
from .simulation import PhotonTotals, SiftedSample

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

#: Lines joined and written at a time by write_lines: bounds the temporary
#: strings held at once.
_BATCH = 2**14


def _distinct_rows(columns: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, heads, tails): each pulse's distinct-row number and, per distinct
    row, its state field and its "bob_basis,...,error" fields and newline.

    lexsort compares the key columns one by one, so no packed key can
    overflow; a sorted row starts a new distinct row wherever any key
    differs from its neighbour.
    """
    keys = [columns[name] for name in _ROW_KEYS]
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
            f"{bases[b]},{d0},{d1},{k},{int(s)},{int(e)}\n"
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


def pulse_csv_rows(start: int, columns: dict, pulse_period_ns: float) -> str:
    """pulses.csv rows, each ending in a newline, of pulses start, start + 1, ...

    columns maps the per-pulse column names of RunResult to equal-length
    arrays; pulse i is emitted at i * pulse_period_ns. Built from distinct
    rows (module docstring).
    """
    row, heads, tails = _distinct_rows(columns)
    stop = start + len(row)
    fields = (
        map(str, range(start, stop)),
        _emit_time_fields(np.arange(start, stop) * pulse_period_ns),
        heads[row],
        map(repr, columns["mu_eff"].tolist()),
        tails[row],
    )
    return "".join(map(",".join, zip(*fields)))


def block_outputs(
    config, start: int, columns: dict, click_times: np.ndarray, photons: PhotonTotals
) -> tuple[str, Histogram, SiftedSample, PhotonTotals]:
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
