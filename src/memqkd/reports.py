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
and states, bases and flags are looked up by their array codes. Floats
(mu_eff and non-integral emit times) get repr's shortest round-trip digits
from exact integer and float arithmetic on the whole block
(_shortest_digits); only what repr does not print positionally (0,
negatives, nan, inf, x < 1e-4 or x >= 1e16) and powers of two are
formatted one value at a time. write_lines writes the other files in
batches of _BATCH lines, so only one batch of lines is held at once.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

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


def _put_digits(rows: np.ndarray, values: np.ndarray) -> None:
    """Write the last len(rows) decimal digits of each value into rows, as ASCII."""
    for row in rows[::-1]:
        quotient = values // 10
        row[...] = values - quotient * 10 + ord("0")
        values = quotient


def _int_field(values: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots: each int64 as str prints it, NUL-padded on the left."""
    values = np.asarray(values, dtype=np.int64)
    # abs(-2**63) wraps to -2**63, whose uint64 view is 2**63.
    magnitude = np.abs(values).view(np.uint64)
    width = len(str(int(magnitude.max(initial=0))))
    slots = np.zeros((1 + width, len(values)), np.uint8)
    slots[0][values < 0] = ord("-")
    _put_digits(slots[1:], magnitude)
    # Leading zeros, the places above a value's highest digit, become NUL.
    slots[1:width] *= magnitude >= 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)[:, None]
    return slots.T


def _text_field(strings) -> np.ndarray:
    """(n, w) uint8 slots: each ASCII string, NUL-padded on the right."""
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: values == high + low, each with at most 26 significant bits."""
    scaled = values * (2.0**27 + 1)
    high = scaled - (scaled - values)
    return high, values - high


#: 10**e as the nearest float, e = -4 .. 16. Each is exact or rounds up, so
#: x >= _DECADES[e + 4] exactly when x >= 10**e.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
#: 10**j, j = 0 .. 20, all exact floats, and their Dekker splits.
_POW10 = np.array([float(10**j) for j in range(21)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
#: The exponent and mantissa fields of a float's bits.
_EXPONENT_BITS, _MANTISSA_BITS = 0x7FF << 52, (1 << 52) - 1


def _nearest_multiple(whole, frac, unit):
    """(distance, above) from y = whole + frac to its nearest multiple of unit.

    above: that multiple is the one above whole, not the one at or below it.
    Of two equally near, the even multiple is taken, as repr takes the even
    digit. A distance past 16 reads as about 16, which keeps every sum exact
    (see _shortest_digits).
    """
    quotient = whole // unit
    rest = whole - quotient * unit
    below = np.abs(np.minimum(rest, 16) + frac)
    above = np.minimum(unit - rest, 16) - frac
    return np.minimum(below, above), (above < below) | ((above == below) & (quotient % 2 == 1))


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, places, ok): where ok, repr(x[i]) is digits[i] / 10**places[i].

    ok holds where repr prints x positionally (1e-4 <= x < 1e16) and x is
    not a power of two, whose round-trip interval is lopsided.

    repr prints the fewest significant digits that read back as x, and of
    those the nearest to x. With e the decimal exponent of x, y = x * 10**j,
    j = 16 - e, lies in [1e16, 1e17) and is held exactly as whole + frac: an
    int64 and a float of at most 1/2, by Dekker's product. A decimal reads
    back as x when it lies within half = ulp(x) / 2 * 10**j (0.55 to 11.2)
    of y. The (17 - s)-digit decimals are the multiples of 10**s, and the
    shortest is the largest s whose nearest multiple lies that close.

    Every comparison is exact: y is a multiple of ulp(x) * 2**j >= 2**-46,
    so each distance (below 17) fits in 53 bits, and half is a power of two
    times 10**j. None lies exactly on the edge, where the parity of x would
    decide: in this range, a midpoint of two floats is either an odd integer
    above 2**53, where the integer x is nearer, or has 17 or more significant
    digits, more than any shorter decimal tried.
    """
    bits = x.view(np.int64)
    ok = (x >= 1e-4) & (x < 1e16) & (bits & _MANTISSA_BITS != 0)
    v, bits = x[ok], bits[ok]
    j = 21 - np.searchsorted(_DECADES, v, side="right")
    # y = whole + frac exactly: Dekker's product of v and 10**j.
    whole = v * _POW10[j]
    high, low = _split(v)
    ph, pl = _POW10_HIGH[j], _POW10_LOW[j]
    frac = ((high * ph - whole) + high * pl + low * ph) + low * pl
    # whole >= 1e16 is an even integral float, and frac its exact error; a
    # tie frac == 1/2 goes to the even neighbour.
    carry = np.rint(frac)
    frac -= carry
    whole = whole.astype(np.int64) + carry.astype(np.int64)
    half = ((bits & _EXPONENT_BITS) - (53 << 52)).view(np.float64) * _POW10[j]
    # 17 digits always read back (|frac| <= 1/2 < half); try fewer while
    # the nearest shorter decimal is close enough.
    shift = np.zeros(len(v), np.intp)
    rows = np.arange(len(v))
    for s in range(1, 17):
        distance, _ = _nearest_multiple(whole[rows], frac[rows], _INT_POW10[s])
        rows = rows[distance < half[rows]]
        if not len(rows):
            break
        shift[rows] = s
    rows = np.flatnonzero(shift)
    unit = _INT_POW10[shift[rows]]
    whole[rows] = whole[rows] // unit + _nearest_multiple(whole[rows], frac[rows], unit)[1]
    digits, places = np.zeros(len(x), np.int64), np.zeros(len(x), np.int64)
    digits[ok], places[ok] = whole, j - shift
    return digits, places, ok


def _float_field(values: np.ndarray, fallback: Callable[[float], str]) -> np.ndarray:
    """(n, w) uint8 slots: repr of each float64, NUL-padded.

    Digits come from _shortest_digits; the values it leaves open are
    formatted one at a time by fallback, which must agree with repr on every
    value _shortest_digits decides.
    """
    values = np.asarray(values, dtype=np.float64)
    digits, places, ok = _shortest_digits(values)
    # digits / 10**places as an integer part, a point and at least one
    # fraction digit (a lone 0 when places <= 0). digits < 10**17, so
    # 10**18 splits it as any larger power would.
    scale = _INT_POW10[np.minimum(np.abs(places), 18)]
    point = places > 0
    integer = np.where(point, digits // scale, digits * scale)
    fraction = np.where(point, digits - integer * scale, 0)
    decimals = np.maximum(places, 1)
    width = int(decimals.max(initial=1))
    slots = np.zeros((1 + width, len(values)), np.uint8)
    slots[0] = ord(".")
    _put_digits(slots[1:], fraction)
    # A value's fraction takes the last `decimals` places; the rest are NUL.
    slots[1:] *= np.arange(width, 0, -1)[:, None] <= decimals
    decided = np.hstack([_int_field(integer), slots.T])
    decided *= ok[:, None]
    text = _text_field([fallback(v) for v in values[~ok].tolist()])
    others = np.zeros((len(values), text.shape[1]), np.uint8)
    others[~ok] = text
    return np.hstack([decided, others])


def _emit_time_field(times: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots of _num of each time; _int_field prints integral ones < 2**63."""
    exact = (np.trunc(times) == times) & (np.abs(times) < 2.0**63)
    ints = _int_field(np.where(exact, times, 0).astype(np.int64)) * exact[:, None]
    # _num of a non-integral float is its repr.
    floats = _float_field(times[~exact], _num)
    others = np.zeros((len(times), floats.shape[1]), np.uint8)
    others[~exact] = floats
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
        _float_field(columns["mu_eff"], repr),
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
