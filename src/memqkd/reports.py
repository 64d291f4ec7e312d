"""CSV and summary emission for runs and key-rate sweeps.

All numeric formatting is locale-independent and deterministic: integers are
printed plainly, floats through repr (exact round-trip) in per-pulse output
and through fixed scientific notation (13 significant digits) in the
key-rate grids.

A run's outputs are reduced block by block (block_outputs, the function
memqkd run hands to simulation.map_blocks): each block is simulated, its
RunResult becomes its pulses.csv slot fields and hands on its BlockTotals,
and its per-pulse arrays are freed before its widest field, mu_eff, is
formatted. memqkd run's writer makes the block's rows from the fields and
writes them as they are made. A 2**14-pulse block peaks (traced) while its
last field, the emit times, is formatted with every other field held:
about 1,090 KiB on experiment3 and 1,140 on experiment2. mu_eff's
_shortest_digits, at most six block-length arrays of eight-byte values,
comes next (about 1,030 and 1,080), then the simulation (930).

Every CSV is laid out as (rows, width) byte matrices: each field is a
column slot padded with NUL bytes, with a sign column only where some value
has a sign. Each slice of _BATCH rows of the slots is written into one
_BATCH-row matrix between comma and newline columns, and one bytes.replace
of every NUL leaves each _SLICE rows of it as a bytes chunk (_csv_rows, a
generator), so only one slice's rows are held at a time. States, bases and
flags are looked up by their array codes.

Every number's digits are written four at a time by one kernel,
_put_digit_groups, after _shortest_digits (repr) or _sci_field (".12e")
has found a float's digits; _sci_field rounds each scaled value as a float
and needs Dekker's exact product only where that float is a tie. What is
formatted one value at a time is put among the array rows by one merge,
_merge. histogram.csv, keyrate_map.csv and keyrate_boundary.csv are made as
bytes chunks of at most _BATCH rows, which write_lines writes as they are
made, so only one chunk's matrices are held at once. keyrate_map.csv is
the outer product of its two axes, so each axis is formatted once, a chunk
is whole mu rows, and the qber slots, commas and newlines stay in place in
one matrix from chunk to chunk: only the rates are formatted per chunk, and
each row's mu and rate slots are copied in as whole items of a record view
of that matrix (keyrate_csv_lines).

The digit groups are uint32 items of a record view of the row-major slots,
looked up in _GROUP_TEXTS, whose copies with leading zeros as NUL bytes
leave no zero to mask afterwards.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .histogram import Histogram, sbr_from_histogram
from .keyrate import KeyRateMap, classical_bound_check, fidelity_from_sbr
from .simulation import BASES, STATES, BlockTotals, simulate_block

PULSE_CSV_HEADER = (
    "index,emit_time_ns,state,mu_eff,bob_basis,clicks_d0,clicks_d1,"
    "leak_clicks,sifted,error"
)


def _num(value: float) -> str:
    """Integral floats print as integers, everything else as exact repr."""
    return str(int(value)) if value.is_integer() else repr(value)


#: Rows per bytes chunk of every CSV. It bounds the slot matrices of the
#: histogram and key-rate files held at once, the byte matrix rows are
#: written into, and the copy that drops its NUL padding. On a 2-core host,
#: with bytes.replace dropping the padding, a 400x400 keyrate_map.csv took
#: 24.9, 26.9 and 26.1 ms at 2**12, 2**13 and 2**14 rows (medians of ten
#: alternating rounds that spread over 17-30 ms), at tracemalloc peaks of
#: 700, 1,379 and 2,737 KiB. While bytes.translate dropped it, 2**14 rows
#: wrote 20-29% fewer sweep cells/s and ran experiment2 4-12% fewer pulses/s.
_BATCH = 2**12

#: Rows per bytes chunk _csv_rows hands on: each of a _BATCH-row matrix's
#: slices of this many rows is copied out and its NUL padding dropped as the
#: chunk is asked for, so only one slice's two copies are held at a time.
#: A module constant, not a fraction of _BATCH, which tests patch down to 1.
_SLICE = 2**10

#: ASCII code of each state, basis and flag, indexed by its array code.
_STATE_CODES = np.frombuffer("".join(letter for letter, _, _ in STATES).encode(), np.uint8)
_BASIS_CODES = np.frombuffer("".join(BASES).encode(), np.uint8)
_FLAG_CODES = np.frombuffer(b"01", np.uint8)

#: The ASCII digits of 00 .. 99 as uint16, in the byte order of their text.
_DIGIT_PAIRS = (
    (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint16)
)
#: The texts of 0000 .. 9999 as uint32 in the byte order of their text,
#: then twice with their leading zeros as NUL bytes: 0 is all NUL in the
#: first of these lead copies, "0" in the second, the units copy. A group is
#: looked up in a copy where no digit of its value lies above it, the units
#: copy for the units group.
_GROUP_TEXTS = np.concatenate(
    [np.stack(np.broadcast_arrays(_DIGIT_PAIRS, _DIGIT_PAIRS.T), -1).view(np.uint32).ravel()] * 3
)
_LEAD_TEXTS = _GROUP_TEXTS[10**4 :].view(np.uint8).reshape(2, 10**4, 4)
_LEAD_TEXTS *= np.arange(10**4)[:, None] >= [1000, 100, 10, 1]
_LEAD_TEXTS[1, 0, 3] = ord("0")
del _LEAD_TEXTS


def _put_digit_groups(
    groups: np.ndarray, values: np.ndarray, lead: bool = False, overwrite: bool = False
) -> np.ndarray:
    """Write the last 4 * k digits of values[i] into row i of the (n, k) uint32
    groups, as _GROUP_TEXTS texts; return the quotient left above them.

    With lead, the places above values[i]'s highest digit are NUL, but the
    units digit of 0 stays. values itself is written only with overwrite;
    two int64 arrays, three without overwrite from the second group on,
    serve every group.
    """
    free = rest = None
    # A group with no digit above it is looked up in a lead copy: the units
    # copy for the units group, the last one, which is written first.
    lead_copy = 2 * 10**4
    for k in range(groups.shape[1] - 1, -1, -1):
        # Division by a scalar is much faster than np.remainder or np.divmod.
        quotient = np.floor_divide(values, 10**4, out=free)
        rest = np.multiply(quotient, 10**4, out=rest)
        np.subtract(values, rest, out=rest)
        if lead:
            np.add(rest, lead_copy, out=rest, where=quotient == 0)
        groups[:, k] = _GROUP_TEXTS[rest]
        free = values if overwrite else None
        values, overwrite, lead_copy = quotient, True, 10**4
    return values


def _put_digits(
    slots: np.ndarray, values: np.ndarray, lead: bool = True, overwrite: bool = False
) -> None:
    """Write the last w digits of each value, values < 10**w, into the (n, w)
    uint8 slots, whose rows are contiguous; with lead, its places above the
    highest digit are NUL (0 prints as "0").

    The groups below the top one are written through a record view of the
    slots, as uint32 items; the top one holds the last 1 to 4 places.
    overwrite: values may be overwritten.
    """
    n, w = slots.shape
    full = (w - 1) // 4
    top = values
    if full:
        record = {"names": ["groups"], "formats": [(np.uint32, full)], "offsets": [w - 4 * full]}
        groups = slots.view({**record, "itemsize": w})[:, 0]["groups"]
        top = _put_digit_groups(groups, values, lead, overwrite)
    # What is left is below 10**4: one gather, no division. With lead it is
    # looked up in a lead copy, the units copy when it is the only group.
    texts = _GROUP_TEXTS[(10**4 if full else 2 * 10**4) if lead else 0 :]
    slots[:, : w - 4 * full] = texts[top].view(np.uint8).reshape(n, 4)[:, 4 * full - w :]


def _merge(ok: np.ndarray, decided: np.ndarray, others: Callable) -> np.ndarray:
    """(n, w) uint8 slots: decided's rows where ok, in order, and others()' elsewhere.

    decided holds the slots of the ok rows; others() makes those of the
    rest and is called only when some row is not ok.
    """
    if len(decided) == len(ok):
        return decided
    others = others()
    field = np.zeros((len(ok), max(decided.shape[1], others.shape[1])), np.uint8)
    field[ok, : decided.shape[1]] = decided
    field[~ok, : others.shape[1]] = others
    return field


def _int_field(values: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """(n, w) uint8 slots: each int64 as str prints it, NUL-padded on the left;
    the sign column is there only when some value is negative.

    overwrite: values, when int64, may be overwritten.
    """
    values = np.asarray(values, dtype=np.int64)
    signed = int(values.min(initial=0) < 0)
    magnitude = values
    if signed:
        magnitude, overwrite = np.abs(values), True
        if magnitude.min() < 0:
            # abs(-2**63) wraps to -2**63, whose uint64 view is 2**63. Only
            # then are the digit groups, which index _GROUP_TEXTS, cast to intp.
            magnitude = magnitude.view(np.uint64)
    width = len(str(int(magnitude.max(initial=0))))
    slots = np.empty((len(values), signed + width), np.uint8)
    if signed:
        slots[:, 0] = (values < 0) * np.uint8(ord("-"))
    _put_digits(slots[:, signed:], magnitude, overwrite=overwrite)
    return slots


def _text_field(strings) -> np.ndarray:
    """(n, w) uint8 slots: each ASCII string, NUL-padded on the right."""
    text = np.array(strings, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: values == high + low, each with at most 26 significant bits."""
    # scaled = values * (2**27 + 1), high = scaled - (scaled - values) and
    # low = values - high, in two arrays.
    high = values * (2.0**27 + 1)
    low = np.subtract(high, values)
    high -= low
    return high, np.subtract(values, high, out=low)


def _least_float_from(e: int) -> float:
    """The least float >= 10**e."""
    t = float(f"1e{e}")
    p, q = t.as_integer_ratio()
    # t = p / q < 10**e, compared as integers.
    if p * 10 ** max(-e, 0) < q * 10 ** max(e, 0):
        t = math.nextafter(t, math.inf)
    return t


#: The least float >= 10**e, e = _DECADE_MIN .. 16, so x >= _DECADES[k]
#: exactly when x >= 10**(k + _DECADE_MIN). Most are the nearest float to
#: 10**e, but those to 1e-7 and 1e-6 lie below it.
_DECADE_MIN = -10
_DECADES = np.array([_least_float_from(e) for e in range(_DECADE_MIN, 17)])
#: 10**j, j = 0 .. 22, all exact floats, and their Dekker splits.
_POW10 = np.array([float(10**j) for j in range(23)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
#: The exponent and mantissa fields of a float's bits.
_EXPONENT_BITS, _MANTISSA_BITS = 0x7FF << 52, (1 << 52) - 1


#: floor(e * log10(2)), the decimal exponent of 2**e, for each biased binary
#: exponent e + 1023, as an index into _DECADES. The floats of exponent e lie
#: in [2**e, 2**(e + 1)), which holds at most one power of ten, so theirs is
#: this decade or the next. Clipped to 0 .. len(_DECADES) - 2 so that the
#: next is in _DECADES too, which changes no result in [1e-10, 1e17).
_BINARY_DECADES = np.clip(
    np.floor((np.arange(2048) - 1023) * np.log10(2)) - _DECADE_MIN, 0, len(_DECADES) - 2
).astype(np.intp)
#: _BINARY_DECADES as exponents of ten, and the least float of the next decade.
_BINARY_EXPONENTS = _BINARY_DECADES + _DECADE_MIN
_NEXT_DECADES = _DECADES[_BINARY_DECADES + 1]


def _decimal_exponent(x: np.ndarray) -> np.ndarray:
    """floor(log10(x)), exactly, of each x in [1e-10, 1e17)."""
    b = x.view(np.int64) >> 52
    e = _BINARY_EXPONENTS[b]
    e += x >= _NEXT_DECADES[b]
    return e


def _times_pow10(v: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(whole, frac): whole + frac == v * 10**j exactly, by Dekker's product.

    whole is the rounded float product and frac its exact error; j indexes
    _POW10, whose entries are exact.
    """
    whole = _POW10[j]
    whole *= v
    high, low = _split(v)
    # frac = ((high * ph - whole) + high * pl + low * ph) + low * pl, in
    # place, with ph and pl the splits of 10**j; one array holds pl, and
    # high's array ph once high * pl is added. (np.take's default mode
    # copies out; j is in range.)
    frac = _POW10_HIGH[j]
    frac *= high
    frac -= whole
    pl = _POW10_LOW[j]
    frac += np.multiply(high, pl, out=high)
    frac += np.multiply(low, np.take(_POW10_HIGH, j, out=high, mode="clip"), out=high)
    frac += np.multiply(low, pl, out=low)
    return whole, frac


def _as_int64(values: np.ndarray) -> np.ndarray:
    """values, a float64 array of integers below 2**63 in magnitude, as int64
    in values' own array, which it overwrites."""
    ints = values.view(np.int64)
    np.copyto(ints, values, casting="unsafe")
    return ints


def _nearest_multiple_of_10(whole, frac):
    """k such that 10 * k is the multiple of 10 nearest y = whole + frac.

    Of two equally near, the even multiple is taken, as repr takes the even
    digit. Both distances, below 10 plus or minus frac, are exact sums (see
    _shortest_digits). whole is overwritten.
    """
    quotient = whole // 10
    rest = np.subtract(whole, quotient * 10, out=whole)
    below = np.abs(rest + frac)
    above = np.subtract(10, rest, out=rest) - frac
    quotient += (above < below) | ((above == below) & ((quotient & 1) == 1))
    return quotient


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, places, ok): repr(x[ok][i]) is digits[i] / 10**places[i].

    digits (int64) and places (int8) cover the ok rows only, in order. ok
    holds where repr prints x positionally (1e-4 <= x < 1e16) and x is not a
    power of two, whose round-trip interval is lopsided.

    repr prints the fewest significant digits that read back as x, and of
    those the nearest to x. With e the decimal exponent of x, y = x * 10**j,
    j = 16 - e, lies in [1e16, 1e17) and is held exactly as whole + frac: an
    int64 and a float of at most 1/2, by Dekker's product. A decimal reads
    back as x when it lies within half = ulp(x) / 2 * 10**j (0.55 to 11.2)
    of y. The (17 - s)-digit decimals are the multiples of 10**s, and the
    shortest is the largest s (at most 16) of which a multiple lies that
    close.

    No search is needed. The integers that close to y are the `room` (1 to
    23) integers up to b = whole + floor(frac + half), and the largest
    multiple of 10**s among them is b - b % 10**s, so one lies among them
    exactly when b % 10**s < room. That decides s >= 1 and s >= 2. Fewer
    than 100 integers hold at most one multiple of 100, so when s >= 2 that
    one, 100 * (b // 100), is the only candidate and the nearest to y: s
    counts its trailing zeros, found in four halving steps, and its digits
    are b // 100 with them dropped. Only at s = 1 is the nearest of up to
    three multiples of 10 sought (_nearest_multiple_of_10).

    Every comparison is exact: y is a multiple of ulp(x) * 2**j >= 2**-46,
    so frac +- half (below 12) fits in 53 bits, and half is a power of two
    times 10**j. No decimal shorter than 17 digits lies exactly at half
    from y, where the parity of x would decide: in this range, a midpoint of
    two floats is either an odd integer above 2**53, where the integer x is
    nearer, or has 17 or more significant digits. So whether b or the
    lowest integer counted lies at exactly half does not change the answer.

    At most six arrays of len(x) eight-byte values are held at once (those
    of _times_pow10); each is freed or reused after its last use.
    """
    bits = x.view(np.int64)
    ok = (x >= 1e-4) & (x < 1e16) & (bits & _MANTISSA_BITS != 0)
    if not ok.all():
        x = x[ok]
        bits = x.view(np.int64)
    j = _decimal_exponent(x)
    np.subtract(16, j, out=j)
    whole, frac = _times_pow10(x, j)
    # whole >= 1e16 is an even integral float, and frac its exact error; a
    # tie frac == 1/2 goes to the even neighbour.
    carry = np.rint(frac)
    frac -= carry
    whole = _as_int64(whole)
    whole += _as_int64(carry)
    # Below, carry's array is reused for 10**j and then top, and half's for
    # frac - half and then room.
    half = np.bitwise_and(bits, _EXPONENT_BITS)
    half -= 53 << 52
    half = half.view(np.float64)
    half *= np.take(_POW10, j, out=carry, mode="clip")
    places = j.astype(np.int8)
    del j
    # 17 digits always read back (|frac| <= 1/2 < half, so room >= 1).
    top = np.floor(np.add(frac, half, out=carry), out=carry)
    room = np.subtract(top, np.ceil(np.subtract(frac, half, out=half), out=half), out=half)
    room += 1
    room = room.astype(np.int8)
    del half
    b = _as_int64(top)
    b += whole
    del top, carry
    # s >= 2 on the rows where b % 100 < room, s >= 1 where b % 10 < room
    # (both remainders and room fit in int8).
    hundreds = b // 100
    b -= hundreds * 100
    last = b.astype(np.int8)
    del b
    rows = np.flatnonzero(last < room)
    hundreds = hundreds[rows]
    shift = np.less(np.remainder(last, 10, out=last), room, out=last)
    del room
    # There s is 2 plus the trailing zeros of hundreds, which the digits drop.
    s = np.full(len(rows), 2, np.int8)
    for p in (8, 4, 2, 1):
        quotient = hundreds // 10**p
        exact = quotient * 10**p == hundreds
        np.copyto(hundreds, quotient, where=exact)
        np.add(s, p, out=s, where=exact)
    shift[rows] = s
    whole[rows] = hundreds
    del rows, hundreds, s, quotient, exact
    rows = np.flatnonzero(shift == 1)
    whole[rows] = _nearest_multiple_of_10(whole[rows], frac[rows])
    return whole, np.subtract(places, shift, out=places), ok


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
    scale = _INT_POW10[np.clip(places, 0, 18)]
    integer = digits // scale
    fraction = np.subtract(digits, np.multiply(integer, scale, out=scale), out=digits)
    del scale
    # places < 0: the value is the integer digits * 10**-places (< 1e16).
    integral = places < 0
    if integral.any():
        integer[integral] *= _INT_POW10[-places[integral]]
    decimals = np.maximum(places, 1, out=places)
    width = int(decimals.max(initial=1))
    # One slot array: the integer digits, the point and the fraction. The
    # decided values are at least 1e-4, so no integer part is negative.
    # The integer part's leading zeros are NUL; its units digit stays.
    point = len(str(int(integer.max(initial=0))))
    slots = np.empty((len(fraction), point + 1 + width), np.uint8)
    _put_digits(slots[:, :point], integer, overwrite=True)
    del integer
    slots[:, point] = ord(".")
    _put_digits(slots[:, point + 1 :], fraction, lead=False, overwrite=True)
    del fraction
    # A value's fraction takes the last `decimals` places; the rest are NUL
    # (none of the last min(decimals)).
    for place in range(width - int(decimals.min(initial=width))):
        slots[:, point + 1 + place] *= decimals >= width - place
    del places, decimals
    return _merge(ok, slots, lambda: _text_field([fallback(v) for v in values[~ok].tolist()]))


def _num_field(values: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots of _num of each float; _int_field prints integral ones < 2**63.

    values is overwritten: when every value is integral, their int64 values
    are made in values' own array, not in a copy.
    """
    scratch = np.trunc(values)
    exact = scratch == values
    exact &= np.abs(values, out=scratch) < 2.0**63
    del scratch
    if exact.all():
        return _int_field(_as_int64(values), overwrite=True)
    ints = _int_field(_as_int64(values[exact]), overwrite=True)
    # _num of a non-integral float is its repr.
    return _merge(exact, ints, lambda: _float_field(values[~exact], _num))


#: A positional _sci_field slot, row-major at fixed offsets: sign, lead
#: digit, point, the other twelve digits as three groups of four and the
#: exponent text, e.g. "-", "1", ".", "2345", "6789", "0123", "e-07".
_SCI_SLOT = np.dtype(
    {
        "names": ["sign", "lead", "point", "groups", "exponent"],
        "formats": [np.uint8, np.uint8, np.uint8, (np.uint32, 3), np.uint32],
        "offsets": [0, 1, 2, 3, 15],
        "itemsize": 19,
    }
)
#: The exponent text "e-10" .. "e+13" of _sci_field's positional slots.
_EXPONENT_TEXT = np.array([b"e%+03d" % e for e in range(_DECADE_MIN, 14)]).view(np.uint32)


def _sci_field(values: np.ndarray) -> np.ndarray:
    """(n, w) uint8 slots: format(v, ".12e") of each float64, NUL-padded.

    format prints the 13 significant digits of |v| rounded half-even on
    its exact value. With e the decimal exponent of |v|, y = |v| * 10**(12 - e)
    lies in [1e12, 1e13), and 10**(12 - e) is an exact float while
    1e-10 <= |v| < 1e13. y is rounded to the float whole and whole to the
    nearest integer; only where whole lies halfway between two integers
    does Dekker's product give y's exact error from whole, which decides
    the rounding there. _put_digit_groups writes the last twelve digits
    into _SCI_SLOT rows in place and leaves the lead digit; the exponent is
    one lookup in _EXPONENT_TEXT. Values outside that range, zeros, nan and
    inf are formatted one at a time. The sign column is dropped when no
    value has its sign bit set.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    ok = (magnitude >= _DECADES[0]) & (magnitude < _POW10[13])
    v, kept = (magnitude, values) if ok.all() else (magnitude[ok], values[ok])
    e = _decimal_exponent(v)
    whole = v * _POW10[12 - e]
    # whole - n is exact and at most 1/2, and y's error from whole at most
    # half an ulp of whole, so only a tie in whole can round the other way:
    # y lies beyond it when the exact error frac points away from n, and a
    # true tie keeps rint's even n. So frac is taken at the ties only.
    n = np.rint(whole)
    ties = np.flatnonzero(np.abs(whole - n) == 0.5)
    off = whole[ties] - n[ties]
    _, frac = _times_pow10(v[ties], 12 - e[ties])
    n[ties] += np.sign(off) * (np.sign(frac) == np.sign(off))
    carry = n == _POW10[13]
    if carry.any():
        n[carry] = _POW10[12]
        e += carry
    n = n.astype(np.int64)
    slots = np.empty(len(v), _SCI_SLOT)
    slots["sign"] = (kept < 0) * ord("-")
    slots["point"] = ord(".")
    slots["lead"] = _put_digit_groups(slots["groups"], n, overwrite=True) + ord("0")
    slots["exponent"] = _EXPONENT_TEXT[e - _DECADE_MIN]
    slots = slots.view(np.uint8).reshape(len(v), _SCI_SLOT.itemsize)

    def others():
        # These keep the sign slot too: format's " " sign is written as NUL.
        return _text_field([format(x, " .12e").replace(" ", "\0") for x in values[~ok].tolist()])

    field = _merge(ok, slots, others)
    return field if np.signbit(values).any() else field[:, 1:]


def _csv_rows(fields) -> Iterator[bytes]:
    """The rows of (n, w) slot fields, comma-separated, each ending in a newline,
    as bytes chunks of at most _SLICE rows, each made when it is asked for.

    Each _BATCH-row slice of the fields is written into the same byte
    matrix between comma and newline columns, and one bytes.replace of every
    NUL leaves each _SLICE rows of it. A matrix of every row (0.8 MB on a
    2**14-pulse experiment3 block) needed a free region that large for each
    block, and grew the heap in some warm calls when glibc had none left.
    """
    # Each field's first column; a comma or, last, a newline follows it.
    columns = np.cumsum([0] + [field.shape[1] + 1 for field in fields])
    n = len(fields[0])
    matrix = np.full((min(n, _BATCH), columns[-1]), ord(","), np.uint8)
    matrix[:, -1] = ord("\n")
    for start in range(0, n, _BATCH):
        rows = matrix[: n - start]
        for field, column in zip(fields, columns):
            rows[:, column : column + field.shape[1]] = field[start : start + _BATCH]
        for first in range(0, len(rows), _SLICE):
            yield rows[first : first + _SLICE].tobytes().replace(b"\0", b"")


def block_outputs(config, block: int) -> tuple[list[np.ndarray], BlockTotals]:
    """Simulate block `block` of a run and reduce it to (pulses.csv fields,
    totals): the (n, w) slot fields of its rows in column order, whose rows
    _csv_rows makes, numbered from the block's first pulse, and the totals,
    which add exactly across blocks.

    The block's RunResult is made and held here only. Its narrow fields are
    formatted first; then it is dropped, so its other per-pulse arrays are
    freed before mu_eff, whose formatting needs the most memory, is
    formatted. The row indices come last, dropped once their field and the
    emit times are made.
    """
    start, result = simulate_block(config, block)
    fields = [
        None,  # index, made last
        None,  # emit_time_ns, made last
        _STATE_CODES[result.state][:, None],
        None,  # mu_eff, made once the RunResult is dropped
        _BASIS_CODES[result.bob_basis][:, None],
        _int_field(result.c0),
        _int_field(result.c1),
        _int_field(result.leak_clicks),
        _FLAG_CODES[result.sifted.astype(np.intp)][:, None],
        _FLAG_CODES[result.error.astype(np.intp)][:, None],
    ]
    mu_eff, totals = result.mu_eff, result.totals
    del result
    fields[3] = _float_field(mu_eff, repr)
    del mu_eff
    index = np.arange(start, start + len(fields[2]))
    fields[0] = _int_field(index)
    emit_times = index * config.source.pulse_period_ns
    del index
    # Their int64 values are made in the emit times' own array.
    fields[1] = _num_field(emit_times)
    return fields, totals


def _csv_chunks(header: str, n: int, fields_of: Callable) -> Iterator[bytes]:
    """The header line, then rows 0 .. n - 1, _BATCH rows per bytes chunk.

    fields_of(rows) gives the slot fields of an array of row numbers.
    """
    yield header.encode() + b"\n"
    for start in range(0, n, _BATCH):
        yield from _csv_rows(fields_of(np.arange(start, min(start + _BATCH, n))))


def histogram_csv_lines(hist: Histogram) -> Iterator[bytes]:
    starts = hist.bin_starts

    def fields(rows):
        return _num_field(starts[rows]), _int_field(hist.counts[rows])

    yield from _csv_chunks("bin_start_ns,count", len(starts), fields)


def keyrate_csv_lines(grid: KeyRateMap) -> Iterator[bytes]:
    """The header line, then one row per cell of the row-major rates.

    A chunk is max(1, _BATCH // cols) whole mu rows, or _BATCH cells of one
    row when a row holds more. Its rows are a (mu rows, cells, width) byte
    matrix whose commas, newlines and qber slots are written only when the
    rate width or the chunk's cells change; per chunk, only the rates are
    formatted, and each mu slot is broadcast over its row. Both are copied
    through a record view of the matrix, one record per row, so that each
    slot is one item of the copy.
    """
    mu, qber = _sci_field(grid.mu_axis), _sci_field(grid.qber_axis)
    rows, cols = grid.rates.shape
    per, span = max(1, _BATCH // cols), min(cols, _BATCH)
    # The first column of the qber and rate slots.
    q0 = mu.shape[1] + 1
    r0 = q0 + qber.shape[1] + 1
    yield b"mu,qber,rate\n"
    mu_slots = mu.view(f"V{q0 - 1}")[:, 0]
    matrix, placed = np.empty((0, 0, 0), np.uint8), None
    for r in range(0, rows, per):
        for c in range(0, cols, span):
            rate = _sci_field(grid.rates[r : r + per, c : c + span].ravel())
            rate_slots = rate.view(f"V{rate.shape[1]}")[:, 0]
            if matrix.shape[2] != r0 + rate.shape[1] + 1:
                # A chunk's rate field is 18 bytes, 19 with a sign column,
                # and one more where format prints a three-digit exponent.
                matrix = np.empty((per, span, r0 + rate.shape[1] + 1), np.uint8)
                matrix[..., [q0 - 1, r0 - 1]] = ord(",")
                matrix[..., -1] = ord("\n")
                # One record per row, its mu and rate slots as fields.
                records = matrix.view(
                    {
                        "names": ["mu", "rate"],
                        "formats": [mu_slots.dtype, rate_slots.dtype],
                        "offsets": [0, r0],
                        "itemsize": matrix.shape[2],
                    }
                )[..., 0]
                placed = None
            block = matrix[: min(per, rows - r), : min(span, cols - c)]
            if placed != c:
                matrix[:, : block.shape[1], q0 : r0 - 1] = qber[c : c + span]
                placed = c
            cells = records[: block.shape[0], : block.shape[1]]
            cells["mu"] = mu_slots[r : r + per, None]
            cells["rate"] = rate_slots.reshape(block.shape[:2])
            # Not held through the two copies of the matrix below.
            del rate, rate_slots
            yield block.tobytes().replace(b"\0", b"")


def boundary_csv_lines(grid: KeyRateMap) -> Iterator[bytes]:
    # One row per mu with a positive region.
    found = ~np.isnan(grid.q_star)
    mu, q_star = grid.mu_axis[found], grid.q_star[found]

    def fields(rows):
        return _sci_field(mu[rows]), _sci_field(q_star[rows])

    yield from _csv_chunks("mu,qber_star", len(mu), fields)


def write_lines(path: Path, chunks: Iterable[bytes]) -> None:
    """Write each bytes chunk in turn, as the chunks are made."""
    with path.open("wb") as out:
        out.writelines(chunks)


def summary_text(config, totals: BlockTotals, histogram: Histogram) -> str:
    """Plain-text key = value block with counts, error rates, and SBR.

    totals (summed over the blocks) and histogram (drawn from them) are the run's.
    """
    memory = config.memory
    sample, photons = totals.sample, totals.photons
    hist_sbr = sbr_from_histogram(
        histogram,
        memory.retrieval_delay_ns,
        memory.roi_width_ns,
        config.analysis.background_region,
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
        f"sbr_counting = {rate(counting)}",
        f"sbr_histogram = {rate(hist_sbr)}",
    ]
    # Fidelity uses the counting ratio: it is taken of exactly the
    # retrieved-signal and background counts the estimator is defined on.
    if 0.5 < counting < math.inf:
        fidelity = fidelity_from_sbr(counting)
        verdict = "pass" if classical_bound_check(fidelity) else "fail"
        lines.append(f"fidelity = {repr(fidelity)}")
        lines.append(f"classical_bound = {verdict}")
    else:
        lines.append("fidelity = n/a (sbr outside estimator validity)")
        lines.append("classical_bound = n/a")
    return "\n".join(lines) + "\n"
