import dataclasses
import math
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from memqkd import cli, reports, simulation
from memqkd.config import MAX_BINS, SourceMode
from memqkd.presets import preset_config
from memqkd.histogram import Histogram
from memqkd.keyrate import key_rate_map
from memqkd.reports import (
    _BINARY_DECADES,
    _DECADE_MIN,
    _DECADES,
    _EXPONENT_TEXT,
    _GROUP_TEXTS,
    _csv_rows,
    _decimal_exponent,
    _float_field,
    _int_field,
    _num,
    _num_field,
    _sci_field,
    block_outputs,
    boundary_csv_lines,
    histogram_csv_lines,
    keyrate_csv_lines,
    write_lines,
)
from memqkd.simulation import BLOCK_PULSES, map_blocks, run_experiment, simulate_block

def _row_wise_rows(start, block, period):
    """Reference: pulses.csv rows formatted one row and one field at a time."""
    return "".join(
        ",".join(
            (
                str(start + i),
                _num((start + i) * period),
                "HVDA"[block.state[i]],
                repr(float(block.mu_eff[i])),
                "ZX"[block.bob_basis[i]],
                str(int(block.c0[i])),
                str(int(block.c1[i])),
                str(int(block.leak_clicks[i])),
                str(int(block.sifted[i])),
                str(int(block.error[i])),
            )
        )
        + "\n"
        for i in range(len(block.state))
    )


def _lines(text):
    # Compared as lists: pytest's report for two unequal multi-megabyte
    # strings is a line diff that takes minutes. _csv_rows yields ASCII
    # bytes chunks.
    if not isinstance(text, (str, bytes)):
        text = b"".join(text)
    if isinstance(text, bytes):
        text = text.decode("ascii")
    return text.split("\n")


def _block_fields(start, block, period):
    """block_outputs' pulses.csv fields of a given RunResult, numbered from start."""
    config = SimpleNamespace(source=SimpleNamespace(pulse_period_ns=period))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "simulate_block", lambda config, block_index: (start, block))
        fields, _ = block_outputs(config, 0)
    return fields


def _write_to_nothing(block):
    """memqkd run's write of a reduced block, into a sink that keeps no row:
    each chunk is made, written and dropped before the next is made."""
    return cli._write_rows(SimpleNamespace(writelines=partial(deque, maxlen=0)), block)


def _slots(matrix):
    """Each row of a NUL-padded slot matrix, NULs dropped, as text."""
    assert matrix.dtype == np.uint8
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


#: One full block and a partial one.
PULSES = 3 * BLOCK_PULSES // 2


def _config(preset="experiment3", n_pulses=PULSES, **source):
    config = preset_config(preset, n_pulses=n_pulses, seed=19)
    return dataclasses.replace(config, source=dataclasses.replace(config.source, **source))


def _run(preset="experiment3", n_pulses=PULSES, **source):
    """(result, pulse period) of a run."""
    config = _config(preset, n_pulses, **source)
    return run_experiment(config), config.source.pulse_period_ns


def _zero_mu_run():
    # A turbulent gain with relative spread 3 is truncated at 0 on about a
    # third of the pulses, so mu_eff is exactly 0.0 there.
    config = _config()
    config = dataclasses.replace(
        config, channel=dataclasses.replace(config.channel, rel_fluctuation=3.0)
    )
    return run_experiment(config), config.source.pulse_period_ns


def _huge_clicks_run():
    result, period = _run(n_pulses=500)
    result = dataclasses.replace(
        result,
        c0=result.c0 + 2**40,
        c1=result.c1 + 2**62,
        leak_clicks=result.leak_clicks - 2**62,
    )
    return result, period


def _times(result, period):
    return (np.arange(len(result.state)) * period).tolist()


#: name -> (result builder, check that the case exercises what it is named for)
CASES = {
    "integral-period": (lambda: _run(pulse_period_ns=40_000.0), None),
    "non-integral-period": (
        lambda: _run(pulse_period_ns=1234.5678),
        lambda c, p: any(not t.is_integer() for t in _times(c, p)),
    ),
    "empty": (lambda: _run(n_pulses=0), lambda c, p: len(c.state) == 0),
    "one-pulse": (lambda: _run(n_pulses=1), lambda c, p: len(c.state) == 1),
    # Integral and non-integral emit times alternate.
    "half-ns-period": (
        lambda: _run(pulse_period_ns=0.5, pulse_width_ns=0.25),
        lambda c, p: {t.is_integer() for t in _times(c, p)} == {True, False},
    ),
    # Emit times reach past 2**63, where int64 cannot hold them.
    "huge-period": (
        lambda: _run(n_pulses=1000, pulse_period_ns=1e16),
        lambda c, p: max(_times(c, p)) >= 2.0**63 > min(_times(c, p)),
    ),
    "zero-mu": (_zero_mu_run, lambda c, p: (c.mu_eff == 0.0).any() and (c.mu_eff > 0).any()),
    "bright": (lambda: _run("experiment2"), lambda c, p: c.c0.max() >= 10),
    "huge-clicks": (_huge_clicks_run, lambda c, p: c.c1.min() >= 2**62),
    "ordered": (lambda: _run(mode=SourceMode.ORDERED), None),
}


@pytest.mark.parametrize("case", CASES)
def test_pulse_csv_matches_row_wise_formatting(case):
    build, exercises = CASES[case]
    result, period = build()
    if exercises is not None:
        assert exercises(result, period)
    expected = _row_wise_rows(0, result, period)
    assert _lines(_csv_rows(_block_fields(0, result, period))) == _lines(expected)


@pytest.mark.parametrize(
    "preset,source",
    [
        ("experiment3", {}),
        ("experiment2", {}),
        ("experiment1", {"pulse_period_ns": 1234.5678}),
    ],
)
def test_block_outputs_sum_to_the_whole_run(preset, source):
    # 2.5 blocks: rows of later blocks are numbered and timed from their start.
    config = _config(preset, 5 * BLOCK_PULSES // 2, **source)
    blocks = list(map_blocks(config, 1, partial(block_outputs, config)))
    assert len(blocks) == 3
    fields, totals = zip(*blocks)
    result = run_experiment(config)
    period = config.source.pulse_period_ns
    assert _lines([chunk for block in fields for chunk in _csv_rows(block)]) == _lines(
        _row_wise_rows(0, result, period)
    )
    assert sum(totals[1:], totals[0]) == result.totals


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e16, 1e-5, 0.5, 5e-324, 2.2250738585072014e-308, 2.0**63,
     2.0**63 - 1024.0, -(2.0**63), 2.0**64, 1e300]
)  # fmt: skip
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3)


@settings(deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=_FLOATS))
def test_num_field_matches_num_on_any_times(times):
    # Non-integral, past 2**63, nan and inf: every time prints as _num does.
    # _num_field overwrites its argument.
    assert _slots(_num_field(times.copy())) == [_num(t) for t in times.tolist()]


#: Every digit count and sign of an int64: 10**k - 1, 10**k and their
#: negatives, 0 and both extremes.
_DIGIT_EDGES = sorted(
    {0, -(2**63), 2**63 - 1}
    | {v for k in range(19) for v in (10**k - 1, 10**k, 1 - 10**k, -(10**k))}
)


def test_int_field_matches_str_at_every_digit_count():
    values = np.array(_DIGIT_EDGES, dtype=np.int64)
    assert _slots(_int_field(values)) == [str(v) for v in _DIGIT_EDGES]
    # One value per call: the slot width follows the largest magnitude.
    assert [_slots(_int_field(np.array([v])))[0] for v in _DIGIT_EDGES] == list(
        map(str, _DIGIT_EDGES)
    )


@pytest.mark.parametrize("top", [0, 9, 10, 12345, 2**63 - 1])
def test_int_field_has_a_sign_column_only_for_a_negative_value(top):
    values = np.array([0, top // 3, top], dtype=np.int64)
    assert _int_field(values).shape == (3, len(str(top)))
    signed = _int_field(np.append(values, -1))
    assert signed.shape == (4, 1 + len(str(top)))
    assert signed[:, 0].tolist() == [0, 0, 0, ord("-")]


def _float_field_text(values):
    """_float_field of values, one line per value; _float_field prints repr."""
    field = _float_field(values, repr)
    matrix = np.hstack([field, np.full((len(values), 1), ord("\n"), np.uint8)])
    return matrix[matrix != 0].tobytes().decode("ascii").split("\n")[:-1]


def _assert_float_field_is_repr(values):
    # Block-sized pieces keep the slot matrices small; only the differing
    # lines are compared, as a report of a million-line diff takes minutes.
    for piece in np.array_split(values, -(-len(values) // BLOCK_PULSES)):
        got, expected = _float_field_text(piece), list(map(repr, piece.tolist()))
        assert len(got) == len(expected)
        assert [(g, e) for g, e in zip(got, expected) if g != e][:10] == []


def _float_edges():
    """Both neighbours of every 10**k and 2**q from 1e-6 to 1e17, zeros,
    subnormals, inf, nan, decimals of 1 to 17 significant digits and both
    neighbours of those of 1 to 6."""
    rng = np.random.default_rng(2016)
    anchors = [float(f"1e{k}") for k in range(-6, 18)] + [2.0**q for q in range(-20, 57)]
    edges = [np.nextafter(a, to) for a in anchors for to in (0.0, np.inf)] + anchors
    edges += [0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0), np.inf, np.nan]
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 300)
        exponents = rng.integers(-8, 18, 300) - digits + 1
        decimals = [float(f"{m}e{x}") for m, x in zip(mantissas.tolist(), exponents.tolist())]
        edges += decimals
        if digits <= 6:
            # Scaled to 17 digits, a short decimal is a multiple of 100 that
            # lies one to a few integers outside its neighbours' round-trip
            # intervals.
            edges += [np.nextafter(d, to) for d in decimals for to in (0.0, np.inf)]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


@settings(deadline=None)
@given(
    start=st.floats(-1e4, 1e9, allow_nan=False) | st.sampled_from([0.0, -2.5, 0.1]),
    width=st.floats(1e-4, 1e6) | st.sampled_from([0.002, 0.1, 0.3, 0.5, 1e16]),
    n=st.integers(1, 2000),
)
def test_float_field_is_repr_on_bin_start_grids(start, width, n):
    # Bin starts are start + width * k: many round to few digits, so the
    # trailing zeros of short decimals and the nearest multiple of 10 are
    # taken on most rows.
    starts = start + width * np.arange(n)
    assert _float_field_text(starts) == list(map(repr, starts.tolist()))


def test_float_field_is_repr_on_random_bit_patterns_and_edges():
    rng = np.random.default_rng(9)
    # Bit patterns of positional values, 1e-4 <= x < 1e16, which the digit
    # search decides, and fewer of every float: 98% of those lie outside and
    # go to repr itself, at a few microseconds each.
    low, high = np.array([1e-4, 1e16]).view(np.int64)
    positional = rng.integers(low, high, 10**6).view(np.float64)
    every_float = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    _assert_float_field_is_repr(np.concatenate([every_float, positional, _float_edges()]))


@pytest.mark.parametrize("preset", ["experiment3", "experiment2"])
def test_mu_eff_of_a_block_rarely_reaches_repr(preset, monkeypatch):
    # A slide back to one repr per pulse would still print the same bytes;
    # count the module's repr calls while one block's rows are built.
    config = _config(preset, BLOCK_PULSES)
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(reports, "repr", counting_repr, raising=False)
    _write_to_nothing(block_outputs(config, 0))
    assert len(calls) <= 0.05 * BLOCK_PULSES


#: Bound on the tracemalloc peak of the pulses.csv rows of one 2**14-pulse
#: experiment3 block, its fields made by block_outputs and its rows written
#: chunk by chunk as memqkd run writes them: 1,092 KiB measured with numpy
#: 2.4, plus 10%.
ROWS_PEAK_KIB = 1201


def _traced_peak(call):
    """The tracemalloc peak of call(), made once beforehand to warm up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pulse_csv_rows_of_a_block_peak_below_their_bound():
    config = _config("experiment3", BLOCK_PULSES)
    result, period = run_experiment(config), config.source.pulse_period_ns
    peak = _traced_peak(lambda: _write_to_nothing((_block_fields(0, result, period), None)))
    assert peak <= ROWS_PEAK_KIB * 1024, f"{peak / 1024:.0f} KiB"


#: Bound on the tracemalloc peak of one 2**14-pulse block through
#: map_blocks and block_outputs, its rows written as memqkd run writes them:
#: 1,141 KiB measured with numpy 2.4 on experiment2 (1,093 on experiment3),
#: plus 10%. On both the peak is the emit times' _int_field, while every
#: other field is held.
BLOCK_PEAK_KIB = 1255

#: Bound on the tracemalloc peak of simulate_block alone on a 2**14-pulse
#: block: 930 KiB measured with numpy 2.4 on experiment3 and experiment2,
#: under a round 1,000 KiB.
SIMULATION_PEAK_KIB = 1000


@pytest.mark.parametrize("preset", ["experiment3", "experiment2"])
def test_a_simulated_and_formatted_block_peaks_below_its_bound(preset):
    config = _config(preset, BLOCK_PULSES)
    reduce = partial(block_outputs, config)
    peak = _traced_peak(lambda: list(map(_write_to_nothing, map_blocks(config, 1, reduce))))
    assert peak <= BLOCK_PEAK_KIB * 1024, f"{peak / 1024:.0f} KiB"


@pytest.mark.parametrize("preset", ["experiment3", "experiment2"])
def test_a_block_simulation_peaks_below_its_bound(preset):
    config = _config(preset, BLOCK_PULSES)
    peak = _traced_peak(lambda: simulate_block(config, 0))
    assert peak <= SIMULATION_PEAK_KIB * 1024, f"{peak / 1024:.0f} KiB"


def test_a_block_peaks_below_its_bound_whatever_the_bin_count():
    # At MAX_BINS one float per bin is about 8 MB: a block holds nothing per
    # bin, only its totals.
    config = _config("experiment3", BLOCK_PULSES)
    analysis = dataclasses.replace(config.analysis, bin_width_ns=0.002)
    config = dataclasses.replace(config, analysis=analysis)
    assert Histogram.empty(analysis.bin_width_ns, analysis.window).n_bins == MAX_BINS
    reduce = partial(block_outputs, config)
    peak = _traced_peak(lambda: list(map(_write_to_nothing, map_blocks(config, 1, reduce))))
    assert peak <= BLOCK_PEAK_KIB * 1024, f"{peak / 1024:.0f} KiB"


class _OnDemandPool:
    """Stand-in for simulation._Pool that runs each block in the calling
    thread when its result is asked for: the pool path, one block at a time."""

    def __init__(self, threads):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, block):
        return SimpleNamespace(result=partial(fn, block))


#: What a whole memqkd run adds to its blocks' peak: the argument parsing,
#: the output files, the histogram and the summary (about 60 KiB measured).
RUN_MARGIN_KIB = 128


@pytest.mark.parametrize("workers", [1, 2])
def test_a_streamed_run_peaks_as_one_block(workers, tmp_path, monkeypatch):
    # Four blocks through memqkd run's write loop. With two workers the pool
    # path runs each block only when the stream asks for it, so any block's
    # fields held past their write, by the stream or by the loop, would add
    # about 640 KiB to one block's peak.
    if workers > 1:
        monkeypatch.setattr(simulation, "_Pool", _OnDemandPool)
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    argv = [
        "run", "--preset", "experiment3", "--pulses", str(4 * BLOCK_PULSES), "--seed", "19",
        "--workers", str(workers), "--outdir", str(tmp_path),
    ]  # fmt: skip
    peak = _traced_peak(lambda: cli.main(argv))
    assert peak <= (BLOCK_PEAK_KIB + RUN_MARGIN_KIB) * 1024, f"{peak / 1024:.0f} KiB"


#: A real 0-pulse result, whose per-pulse arrays the test below replaces.
EMPTY_RESULT = run_experiment(_config(n_pulses=0))


@settings(deadline=None)
@given(st.data())
def test_pulse_csv_matches_row_wise_formatting_on_random_columns(data):
    n = data.draw(st.integers(0, 40), label="n")
    start = data.draw(st.integers(0, 2**62) | st.integers(0, 3 * BLOCK_PULSES), label="start")
    period = data.draw(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        | st.sampled_from([0.5, 1234.5678, 40_000.0, 1e16]),
        label="period",
    )
    # Emit times past the float range overflow to inf with a numpy
    # RuntimeWarning: a matter of the config's magnitudes, not of formatting;
    # _num_field is checked on inf above.
    assume(math.isfinite((start + n) * period))

    def column(elements, dtype):
        return data.draw(arrays(dtype, n, elements=elements))

    block = dataclasses.replace(
        EMPTY_RESULT,
        state=column(st.integers(0, 3), np.int8),
        mu_eff=column(_FLOATS, np.float64),
        bob_basis=column(st.integers(0, 1), np.int8),
        c0=column(_INT64, np.int64),
        c1=column(_INT64, np.int64),
        leak_clicks=column(_INT64, np.int64),
        sifted=column(st.booleans(), bool),
        error=column(st.booleans(), bool),
    )
    expected = _row_wise_rows(start, block, period)
    assert _lines(_csv_rows(_block_fields(start, block, period))) == _lines(expected)


def _sci(values):
    return _slots(_sci_field(np.array(values, dtype=np.float64)))


def _formatted(values):
    return [format(v, ".12e") for v in values]


@settings(deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_subnormal=True)))
def test_sci_field_is_format_on_any_floats(values):
    assert _slots(_sci_field(values)) == _formatted(values.tolist())


def test_decades_are_the_least_floats_from_each_power_of_ten():
    for k, t in enumerate(_DECADES.tolist()):
        power = Fraction(10) ** (k + _DECADE_MIN)
        assert Fraction(t) >= power > Fraction(np.nextafter(t, 0.0))


def _floor_log10(x: Fraction) -> int:
    """floor(log10(x)) of a positive Fraction, exactly."""
    e = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


def test_decimal_exponent_is_exact_at_every_decade_and_binary_exponent():
    # Each decade's least float and both its neighbours, and the least and
    # greatest float of every binary exponent, within [1e-10, 1e17).
    values = [t for d in _DECADES.tolist() for t in (np.nextafter(d, 0.0), d, np.nextafter(d, 1e20))]
    for e in range(-40, 60):
        values += [2.0**e, np.nextafter(2.0 ** (e + 1), 0.0)]
    x = np.array([v for v in values if _DECADES[0] <= v < 1e17])
    # 3 * 27 - 1 decade values, and the least floats of exponents -33 .. 56
    # and the greatest of -34 .. 55.
    assert len(x) == 80 + 2 * 90
    assert _decimal_exponent(x).tolist() == [_floor_log10(Fraction(v)) for v in x.tolist()]
    # Each entry is the decade of 2**e, clipped so that the next decade is one
    # of _DECADES too. An entry one too small still gives the right result
    # where [2**e, 2**(e + 1)) holds no power of ten, so the values above
    # cannot see it there.
    expected = [
        min(max(_floor_log10(Fraction(2) ** e), _DECADE_MIN), _DECADE_MIN + len(_DECADES) - 2)
        for e in range(-1023, 1025)
    ]
    assert (_BINARY_DECADES + _DECADE_MIN).tolist() == expected


@pytest.mark.parametrize(
    "value,text",
    [
        # An exact tie of the 13th digit goes to the even digit.
        (8193 / 8192, "1.000122070312e+00"),
        (8195 / 8192, "1.000366210938e+00"),
        # Values that round up to 10**13 carry into the exponent.
        (9.9999999999995e12, "1.000000000000e+13"),
        (9.99999999999995, "1.000000000000e+01"),
        (np.nextafter(1.0, 0.0), "1.000000000000e+00"),
        (np.nextafter(1e13, 0.0), "1.000000000000e+13"),
        # The nearest floats to 1e-7 and 1e-6 lie below those powers.
        (1e-7, "1.000000000000e-07"),
        (1e-6, "1.000000000000e-06"),
        (5e-324, "4.940656458412e-324"),
        (1.7976931348623157e308, "1.797693134862e+308"),
        (0.0, "0.000000000000e+00"),
        (-0.0, "-0.000000000000e+00"),
        # The least exponent printed from the table.
        (1e-10, "1.000000000000e-10"),
    ],
)
def test_sci_field_cases(value, text):
    assert _sci([value, -value]) == [text, _formatted([-value])[0]]
    assert format(value, ".12e") == text


def test_digit_groups_are_four_digit_text():
    texts = [b"%04d" % k for k in range(10**4)]
    lead = [b"\0" * (4 - len(b"%d" % k)) + b"%d" % k for k in range(10**4)]
    copies = _GROUP_TEXTS.view("V4").reshape(3, 10**4)
    assert [bytes(t) for t in copies[0]] == texts
    # 0 is all NUL in the first lead copy and "0" in the units copy.
    assert [bytes(t) for t in copies[1]] == [b"\0" * 4] + lead[1:]
    assert [bytes(t) for t in copies[2]] == lead


def test_exponent_text_is_formats_exponent():
    expected = [format(float(f"1e{e}"), ".12e")[-4:].encode() for e in range(_DECADE_MIN, 14)]
    assert _EXPONENT_TEXT.view("S4").tolist() == expected


def test_sci_field_merges_formatted_values_into_a_chunk():
    # One chunk with fast-path values and each value formatted one at a
    # time, so the merge runs; a chunk without the latter skips it.
    fast = np.random.default_rng(14).uniform(-1e3, 1e3, 40)
    others = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e13, -1e13]
    values = np.insert(fast, [3, 9, 9, 20, 27, 33, 40], others)
    assert _sci(values) == _formatted(values.tolist())
    assert _sci_field(fast).shape == (len(fast), 19)


def test_sci_field_of_nonnegative_values_has_no_all_nul_column():
    values = np.array([1.5, 0.0, 2e-3, np.inf, 7.25e12, np.nan, 1e13, 3e-10])
    field = _sci_field(values)
    assert field.any(axis=0).all()
    assert _slots(field) == _formatted(values.tolist())
    assert _sci_field(values[[0, 2, 4]]).shape == (3, 18)


@pytest.mark.parametrize("signed", [-0.0, -2.5, -1e-300, -np.inf, -1e13, -np.nan])
def test_sci_field_keeps_its_sign_column_for_a_signed_value(signed):
    values = np.array([1.5, 0.0, 2e-3, signed])
    field = _sci_field(values)
    # One column wider than the same values without their signs.
    assert field.shape[1] == 1 + _sci_field(np.abs(values)).shape[1]
    sign = 0 if math.isnan(signed) else ord("-")  # format prints nan unsigned
    assert field[:, 0].tolist() == [0, 0, 0, sign]
    assert _slots(field) == _formatted(values.tolist())


def test_sci_field_is_format_at_the_fast_path_edges_and_on_ties():
    edges = [t for d in _DECADES.tolist() for t in (np.nextafter(d, 0.0), d, np.nextafter(d, 1e20))]
    edges += [np.nextafter(1e13, 0.0), 1e13, np.nextafter(1e13, 2e13), np.nan, np.inf]
    # Exact ties of the 13th digit: N / 10**q, N a 14-digit odd multiple of
    # 5**q, which is the float M / 2**q with M = N / 5**q.
    rng = np.random.default_rng(13)
    ties = []
    for q in range(1, 20):
        low, high = -(-(10**13) // 5**q), 10**14 // 5**q
        ties += [m / 2**q for m in (rng.integers(low, high, 50) | 1).tolist() if m < high]
    for tie in ties:
        digits = f"{tie:.13e}"
        assert digits[14] == "5" and Fraction(digits) == Fraction(tie)
    # Near-ties: the float product v * 10**j is a tie k + 1/2, but the exact
    # product is not, so format rounds v the way its exact value lies.
    near, odd = [], 0
    for j in range(1, 23):
        for k in rng.integers(10**12, 10**13, 20).tolist():
            tie = Fraction(2 * k + 1, 2)
            nearest = float(tie / 10**j)
            for v in (math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, math.inf)):
                if v * float(10**j) == tie and Fraction(v) * 10**j != tie:
                    near.append(v)
                    odd += round(Fraction(v) * 10**j) % 2
    # rint alone takes the even neighbour of k + 1/2; the odd ones need the
    # exact product.
    assert len(near) > 200 and odd > 100
    values = np.array(edges + ties + near)
    values = np.concatenate([values, -values])
    assert _sci(values) == _formatted(values.tolist())


def test_sci_field_is_format_on_random_bit_patterns():
    rng = np.random.default_rng(12)
    low, high = np.array([1e-10, 1e13]).view(np.int64)
    values = np.concatenate([
        rng.integers(low, high, 2 * 10**5).view(np.float64),
        rng.integers(0, 2**64, 10**4, dtype=np.uint64).view(np.float64),
    ])  # fmt: skip
    field = np.hstack([_sci_field(values), np.full((len(values), 1), ord("\n"), np.uint8)])
    got = field[field != 0].tobytes().decode("ascii").split("\n")[:-1]
    expected = _formatted(values.tolist())
    assert len(got) == len(expected)
    assert [(g, e) for g, e in zip(got, expected) if g != e][:10] == []


@settings(deadline=None)
@given(st.data())
def test_csv_rows_drop_the_nul_padding_as_translate_does(data):
    n = data.draw(st.integers(0, 30), label="n")
    widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="widths")
    slot_bytes = st.sampled_from(b"\0\0-.09e")
    fields = [data.draw(arrays(np.uint8, (n, w), elements=slot_bytes)) for w in widths]
    # All-NUL fields and all-NUL rows.
    for field in fields:
        if data.draw(st.booleans(), label="blank field"):
            field[...] = 0
    blank_rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n), label="blank rows")
    for field in fields:
        field[blank_rows] = 0
    batch = data.draw(st.integers(1, 8), label="batch")
    # A chunk is at most _SLICE rows of one _BATCH-row matrix.
    slice_rows = data.draw(st.integers(1, 9), label="slice")
    separators = [np.full((n, 1), ord(c), np.uint8) for c in "," * (len(fields) - 1) + "\n"]
    matrix = np.hstack([part for pair in zip(fields, separators) for part in pair])
    expected = [
        matrix[first : min(first + slice_rows, start + batch)].tobytes().translate(None, b"\0")
        for start in range(0, n, batch)
        for first in range(start, min(start + batch, n), slice_rows)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "_BATCH", batch)
        patch.setattr(reports, "_SLICE", slice_rows)
        assert list(reports._csv_rows(list(fields))) == expected


#: (mu range, qber range, rows, cols) of sweeps checked against f-strings.
_SWEEPS = [
    ((0.01, 50.0), (0.0, 0.5), 37, 211),
    ((1e-9, 1e-3), (0.0, 0.2), 50, 50),
    ((1.0, 1.0), (0.03, 0.03), 1, 1),
    ((0.05, 1.7), (0.0, 0.15), 3, 5000),
    # exp(-mu) underflows past mu ~745: those mu have no boundary row.
    ((1.0, 900.0), (0.0, 0.5), 7, 3),
]


def _keyrate_chunk_rows(rows, cols):
    """Rows per keyrate_map.csv chunk: max(1, _BATCH // cols) whole mu rows,
    or, when a mu row holds more than _BATCH cells, _BATCH cells of one row."""
    batch = reports._BATCH
    if cols <= batch:
        per = batch // cols
        return [min(per, rows - r) * cols for r in range(0, rows, per)]
    return [min(batch, cols - c) for _ in range(rows) for c in range(0, cols, batch)]


def _check_keyrate_csv(grid):
    expected = "mu,qber,rate\n" + "".join(
        f"{m:.12e},{q:.12e},{grid.rates[i, j]:.12e}\n"
        for i, m in enumerate(grid.mu_axis)
        for j, q in enumerate(grid.qber_axis)
    )
    header, *chunks = keyrate_csv_lines(grid)
    assert header == b"mu,qber,rate\n"
    assert all(isinstance(chunk, bytes) for chunk in chunks)
    assert [chunk.count(b"\n") for chunk in chunks] == _keyrate_chunk_rows(*grid.rates.shape)
    assert _lines(header + b"".join(chunks)) == _lines(expected)


@pytest.mark.parametrize("mu,qber,rows,cols", _SWEEPS)
def test_keyrate_csvs_match_f_strings(mu, qber, rows, cols):
    grid = key_rate_map(np.linspace(*mu, rows), np.linspace(*qber, cols))
    _check_keyrate_csv(grid)
    boundary = "mu,qber_star\n" + "".join(
        f"{m:.12e},{q:.12e}\n" for m, q in zip(grid.mu_axis, grid.q_star) if not math.isnan(q)
    )
    assert b"".join(boundary_csv_lines(grid)).decode("ascii") == boundary


#: (mu range, qber range, rows, cols, _BATCH) of sweeps cut into many chunks.
_SMALL_BATCH_SWEEPS = [
    # cols does not divide _BATCH.
    ((0.01, 50.0), (0.0, 0.5), 13, 5, 16),
    ((0.05, 1.7), (0.0, 0.15), 9, 7, 7),
    # cols > _BATCH, with and without a shorter last slice of each row.
    ((0.01, 50.0), (0.0, 0.5), 3, 21, 8),
    ((0.05, 1.7), (0.0, 0.15), 4, 16, 8),
    # 1x1, 1xN and Nx1 grids.
    ((1.0, 1.0), (0.03, 0.03), 1, 1, 4),
    ((1.6, 1.6), (0.0, 0.3), 1, 9, 4),
    ((0.01, 50.0), (0.119, 0.119), 9, 1, 4),
    # Rows of positive rates (an 18-byte rate field), rows with negative
    # rates (19 bytes), 0.0 where exp(-mu) underflows, and rates below
    # 1e-10 (format fallbacks), 1e-120 with a three-digit exponent.
    ((1e-12, 900.0), (0.0, 0.02), 40, 7, 16),
    ((1e-12, 900.0), (0.0, 0.02), 40, 7, 4),
    ((1e-120, 900.0), (0.0, 0.02), 6, 11, 8),
]


@pytest.mark.parametrize("mu,qber,rows,cols,batch", _SMALL_BATCH_SWEEPS)
def test_keyrate_csv_chunks_match_f_strings(mu, qber, rows, cols, batch, monkeypatch):
    monkeypatch.setattr(reports, "_BATCH", batch)
    _check_keyrate_csv(key_rate_map(np.linspace(*mu, rows), np.linspace(*qber, cols)))


def test_keyrate_csv_widths_change_between_chunks(monkeypatch):
    grid = key_rate_map(np.linspace(1e-12, 900.0, 40), np.linspace(0.0, 0.02, 7))
    rates = grid.rates
    assert (rates > 0).all(axis=1).any() and (rates < 0).any()
    assert (rates == 0).any() and ((rates != 0) & (np.abs(rates) < 1e-10)).any()
    # One mu row per chunk, whose rate field is 18, 19 or 20 bytes wide.
    assert [_sci_field(row).shape[1] for row in rates[:2]] == [18, 19]
    assert {_sci_field(row).shape[1] for row in rates} == {18, 19, 20}
    monkeypatch.setattr(reports, "_BATCH", 7)
    _check_keyrate_csv(grid)


#: Bound on the tracemalloc peak of writing a 400x400 keyrate_map.csv:
#: 700 KiB measured with numpy 2.4, plus about 15%. While each chunk
#: gathered both axes' slots and filled a new row matrix, the peak was
#: 938 KiB; one matrix of the whole grid would take about 9 MiB.
KEYRATE_PEAK_KIB = 800


def test_keyrate_csv_of_a_sweep_peaks_below_its_bound(tmp_path):
    grid = key_rate_map(np.linspace(0.05, 1.7, 400), np.linspace(0.0, 0.15, 400))
    path = tmp_path / "keyrate_map.csv"
    peak = _traced_peak(lambda: write_lines(path, keyrate_csv_lines(grid)))
    assert peak <= KEYRATE_PEAK_KIB * 1024, f"{peak / 1024:.0f} KiB"


def test_boundary_csv_of_an_empty_boundary_is_its_header():
    # exp(-800) underflows to 0, so this mu has no positive region.
    grid = key_rate_map(np.array([800.0]), np.array([0.3]))
    assert b"".join(boundary_csv_lines(grid)) == b"mu,qber_star\n"


@pytest.mark.parametrize(
    "bin_width,window", [(0.5, (0.0, 100.0)), (0.3, (-2.5, 5000.0)), (1e16, (0.0, 1e20))]
)
def test_histogram_csv_matches_num(bin_width, window):
    hist = Histogram.empty(bin_width, window)
    hist = dataclasses.replace(hist, counts=np.arange(hist.n_bins, dtype=np.int64) * 7919)
    expected = "bin_start_ns,count\n" + "".join(
        f"{_num(float(start))},{int(count)}\n"
        for start, count in zip(hist.bin_starts, hist.counts)
    )
    assert _lines(b"".join(histogram_csv_lines(hist))) == _lines(expected)


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 7])
def test_csv_rows_match_row_wise_formatting_at_any_batch(batch, monkeypatch):
    # A chunk is at most _SLICE rows, a constant: a step taken as a fraction
    # of _BATCH would reach 0 at these sizes.
    monkeypatch.setattr(reports, "_BATCH", batch)
    result, period = _run(n_pulses=23, pulse_period_ns=1234.5678)
    chunks = list(_csv_rows(_block_fields(0, result, period)))
    assert max(chunk.count(b"\n") for chunk in chunks) <= batch
    assert _lines(chunks) == _lines(_row_wise_rows(0, result, period))
    hist = Histogram.empty(0.3, (-2.5, 4.0))
    hist = dataclasses.replace(hist, counts=np.arange(hist.n_bins, dtype=np.int64) * 7919)
    expected = "bin_start_ns,count\n" + "".join(
        f"{_num(float(start))},{int(count)}\n"
        for start, count in zip(hist.bin_starts, hist.counts)
    )
    assert _lines(histogram_csv_lines(hist)) == _lines(expected)
    grid = key_rate_map(np.linspace(0.05, 1.7, 11), np.linspace(0.0, 0.15, 5))
    expected = "mu,qber_star\n" + "".join(
        f"{m:.12e},{q:.12e}\n" for m, q in zip(grid.mu_axis, grid.q_star) if not math.isnan(q)
    )
    assert _lines(boundary_csv_lines(grid)) == _lines(expected)


def test_sweep_cells_rarely_reach_format(monkeypatch):
    # A slide back to one format call per value would print the same bytes;
    # count the module's format calls on a benchmark-sized sweep.
    grid = key_rate_map(np.linspace(0.05, 1.7, 400), np.linspace(0.0, 0.15, 400))
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(reports, "format", counting_format, raising=False)
    b"".join(keyrate_csv_lines(grid))
    assert len(calls) <= 0.01 * grid.rates.size
