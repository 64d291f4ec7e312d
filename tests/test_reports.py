import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from memqkd import reports
from memqkd.config import SourceMode
from memqkd.presets import preset_config
from memqkd.qubits import BASES, POLARIZATION_CYCLE
from memqkd.reports import (
    _emit_time_field,
    _float_field,
    _int_field,
    _num,
    block_outputs,
    pulse_csv_rows,
)
from memqkd.simulation import (
    BLOCK_PULSES,
    DoubleClickPolicy,
    run_experiment,
    simulate_blocks,
)

def _row_wise_rows(start, block, period):
    """Reference: pulses.csv rows formatted one row and one field at a time."""
    return "".join(
        ",".join(
            (
                str(start + i),
                _num((start + i) * period),
                POLARIZATION_CYCLE[block.state[i]].value,
                repr(float(block.mu_eff[i])),
                BASES[block.bob_basis[i]].value,
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
    # strings is a line diff that takes minutes. pulse_csv_rows returns
    # ASCII bytes.
    if isinstance(text, bytes):
        text = text.decode("ascii")
    return text.split("\n")


def _slots(matrix):
    """Each row of a NUL-padded slot matrix, NULs dropped, as text."""
    assert matrix.dtype == np.uint8
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


#: One full block and a partial one.
PULSES = 3 * BLOCK_PULSES // 2


def _config(preset="experiment3", n_pulses=PULSES, **source):
    config = preset_config(preset, n_pulses=n_pulses, seed=19)
    return dataclasses.replace(config, source=dataclasses.replace(config.source, **source))


def _run(preset="experiment3", n_pulses=PULSES, policy=DoubleClickPolicy.RANDOM, **source):
    """(result, pulse period) of a run."""
    config = _config(preset, n_pulses, **source)
    return run_experiment(config, policy=policy), config.source.pulse_period_ns


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
    "discard": (
        lambda: _run(policy=DoubleClickPolicy.DISCARD),
        lambda c, p: c.sifted.any(),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_pulse_csv_matches_row_wise_formatting(case):
    build, exercises = CASES[case]
    result, period = build()
    if exercises is not None:
        assert exercises(result, period)
    expected = _row_wise_rows(0, result, period)
    assert _lines(pulse_csv_rows(0, result, period)) == _lines(expected)


@pytest.mark.parametrize(
    "preset,policy,source",
    [
        ("experiment3", DoubleClickPolicy.RANDOM, {}),
        ("experiment2", DoubleClickPolicy.RANDOM, {}),
        ("experiment1", DoubleClickPolicy.DISCARD, {"pulse_period_ns": 1234.5678}),
    ],
)
def test_block_outputs_sum_to_the_whole_run(preset, policy, source):
    # 2.5 blocks: rows of later blocks are numbered and timed from their start.
    config = _config(preset, 5 * BLOCK_PULSES // 2, **source)
    blocks = list(simulate_blocks(config, 1, policy, partial(block_outputs, config)))
    assert len(blocks) == 3
    rows, hists, samples, photons = zip(*blocks)
    result = run_experiment(config, policy=policy)
    period = config.source.pulse_period_ns
    assert _lines(b"".join(rows)) == _lines(_row_wise_rows(0, result, period))
    assert sum(hists[1:], hists[0]) == result.histogram
    assert sum(samples[1:], samples[0]) == result.sample
    totals = sum(photons[1:], photons[0])
    assert totals == result.photons


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e16, 1e-5, 0.5, 5e-324, 2.2250738585072014e-308, 2.0**63,
     2.0**63 - 1024.0, -(2.0**63), 2.0**64, 1e300]
)  # fmt: skip
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3)


@settings(deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=_FLOATS))
def test_emit_time_fields_match_num_on_any_times(times):
    # Non-integral, past 2**63, nan and inf: every time prints as _num does.
    assert _slots(_emit_time_field(times)) == [_num(t) for t in times.tolist()]


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
    subnormals, inf, nan and decimals of 1 to 17 significant digits."""
    rng = np.random.default_rng(2016)
    anchors = [float(f"1e{k}") for k in range(-6, 18)] + [2.0**q for q in range(-20, 57)]
    edges = [np.nextafter(a, to) for a in anchors for to in (0.0, np.inf)] + anchors
    edges += [0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0), np.inf, np.nan]
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 300)
        exponents = rng.integers(-8, 18, 300) - digits + 1
        edges += [float(f"{m}e{x}") for m, x in zip(mantissas.tolist(), exponents.tolist())]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


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
    result = run_experiment(config)
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(reports, "repr", counting_repr, raising=False)
    pulse_csv_rows(0, result, config.source.pulse_period_ns)
    assert len(calls) <= 0.05 * BLOCK_PULSES


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
    # _emit_time_field is checked on inf above.
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
    assert _lines(pulse_csv_rows(start, block, period)) == _lines(expected)
