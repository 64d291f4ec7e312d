import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from memqkd import POLARIZATION_CYCLE, bin_clicks, preset_config, run_experiment
from memqkd.qubits import BASES
from memqkd.reports import _emit_time_field, _int_field, _num, block_outputs, pulse_csv_rows
from memqkd.simulation import BLOCK_PULSES, DoubleClickPolicy, SourceMode, simulate_blocks

#: The per-pulse columns of a RunResult that pulses.csv prints.
COLUMN_NAMES = ("state", "mu_eff", "bob_basis", "c0", "c1", "leak_clicks", "sifted", "error")


def _row_wise_rows(start, columns, period):
    """Reference: pulses.csv rows formatted one row and one field at a time."""
    return "".join(
        ",".join(
            (
                str(start + i),
                _num((start + i) * period),
                POLARIZATION_CYCLE[columns["state"][i]].value,
                repr(float(columns["mu_eff"][i])),
                BASES[columns["bob_basis"][i]].value,
                str(int(columns["c0"][i])),
                str(int(columns["c1"][i])),
                str(int(columns["leak_clicks"][i])),
                str(int(columns["sifted"][i])),
                str(int(columns["error"][i])),
            )
        )
        + "\n"
        for i in range(len(columns["state"]))
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


def _columns(result):
    return {name: getattr(result, name) for name in COLUMN_NAMES}


def _run(preset="experiment3", n_pulses=PULSES, policy=DoubleClickPolicy.RANDOM, **source):
    """(columns, pulse period) of a run."""
    config = _config(preset, n_pulses, **source)
    return _columns(run_experiment(config, policy=policy)), config.source.pulse_period_ns


def _zero_mu_run():
    # A turbulent gain with relative spread 3 is truncated at 0 on about a
    # third of the pulses, so mu_eff is exactly 0.0 there.
    config = _config()
    config = dataclasses.replace(
        config, channel=dataclasses.replace(config.channel, rel_fluctuation=3.0)
    )
    return _columns(run_experiment(config)), config.source.pulse_period_ns


def _huge_clicks_run():
    columns, period = _run(n_pulses=500)
    columns.update(
        c0=columns["c0"] + 2**40,
        c1=columns["c1"] + 2**62,
        leak_clicks=columns["leak_clicks"] - 2**62,
    )
    return columns, period


def _times(columns, period):
    return (np.arange(len(columns["state"])) * period).tolist()


#: name -> (columns builder, check that the case exercises what it is named for)
CASES = {
    "integral-period": (lambda: _run(pulse_period_ns=40_000.0), None),
    "non-integral-period": (
        lambda: _run(pulse_period_ns=1234.5678),
        lambda c, p: any(not t.is_integer() for t in _times(c, p)),
    ),
    "empty": (lambda: _run(n_pulses=0), lambda c, p: len(c["state"]) == 0),
    "one-pulse": (lambda: _run(n_pulses=1), lambda c, p: len(c["state"]) == 1),
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
    "zero-mu": (_zero_mu_run, lambda c, p: (c["mu_eff"] == 0.0).any() and (c["mu_eff"] > 0).any()),
    "bright": (lambda: _run("experiment2"), lambda c, p: c["c0"].max() >= 10),
    "huge-clicks": (_huge_clicks_run, lambda c, p: c["c1"].min() >= 2**62),
    "ordered": (lambda: _run(mode=SourceMode.ORDERED), None),
    "discard": (
        lambda: _run(policy=DoubleClickPolicy.DISCARD),
        lambda c, p: c["sifted"].any(),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_pulse_csv_matches_row_wise_formatting(case):
    build, exercises = CASES[case]
    columns, period = build()
    if exercises is not None:
        assert exercises(columns, period)
    expected = _row_wise_rows(0, columns, period)
    assert _lines(pulse_csv_rows(0, columns, period)) == _lines(expected)


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
    blocks = list(simulate_blocks(config, config.seed, 1, policy, partial(block_outputs, config)))
    assert len(blocks) == 3
    rows, hists, samples, photons = zip(*blocks)
    result = run_experiment(config, policy=policy)
    period = config.source.pulse_period_ns
    assert _lines(b"".join(rows)) == _lines(_row_wise_rows(0, _columns(result), period))
    analysis = config.analysis
    assert sum(hists[1:], hists[0]) == bin_clicks(
        result.click_times_ns, analysis.bin_width_ns, analysis.window
    )
    assert sum(samples[1:], samples[0]) == result.sample
    totals = sum(photons[1:], photons[0])
    assert (
        totals.arrived, totals.retrieved, totals.leaked, totals.lost, totals.background_roi
    ) == (
        result.n_arrived, result.n_retrieved, result.n_leaked, result.n_lost,
        result.n_background_roi,
    )  # fmt: skip
    assert totals.counting_sbr(config.source.n_pulses) == result.sbr


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

    columns = {
        "state": column(st.integers(0, 3), np.int8),
        "mu_eff": column(_FLOATS, np.float64),
        "bob_basis": column(st.integers(0, 1), np.int8),
        "c0": column(_INT64, np.int64),
        "c1": column(_INT64, np.int64),
        "leak_clicks": column(_INT64, np.int64),
        "sifted": column(st.booleans(), bool),
        "error": column(st.booleans(), bool),
    }
    expected = _row_wise_rows(start, columns, period)
    assert _lines(pulse_csv_rows(start, columns, period)) == _lines(expected)
