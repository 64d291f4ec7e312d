import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from memqkd import POLARIZATION_CYCLE, preset_config, run_experiment
from memqkd.qubits import BASES
from memqkd.reports import _BATCH, PULSE_CSV_HEADER, _num, pulse_csv_lines
from memqkd.simulation import DoubleClickPolicy, SourceMode


def _row_wise_csv_lines(result):
    """Reference: the pulse CSV formatted one row and one field at a time."""
    yield PULSE_CSV_HEADER
    for i in range(len(result.state)):
        yield ",".join(
            (
                str(i),
                _num(float(result.emit_time_ns[i])),
                POLARIZATION_CYCLE[result.state[i]].value,
                repr(float(result.mu_eff[i])),
                BASES[result.bob_basis[i]].value,
                str(int(result.c0[i])),
                str(int(result.c1[i])),
                str(int(result.leak_clicks[i])),
                str(int(result.sifted[i])),
                str(int(result.error[i])),
            )
        )


#: One full formatting batch and a partial one.
PULSES = 3 * _BATCH // 2


def _run(preset="experiment3", n_pulses=PULSES, policy=DoubleClickPolicy.RANDOM, **source):
    config = preset_config(preset, n_pulses=n_pulses, seed=19)
    config = dataclasses.replace(config, source=dataclasses.replace(config.source, **source))
    return run_experiment(config, policy=policy)


def _zero_mu_run():
    # A turbulent gain with relative spread 3 is truncated at 0 on about a
    # third of the pulses, so mu_eff is exactly 0.0 there.
    config = preset_config("experiment3", n_pulses=PULSES, seed=19)
    config = dataclasses.replace(
        config, channel=dataclasses.replace(config.channel, rel_fluctuation=3.0)
    )
    return run_experiment(config)


def _huge_clicks_run():
    result = _run(n_pulses=500)
    return dataclasses.replace(
        result,
        c0=result.c0 + 2**40,
        c1=result.c1 + 2**62,
        leak_clicks=result.leak_clicks - 2**62,
    )


#: name -> (result builder, check that the case exercises what it is named for)
CASES = {
    "integral-period": (lambda: _run(pulse_period_ns=40_000.0), None),
    "non-integral-period": (
        lambda: _run(pulse_period_ns=1234.5678),
        lambda r: any(not t.is_integer() for t in r.emit_time_ns.tolist()),
    ),
    "empty": (lambda: _run(n_pulses=0), lambda r: len(r.state) == 0),
    "one-pulse": (lambda: _run(n_pulses=1), lambda r: len(r.state) == 1),
    # Integral and non-integral emit times alternate.
    "half-ns-period": (
        lambda: _run(pulse_period_ns=0.5, pulse_width_ns=0.25),
        lambda r: {t.is_integer() for t in r.emit_time_ns.tolist()} == {True, False},
    ),
    # Emit times reach past 2**63, where int64 cannot hold them.
    "huge-period": (
        lambda: _run(n_pulses=1000, pulse_period_ns=1e16),
        lambda r: (r.emit_time_ns >= 2.0**63).any() and (r.emit_time_ns < 2.0**63).any(),
    ),
    "zero-mu": (_zero_mu_run, lambda r: (r.mu_eff == 0.0).any() and (r.mu_eff > 0).any()),
    "bright": (lambda: _run("experiment2"), lambda r: r.c0.max() >= 10),
    "huge-clicks": (_huge_clicks_run, lambda r: r.c1.min() >= 2**62),
    "ordered": (lambda: _run(mode=SourceMode.ORDERED), None),
    "discard": (
        lambda: _run(policy=DoubleClickPolicy.DISCARD),
        lambda r: r.sifted.any(),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_pulse_csv_matches_row_wise_formatting(case):
    build, exercises = CASES[case]
    result = build()
    if exercises is not None:
        assert exercises(result)
    assert pulse_csv_lines(result) == list(_row_wise_csv_lines(result))


@functools.cache
def _template():
    return _run(n_pulses=1)


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 1e16, 1e-5, 0.5, 5e-324, 2.2250738585072014e-308, 2.0**63,
     2.0**63 - 1024.0, -(2.0**63), 2.0**64, 1e300]
)  # fmt: skip
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3)


@settings(deadline=None)
@given(st.data())
def test_pulse_csv_matches_row_wise_formatting_on_random_columns(data):
    n = data.draw(st.integers(0, 40), label="n")

    def column(elements, dtype):
        return data.draw(arrays(dtype, n, elements=elements))

    result = dataclasses.replace(
        _template(),
        emit_time_ns=column(_FLOATS, np.float64),
        state=column(st.integers(0, 3), np.int8),
        mu_eff=column(_FLOATS, np.float64),
        bob_basis=column(st.integers(0, 1), np.int8),
        c0=column(_INT64, np.int64),
        c1=column(_INT64, np.int64),
        leak_clicks=column(_INT64, np.int64),
        sifted=column(st.booleans(), bool),
        error=column(st.booleans(), bool),
    )
    assert pulse_csv_lines(result) == list(_row_wise_csv_lines(result))
