import dataclasses

import pytest

from memqkd import POLARIZATION_CYCLE, preset_config, run_experiment
from memqkd.qubits import BASES
from memqkd.reports import PULSE_CSV_HEADER, _num, pulse_csv_lines


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


@pytest.mark.parametrize("period_ns", [40_000.0, 1234.5678])
def test_pulse_csv_matches_row_wise_formatting(period_ns):
    config = preset_config("experiment3", n_pulses=3000, seed=19)
    config = dataclasses.replace(
        config, source=dataclasses.replace(config.source, pulse_period_ns=period_ns)
    )
    result = run_experiment(config)
    times = [_num(t) for t in result.emit_time_ns.tolist()]
    if period_ns != 40_000.0:
        # Both the integral and the repr branch of _num are exercised.
        assert "0" in times and any("." in t for t in times)
    assert pulse_csv_lines(result) == list(_row_wise_csv_lines(result))
