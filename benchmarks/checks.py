"""Output checks for the benchmark's workloads.

Each check reads the files one CLI command wrote and returns the list of
problems found (empty when the outputs are correct) together with the
facts the per-layer metrics are derived from. Only the documented output
formats are read, so the checks hold across refactors of the program.
"""

from __future__ import annotations

import math
from pathlib import Path

PULSE_CSV_HEADER = (
    "index,emit_time_ns,state,mu_eff,bob_basis,clicks_d0,clicks_d1,"
    "leak_clicks,sifted,error"
)
KEYRATE_MAP_HEADER = "mu,qber,rate"
KEYRATE_BOUNDARY_HEADER = "mu,qber_star"

_SUMMARY_COUNTS = (
    "pulses",
    "photons_arrived",
    "photons_retrieved",
    "photons_leaked",
    "photons_lost",
    "background_roi_counts",
    "sifted_z",
    "sifted_x",
    "errors_z",
    "errors_x",
)

#: Every this many grid lines, one rate is recomputed from the closed form.
_RATE_SAMPLE_STRIDE = 97
#: Offset around a boundary point at which the rate must change sign; the
#: sweep solves the boundary to 1e-6.
_BOUNDARY_MARGIN = 1e-5


def parse_summary(text: str) -> dict[str, str]:
    """``key = value`` lines of summary.txt as a dict of strings."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def check_run(
    outdir: Path,
    n_pulses: int,
    qber_window: tuple[float, float] | None,
    reference_summary: bytes | None = None,
) -> tuple[list[str], dict]:
    """Check pulses.csv, histogram.csv and summary.txt of one ``memqkd run``.

    qber_window is the closed interval qber_mean must lie in; None skips
    that check. When reference_summary is given, summary.txt must equal it
    byte for byte.
    """
    try:
        summary_bytes = (outdir / "summary.txt").read_bytes()
        summary = parse_summary(summary_bytes.decode())
        counts = {key: int(summary[key]) for key in _SUMMARY_COUNTS}
        qber_mean = float(summary["qber_mean"])
    except (OSError, UnicodeDecodeError, KeyError, ValueError) as exc:
        return [f"summary.txt unreadable: {exc!r}"], {}

    problems = []
    facts = {"sifted": counts["sifted_z"] + counts["sifted_x"]}
    if counts["pulses"] != n_pulses:
        problems.append(f"summary.txt pulses = {counts['pulses']}, expected {n_pulses}")
    photons_out = counts["photons_retrieved"] + counts["photons_leaked"] + counts["photons_lost"]
    if counts["photons_arrived"] != photons_out:
        problems.append(
            f"photons_arrived = {counts['photons_arrived']} but retrieved + leaked + "
            f"lost = {photons_out}"
        )
    if qber_window is not None and not qber_window[0] <= qber_mean <= qber_window[1]:
        problems.append(f"qber_mean = {qber_mean} outside {list(qber_window)}")
    if reference_summary is not None and summary_bytes != reference_summary:
        problems.append("summary.txt differs from the single-worker run")

    try:
        rows, sifted, errors = _pulse_csv_tallies(outdir / "pulses.csv")
        facts["pulses_csv_bytes"] = (outdir / "pulses.csv").stat().st_size
    except (OSError, ValueError) as exc:
        problems.append(f"pulses.csv unreadable: {exc}")
    else:
        if rows != n_pulses:
            problems.append(f"pulses.csv has {rows} data rows, expected {n_pulses}")
        if sifted != facts["sifted"]:
            problems.append(f"pulses.csv sifted sum {sifted} != sifted_z + sifted_x")
        if errors != counts["errors_z"] + counts["errors_x"]:
            problems.append(f"pulses.csv error sum {errors} != errors_z + errors_x")

    try:
        facts["clicks"] = _histogram_total(outdir / "histogram.csv")
    except (OSError, ValueError) as exc:
        problems.append(f"histogram.csv unreadable: {exc}")
    else:
        floor = (
            counts["photons_leaked"]
            + counts["photons_retrieved"]
            + counts["background_roi_counts"]
        )
        if facts["clicks"] < floor:
            problems.append(
                f"histogram.csv total {facts['clicks']} < leaked + retrieved + "
                f"background_roi_counts = {floor}"
            )
    return problems, facts


def _pulse_csv_tallies(path: Path) -> tuple[int, int, int]:
    """(data rows, sum of sifted, sum of error); raises ValueError on bad rows."""
    with path.open() as f:
        header = f.readline().rstrip("\n")
        if header != PULSE_CSV_HEADER:
            raise ValueError(f"header {header!r} is not the documented header")
        columns = header.split(",")
        width, i_sifted, i_error = len(columns), columns.index("sifted"), columns.index("error")
        rows = sifted = errors = 0
        for line in f:
            fields = line.split(",")
            if len(fields) != width:
                raise ValueError(f"row {rows + 1} has {len(fields)} fields, expected {width}")
            sifted += int(fields[i_sifted])
            errors += int(fields[i_error])
            rows += 1
    return rows, sifted, errors


def _histogram_total(path: Path) -> int:
    with path.open() as f:
        if f.readline().rstrip("\n") != "bin_start_ns,count":
            raise ValueError("missing bin_start_ns,count header")
        return sum(int(line.rsplit(",", 1)[1]) for line in f)


def _binary_entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reference_key_rate(mu: float, qber: float, ec_inefficiency: float) -> float:
    """Closed-form asymptotic key rate, written independently of memqkd."""
    h = _binary_entropy(qber)
    return mu * (math.exp(-mu) * (1.0 - h) - h * ec_inefficiency)


def check_sweep(
    outdir: Path, rows: int, cols: int, ec_inefficiency: float
) -> tuple[list[str], dict]:
    """Check keyrate_map.csv and keyrate_boundary.csv of one ``sweep-keyrate``."""
    problems = []
    try:
        with (outdir / "keyrate_map.csv").open() as f:
            lines = f.read().splitlines()
    except OSError as exc:
        return [f"keyrate_map.csv unreadable: {exc}"], {}
    if lines[:1] != [KEYRATE_MAP_HEADER]:
        problems.append("keyrate_map.csv lacks its mu,qber,rate header")
    if len(lines) != rows * cols + 1:
        problems.append(f"keyrate_map.csv has {len(lines)} lines, expected {rows * cols + 1}")
    try:
        for line in lines[1::_RATE_SAMPLE_STRIDE]:
            mu, qber, rate = (float(v) for v in line.split(","))
            expected = reference_key_rate(mu, qber, ec_inefficiency)
            if not math.isclose(rate, expected, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"rate at mu={mu}, qber={qber} is {rate}, expected {expected}")
                break
    except ValueError as exc:
        problems.append(f"keyrate_map.csv unreadable: {exc}")

    try:
        with (outdir / "keyrate_boundary.csv").open() as f:
            boundary = f.read().splitlines()
        if boundary[:1] != [KEYRATE_BOUNDARY_HEADER]:
            problems.append("keyrate_boundary.csv lacks its mu,qber_star header")
        if not 1 < len(boundary) <= rows + 1:
            problems.append(f"keyrate_boundary.csv has {len(boundary)} lines for {rows} mu values")
        for line in boundary[1:]:
            mu, q_star = (float(v) for v in line.split(","))
            inside = reference_key_rate(mu, q_star - _BOUNDARY_MARGIN, ec_inefficiency)
            outside = reference_key_rate(mu, q_star + _BOUNDARY_MARGIN, ec_inefficiency)
            if not inside > 0.0 > outside:
                problems.append(f"boundary qber {q_star} at mu={mu} is not the zero crossing")
                break
    except (OSError, ValueError) as exc:
        problems.append(f"keyrate_boundary.csv unreadable: {exc}")
    return problems, {}
