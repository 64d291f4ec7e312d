import dataclasses
import hashlib
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memqkd import cli, reports
from memqkd.cli import main
from memqkd.config import OUTPUT_DIR_ENV, ConfigError, RunConfig, parse_config, serialize_config
from memqkd.presets import preset_config
from memqkd.simulation import BLOCK_PULSES


def run_cli(*argv):
    return main(list(argv))


def test_run_preset_writes_outputs(tmp_path, capsys):
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", "400", "--seed", "7",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "pulses.csv").exists()
    assert (tmp_path / "histogram.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    out = capsys.readouterr().out
    assert "qber_mean" in out

    pulses = (tmp_path / "pulses.csv").read_text().splitlines()
    assert pulses[0] == (
        "index,emit_time_ns,state,mu_eff,bob_basis,clicks_d0,clicks_d1,"
        "leak_clicks,sifted,error"
    )
    assert len(pulses) == 401
    first = pulses[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0"
    assert first[2] in "HVDA"
    assert first[4] in "ZX"


def test_run_is_byte_identical_across_invocations(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        assert run_cli(
            "run", "--preset", "experiment3", "--pulses", "300", "--seed", "11",
            "--outdir", str(d),
        ) == 0
    for name in ("pulses.csv", "histogram.csv", "summary.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_run_is_byte_identical_across_worker_counts(tmp_path):
    # 5.5 blocks: a partial last block, more blocks than the four that two
    # workers keep in flight (so the window refills), more workers than blocks.
    pulses = str(11 * BLOCK_PULSES // 2)
    outputs = {}
    for workers in (1, 2, 3, 8):
        outdir = tmp_path / f"w{workers}"
        assert run_cli(
            "run", "--preset", "experiment3", "--pulses", pulses, "--seed", "4",
            "--workers", str(workers), "--outdir", str(outdir),
        ) == 0
        outputs[workers] = [
            (outdir / name).read_bytes()
            for name in ("pulses.csv", "histogram.csv", "summary.txt")
        ]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    assert outputs[8] == outputs[1]


#: sha256 of each output of `memqkd run --preset experiment3 --seed 2016
#: --pulses 57344` (3.5 blocks), recorded with numpy 2.4. Any change to the
#: stream layout, the draws or the output format changes them; such a change
#: must say so and record the new digests.
GOLDEN_DIGESTS = {
    "pulses.csv": "9f6aec58e69b464e64b4991867b094a92a9f2648febf6cbf9ba5be42925ab381",
    "histogram.csv": "73a8b8cfe32c333ff5d6e61457998a3266da2c7fd4dd66c26bac6c1d56f153ff",
    "summary.txt": "6d931ff6c5f7adb1cf598fa170546b71623968083973b30452fd37ae09606b17",
}


def test_run_outputs_match_golden_digests(tmp_path):
    assert run_cli(
        "run", "--preset", "experiment3", "--seed", "2016",
        "--pulses", str(7 * BLOCK_PULSES // 2), "--outdir", str(tmp_path),
    ) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_DIGESTS
    }
    assert digests == GOLDEN_DIGESTS


#: sha256 of pulses.csv from `memqkd run --preset experiment2 --seed 2016
#: --pulses 40960` (2.5 blocks), recorded with numpy 2.4. mu_eff is about
#: 100 there, so its values have a three-digit integer part, and some have
#: 15 or fewer significant digits.
EXPERIMENT2_PULSES_DIGEST = "013cc736967ff3fc6fd3a355bc103d0c3912349a35ff5b398f968c07ad602f54"


def test_bright_run_pulses_csv_matches_golden_digest(tmp_path):
    assert run_cli(
        "run", "--preset", "experiment2", "--seed", "2016",
        "--pulses", str(5 * BLOCK_PULSES // 2), "--outdir", str(tmp_path),
    ) == 0  # fmt: skip
    digest = hashlib.sha256((tmp_path / "pulses.csv").read_bytes()).hexdigest()
    assert digest == EXPERIMENT2_PULSES_DIGEST


def test_run_config_file(tmp_path):
    config = preset_config("experiment3", n_pulses=200, seed=3)
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(config))
    assert run_cli("run", "--config", str(path), "--outdir", str(tmp_path)) == 0


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[channel]\ntransmission = 2.0\n")
    code = run_cli("run", "--config", str(path), "--outdir", str(tmp_path))
    assert code == 1
    assert "transmission" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,line",
    [
        ("channel", "rel_fluctuation = nan"),
        ("source", "mu_alice = inf"),
        ("memory", "background_mean = inf"),
    ],
)
def test_non_finite_config_is_config_error(tmp_path, capsys, section, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{line}\n")
    outdir = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--outdir", str(outdir)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "must be finite" in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "line,message",
    [
        # ROI [1450, 1550] overlaps the background region [1200, 2000].
        ("retrieval_delay_ns = 1500", "must be disjoint"),
        # ROI [1940, 2040] ends past the record window [0, 2000].
        ("retrieval_delay_ns = 1990", "inside the record window"),
    ],
)
def test_misplaced_roi_is_config_error_before_any_output(tmp_path, capsys, line, message):
    path = tmp_path / "bad.ini"
    path.write_text(f"[memory]\n{line}\n")
    outdir = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--outdir", str(outdir)) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_click_load_above_the_cap_is_config_error_before_any_output(tmp_path, capsys):
    # numpy's Poisson draw used to fail on this mean after outdir was made.
    path = tmp_path / "bright.ini"
    path.write_text("[source]\nmu_alice = 1e300\n")
    outdir = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--pulses", "100", "--outdir", str(outdir)) == 1
    assert "exceed the cap of 2000" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "text,pulses",
    [
        # 2 * 1e308 overflows: the third pulse's emit time is not finite.
        ("[source]\npulse_period_ns = 1e308\nn_pulses = 3\n", "3"),
        # A one-pulse config is valid; --pulses 3 makes it overflow.
        ("[source]\npulse_period_ns = 1e308\nn_pulses = 1\n", "3"),
    ],
)
def test_overflowing_emit_time_is_config_error_before_any_output(tmp_path, capsys, text, pulses):
    path = tmp_path / "far.ini"
    path.write_text(text)
    outdir = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--pulses", pulses, "--outdir", str(outdir)) == 1
    assert "last emit time" in capsys.readouterr().err
    assert not outdir.exists()


def _huge_times_config(scale):
    """A 1000-pulse config with every time field multiplied by scale."""
    return f"""[source]
n_pulses = 1000
pulse_width_ns = {400.0 * scale!r}
pulse_period_ns = {40_000.0 * scale!r}
[memory]
background_mean = 100.0
retrieval_delay_ns = {5e305 * scale!r}
roi_width_ns = {1e305 * scale!r}
[analysis]
bin_width_ns = {1e301 * scale!r}
window_end_ns = {1e306 * scale!r}
background_start_ns = {6e305 * scale!r}
background_end_ns = {1e306 * scale!r}
"""


def test_histogram_sbr_does_not_depend_on_the_time_scale(tmp_path):
    # Scaling every time by a power of two bins every click alike; near the
    # top of the float range the background rescale once overflowed to a
    # silent sbr_histogram = 0.0.
    summaries = []
    for scale in (1.0, 2.0**-1000):
        path = tmp_path / "huge.ini"
        path.write_text(_huge_times_config(scale))
        outdir = tmp_path / repr(scale)
        assert run_cli("run", "--config", str(path), "--outdir", str(outdir)) == 0
        summaries.append((outdir / "summary.txt").read_text())
    assert summaries[0] == summaries[1]
    # About 1: 100 background counts per ROI and pulse against 0.17
    # retrieved photons; 0.01 is about three standard deviations.
    sbr = float(summaries[0].split("sbr_histogram = ")[1].split()[0])
    assert abs(sbr - 1.0) < 0.01


def test_output_path_that_is_a_directory_fails_before_any_output(tmp_path, capsys):
    (tmp_path / "histogram.csv").mkdir()
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", "100", "--outdir", str(tmp_path),
    )  # fmt: skip
    assert code == 2
    assert "histogram.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["histogram.csv"]
    assert not any((tmp_path / "histogram.csv").iterdir())


@pytest.mark.parametrize("existing", [False, True])
def test_failure_in_a_late_block_leaves_no_output(tmp_path, monkeypatch, existing):
    calls = []
    real_pulse_csv_rows = reports.pulse_csv_rows

    def failing_pulse_csv_rows(*args):
        calls.append(1)
        if len(calls) == 4:
            raise ValueError("injected failure in block 3")
        return real_pulse_csv_rows(*args)

    monkeypatch.setattr(reports, "pulse_csv_rows", failing_pulse_csv_rows)
    outdir = tmp_path / "out"
    if existing:
        outdir.mkdir()
        (outdir / "summary.txt").write_text("an earlier run\n")
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", str(7 * BLOCK_PULSES // 2),
        "--outdir", str(outdir),
    )  # fmt: skip
    assert code == 2
    assert len(calls) == 4
    if existing:
        # The earlier output set is left as it was, with no temporary directory.
        assert [p.name for p in outdir.iterdir()] == ["summary.txt"]
        assert (outdir / "summary.txt").read_text() == "an earlier run\n"
    else:
        assert not outdir.exists()
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])


def test_missing_config_file_is_config_error(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "absent.ini")) == 1


@pytest.mark.parametrize("command", ["run", "calibrate"])
@pytest.mark.parametrize("target", ["absent.ini", "a-directory"])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, command, target):
    (tmp_path / "a-directory").mkdir()
    outdir = tmp_path / "out"
    if command == "run":
        flags = ("--outdir", str(outdir))
    else:
        flags = ("--target-sbr", "5", "--mu", "2")
    assert run_cli(command, "--config", str(tmp_path / target), *flags) == 1
    captured = capsys.readouterr()
    assert "cannot read config file" in captured.err
    assert "[memory]" not in captured.out
    assert not outdir.exists()


def test_calibrate_config_and_efficiency_are_exclusive(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(RunConfig()))
    flags = ("--config", str(path), "--retrieval-efficiency", "0.1")
    assert run_cli("calibrate", "--target-sbr", "5", "--mu", "2", *flags) == 1
    captured = capsys.readouterr()
    assert "--config" in captured.err and "--retrieval-efficiency" in captured.err
    assert "[memory]" not in captured.out


def test_roi_centre_is_not_an_analysis_key(tmp_path, capsys):
    # The ROI is centred on [memory] retrieval_delay_ns alone.
    path = tmp_path / "roi.ini"
    path.write_text("[analysis]\nroi_center_ns = 900\n")
    outdir = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--outdir", str(outdir)) == 1
    assert "line 2: unknown key 'roi_center_ns' in [analysis]" in capsys.readouterr().err
    assert not outdir.exists()


def test_bad_flag_is_config_error(capsys):
    assert run_cli("run", "--preset", "experiment9") == 1
    assert "configuration error" in capsys.readouterr().err


def test_runtime_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", "10",
        "--outdir", str(blocker / "sub"),
    )
    assert code == 2


def test_out_of_memory_is_runtime_error_without_output(tmp_path, monkeypatch, capsys):
    # A grid too large to allocate: numpy raises MemoryError (its subclass
    # _ArrayMemoryError) from inside key_rate_map.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "key_rate_map", out_of_memory)
    code = run_cli(
        "sweep-keyrate", "--mu-range", "0.1:2", "--qber-range", "0:0.1",
        "--resolution", "100000x100000", "--outdir", str(tmp_path / "out"),
    )  # fmt: skip
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: Unable to allocate 74.5 GiB for an array"
    ]
    assert list(tmp_path.iterdir()) == []


def test_env_var_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert run_cli("run", "--preset", "experiment3", "--pulses", "50") == 0
    assert (target / "summary.txt").exists()


def test_sweep_point_query_flags_regions(tmp_path, capsys):
    code = run_cli(
        "sweep-keyrate", "--mu-range", "1.6:1.6", "--qber-range", "0.119:0.119",
        "--resolution", "1x1", "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outside positive region" in out
    assert "rate=-0.731522" in out

    code = run_cli(
        "sweep-keyrate", "--mu-range", "1.0", "--qber-range", "0.03",
        "--resolution", "1", "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "inside positive region" in out
    assert "rate=0.092255" in out


def test_sweep_single_cell_equals_point_query(tmp_path):
    assert run_cli(
        "sweep-keyrate", "--mu-range", "1.0", "--qber-range", "0.03",
        "--resolution", "1x1", "--outdir", str(tmp_path),
    ) == 0
    rows = (tmp_path / "keyrate_map.csv").read_text().splitlines()
    assert rows[0] == "mu,qber,rate"
    assert len(rows) == 2
    mu, qber, rate = (float(x) for x in rows[1].split(","))
    assert (mu, qber) == (1.0, 0.03)
    assert rate == pytest.approx(0.09225522242092865, rel=1e-9)


def test_sweep_marks_operating_points(tmp_path, capsys):
    assert run_cli(
        "sweep-keyrate", "--mu-range", "0.5:2.0", "--qber-range", "0:0.15",
        "--resolution", "10x10", "--outdir", str(tmp_path),
    ) == 0
    out = capsys.readouterr().out
    assert out.count("operating point") == 2
    boundary = (tmp_path / "keyrate_boundary.csv").read_text().splitlines()
    assert boundary[0] == "mu,qber_star"
    assert len(boundary) == 11  # every mu has a positive region


def test_sweep_csv_precision(tmp_path):
    assert run_cli(
        "sweep-keyrate", "--mu-range", "0.5:1.5", "--qber-range", "0:0.1",
        "--resolution", "3x3", "--outdir", str(tmp_path),
    ) == 0
    rows = (tmp_path / "keyrate_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        for fieldtext in row.split(","):
            mantissa = fieldtext.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) >= 9  # at least 9 significant digits


def test_sweep_rejects_inverted_or_degenerate_ranges(capsys):
    assert run_cli(
        "sweep-keyrate", "--mu-range", "2.0:1.0", "--qber-range", "0:0.1"
    ) == 1
    assert run_cli(
        "sweep-keyrate", "--mu-range", "1.0:1.0", "--qber-range", "0:0.1",
        "--resolution", "5x5",
    ) == 1
    assert run_cli(
        "sweep-keyrate", "--mu-range", "1.0:2.0", "--qber-range", "0.2:0.6"
    ) == 1


def test_calibrate_matches_noise_suppressed_preset(capsys):
    assert run_cli("calibrate", "--target-sbr", "26", "--mu", "1.3") == 0
    out = capsys.readouterr().out
    assert "[memory]" in out
    value = float(out.splitlines()[-1].split("=")[1])
    preset = preset_config("experiment4")
    assert value == pytest.approx(preset.memory.effective_background, rel=1e-12)


def test_calibrate_large_sbr_drives_background_to_zero(capsys):
    assert run_cli("calibrate", "--target-sbr", "1e12", "--mu", "2") == 0
    value = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_calibrate_fragment_parses_back(tmp_path, capsys):
    assert run_cli("calibrate", "--target-sbr", "7.2", "--mu", "2") == 0
    fragment = capsys.readouterr().out
    from memqkd.config import parse_config

    config = parse_config(fragment)
    assert config.memory.background_mean == pytest.approx(0.12 * 2 / 7.2, rel=1e-12)


def test_calibrate_rejects_nonpositive_inputs():
    assert run_cli("calibrate", "--target-sbr", "0", "--mu", "2") == 1
    assert run_cli("calibrate", "--target-sbr", "5", "--mu", "-1") == 1


def test_calibrate_rejects_zero_efficiency(tmp_path, capsys):
    # No background level gives a finite target ratio when nothing is retrieved.
    config = tmp_path / "zero.ini"
    config.write_text("[memory]\nretrieval_efficiency = 0\n")
    for flags in (("--retrieval-efficiency", "0"), ("--config", str(config))):
        assert run_cli("calibrate", "--target-sbr", "5", "--mu", "2", *flags) == 1
        captured = capsys.readouterr()
        assert "retrieval_efficiency must lie in (0, 1], got 0.0" in captured.err
        assert "[memory]" not in captured.out


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--mu-range", "-1:2"), "mu must be positive and finite, got -1.0"),
        (("--mu-range", "-1:-2"), "--mu-range is inverted: '-1:-2'"),
        (("--qber-range", "-.2:0.4"), "qber_x must lie in [0, 0.5], got -0.2"),
    ],
)
def test_sweep_range_may_start_with_a_minus_sign(tmp_path, capsys, flags, message):
    # argparse used to read "-1:2" as an unknown option, not as the range.
    outdir = tmp_path / "out"
    assert run_cli(
        "sweep-keyrate", "--mu-range", "0.5:2", "--qber-range", "0:0.1", *flags,
        "--outdir", str(outdir),
    ) == 1  # fmt: skip
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--f", "nan"), "ec_inefficiency must be >= 1 and finite"),
        (("--f", "inf"), "ec_inefficiency must be >= 1 and finite"),
        (("--tol", "inf"), "tol must be positive and finite"),
        (("--mu-range", "inf", "--resolution", "1x5"), "--mu-range bounds must be finite"),
        (("--mu-range", "1:inf"), "--mu-range bounds must be finite"),
        (("--qber-range", "0:nan"), "--qber-range bounds must be finite"),
    ],
)
def test_sweep_rejects_non_finite_inputs(tmp_path, capsys, flags, message):
    outdir = tmp_path / "out"
    # A repeated flag overrides the earlier one.
    assert run_cli(
        "sweep-keyrate", "--mu-range", "0.5:2", "--qber-range", "0:0.1",
        "--resolution", "3x3", *flags, "--outdir", str(outdir),
    ) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--retrieval-efficiency", "nan"), "retrieval_efficiency must lie in (0, 1]"),
        (("--retrieval-efficiency", "5"), "retrieval_efficiency must lie in (0, 1]"),
        (("--retrieval-efficiency", "-0.1"), "retrieval_efficiency must lie in (0, 1]"),
        (("--mu", "inf"), "mu_memory must be positive and finite"),
        (("--target-sbr", "inf"), "target_sbr must be positive and finite"),
    ],
)
def test_calibrate_rejects_non_finite_or_unusable_inputs(capsys, flags, message):
    assert run_cli("calibrate", "--target-sbr", "5", "--mu", "2", *flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "[memory]" not in captured.out


#: Float values at the edges of every range: non-finite, signed zero,
#: subnormal, huge.
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1.0, -1.0, 1e300,
    1.7976931348623157e308, -1.7976931348623157e308,
]  # fmt: skip
#: Retrieval delays (ROI centres) at the edges of the default ROI
#: placement: touching the record window or the background region, and one
#: ulp past either.
EDGE_ROI_CENTRES = [
    50.0, math.nextafter(50.0, 0.0), 1150.0, math.nextafter(1150.0, math.inf), 1950.0, 0.0,
]  # fmt: skip
#: (section, field name, default) of every float field of a run config.
FLOAT_KEYS = [
    (section, field.name, getattr(getattr(RunConfig(), section), field.name))
    for section in ("source", "channel", "memory", "analysis")
    for field in dataclasses.fields(getattr(RunConfig(), section))
    if field.type.startswith("float")
]


def _float_value(name, default):
    values = [default, default / 2, 2 * default, -default, math.nextafter(default, math.inf)]
    if name == "retrieval_delay_ns":
        values += EDGE_ROI_CENTRES
    return st.sampled_from(values) | st.sampled_from(EDGE_FLOATS) | st.floats()


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_every_parsed_config_runs_or_is_a_config_error(data):
    # A few float fields take values near their default, at a range edge or
    # anywhere; the run is tiny. Parsing either succeeds, and then the run
    # must too, or raises ConfigError, and then the run exits 1. Any other
    # exception, or a numpy warning (an error under pytest), fails.
    keys = data.draw(st.sets(st.sampled_from(FLOAT_KEYS), max_size=4), label="keys")
    sections = {"source": [f"n_pulses = {data.draw(st.integers(0, 3), label='n')}"]}
    for section, name, default in sorted(keys):
        value = data.draw(_float_value(name, default), label=name)
        sections.setdefault(section, []).append(f"{name} = {value!r}")
    text = "".join(
        f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
        for name, lines in sections.items()
    )
    try:
        parse_config(text)
        expected = 0
    except ConfigError:
        expected = 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--outdir", str(Path(tmp) / "out")]) == expected
