import hashlib

import pytest

from memqkd import OUTPUT_DIR_ENV, serialize_config, preset_config
from memqkd.cli import main
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
    # 3.5 blocks: a partial last block, several chunks, more workers than blocks.
    pulses = str(7 * BLOCK_PULSES // 2)
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
    "pulses.csv": "05485b8276e0941841a982b1b0930cc4f1f1dec0275859bf5b5f1ef998e8694d",
    "histogram.csv": "318b2329b33250c36418edf0f003d1433d0fa780bdbaf99190a30fd88ed97611",
    "summary.txt": "55ce7ff910d7dce590ff2298aa37c274e39f9378901cc9894658f64a6aa3e9ce",
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


def test_missing_config_file_is_config_error(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "absent.ini")) == 1


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
    from memqkd import parse_config

    config = parse_config(fragment)
    assert config.memory.background_mean == pytest.approx(0.12 * 2 / 7.2, rel=1e-12)


def test_calibrate_rejects_nonpositive_inputs():
    assert run_cli("calibrate", "--target-sbr", "0", "--mu", "2") == 1
    assert run_cli("calibrate", "--target-sbr", "5", "--mu", "-1") == 1


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
        (("--retrieval-efficiency", "nan"), "retrieval_efficiency must lie in [0, 1]"),
        (("--retrieval-efficiency", "5"), "retrieval_efficiency must lie in [0, 1]"),
        (("--retrieval-efficiency", "-0.1"), "retrieval_efficiency must lie in [0, 1]"),
        (("--mu", "inf"), "mu_memory must be positive and finite"),
        (("--target-sbr", "inf"), "target_sbr must be positive and finite"),
    ],
)
def test_calibrate_rejects_non_finite_or_unusable_inputs(capsys, flags, message):
    assert run_cli("calibrate", "--target-sbr", "5", "--mu", "2", *flags) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "[memory]" not in captured.out
