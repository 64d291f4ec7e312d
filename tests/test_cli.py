import ctypes
import dataclasses
import hashlib
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memqkd import cli, reports, simulation
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


def test_run_is_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    # 5.5 blocks: a partial last block, more blocks than the four that two
    # workers keep in flight (so the window refills), more workers than blocks.
    # Up to 8 threads start, whatever the host's CPU count.
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 8)
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


def test_run_with_workers_leaves_no_thread_behind(tmp_path):
    threads = threading.active_count()
    assert run_cli(
        "run", "--preset", "experiment3", "--pulses", str(4 * BLOCK_PULSES),
        "--workers", "3", "--outdir", str(tmp_path),
    ) == 0  # fmt: skip
    assert threading.active_count() == threads


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # Workers are threads: neither multiprocessing nor the process pool is
    # imported, in a fresh interpreter that imports only the cli, and a run
    # and a sweep through main import neither argparse nor locale (building
    # argparse's parsers cost a cold call 2-3 ms, most of it importing locale).
    code = (
        "import sys, memqkd.cli\n"
        "out = sys.argv[1]\n"
        "assert memqkd.cli.main(['run', '--preset', 'experiment3', '--pulses', '100',"
        " '--outdir', out + '/run']) == 0\n"
        "assert memqkd.cli.main(['sweep-keyrate', '--mu-range', '0.5:2', '--qber-range',"
        " '0:0.1', '--resolution', '3x3', '--outdir', out + '/sweep']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
        "or m in ('concurrent.futures.process', 'argparse', 'locale')))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.splitlines()[-1] == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc policy")
def test_repeated_runs_fault_in_no_freed_memory(tmp_path):
    # Each block frees buffers the next allocates again. Under glibc's
    # default policy they went back to the system, and a warm 4-block call
    # faulted over 1,000 pages in again; kept, it faults about ten.
    # In some heap layouts one of the first few warm calls grows the heap
    # once more through fragmentation, so the fewest faults of calls 3-5
    # are checked, not those of one call.
    code = (
        "import resource, sys; from memqkd import cli\n"
        f"argv = ['run', '--preset', 'experiment3', '--pulses', '{4 * BLOCK_PULSES}',"
        " '--workers', '1', '--outdir', sys.argv[1]]\n"
        "faults = []\n"
        "for _ in range(5):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert cli.main(argv) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(min(faults[2:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert int(out.splitlines()[-1]) < 100


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_run_without_mallopt_writes_the_same_outputs(tmp_path, monkeypatch, libc):
    argv = ("run", "--preset", "experiment3", "--pulses", "300", "--seed", "5", "--outdir")
    assert run_cli(*argv, str(tmp_path / "a")) == 0
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc(name))
    assert run_cli(*argv, str(tmp_path / "b")) == 0
    assert opened == [None]
    for name in ("pulses.csv", "histogram.csv", "summary.txt"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_main_sets_the_malloc_policy_before_any_pool_thread_starts(tmp_path, monkeypatch):
    # glibc applies M_ARENA_MAX only to arenas made after the call, so it
    # must come before the pool's threads allocate.
    calls = []

    def mallopt(param, value):
        calls.append((param, value, threading.active_count()))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    threads = threading.active_count()
    argv = ("run", "--preset", "experiment3", "--pulses", str(2 * BLOCK_PULSES), "--seed", "5")
    assert run_cli(*argv, "--workers", "2", "--outdir", str(tmp_path)) == 0
    # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD and M_ARENA_MAX (malloc.h).
    assert calls == [(-1, 2**30, threads), (-3, 2**25, threads), (-8, 1, threads)]


def _sampler_digests():
    """sha256 of the output of each kind of Generator call a block makes
    (simulate_block and record_clicks), at the dtypes and mean regimes they
    use, each drawn from its own stream keyed as a block's stream is."""
    draws = {
        "integers(4, int8)": lambda rng: rng.integers(4, size=1000, dtype=np.int8),
        "normal": lambda rng: rng.normal(1.0, 0.25, 1000),
        "integers(2, int8)": lambda rng: rng.integers(2, size=1000, dtype=np.int8),
        # numpy draws a Poisson mean below 10 by one algorithm and a larger
        # one by another.
        "poisson(means below 10)": lambda rng: rng.poisson(np.linspace(0.0, 9.99, 1000)),
        "poisson(means from 10)": lambda rng: rng.poisson(np.linspace(10.0, 200.0, 1000)),
        "poisson(scalar mean, size)": lambda rng: rng.poisson(0.05, 1000),
        "poisson(scalar mean)": lambda rng: np.array(rng.poisson(3000.5)),
        # The trailing cell takes what the others leave, as in record_clicks.
        "multinomial": lambda rng: rng.multinomial(5000, np.append(np.full(40, 0.02), 0.0)),
        "spawn(1)": lambda rng: rng.spawn(1)[0].poisson(2.0, 1000),
    }
    return {
        name: hashlib.sha256(draw(np.random.default_rng([2016, k])).tobytes()).hexdigest()
        for k, (name, draw) in enumerate(draws.items())
    }


#: The numpy version SAMPLER_DIGESTS, GOLDEN_DIGESTS and
#: EXPERIMENT2_PULSES_DIGEST were recorded with.
SAMPLER_NUMPY = "2.4.6"
SAMPLER_DIGESTS = {
    "integers(4, int8)": "ba75e35c2c0cd9b9ead032b3b5c84eb6981d160ce4832e28da931f98a69ce195",
    "normal": "b7325c07d14adaef8d5d8ed0112b9ae1e98bf292495659ce8ad4fce24b810ffe",
    "integers(2, int8)": "520557e6a04654bcb4ebc254b37a0a3191a5137abeea42ae58517755e301bf5b",
    "poisson(means below 10)": "d6b04fb77adf856b013c54a4b6a5643a062847a5a3eb85c20cf9889fcc6dd01b",
    "poisson(means from 10)": "6d36213b1b4bd8f4d3911570e32d3f7c1f6d9de71a47d130f61f056e7562edec",
    "poisson(scalar mean, size)": "f7898d09f795c7d39d54fcb24a364b62e9685002da6a7b210af5f43e1fa2488a",
    "poisson(scalar mean)": "adb0325d321aa0c76cb9e78e803b87f81db35f26bcf62227595d8f2c6fd4c036",
    "multinomial": "ba24784129353ca5b3b72ddc05edd04bbde54a9ae28a88566891eca614d84e82",
    "spawn(1)": "e3a23ec3849d92ec4496b2c3e87af9bdd42a632e56be88f41c74e4de25560f25",
}


def test_sampler_canary():
    # NEP 19 does not promise numpy's sampler streams from one version to the
    # next, and every seeded output of memqkd run is drawn from them.
    assert _sampler_digests() == SAMPLER_DIGESTS, (
        f"numpy's streams moved: numpy {np.__version__} draws other values "
        f"than numpy {SAMPLER_NUMPY}"
    )


def _which_moved():
    """The message of a failed memqkd run golden digest: the sampler canary
    tells whether numpy's streams or memqkd's output moved."""
    if _sampler_digests() != SAMPLER_DIGESTS:
        return (
            f"numpy's streams moved (test_sampler_canary fails on numpy "
            f"{np.__version__}; recorded on {SAMPLER_NUMPY})"
        )
    return "memqkd's output moved (test_sampler_canary passes: numpy's streams did not)"


#: sha256 of each output of `memqkd run --preset experiment3 --seed 2016
#: --pulses 57344` (3.5 blocks), recorded with numpy 2.4. Any change to the
#: stream layout, the draws or the output format changes them; such a change
#: must say so and record the new digests.
GOLDEN_DIGESTS = {
    "pulses.csv": "265e94952c32e684067b6195eb9994c59b0bfd3c01557055f49fbd44b98ea548",
    "histogram.csv": "be4393bb101b7d2d30f90e62e5ed718260693779492e6bd03c2989a87fbc2517",
    "summary.txt": "7eb2eecd2a001095f22fb98b041095db368a222ec476ed74a7df8293bc7edaa5",
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
    assert digests == GOLDEN_DIGESTS, _which_moved()


#: sha256 of pulses.csv from `memqkd run --preset experiment2 --seed 2016
#: --pulses 40960` (2.5 blocks), recorded with numpy 2.4. mu_eff is about
#: 100 there, so its values have a three-digit integer part, and some have
#: 15 or fewer significant digits.
EXPERIMENT2_PULSES_DIGEST = "abbf50100bf425fb4b5b2676f1238d24f045d0daef003f58b7ccc5c5e3c1c835"


def test_bright_run_pulses_csv_matches_golden_digest(tmp_path):
    assert run_cli(
        "run", "--preset", "experiment2", "--seed", "2016",
        "--pulses", str(5 * BLOCK_PULSES // 2), "--outdir", str(tmp_path),
    ) == 0  # fmt: skip
    digest = hashlib.sha256((tmp_path / "pulses.csv").read_bytes()).hexdigest()
    assert digest == EXPERIMENT2_PULSES_DIGEST, _which_moved()


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
    # The ROI holds 100 background counts per pulse and 0.12 * 1.6
    # retrieved photons, against 100 background counts rescaled from the
    # background region. Over seeds 1-200 this config's sbr_histogram had
    # mean 1.0018 and sd 0.0035; the band is three sd around the expectation.
    expected = 1.0 + 0.12 * 1.6 / 100.0
    sbr = float(summaries[0].split("sbr_histogram = ")[1].split()[0])
    assert abs(sbr - expected) < 3 * 0.0035


def test_summary_has_no_fidelity_outside_the_estimator_range(tmp_path):
    # experiment3 retrieves about 0.19 photons per pulse: no background
    # makes both ratios infinite, a background of 1 puts the counting ratio
    # near 0.19, below the estimator's 0.5, and 0 pulses leave no QBER and,
    # with neither signal nor background, no ratio.
    def summary(pulses, background=None):
        config = preset_config("experiment3", n_pulses=pulses, seed=5)
        if background is not None:
            memory = dataclasses.replace(config.memory, background_mean=background)
            config = dataclasses.replace(config, memory=memory)
        outdir = tmp_path / f"{pulses}-{background}"
        path = tmp_path / "run.ini"
        path.write_text(serialize_config(config))
        assert run_cli("run", "--config", str(path), "--outdir", str(outdir)) == 0
        text = (outdir / "summary.txt").read_text()
        return dict(line.split(" = ", 1) for line in text.splitlines())

    no_fidelity = ("n/a (sbr outside estimator validity)", "n/a")
    dark = summary(2000, background=0.0)
    assert (dark["sbr_counting"], dark["sbr_histogram"]) == ("inf", "inf")
    assert (dark["fidelity"], dark["classical_bound"]) == no_fidelity
    bright = summary(2000, background=1.0)
    assert 0.0 < float(bright["sbr_counting"]) < 0.5
    assert (bright["fidelity"], bright["classical_bound"]) == no_fidelity
    empty = summary(0)
    assert (empty["qber_z"], empty["sbr_counting"], empty["sbr_histogram"]) == ("n/a",) * 3
    assert (empty["fidelity"], empty["classical_bound"]) == no_fidelity


def test_output_path_that_is_a_directory_fails_before_any_output(tmp_path, capsys):
    (tmp_path / "histogram.csv").mkdir()
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", "100", "--outdir", str(tmp_path),
    )  # fmt: skip
    assert code == 2
    assert "histogram.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["histogram.csv"]
    assert not any((tmp_path / "histogram.csv").iterdir())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("existing", [False, True])
def test_failure_in_a_late_block_leaves_no_output(tmp_path, monkeypatch, existing, workers):
    calls = []
    real_pulse_fields = reports._pulse_fields

    def failing_pulse_fields(*args):
        calls.append(1)
        if len(calls) == 4:
            raise ValueError("injected failure in block 3")
        return real_pulse_fields(*args)

    monkeypatch.setattr(reports, "_pulse_fields", failing_pulse_fields)
    outdir = tmp_path / "out"
    if existing:
        outdir.mkdir()
        (outdir / "summary.txt").write_text("an earlier run\n")
    code = run_cli(
        "run", "--preset", "experiment3", "--pulses", str(7 * BLOCK_PULSES // 2),
        "--workers", str(workers), "--outdir", str(outdir),
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


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "command,files",
    [
        (("run", "--preset", "experiment3", "--pulses", "100"),
         ["histogram.csv", "pulses.csv", "summary.txt"]),
        (("sweep-keyrate", "--mu-range", "0.1:2", "--qber-range", "0:0.1",
          "--resolution", "5x4"),
         ["keyrate_boundary.csv", "keyrate_map.csv"]),
    ],
)  # fmt: skip
def test_success_leaves_no_staging_directory(tmp_path, existing, command, files):
    outdir = tmp_path / "out"
    if existing:
        outdir.mkdir()
    assert run_cli(*command, "--outdir", str(outdir)) == 0
    assert sorted(p.name for p in outdir.iterdir()) == files
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


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


#: Every flag of each command, as its --help must name them.
COMMAND_FLAGS = {
    "run": ("--preset", "--config", "--seed", "--pulses", "--workers", "--outdir"),
    "sweep-keyrate": ("--mu-range", "--qber-range", "--resolution", "--f", "--tol", "--outdir"),
    "calibrate": ("--target-sbr", "--mu", "--retrieval-efficiency", "--config"),
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *COMMAND_FLAGS])
def test_help_names_every_flag(tmp_path, monkeypatch, capsys, command, flag):
    # No required flag is needed, and nothing is written.
    monkeypatch.chdir(tmp_path)
    argv = [flag] if command is None else [command, flag]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: memqkd")
    for name in COMMAND_FLAGS if command is None else (*COMMAND_FLAGS[command], "--help"):
        assert name in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pulses", [("--pulses=100",), ("--pul", "100"), ("--pul=100",)])
def test_flag_value_after_equals_sign_or_a_unique_prefix(tmp_path, pulses):
    argv = ("run", "--preset", "experiment3", *pulses, "--outdir", str(tmp_path))
    assert run_cli(*argv) == 0
    assert len((tmp_path / "pulses.csv").read_text().splitlines()) == 101


def test_main_without_argv_reads_the_command_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["memqkd", "calibrate", "--target-sbr", "26", "--mu", "1.3"])
    assert main() == 0
    assert "[memory]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,message",
    [
        (("run", "--preset", "experiment9"), "experiment9"),
        (("run", "--preset", "experiment3", "--pulses", "2.5"), "--pulses"),
        (("run", "--preset", "experiment3", "--p", "100"), "--p"),
        (("bogus",), "'bogus'"),
        (("run", "--preset", "experiment3", "--bogus", "1"), "--bogus"),
        (("run", "--preset", "experiment3", "stray"), "stray"),
        (("sweep-keyrate", "--mu-range", "0.5:2"), "--qber-range"),
        (("run",), "--preset"),
        (("run", "--preset", "experiment3", "--config", "run.ini"), "--config"),
        (("run", "--preset", "experiment3", "--seed"), "--seed"),
        ((), "command"),
    ],
)
def test_bad_flag_is_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "out"
    flags = ("--outdir", str(outdir)) if argv else ()
    # --outdir goes right after the command: a case's last flag may lack its value.
    assert run_cli(*argv[:1], *flags, *argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_runtime_error_exit_code(tmp_path, capsys):
    # An output directory at or under a regular file: the message names the
    # file, not a staging directory, and nothing is left behind.
    blocker = tmp_path / "file"
    blocker.write_text("x")
    for outdir in (blocker, blocker / "sub"):
        code = run_cli(
            "run", "--preset", "experiment3", "--pulses", "10", "--outdir", str(outdir),
        )  # fmt: skip
        assert code == 2
        err = capsys.readouterr().err
        assert f"output path is not a directory: {str(blocker)!r}" in err
        assert ".memqkd-" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert blocker.read_text() == "x"


def test_process_exit_codes(tmp_path):
    # The installed memqkd command runs entry_point, as python -m memqkd.cli does.
    blocker = tmp_path / "file"
    blocker.write_text("x")
    run = ("run", "--preset", "experiment3", "--pulses", "100")
    cases = [
        (0, (*run, "--outdir", str(tmp_path / "out"))),
        (1, ("run", "--preset", "nope")),
        (0, ("--help",)),
        (0, ("run", "--help")),
        (2, (*run, "--outdir", str(blocker))),
    ]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for code, argv in cases:
        done = subprocess.run(
            [sys.executable, "-m", "memqkd.cli", *argv],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == code, (argv, done.stderr)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "histogram.csv", "pulses.csv", "summary.txt",
    ]  # fmt: skip


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


#: sha256 of the outputs of `memqkd sweep-keyrate --mu-range 0.01:50
#: --qber-range 0:0.5 --resolution 137x211`, recorded with one f"{v:.12e}"
#: per value. The grid holds QBER 0, negative rates, exponents down to e-1x
#: and a cell count that no power-of-two batch divides.
SWEEP_DIGESTS = {
    "keyrate_map.csv": "b7e11e6cc029ac051380fb657c528a03396f25ed81605b92c99537934ad3ce5f",
    "keyrate_boundary.csv": "84fc760353d039b8c054cdd0ee6cf630d8438ab29bfce4d54ada5d6b63be697e",
}


def test_sweep_outputs_match_golden_digests(tmp_path):
    assert run_cli(
        "sweep-keyrate", "--mu-range", "0.01:50", "--qber-range", "0:0.5",
        "--resolution", "137x211", "--outdir", str(tmp_path),
    ) == 0  # fmt: skip
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in SWEEP_DIGESTS
    }
    assert digests == SWEEP_DIGESTS


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


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ("--mu-range", "1:1.0000000000000002", "--resolution", "3x2"),
            "--mu-range: range 1.0:1.0000000000000002 cannot hold 3 distinct points",
        ),
        (
            ("--qber-range", "0.1:0.10000000000000002", "--resolution", "2x3"),
            "--qber-range: range 0.1:0.10000000000000002 cannot hold 3 distinct points",
        ),
    ],
    ids=["mu", "qber"],
)
def test_sweep_rejects_a_range_too_narrow_for_its_points(tmp_path, capsys, flags, message):
    # The two ends are adjacent floats, so linspace repeats one of three points.
    outdir = tmp_path / "out"
    assert run_cli(
        "sweep-keyrate", "--mu-range", "1:2", "--qber-range", "0:0.1", *flags,
        "--outdir", str(outdir),
    ) == 1  # fmt: skip
    assert message in capsys.readouterr().err
    assert not outdir.exists()


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
    # A flag takes the next argument as its value, even one that starts
    # with a minus sign.
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
        # The background would overflow to inf, underflow to 0 or be
        # subnormal, or the signal it is divided from would be subnormal.
        (
            ("--target-sbr", "1e-320", "--mu", "1e308"),
            "background_mean must be finite and at least 2.2250738585072014e-308, got inf for",
        ),
        (
            ("--target-sbr", "1e308", "--mu", "1e-308"),
            "background_mean must be finite and at least 2.2250738585072014e-308, got 0.0 for",
        ),
        (
            ("--target-sbr", "1e308", "--mu", "1e-14"),
            "background_mean must be finite and at least 2.2250738585072014e-308, got 1e-323 for",
        ),
        (
            ("--target-sbr", "1e-10", "--mu", "1e-308"),
            "retrieval_efficiency * mu_memory must be at least 2.2250738585072014e-308, "
            "got 1.2e-309",
        ),
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
