"""Tests of the benchmark itself: run with ``python3 -m pytest benchmarks -q``."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import run
from checks import check_run, check_sweep
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The experiment3 QBER window is statistical, sized for 10^5 pulses; the
# tiny smoke sizes accept any rate there and keep every other check.
TINY = {
    "exp3-single": replace(
        run.WORKLOADS["exp3-single"], pulses=2000, qber_window=(0.0, 0.5), qber_pulses=3000
    ),
    "exp2-bright": replace(run.WORKLOADS["exp2-bright"], pulses=1000, qber_pulses=1000),
    "exp3-two-workers": replace(
        run.WORKLOADS["exp3-two-workers"], pulses=2000, qber_window=(0.0, 0.5), qber_pulses=3000
    ),
    "sweep-grid": run.SweepWorkload(20, 30),
}


def _spec(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert _spec("end_to_end") == {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert _spec("per_layer") == {k: unit for k, (unit, _) in run.PER_LAYER.items()}
    assert BENCHMARK["paths"] == ["benchmarks"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    result = run.measure(name, seed=5, seconds=0, trace=trace, workload=TINY[name], min_reps=1)
    assert result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_child_imports_nothing_of_its_own_before_memqkd():
    # Modules the harness imported before memqkd would be shared with it, and
    # their import time would leave setup_s. These four are loaded by
    # interpreter start-up.
    tree = ast.parse((ROOT / "benchmarks" / "child.py").read_text())
    top_level = [
        alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert top_level == ["time", "marshal", "os", "sys"]
    startup = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    ).stdout.split()  # fmt: skip
    assert set(top_level) <= set(startup)


def test_setup_time_runs_from_spawn():
    session = run.Session("sweep-grid", 2, TINY["sweep-grid"])
    try:
        report, _ = session.repetition("setup")
    finally:
        session.close()
    assert report is not None
    # Interpreter start-up alone takes milliseconds; the probe is not counted.
    assert 0.005 < report["import_s"] < 30
    assert report["setup_probe_s"] > 0


def test_traced_self_time_plus_children_equals_total():
    session = run.Session("exp3-single", 3, TINY["exp3-single"])
    try:
        report, _ = session.repetition("trace")
    finally:
        session.close()
    stats = report["trace"]["stats"]
    children = sum(
        stats[f"simulation.{name}"][1]
        for name in ("pulse_rng", "sample_arriving_photons", "apply_memory", "measure")
    )
    calls, total, own = stats["simulation.run_experiment"]
    assert calls == 1
    assert own + children == pytest.approx(total, rel=1e-9)
    assert stats["simulation.pulse_rng"][0] == TINY["exp3-single"].pulses


@pytest.fixture(scope="module")
def bright_outputs(tmp_path_factory) -> Path:
    """A real single-worker experiment2 output set (its QBER is 0 at any size)."""
    session = run.Session("exp2-bright", 7, TINY["exp2-bright"])
    session.outdir = tmp_path_factory.mktemp("bright")
    report, _ = session.repetition("plain")
    assert report is not None and session.failed == 0
    return session.outdir


def _corrupted_copy(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def test_clean_outputs_pass(bright_outputs):
    problems, facts = check_run(bright_outputs, 1000, run.QBER_WINDOW_EXP2)
    assert problems == []
    assert facts["clicks"] > facts["sifted"] > 0


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        ("pulses.csv", lambda t: "".join(t.splitlines(True)[:-1]), "data rows"),
        ("pulses.csv", lambda t: t[: len(t) // 2], "pulses.csv"),
        ("pulses.csv", lambda t: t.replace(",1,0\n", ",0,0\n", 1), "sifted sum"),
        ("summary.txt", lambda t: t.replace("photons_lost = ", "photons_lost = 1"), "photons_arrived"),
        ("summary.txt", lambda t: t.replace("qber_mean = 0.0", "qber_mean = 0.2"), "qber_mean"),
        ("histogram.csv", lambda t: t.splitlines()[0] + "\n", "histogram.csv total"),
    ],
)
def test_corrupted_outputs_are_problems(bright_outputs, tmp_path, name, edit, expected):
    outdir = _corrupted_copy(bright_outputs, tmp_path / "out", name, edit)
    problems, _ = check_run(outdir, 1000, run.QBER_WINDOW_EXP2)
    assert any(expected in p for p in problems), problems


def test_summary_differing_from_single_worker_is_a_problem(bright_outputs, tmp_path):
    reference = (bright_outputs / "summary.txt").read_bytes()
    assert check_run(bright_outputs, 1000, run.QBER_WINDOW_EXP2, reference)[0] == []
    outdir = _corrupted_copy(
        bright_outputs, tmp_path / "out", "summary.txt", lambda t: t.replace("sifted_z = ", "sifted_z = 1")
    )
    problems, _ = check_run(outdir, 1000, None, reference)
    assert "summary.txt differs from the single-worker run" in problems


def test_corrupted_repetition_counts_as_failed(monkeypatch):
    real_run_child = run._run_child

    def truncating(spec):
        report, error = real_run_child(spec)
        pulses = Path(spec["argv"][spec["argv"].index("--outdir") + 1]) / "pulses.csv"
        pulses.write_text("".join(pulses.read_text().splitlines(True)[:-5]))
        return report, error

    monkeypatch.setattr(run, "_run_child", truncating)
    session = run.Session("exp2-bright", 9, TINY["exp2-bright"])
    try:
        report, _ = session.repetition("plain")
    finally:
        session.close()
    assert report is None
    assert (session.attempted, session.failed) == (1, 1)


def test_sweep_check_catches_a_wrong_rate(tmp_path):
    session = run.Session("sweep-grid", 4, TINY["sweep-grid"])
    session.outdir = tmp_path / "sweep"
    report, _ = session.repetition("plain")
    assert report is not None and session.failed == 0
    path = session.outdir / "keyrate_map.csv"
    lines = path.read_text().splitlines()
    mu, qber, rate = lines[1].split(",")
    lines[1] = f"{mu},{qber},{float(rate) + 1e-3:.12e}"
    path.write_text("\n".join(lines) + "\n")
    problems, _ = check_sweep(session.outdir, 20, 30, run.EC_INEFFICIENCY)
    assert any("rate at" in p for p in problems)
    path.write_text("\n".join(lines[:-1]) + "\n")
    problems, _ = check_sweep(session.outdir, 20, 30, run.EC_INEFFICIENCY)
    assert any("lines, expected 601" in p for p in problems)


def test_missing_or_uncalled_hooks_read_zero(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer, module.idle = inner, outer, inner
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    tracer.install(
        [
            ("fake_layer", "outer", "layer.outer", "span"),
            ("fake_layer", "inner", "layer.inner", "timed"),
            ("fake_layer", "idle", "layer.idle", "count"),
            ("fake_layer", "gone", "layer.gone", "timed"),
            ("no_such_module_for_tracing", "f", "layer.f", "count"),
        ]
    )
    assert module.outer(1) == 4
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    report = tracer.report()
    assert report["absent"] == ["fake_layer.gone", "no_such_module_for_tracing.f"]
    stats = report["stats"]
    assert stats["layer.gone"] == stats["layer.f"] == [0, 0.0, 0.0]
    assert stats["layer.idle"][0] == 0
    calls, total, own = stats["layer.outer"]
    assert calls == stats["layer.inner"][0] == 1
    assert own + stats["layer.inner"][1] == pytest.approx(total)
    [(span_id, parent, name, start, end)] = report["spans"]
    assert (parent, name) == (None, "layer.outer") and end >= start


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        ["python3", *BENCHMARK["command"][1:], "--workload", "sweep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
