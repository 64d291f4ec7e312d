"""memqkd benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload exp3-single --seed 1 --seconds 20 --trace 0

Every repetition is a fresh interpreter (``child.py``) that imports memqkd
from ``src/``, builds the workload's config and calls ``memqkd.cli.main``
once with generated arguments, as a user's ``memqkd`` command would. The
repetitions form a single-process closed loop: the next starts when the
previous one has ended and its outputs have been checked.

``--trace 0`` measures the end-to-end metrics with tracing off, as
medians over the repetitions. ``items_per_s`` and ``setup_s`` are scaled
to a reference host speed by a probe the program cannot affect (see
``child.SpeedProbe``).
``--trace 1`` alternates untraced and traced repetitions, then makes one
``tracemalloc`` repetition of its own, and reports the per-layer metrics
of the traced repetition whose ``cli.main`` time is the median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and, for per-layer metrics, the end-to-end
metric and workloads it should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_run, check_sweep
from child import REPORT_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

#: Fewest timed repetitions a run makes, whatever --seconds says.
MIN_REPS = 3
#: Fewest set-up samples the median setup_s is taken over.
MIN_SETUP_SAMPLES = 15
#: Speed-probe sample times that define the reference host speed: about
#: their medians on the 2-core host the benchmark was tuned on, for the call's
#: kernel (child.open_streams) and the set-up's (child.load_module_like).
PROBE_REFERENCE_S = 1.1e-4
SETUP_PROBE_REFERENCE_S = 1.5e-4
#: A single repetition that takes longer than this has hung.
CHILD_TIMEOUT_S = 150
#: Size of the tracemalloc repetition (tracing allocations is ~6x slower).
MEMORY_PULSES = 10_000

QBER_WINDOW_EXP3 = (0.105, 0.135)
QBER_WINDOW_EXP2 = (0.0, 0.01)
EC_INEFFICIENCY = 1.05
ALL_RUNS = "exp3-single, exp2-bright, exp3-two-workers"


@dataclass(frozen=True)
class RunWorkload:
    """``memqkd run --preset P --pulses N --workers W`` with a seeded seed.

    qber_window is a statistical acceptance window, checked on repetitions
    of qber_pulses pulses only. When the timed repetitions are smaller, a
    run makes one untimed repetition of that size.
    """

    preset: str
    pulses: int
    workers: int
    qber_window: tuple[float, float]
    qber_pulses: int

    @property
    def items(self) -> int:
        return self.pulses

    def argv(self, seed: int, outdir: Path, pulses: int | None = None, workers: int | None = None):
        return [
            "run",
            "--preset", self.preset,
            "--pulses", str(self.pulses if pulses is None else pulses),
            "--seed", str(seed),
            "--workers", str(self.workers if workers is None else workers),
            "--outdir", str(outdir),
        ]  # fmt: skip


@dataclass(frozen=True)
class SweepWorkload:
    """``memqkd sweep-keyrate`` over a rows x cols (mu, qber) grid."""

    rows: int
    cols: int

    @property
    def items(self) -> int:
        return self.rows * self.cols


WORKLOADS = {
    # Paper's headline single-photon regime (QBER ~0.119), ~2 clicks per
    # pulse: time goes to the per-pulse core, so every core change shows.
    # The QBER window holds qber_mean only at 10^5 pulses (more than 4
    # sigma); timed repetitions are 2.5x10^4 pulses, so that a run has
    # enough of them for a steady median.
    "exp3-single": RunWorkload("experiment3", 25_000, 1, QBER_WINDOW_EXP3, 100_000),
    # Same draws per pulse, ~48 clicks per pulse: timestamp generation,
    # bin_clicks and click-time memory do most of their work here.
    "exp2-bright": RunWorkload("experiment2", 25_000, 1, QBER_WINDOW_EXP2, 25_000),
    # The only workload through the process pool, result pickling and the
    # serial merge and sift; 2 workers equals the 2-core host. At 2.5x10^4
    # pulses, pool start-up made its run medians spread 9%; at 10^5, 2-4%.
    "exp3-two-workers": RunWorkload("experiment3", 100_000, 2, QBER_WINDOW_EXP3, 100_000),
    # No simulation at all: the only keyrate workload, and the one a
    # simulation change must not move.
    "sweep-grid": SweepWorkload(400, 400),
}

#: End-to-end metrics: name -> (unit, meaning).
END_TO_END = {
    "items_per_s": (
        "1/s",
        "pulses (run) or grid cells (sweep-keyrate) per wall second of the "
        "whole command, all output files written, at the reference host speed",
    ),
    "setup_s": (
        "s",
        "from starting a fresh interpreter until memqkd.cli is imported and the "
        "workload's config is built, at the reference host speed",
    ),
    "peak_rss_mib": ("MiB", "peak resident memory of the command's process or its workers"),
}

#: Per-layer metrics: name -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "simulation.run_experiment.s": ("s", f"items_per_s on {ALL_RUNS}"),
    "simulation.self_s": ("s", f"items_per_s on {ALL_RUNS}"),
    "simulation.pulse_rng.calls": ("count", "items_per_s on exp3-single, exp2-bright"),
    "simulation.pulse_rng.s": ("s", "items_per_s on exp3-single, exp2-bright"),
    "simulation.rng_streams_per_pulse": ("1/pulse", "items_per_s on exp3-single, exp2-bright"),
    "simulation.sample_arriving_photons.calls": ("count", "items_per_s on exp3-single"),
    "simulation.sample_arriving_photons.s": ("s", "items_per_s on exp3-single"),
    "simulation.apply_memory.calls": ("count", "items_per_s on exp3-single"),
    "simulation.apply_memory.s": ("s", "items_per_s on exp3-single"),
    "simulation.measure.calls": ("count", "items_per_s on exp3-single"),
    "simulation.measure.s": ("s", "items_per_s on exp3-single"),
    "simulation.sift_and_estimate.s": ("s", "items_per_s on exp3-single"),
    "simulation.sifted_per_pulse": ("1/pulse", "items_per_s on exp3-single"),
    "simulation.retained_bytes_per_pulse": ("B/pulse", "peak_rss_mib, most on exp2-bright"),
    "simulation.peak_traced_bytes_per_pulse": ("B/pulse", "peak_rss_mib, most on exp2-bright"),
    "simulation.result_pickle_bytes_per_pulse": ("B/pulse", "items_per_s on exp3-two-workers"),
    "histogram.bin_clicks.calls": ("count", "items_per_s on exp2-bright; flat on exp3-single"),
    "histogram.bin_clicks.s": ("s", "items_per_s on exp2-bright; flat on exp3-single"),
    "histogram.sbr_from_histogram.s": ("s", "items_per_s on exp2-bright; flat on exp3-single"),
    "histogram.clicks_per_pulse": ("1/pulse", "items_per_s on exp2-bright; flat on exp3-single"),
    "reports.pulses_csv.s": ("s", f"items_per_s on {ALL_RUNS}"),
    "reports.pulses_csv.bytes_per_pulse": ("B/pulse", f"items_per_s on {ALL_RUNS}"),
    "reports.histogram_csv.s": ("s", f"items_per_s on {ALL_RUNS}"),
    "reports.summary_text.s": ("s", f"items_per_s on {ALL_RUNS}"),
    "keyrate.key_rate_map.s": ("s", "items_per_s on sweep-grid only"),
    "keyrate.secret_key_rate.calls": ("count", "items_per_s on sweep-grid only"),
    "keyrate.positive_rate_boundary.calls": ("count", "items_per_s on sweep-grid only"),
    "keyrate.positive_rate_boundary.s": ("s", "items_per_s on sweep-grid only"),
    "reports.keyrate_map_csv.s": ("s", "items_per_s on sweep-grid only"),
    "reports.keyrate_boundary_csv.s": ("s", "items_per_s on sweep-grid only"),
    "setup.import_s": ("s", "setup_s on every workload"),
    "setup.config_s": ("s", "setup_s on every workload"),
    "cli.main.s": ("s", "items_per_s on every workload"),
    "cli.self_s": ("s", "items_per_s on every workload"),
    "trace.overhead_frac": ("ratio", "none: traced over untraced cli.main time, minus 1"),
}


class Session:
    """One benchmark run: repetitions, their checks and the failure tally."""

    def __init__(self, name: str, seed: int, workload=None) -> None:
        self.name = name
        self.workload = WORKLOADS[name] if workload is None else workload
        rng = random.Random(seed)
        self.sim_seed = rng.randrange(1, 2**32)
        # Sweep ranges vary with the seed; the grid size, and so the work, does not.
        self.mu_max = 2.5 + rng.random()
        self.qber_max = 0.14 + 0.02 * rng.random()
        self.outdir = OUT_ROOT / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        #: (import_s, config_s, speed probe before the import) per interpreter.
        self.setup_samples: list[tuple[float, float, float]] = []

    def argv(self, **overrides) -> list[str]:
        w = self.workload
        if isinstance(w, RunWorkload):
            return w.argv(self.sim_seed, self.outdir, **overrides)
        return [
            "sweep-keyrate",
            "--mu-range", f"0.05:{self.mu_max!r}",
            "--qber-range", f"0:{self.qber_max!r}",
            "--resolution", f"{w.rows}x{w.cols}",
            "--f", repr(EC_INEFFICIENCY),
            "--outdir", str(self.outdir),
        ]  # fmt: skip

    def repetition(self, mode: str, reference: bytes | None = None, **overrides):
        """Run one child and check its outputs: (report, facts), or (None, None)."""
        w = self.workload
        is_run = isinstance(w, RunWorkload)
        pulses = overrides.get("pulses", w.items)
        spec = {
            "src": str(SRC),
            "argv": self.argv(**overrides),
            "mode": mode,
            "setup": [w.preset, pulses, self.sim_seed] if is_run else ["-", 0, 0],
            "per_pulse": is_run and overrides.get("workers", w.workers) == 1,
        }
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.attempted += 1
        report, error = _run_child(spec)
        if report is None:
            problems, facts = [error], None
        elif mode == "setup":
            problems, facts = [], {}
        elif is_run:
            window = w.qber_window if pulses == w.qber_pulses else None
            problems, facts = check_run(self.outdir, pulses, window, reference)
        else:
            problems, facts = check_sweep(self.outdir, w.rows, w.cols, EC_INEFFICIENCY)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED ({self.name}, {mode}): {problem}", file=sys.stderr)
            return None, None
        self.setup_samples.append(
            (report["import_s"], report["config_s"], report["setup_probe_s"])
        )
        return report, facts

    def qber_acceptance(self) -> None:
        """The untimed repetition the QBER window is checked on, if one is needed."""
        w = self.workload
        if isinstance(w, RunWorkload) and w.qber_pulses != w.pulses:
            self.repetition("plain", pulses=w.qber_pulses)

    def reference_summary(self) -> bytes | None:
        """Single-worker summary.txt that a multi-worker run must reproduce."""
        w = self.workload
        if not isinstance(w, RunWorkload) or w.workers == 1:
            return None
        report, _ = self.repetition("plain", workers=1)
        return None if report is None else (self.outdir / "summary.txt").read_bytes()

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


def _run_child(spec: dict) -> tuple[dict | None, str]:
    # memqkd does no linear algebra. Left at its default, OpenBLAS starts a
    # thread pool while numpy imports, and the import's wall time then
    # varied from 0.10 to 0.18 s with whatever ran on the other core.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    setup = [str(value) for value in spec["setup"]]
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), repr(spawned), *setup, json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {CHILD_TIMEOUT_S} s"
    reports = [line for line in proc.stdout.splitlines() if line.startswith(REPORT_PREFIX)]
    stderr_tail = proc.stderr.strip()[-800:]
    if proc.returncode != 0 or not reports:
        return None, f"benchmark child exited {proc.returncode}: {stderr_tail}"
    report = json.loads(reports[-1][len(REPORT_PREFIX) :])
    if report.get("rc", 0) != 0:
        return None, f"memqkd exited {report['rc']}: {stderr_tail}"
    return report, ""


def measure_end_to_end(session: Session, seconds: float, min_reps: int = MIN_REPS) -> dict:
    session.qber_acceptance()
    reference = session.reference_summary()
    timed = []
    deadline = time.perf_counter() + seconds
    for attempts in itertools.count(1):
        report, _ = session.repetition("plain", reference)
        if report is not None:
            timed.append(report)
        if attempts >= min_reps and time.perf_counter() >= deadline:
            break
    while len(session.setup_samples) < MIN_SETUP_SAMPLES and session.failed == 0:
        session.repetition("setup")
    if not timed:
        return {}
    raw_s = statistics.median(r["main_s"] for r in timed)
    scaled_s = statistics.median(r["main_s"] * PROBE_REFERENCE_S / r["probe_s"] for r in timed)
    setup_raw_s = statistics.median(a + b for a, b, _ in session.setup_samples)
    # One factor for the run: a set-up's probe is only milliseconds long, so
    # its own noise was larger than the host's slowness it was to remove.
    setup_probe_s = statistics.median(probe for _, _, probe in session.setup_samples)
    setup_scaled_s = setup_raw_s * SETUP_PROBE_REFERENCE_S / setup_probe_s
    print(
        f"  medians: cli.main {raw_s:.4g} s as measured, {scaled_s:.4g} s at the reference "
        f"speed over {len(timed)} repetitions; set-up {setup_raw_s:.4g} s as measured, "
        f"{setup_scaled_s:.4g} s at the reference speed over {len(session.setup_samples)}",
        file=sys.stderr,
    )
    return {
        "items_per_s": session.workload.items / scaled_s,
        "setup_s": setup_scaled_s,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
    }


def measure_per_layer(session: Session, seconds: float) -> dict:
    w = session.workload
    is_run = isinstance(w, RunWorkload)
    memory_pulses = min(MEMORY_PULSES, w.items)
    session.qber_acceptance()
    reference = session.reference_summary()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for mode, bucket in (("plain", plain), ("trace", traced)):
            report, facts = session.repetition(mode, reference)
            if report is not None:
                bucket.append((report, facts))
        if session.failed and not traced:
            break
    memory = None
    if is_run:
        memory, _ = session.repetition("memory", pulses=memory_pulses)
    if not plain or not traced:
        return {}

    rep, facts = sorted(traced, key=lambda pair: pair[0]["main_s"])[(len(traced) - 1) // 2]
    stats = rep["trace"]["stats"]
    for name in rep["trace"]["absent"]:
        print(f"absent hook: {name} (its metrics read 0)", file=sys.stderr)
    OUT_ROOT.mkdir(exist_ok=True)
    spans_path = OUT_ROOT / f"{session.name}-{session.sim_seed}.spans.json"
    spans_path.write_text(json.dumps(rep["trace"]["spans"]))

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    pulses = w.items if is_run else 0
    memory = memory or {}

    def per_pulse(value, n=pulses):
        return value / n if n else 0.0

    untraced_s = statistics.median(r["main_s"] for r, _ in plain)
    traced_s = statistics.median(r["main_s"] for r, _ in traced)
    metrics = {
        "simulation.run_experiment.s": total("simulation.run_experiment"),
        "simulation.self_s": own("simulation.run_experiment"),
        "simulation.rng_streams_per_pulse": per_pulse(calls("simulation.pulse_rng")),
        "simulation.sift_and_estimate.s": rep.get("sift_s") or 0.0,
        "simulation.sifted_per_pulse": per_pulse(facts.get("sifted", 0)),
        "histogram.clicks_per_pulse": per_pulse(facts.get("clicks", 0)),
        "reports.pulses_csv.bytes_per_pulse": per_pulse(facts.get("pulses_csv_bytes", 0)),
        "setup.import_s": statistics.median(sample[0] for sample in session.setup_samples),
        "setup.config_s": statistics.median(sample[1] for sample in session.setup_samples),
        "cli.main.s": total("cli.main"),
        "cli.self_s": own("cli.main"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for key in ("retained_bytes", "peak_traced_bytes", "result_pickle_bytes"):
        metrics[f"simulation.{key}_per_pulse"] = per_pulse(memory.get(key, 0), memory_pulses)
    for name in PER_LAYER:
        if name.endswith(".calls"):
            metrics.setdefault(name, calls(name[: -len(".calls")]))
        elif name.endswith(".s"):
            metrics.setdefault(name, total(name[: -len(".s")]))
    return metrics


def measure(
    name: str, seed: int, seconds: float, trace: bool, workload=None, min_reps: int = MIN_REPS
) -> dict | None:
    """Run one workload; the result object, or None when nothing could be measured.

    workload replaces the named workload's sizes (the tests use tiny ones).
    """
    session = Session(name, seed, workload)
    try:
        if trace:
            metrics = measure_per_layer(session, seconds)
        else:
            metrics = measure_end_to_end(session, seconds, min_reps)
    finally:
        session.close()
    if not metrics:
        return None
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }


def _print_human(name: str, seed: int, trace: bool, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}, seed {seed}, {'traced' if trace else 'untraced'}")
    print(f"  failed_frac = {failed / attempted:g} ({failed} of {attempted} attempted failed)")
    table = PER_LAYER if trace else END_TO_END
    for key, entry in result["metrics"].items():
        note = ("moves " if trace else "") + table[key][1]
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}  ({note})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memqkd" / "__init__.py").is_file():
        print(f"memqkd sources not found under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("no repetition succeeded; nothing measured", file=sys.stderr)
        return 1
    _print_human(args.workload, args.seed, bool(args.trace), result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
