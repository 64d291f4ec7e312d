"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
All tolerances are fixed here, none are calibrated after the fact.
"""

import csv
import math

import numpy as np
from scipy.stats import chisquare

from memqkd.cli import main as cli_main
from memqkd.config import (
    AnalysisConfig,
    ChannelConfig,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    SourceMode,
)
from memqkd.histogram import bin_clicks, click_times, sbr_from_histogram
from memqkd.keyrate import (
    classical_bound_check,
    fidelity_from_sbr,
    positive_rate_boundary,
    qber_oracle_from_sbr,
    secret_key_rate,
)
from memqkd.presets import preset_config
from memqkd.simulation import draw_histogram, run_experiment

#: Emission order of the ordered source mode, as pulses.csv writes it.
POLARIZATION_CYCLE = "HVDA"


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def _binary_entropy_float(q: float) -> float:
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


def test_criterion_01_key_rate_signs():
    bare = secret_key_rate(1.6, 0.119, 0.119, 1.05)
    suppressed = secret_key_rate(1.0, 0.03, 0.03, 1.05)

    # Independent evaluation of the same closed form, written out locally.
    def direct(mu, q, f):
        h = _binary_entropy_float(q)
        return mu * (math.exp(-mu) * (1 - h) - h * f)

    ok = (
        bare < 0 < suppressed
        and abs(bare - (-0.732)) <= 0.002
        and abs(suppressed - 0.0922) <= 0.001
        and abs(bare - direct(1.6, 0.119, 1.05)) < 1e-12
        and abs(suppressed - direct(1.0, 0.03, 1.05)) < 1e-12
    )
    _verdict(
        1,
        "key-rate sign test at the two operating points",
        ok,
        f"bare={bare:.6f}, suppressed={suppressed:.6f}",
    )


def test_criterion_02_boundary_solver():
    # Independent oracle: bisect the entropy condition H(q) = g/(f+g) with
    # g = e^-mu, rather than the rate function itself.
    gain = math.exp(-1.0)
    target = gain / (1.05 + gain)
    lo, hi = 1e-15, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _binary_entropy_float(mid) < target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    q_star = positive_rate_boundary(1.0, 1.05)
    ok = abs(q_star - 0.0438) <= 5e-4 and abs(q_star - oracle) <= 1e-5

    tol = 1e-6
    brackets_hold = True
    for mu in np.linspace(0.1, 3.0, 50):
        q_mu = positive_rate_boundary(mu, 1.05, tol=tol)
        if math.isnan(q_mu):
            brackets_hold = False
            break
        eps = 2 * tol
        if not (
            secret_key_rate(mu, q_mu - eps, q_mu - eps, 1.05) > 0
            and secret_key_rate(mu, q_mu + eps, q_mu + eps, 1.05) < 0
        ):
            brackets_hold = False
            break
    _verdict(
        2,
        "positive-rate boundary vs bisection oracle and 50-point bracketing",
        ok and brackets_hold,
        f"q_star={q_star:.6f}, oracle={oracle:.6f}, brackets={brackets_hold}",
    )


def test_criterion_03_high_photon_number_run():
    config = preset_config("experiment2", n_pulses=10_000, seed=2)
    result = run_experiment(config)
    qber = result.totals.sample.qber_mean
    _verdict(
        3,
        "high-photon-number run keeps mean QBER below 1%",
        qber < 0.01,
        f"qber_mean={qber:.5f} over {result.totals.sample.n_sifted_z + result.totals.sample.n_sifted_x} sifted",
    )


def test_criterion_04_single_photon_level_run():
    config = preset_config("experiment3", n_pulses=100_000, seed=3)
    result = run_experiment(config)
    qber = result.totals.sample.qber_mean
    _verdict(
        4,
        "single-photon-level run lands in the calibrated QBER window",
        0.105 <= qber <= 0.135,
        f"qber_mean={qber:.5f} (oracle {qber_oracle_from_sbr(3.2017):.5f})",
    )


def test_criterion_05_noise_suppressed_rescaled_run():
    # The noise-suppressed preset holds ratio 26 at 1.3 photons; rerunning it
    # at 1 photon rescales the ratio linearly to 20.
    config = preset_config("experiment4", n_pulses=100_000, seed=5, mu_memory=1.0)
    result = run_experiment(config)
    qber = result.totals.sample.qber_mean
    rescaled_sbr = 26.0 / 1.3
    fidelity = fidelity_from_sbr(rescaled_sbr)
    fidelity_measured = fidelity_from_sbr(result.totals.photons.counting_sbr(100_000))
    ok = (
        0.015 <= qber <= 0.035
        and abs(fidelity - 0.975) <= 0.01
        and abs(fidelity_measured - 0.975) <= 0.01
    )
    _verdict(
        5,
        "noise-suppressed regime rescaled to one photon per pulse",
        ok,
        f"qber_mean={qber:.5f}, fidelity(20)={fidelity}, measured={fidelity_measured:.5f}",
    )


def test_criterion_06_fidelity_formula_and_classical_bound():
    ok = (
        fidelity_from_sbr(6.25) == 0.92
        and all(classical_bound_check(f) for f in (0.92, 0.92, 0.90, 0.93))
        and not classical_bound_check(0.85)
    )
    _verdict(
        6,
        "fidelity formula exact at ratio 6.25 and 85% bound strict",
        ok,
        f"fidelity_from_sbr(6.25)={fidelity_from_sbr(6.25)!r}",
    )


def test_criterion_07_monte_carlo_matches_counting_oracle():
    # Constant-ratio configs (no turbulence); occupancy chosen sparse enough
    # that majority-vote sifting converges to the counting oracle.
    cases = {0.5: 0.10, 1.0: 0.10, 3.2: 0.10, 10.0: 0.15, 26.0: 0.20, 200.0: 0.25}
    details = []
    ok = True
    for seed_offset, (sbr, occupancy) in enumerate(cases.items()):
        background = occupancy / (1.0 + sbr)
        signal = occupancy - background
        config = RunConfig(
            source=SourceConfig(
                mode=SourceMode.RANDOM, mu_alice=1.0, n_pulses=100_000
            ),
            channel=ChannelConfig(transmission=1.0, rel_fluctuation=0.0),
            memory=MemoryConfig(
                retrieval_efficiency=signal,
                leak_fraction=0.3,
                background_mean=background,
            ),
            seed=70 + seed_offset,
        )
        result = run_experiment(config)
        oracle = qber_oracle_from_sbr(sbr)
        n_sifted = result.totals.sample.n_sifted_z + result.totals.sample.n_sifted_x
        se = math.sqrt(oracle * (1.0 - oracle) / n_sifted)
        deviation = abs(result.totals.sample.qber_mean - oracle)
        ok = ok and deviation <= 3 * se
        details.append(f"sbr={sbr}: dev={deviation:.5f} vs 3se={3 * se:.5f}")
    _verdict(7, "Monte Carlo QBER matches the counting oracle", ok, "; ".join(details))


def test_criterion_08_worker_determinism(tmp_path):
    outputs = {}
    for workers in (1, 8):
        outdir = tmp_path / f"w{workers}"
        code = cli_main(
            [
                "run", "--preset", "experiment3", "--pulses", "2000", "--seed", "8",
                "--workers", str(workers), "--outdir", str(outdir),
            ]
        )
        assert code == 0
        outputs[workers] = (
            (outdir / "pulses.csv").read_bytes(),
            (outdir / "summary.txt").read_bytes(),
        )
    ok = outputs[1] == outputs[8]
    _verdict(
        8,
        "1 vs 8 workers produce byte-identical per-pulse CSV and summary",
        ok,
        f"csv_bytes={len(outputs[1][0])}",
    )


def test_criterion_09_source_statistics(tmp_path):
    random_run = run_experiment(
        RunConfig(source=SourceConfig(mode=SourceMode.RANDOM, n_pulses=100_000), seed=9)
    )
    counts = np.bincount(random_run.state, minlength=4).tolist()
    result = chisquare(counts)
    uniform_ok = result.pvalue > 0.01

    code = cli_main(
        [
            "run", "--preset", "experiment1", "--pulses", "12", "--seed", "9",
            "--outdir", str(tmp_path),
        ]
    )
    with (tmp_path / "pulses.csv").open(newline="") as f:
        ordered = list(csv.DictReader(f))
    cycle_ok = code == 0 and len(ordered) == 12 and all(
        row["index"] == str(i)
        and row["state"] == POLARIZATION_CYCLE[i % 4]
        and float(row["emit_time_ns"]) == i * 40_000.0
        for i, row in enumerate(ordered)
    )
    _verdict(
        9,
        "random source passes uniformity, ordered source cycles exactly",
        uniform_ok and cycle_ok,
        f"chi2 p={result.pvalue:.4f}, counts={counts}",
    )


def test_criterion_10_histogram_conservation_and_sbr_recovery():
    # Shard/merge equality on click times drawn from a real pipeline histogram.
    config4 = preset_config("experiment4", n_pulses=100_000, seed=10)
    run4 = run_experiment(config4)
    times = click_times(draw_histogram(config4, run4.totals.photons), np.random.default_rng(1010))
    layout = (config4.analysis.bin_width_ns, config4.analysis.window)
    whole = bin_clicks(times, *layout)
    shards = np.array_split(times, 9)
    merged = bin_clicks(shards[0], *layout)
    for shard in shards[1:]:
        merged = merged + bin_clicks(shard, *layout)
    sharding_ok = merged == whole

    # Synthetic recovery: known ratio 5 with >= 1e4 counts in each region.
    rng = np.random.default_rng(1010)
    n_signal = int(rng.poisson(50_000))
    n_background = int(rng.poisson(80_000))  # 800 ns region, rescales to /8
    synthetic = np.concatenate(
        [
            rng.uniform(950.0, 1050.0, n_signal),
            rng.uniform(1200.0, 2000.0, n_background),
        ]
    )
    analysis = AnalysisConfig()
    estimate = sbr_from_histogram(
        bin_clicks(synthetic, analysis.bin_width_ns, analysis.window),
        1000.0,
        100.0,
        (1200.0, 2000.0),
    )
    true_ratio = 5.0
    sigma = true_ratio * math.sqrt(1.0 / 50_000 + 1.0 / 80_000)
    synthetic_ok = abs(estimate - true_ratio) <= 3 * sigma

    def preset_histogram_sbr(result, config):
        return sbr_from_histogram(
            draw_histogram(config, result.totals.photons),
            config.memory.retrieval_delay_ns,
            config.memory.roi_width_ns,
            config.analysis.background_region,
        )

    sbr4 = preset_histogram_sbr(run4, config4)
    config5 = preset_config("experiment5", n_pulses=100_000, seed=10)
    sbr5 = preset_histogram_sbr(run_experiment(config5), config5)
    presets_ok = abs(sbr4 - 26.0) <= 2.6 and abs(sbr5 - 7.2) <= 0.72

    _verdict(
        10,
        "histogram sharding exact, SBR recovery on synthetic and preset runs",
        sharding_ok and synthetic_ok and presets_ok,
        f"synthetic={estimate:.3f}, preset4={sbr4:.2f}, preset5={sbr5:.2f}",
    )
