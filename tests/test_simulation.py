import dataclasses
import math
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2, chisquare

from memqkd import simulation
from memqkd.config import (
    AnalysisConfig,
    ChannelConfig,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    SourceMode,
)
from memqkd.keyrate import qber_oracle_from_sbr
from memqkd.presets import preset_config
from memqkd.qubits import BASES, POLARIZATION_CYCLE, Basis, Polarization, basis_of
from memqkd.simulation import (
    BLOCK_PULSES,
    DoubleClickPolicy,
    RunResult,
    SiftedSample,
    apply_memory,
    measure,
    run_experiment,
    sample_arriving_photons,
    sift,
    simulate_blocks,
)

H, V, D, A = Polarization.H, Polarization.V, Polarization.D, Polarization.A
Z, X = BASES.index(Basis.Z), BASES.index(Basis.X)


def codes(*states):
    """Array codes of the given polarizations."""
    return np.array([POLARIZATION_CYCLE.index(s) for s in states])


# --- source -----------------------------------------------------------------


def test_ordered_train_cycles_exactly():
    source = SourceConfig(mode=SourceMode.ORDERED, n_pulses=10)
    result = run_experiment(RunConfig(source=source, seed=0))
    assert np.array_equal(result.state, codes(H, V, D, A, H, V, D, A, H, V))
    # one full cycle spans 4 periods = 160 us
    assert 4 * source.pulse_period_ns == 160_000.0


def test_random_train_uniformity():
    source = SourceConfig(mode=SourceMode.RANDOM, n_pulses=100_000)
    counts = np.bincount(run_experiment(RunConfig(source=source, seed=7)).state, minlength=4)
    result = chisquare(counts)
    assert result.pvalue > 0.01


def test_source_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(pulse_width_ns=50_000.0)  # width must stay below the period
    with pytest.raises(ValueError):
        SourceConfig(mu_alice=0.0)
    with pytest.raises(ValueError):
        SourceConfig(n_pulses=-1)


# --- channel ----------------------------------------------------------------


def test_arrival_counts_zero_at_zero_mu():
    channel = ChannelConfig(transmission=0.59, rel_fluctuation=0.0)
    rng = np.random.default_rng(0)
    mu_eff, count = sample_arriving_photons(0.0, channel, rng, 100)
    assert np.all(mu_eff == 0.0)
    assert np.all(count == 0)


def test_arrival_mean_matches_memory_input_target():
    channel = ChannelConfig(transmission=0.59, rel_fluctuation=0.0)
    rng = np.random.default_rng(5)
    n = 200_000
    _, counts = sample_arriving_photons(1.6 / 0.59, channel, rng, n)
    three_sigma = 3 * math.sqrt(1.6 / n)
    assert counts.sum() / n == pytest.approx(1.6, abs=three_sigma)


def test_turbulence_fluctuation_scale():
    channel = ChannelConfig(transmission=0.59, rel_fluctuation=0.05)
    rng = np.random.default_rng(9)
    mus, _ = sample_arriving_photons(2.0, channel, rng, 100_000)
    assert np.std(mus) / np.mean(mus) == pytest.approx(0.05, rel=0.10)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelConfig(transmission=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(transmission=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(rel_fluctuation=-0.1)


# --- memory -----------------------------------------------------------------


def test_lossless_memory_preserves_everything():
    memory = MemoryConfig(retrieval_efficiency=1.0, leak_fraction=0.0, background_mean=0.0)
    rng = np.random.default_rng(1)
    out = apply_memory(np.array([17]), memory, rng)
    assert [int(a[0]) for a in out] == [17, 0, 0, 0]


def test_dead_memory_retrieves_nothing():
    memory = MemoryConfig(retrieval_efficiency=0.0, leak_fraction=0.4, background_mean=0.0)
    rng = np.random.default_rng(2)
    n = np.array([0, 1, 5, 40])
    retrieved, leaked, lost, _ = apply_memory(n, memory, rng)
    assert np.all(retrieved == 0)
    assert np.array_equal(leaked + lost, n)


def test_all_leaking_memory_retrieves_nothing():
    memory = MemoryConfig(retrieval_efficiency=0.0, leak_fraction=1.0, background_mean=0.0)
    n = np.array([0, 3, 40])
    retrieved, leaked, lost, _ = apply_memory(n, memory, np.random.default_rng(2))
    assert np.all(retrieved == 0) and np.all(lost == 0)
    assert np.array_equal(leaked, n)


def test_memory_conservation_exact():
    memory = MemoryConfig(retrieval_efficiency=0.12, leak_fraction=0.35, background_mean=0.2)
    rng = np.random.default_rng(3)
    n = rng.poisson(3.0, 2000)
    retrieved, leaked, lost, _ = apply_memory(n, memory, rng)
    assert np.array_equal(retrieved + leaked + lost, n)
    assert np.all(lost >= 0)


def test_memory_split_matches_multinomial_fractions():
    # Sequential binomials must reproduce the multinomial's marginal means.
    memory = MemoryConfig(retrieval_efficiency=0.12, leak_fraction=0.35, background_mean=0.0)
    rng = np.random.default_rng(11)
    n = np.full(200_000, 5)
    retrieved, leaked, lost, _ = apply_memory(n, memory, rng)
    total = n.sum()
    for count, p in ((retrieved, 0.12), (leaked, 0.35), (lost, 0.53)):
        three_sigma = 3 * math.sqrt(p * (1 - p) / total)
        assert abs(count.sum() / total - p) < three_sigma


def test_memory_long_run_sbr():
    # ratio retrieval_efficiency * 1.3 / background_mean set to 26
    memory = MemoryConfig(
        retrieval_efficiency=0.12, leak_fraction=0.35, background_mean=0.12 * 1.3 / 26.0
    )
    rng = np.random.default_rng(4)
    n_pulses = 500_000
    retrieved, _, _, background = apply_memory(rng.poisson(1.3, n_pulses), memory, rng)
    assert retrieved.sum() / background.sum() == pytest.approx(26.0, rel=0.05)


def test_memory_validation():
    with pytest.raises(ValueError):
        MemoryConfig(retrieval_efficiency=0.7, leak_fraction=0.5)
    with pytest.raises(ValueError):
        MemoryConfig(background_mean=-0.1)
    with pytest.raises(ValueError):
        MemoryConfig(noise_suppression=1.5)
    with pytest.raises(ValueError):
        apply_memory(np.array([-1]), MemoryConfig(), np.random.default_rng(0))


# --- measurement ------------------------------------------------------------


def test_measure_matched_basis_clicks_correct_detector():
    rng = np.random.default_rng(6)
    n = 200
    bob_basis, c0, c1 = measure(codes(H).repeat(n), np.ones(n, int), np.zeros(n, int), rng)
    z = bob_basis == Z
    assert z.any()
    assert np.all(c0[z] == 1)  # H is the bit-0 detector of Z
    assert np.all(c1[z] == 0)


def test_measure_conjugate_basis_splits_evenly():
    rng = np.random.default_rng(7)
    n = 20_000
    bob_basis, c0, c1 = measure(codes(H).repeat(n), np.ones(n, int), np.zeros(n, int), rng)
    x = bob_basis == X
    trials = int(x.sum())
    d_clicks, a_clicks = int(c0[x].sum()), int(c1[x].sum())
    assert d_clicks + a_clicks == trials
    three_sigma = 3 * math.sqrt(0.25 * trials)
    assert abs(d_clicks - trials / 2) < three_sigma


def test_measure_background_splits_evenly():
    rng = np.random.default_rng(8)
    n = 5000
    _, first, second = measure(codes(H).repeat(n), np.zeros(n, int), np.full(n, 10), rng)
    total = 10 * n
    assert first.sum() + second.sum() == total
    three_sigma = 3 * math.sqrt(0.25 * total)
    assert abs(first.sum() - total / 2) < three_sigma


def test_basis_choice_is_balanced():
    rng = np.random.default_rng(10)
    n = 50_000
    bob_basis, _, _ = measure(codes(H).repeat(n), np.zeros(n, int), np.zeros(n, int), rng)
    z = int(np.count_nonzero(bob_basis == Z))
    assert abs(z - n / 2) < 3 * math.sqrt(0.25 * n)


# --- sifting ----------------------------------------------------------------


def _sift(states, bases, c0, c1, policy=DoubleClickPolicy.RANDOM, rng=None):
    """SiftedSample of pulses given as parallel lists."""
    bob_basis = np.array([BASES.index(b) for b in bases], dtype=np.int8)
    rng = np.random.default_rng(0) if rng is None else rng
    sifted, error = sift(codes(*states), bob_basis, np.array(c0), np.array(c1), rng, policy)
    return SiftedSample.from_flags(bob_basis, sifted, error)


def test_sift_arithmetic():
    # 10 matched-basis pulses, one decoded wrong -> qber 0.1
    sample = _sift([H] * 10, [Basis.Z] * 10, [1] * 9 + [0], [0] * 9 + [1])
    assert sample.n_sifted_z == 10
    assert sample.n_err_z == 1
    assert sample.qber_z == pytest.approx(0.1)
    assert math.isnan(sample.qber_x)


def test_sift_drops_mismatched_basis_and_empty_pulses():
    sample = _sift(
        [H, H, D],
        [
            Basis.X,  # wrong basis
            Basis.Z,  # no ROI click
            Basis.X,  # sifted, correct
        ],
        [1, 0, 1],
        [0, 0, 0],
    )
    assert (sample.n_sifted_z, sample.n_sifted_x) == (0, 1)
    assert sample.n_err_x == 0


def test_sift_majority_vote():
    assert _sift([H], [Basis.Z], [3], [1]).n_err_z == 0
    assert _sift([H], [Basis.Z], [1], [3]).n_err_z == 1


def test_tie_policy_discard_drops_pulse():
    sample = _sift([H], [Basis.Z], [2], [2], policy=DoubleClickPolicy.DISCARD)
    assert sample.n_sifted_z == 0


def test_tie_policy_random_is_fair():
    n = 4000
    sample = _sift([H] * n, [Basis.Z] * n, [1] * n, [1] * n, rng=np.random.default_rng(123))
    assert sample.n_sifted_z == n
    assert abs(sample.n_err_z - n / 2) < 3 * math.sqrt(0.25 * n)


def test_sift_length_mismatch_rejected():
    with pytest.raises(ValueError):
        sift(codes(), np.array([Z]), np.array([1]), np.array([0]), np.random.default_rng(0))


# --- full pipeline ----------------------------------------------------------


def test_noise_free_run_has_zero_qber():
    config = RunConfig(
        source=SourceConfig(mode=SourceMode.RANDOM, mu_alice=2.0, n_pulses=5000),
        channel=ChannelConfig(transmission=0.9, rel_fluctuation=0.0),
        memory=MemoryConfig(
            retrieval_efficiency=0.4, leak_fraction=0.2, background_mean=0.0
        ),
        seed=99,
    )
    result = run_experiment(config)
    assert result.sample.n_err_z == 0
    assert result.sample.n_err_x == 0
    assert result.sample.n_sifted_z + result.sample.n_sifted_x > 500
    assert result.sample.qber_z == 0.0
    assert result.sample.qber_x == 0.0


def test_photon_conservation_totals():
    config = preset_config("experiment3", n_pulses=3000, seed=5)
    result = run_experiment(config)
    photons = result.photons
    assert photons.retrieved + photons.leaked + photons.lost == photons.arrived


#: Per-pulse arrays of a RunResult.
COLUMNS = (
    "state", "mu_eff", "bob_basis", "c0", "c1",
    "leak_clicks", "sifted", "error",
)  # fmt: skip


def test_run_determinism_same_seed():
    config = preset_config("experiment3", n_pulses=1500, seed=31)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.sample == b.sample
    assert a.histogram == b.histogram
    for column in COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_run_changes_with_seed():
    config = preset_config("experiment3", n_pulses=1500, seed=31)
    a = run_experiment(config)
    b = run_experiment(dataclasses.replace(config, seed=32))
    assert a.sample != b.sample


def test_worker_partition_invariance():
    cases = [
        ("experiment3", DoubleClickPolicy.RANDOM),
        ("experiment1", DoubleClickPolicy.RANDOM),  # ordered source
        ("experiment3", DoubleClickPolicy.DISCARD),
    ]
    for preset, policy in cases:
        # 3.5 blocks over 3 workers: two chunks of two blocks, a partial last.
        config = preset_config(preset, n_pulses=7 * BLOCK_PULSES // 2, seed=17)
        solo = run_experiment(config, workers=1, policy=policy)
        split = run_experiment(config, workers=3, policy=policy)
        case = (preset, policy.name)
        assert solo.sample == split.sample, case
        assert solo.histogram == split.histogram, case
        for column in COLUMNS:
            assert np.array_equal(getattr(solo, column), getattr(split, column)), (
                case,
                column,
            )


def test_discard_policy_changes_only_ties():
    config = preset_config("experiment3", n_pulses=2 * BLOCK_PULSES, seed=6)
    keep = run_experiment(config)
    drop = run_experiment(config, policy=DoubleClickPolicy.DISCARD)
    assert keep.histogram == drop.histogram
    for column in set(COLUMNS) - {"sifted", "error"}:
        assert np.array_equal(getattr(keep, column), getattr(drop, column)), column
    tie = keep.sifted & (keep.c0 == keep.c1)
    assert tie.any()
    assert np.array_equal(drop.sifted, keep.sifted & ~tie)


def test_zero_pulse_run():
    config = preset_config("experiment3", n_pulses=0, seed=1)
    result = run_experiment(config)
    assert all(getattr(result, column).size == 0 for column in COLUMNS)
    assert result.sample.n_sifted_z == 0
    assert result.histogram.total() == result.histogram.n_dropped == 0


def test_basis_balance_in_run():
    config = preset_config("experiment3", n_pulses=20_000, seed=3)
    result = run_experiment(config)
    z = int(np.count_nonzero(result.bob_basis == Z))
    assert abs(z - 10_000) < 3 * math.sqrt(0.25 * 20_000)


def test_run_sbr_estimator_consistency():
    config = preset_config("experiment3", n_pulses=100_000, seed=8)
    result = run_experiment(config)
    memory = config.memory
    expected = (
        memory.retrieval_efficiency * 1.6 / memory.effective_background
    )
    assert result.photons.counting_sbr(100_000).sbr == pytest.approx(expected, rel=0.05)


def test_run_qber_converges_to_oracle():
    config = preset_config("experiment3", n_pulses=100_000, seed=12)
    result = run_experiment(config)
    oracle = qber_oracle_from_sbr(3.2017)
    n_sifted = result.sample.n_sifted_z + result.sample.n_sifted_x
    se = math.sqrt(oracle * (1 - oracle) / n_sifted)
    assert abs(result.sample.qber_mean - oracle) <= 3 * se
    assert result.sample.qber_mean == pytest.approx(0.119, abs=0.005)


def test_sifted_pulses_need_matched_basis():
    config = preset_config("experiment3", n_pulses=2000, seed=14)
    result = run_experiment(config)
    sifted = result.sifted
    assert sifted.any()
    for state, bob_basis in zip(result.state[sifted], result.bob_basis[sifted]):
        assert BASES[bob_basis] is basis_of(POLARIZATION_CYCLE[state])
    assert np.all(result.c0[sifted] + result.c1[sifted] >= 1)
    assert not np.any(result.error & ~sifted)


def test_roi_must_fit_in_window():
    # The config itself rejects it, before any pulse is drawn.
    with pytest.raises(ValueError, match="ROI"):
        RunConfig(
            memory=MemoryConfig(retrieval_delay_ns=1990.0),
            analysis=AnalysisConfig(),
        )


# --- click histogram ----------------------------------------------------------

#: Record-window geometries the histogram must follow: (config sections,
#: length of the leak window inside the record window and outside the ROI,
#: fraction of the leak window outside the record window).
GEOMETRIES = {
    "window starts after 0": ({"analysis": {"window_start_ns": 200.0}}, 200.0, 0.5),
    "ROI inside the leak window": ({"memory": {"retrieval_delay_ns": 300.0}}, 300.0, 0.0),
    "leak window past the window end": (
        {
            "source": {"pulse_width_ns": 2500.0},
            # A last bin cut short too: [1990, 1995).
            "analysis": {"window_end_ns": 1995.0, "background_end_ns": 1995.0},
        },
        1995.0 - 100.0,
        (2500.0 - 1995.0) / 2500.0,
    ),
}


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_histogram_matches_closed_form_bin_means(geometry):
    sections, leak_background_ns, dropped_fraction = GEOMETRIES[geometry]
    n = 100_000
    config = RunConfig(
        source=SourceConfig(n_pulses=n, **sections.get("source", {})),
        memory=MemoryConfig(**sections.get("memory", {})),
        analysis=AnalysisConfig(**sections.get("analysis", {})),
        seed=41,
    )
    result = run_experiment(config)
    h, photons = result.histogram, result.photons
    memory, pulse_width = config.memory, config.source.pulse_width_ns
    window_lo, window_hi = config.analysis.window
    starts = window_lo + config.analysis.bin_width_ns * np.arange(h.n_bins)
    ends = np.minimum(starts + config.analysis.bin_width_ns, window_hi)

    def overlap(lo, hi):
        return np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, None)

    # Given the run's photon totals: leaked photons uniform over [0,
    # pulse_width_ns), ROI photons over the ROI, and Poisson background at
    # effective_background per roi_width_ns over the rest of the window.
    roi = overlap(*memory.roi)
    per_ns = memory.effective_background / memory.roi_width_ns
    expected = (
        photons.leaked * overlap(0.0, pulse_width) / pulse_width
        + (photons.retrieved + photons.background_roi) * roi / memory.roi_width_ns
        + n * per_ns * (ends - starts - roi)
    )
    assert (h.counts[expected == 0] == 0).all()
    observed, expected = h.counts[expected > 0], expected[expected > 0]
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(statistic, len(expected)) > 1e-3, statistic / len(expected)

    dropped = photons.leaked * dropped_fraction
    spread = math.sqrt(dropped * (1.0 - dropped_fraction))
    assert abs(h.n_dropped - dropped) <= 5 * spread

    hits = per_ns * leak_background_ns
    mean = result.leak_clicks.mean()
    assert abs(mean - photons.leaked / n - hits) <= 5 * math.sqrt(hits / n)


# --- block stream -------------------------------------------------------------


def test_run_experiment_joins_the_identity_reduced_blocks():
    config = preset_config("experiment3", n_pulses=5 * BLOCK_PULSES // 2, seed=23)
    starts, blocks = zip(
        *simulate_blocks(config, 1, DoubleClickPolicy.RANDOM, lambda start, block: (start, block))
    )
    assert starts == (0, BLOCK_PULSES, 2 * BLOCK_PULSES)
    result = run_experiment(config, workers=2)
    for field in dataclasses.fields(RunResult):
        parts = [getattr(block, field.name) for block in blocks]
        if field.name in ("histogram", "sample", "photons"):
            assert sum(parts[1:], parts[0]) == getattr(result, field.name), field.name
        else:
            joined = np.concatenate(parts)
            assert np.array_equal(getattr(result, field.name), joined), field.name


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that runs each block when submitted
    and records how many blocks are submitted and not yet consumed."""

    def __init__(self, max_workers, log):
        self.log = log
        log["processes"] = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, block):
        future = Future()
        future.set_result(fn(block))
        self.log["submitted"] = self.log.get("submitted", 0) + 1
        return future


@pytest.mark.parametrize("workers,n_blocks", [(2, 11), (3, 4), (8, 3)])
def test_stream_bounds_blocks_in_flight(monkeypatch, workers, n_blocks):
    log = {}
    monkeypatch.setattr(
        simulation, "ProcessPoolExecutor", lambda max_workers: _InlinePool(max_workers, log)
    )
    config = preset_config("experiment3", n_pulses=n_blocks * BLOCK_PULSES - 7, seed=2)
    starts = []
    for start in simulate_blocks(
        config, workers, DoubleClickPolicy.RANDOM, lambda start, block: start
    ):
        starts.append(start)
        # Two blocks per process are in flight: one is submitted as each is
        # consumed, until none are left.
        in_flight = log["submitted"] - len(starts)
        assert in_flight == min(2 * log["processes"], n_blocks - len(starts))
    assert log["processes"] == min(workers, n_blocks)
    assert starts == [b * BLOCK_PULSES for b in range(n_blocks)]


def test_stream_rejects_zero_workers():
    config = preset_config("experiment3", n_pulses=10, seed=2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        next(simulate_blocks(config, 0, DoubleClickPolicy.RANDOM, lambda start, block: block))


_COUNTS = st.integers(0, 2**70)


@st.composite
def _samples(draw):
    """Any valid SiftedSample: errors never exceed the sifted count."""
    n_sifted_z, n_sifted_x = draw(_COUNTS), draw(_COUNTS)
    return SiftedSample(
        n_sifted_z, n_sifted_x, draw(st.integers(0, n_sifted_z)), draw(st.integers(0, n_sifted_x))
    )


@given(st.lists(_samples(), min_size=1, max_size=6))
def test_sifted_sample_sum_is_exact(samples):
    total = sum(samples[1:], samples[0])
    for field in ("n_sifted_z", "n_sifted_x", "n_err_z", "n_err_x"):
        assert getattr(total, field) == sum(getattr(s, field) for s in samples)


def test_block_samples_sum_to_the_run_sample():
    config = preset_config("experiment3", n_pulses=5 * BLOCK_PULSES // 2, seed=29)
    samples = list(
        simulate_blocks(config, 1, DoubleClickPolicy.DISCARD, lambda start, block: block.sample)
    )
    assert len(samples) == 3
    assert sum(samples[1:], samples[0]) == run_experiment(
        config, policy=DoubleClickPolicy.DISCARD
    ).sample
