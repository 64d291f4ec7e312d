import dataclasses
import math
import os
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import binom, chi2, chisquare, norm, poisson, skellam

from memqkd import simulation
from memqkd.config import (
    AnalysisConfig,
    ChannelConfig,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    SourceMode,
)
from memqkd.histogram import Histogram
from memqkd.keyrate import qber_oracle_from_sbr
from memqkd.presets import PRESET_NAMES, preset_config
from memqkd.qubits import BASES, POLARIZATION_CYCLE, Basis, Polarization, basis_of, bit_of
from memqkd.simulation import (
    BLOCK_PULSES,
    BlockTotals,
    DoubleClickPolicy,
    PhotonTotals,
    RunResult,
    SiftedSample,
    apply_memory,
    expected_qber,
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
    mu_eff = sample_arriving_photons(0.0, channel, rng, 100)
    assert np.all(mu_eff == 0.0)
    mu_retrieved, leaked, mu_lost = apply_memory(mu_eff, MemoryConfig(), rng)
    c0, c1, retrieved = measure(codes(H).repeat(100), np.zeros(100, int), mu_retrieved, 0.0, rng)
    assert np.all(leaked == 0) and mu_lost == 0.0
    assert np.all(c0 == 0) and np.all(c1 == 0) and np.all(retrieved == 0)


def test_arrival_mean_matches_memory_input_target():
    # Arrived photons are the leaked, retrieved and lost ones together.
    channel = ChannelConfig(transmission=0.59, rel_fluctuation=0.0)
    rng = np.random.default_rng(5)
    n = 200_000
    mu_eff = sample_arriving_photons(1.6 / 0.59, channel, rng, n)
    assert np.allclose(mu_eff, 1.6, rtol=1e-12, atol=0.0)
    mu_retrieved, leaked, mu_lost = apply_memory(mu_eff, MemoryConfig(), rng)
    _, _, retrieved = measure(codes(H).repeat(n), np.zeros(n, int), mu_retrieved, 0.0, rng)
    arrived = leaked.sum() + retrieved.sum() + rng.poisson(mu_lost)
    three_sigma = 3 * math.sqrt(1.6 / n)
    assert arrived / n == pytest.approx(1.6, abs=three_sigma)


def test_turbulence_fluctuation_scale():
    channel = ChannelConfig(transmission=0.59, rel_fluctuation=0.05)
    rng = np.random.default_rng(9)
    mus = sample_arriving_photons(2.0, channel, rng, 100_000)
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
    mu_retrieved, leaked, mu_lost = apply_memory(np.array([17.0]), memory, rng)
    assert (mu_retrieved.tolist(), leaked.tolist(), mu_lost) == ([17.0], [0], 0.0)


def test_dead_memory_retrieves_nothing():
    memory = MemoryConfig(retrieval_efficiency=0.0, leak_fraction=0.4, background_mean=0.0)
    rng = np.random.default_rng(2)
    mu = np.array([0.0, 1.0, 5.0, 40.0])
    mu_retrieved, leaked, mu_lost = apply_memory(mu, memory, rng)
    assert np.all(mu_retrieved == 0.0)
    assert leaked[0] == 0
    assert mu_lost == pytest.approx(0.6 * mu.sum())


def test_all_leaking_memory_retrieves_nothing():
    memory = MemoryConfig(retrieval_efficiency=0.0, leak_fraction=1.0, background_mean=0.0)
    n = 100_000
    mu = np.full(n, 3.0)
    mu_retrieved, leaked, mu_lost = apply_memory(mu, memory, np.random.default_rng(2))
    assert np.all(mu_retrieved == 0.0) and mu_lost == 0.0
    # Every photon leaks: leaked is the whole Poisson(3) pulse.
    assert abs(leaked.sum() - 3.0 * n) < 3 * math.sqrt(3.0 * n)


def test_memory_conservation_exact():
    # Every block draws photons into each of the memory's three outputs.
    config = preset_config("experiment3", n_pulses=5 * BLOCK_PULSES // 2, seed=3)
    blocks = list(
        simulate_blocks(config, 1, DoubleClickPolicy.RANDOM, lambda start, block: block.totals.photons)
    )
    assert len(blocks) == 3
    for photons in blocks:
        assert min(photons.retrieved, photons.leaked, photons.lost) > 0


def test_memory_split_matches_multinomial_fractions():
    # The thinned Poisson draws must reproduce the multinomial's marginal means.
    memory = MemoryConfig(retrieval_efficiency=0.12, leak_fraction=0.35, background_mean=0.0)
    rng = np.random.default_rng(11)
    n = 200_000
    mu_retrieved, leaked, mu_lost = apply_memory(np.full(n, 5.0), memory, rng)
    _, _, retrieved = measure(codes(H).repeat(n), np.zeros(n, int), mu_retrieved, 0.0, rng)
    total = 5.0 * n
    for count, p in ((retrieved.sum(), 0.12), (leaked.sum(), 0.35), (rng.poisson(mu_lost), 0.53)):
        three_sigma = 3 * math.sqrt(p / total)  # Poisson: variance p * total
        assert abs(count / total - p) < three_sigma


def test_memory_split_is_poisson_thinning():
    # Thinning a Poisson(mu) pulse gives independent Poisson counts with the
    # binomial chain's means: leaked ~ B(n, leak), then retrieved ~
    # B(n - leaked, eta / (1 - leak)), drawn below as the reference.
    leak, eta, mu, n = 0.35, 0.12, 3.0, 200_000
    memory = MemoryConfig(retrieval_efficiency=eta, leak_fraction=leak, background_mean=0.0)
    rng = np.random.default_rng(12)
    mu_retrieved, leaked, _ = apply_memory(np.full(n, mu), memory, rng)
    _, _, retrieved = measure(codes(D).repeat(n), np.full(n, X), mu_retrieved, 0.0, rng)
    arrived = rng.poisson(mu, n)
    chain_leaked = rng.binomial(arrived, leak)
    chain_retrieved = rng.binomial(arrived - chain_leaked, eta / (1.0 - leak))
    for count, chain, p in ((leaked, chain_leaked, leak), (retrieved, chain_retrieved, eta)):
        lam = mu * p
        assert abs(count.mean() - lam) < 4 * math.sqrt(lam / n)
        # The sample variance of a Poisson count has variance (lam + 2 lam^2) / n.
        assert abs(count.var() - lam) < 4 * math.sqrt((lam + 2 * lam**2) / n)
        assert abs(count.mean() - chain.mean()) < 4 * math.sqrt(2 * lam / n)
    assert abs(np.corrcoef(leaked, retrieved)[0, 1]) < 4 / math.sqrt(n)


def test_memory_long_run_sbr():
    # ratio retrieval_efficiency * 1.3 / background_mean set to 26
    memory = MemoryConfig(
        retrieval_efficiency=0.12, leak_fraction=0.35, background_mean=0.12 * 1.3 / 26.0
    )
    rng = np.random.default_rng(4)
    n = 500_000
    mu_retrieved, _, _ = apply_memory(np.full(n, 1.3), memory, rng)
    c0, c1, retrieved = measure(
        codes(H).repeat(n), np.zeros(n, int), mu_retrieved, memory.effective_background, rng
    )
    background = c0.sum() + c1.sum() - retrieved.sum()
    assert retrieved.sum() / background == pytest.approx(26.0, rel=0.05)


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
    c0, c1, retrieved = measure(codes(H).repeat(n), np.full(n, Z), np.ones(n), 0.0, rng)
    assert c0.sum() > 0
    assert np.array_equal(c0, retrieved)  # H is the bit-0 detector of Z
    assert np.all(c1 == 0)


def test_measure_conjugate_basis_splits_evenly():
    rng = np.random.default_rng(7)
    n = 20_000
    c0, c1, retrieved = measure(codes(H).repeat(n), np.full(n, X), np.ones(n), 0.0, rng)
    d_clicks, a_clicks = int(c0.sum()), int(c1.sum())
    assert np.array_equal(c0 + c1, retrieved)
    # Independent Poisson(n / 2) counts: their difference has variance n.
    assert abs(d_clicks - a_clicks) < 3 * math.sqrt(n)


def test_measure_background_splits_evenly():
    rng = np.random.default_rng(8)
    n = 5000
    first, second, retrieved = measure(codes(H).repeat(n), np.full(n, Z), np.zeros(n), 10.0, rng)
    assert np.all(retrieved == 0)
    total = 10 * n
    assert abs(first.sum() + second.sum() - total) < 3 * math.sqrt(total)
    assert abs(first.sum() - second.sum()) < 3 * math.sqrt(total)


def test_basis_choice_is_balanced():
    # Bob's coin is fair and independent of Alice's state: the bases match
    # on half of the pulses, whatever the state.
    config = preset_config("experiment3", n_pulses=50_000, seed=10)
    result = run_experiment(config)
    n = len(result.state)
    z = int(np.count_nonzero(result.bob_basis == Z))
    alice_basis = np.array([BASES.index(basis_of(p)) for p in POLARIZATION_CYCLE])[result.state]
    matched = int(np.count_nonzero(alice_basis == result.bob_basis))
    for count in (z, matched):
        assert abs(count - n / 2) < 3 * math.sqrt(0.25 * n)


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
    assert result.totals.sample.n_err_z == 0
    assert result.totals.sample.n_err_x == 0
    assert result.totals.sample.n_sifted_z + result.totals.sample.n_sifted_x > 500
    assert result.totals.sample.qber_z == 0.0
    assert result.totals.sample.qber_x == 0.0


def test_run_arrivals_match_the_memory_input_mean():
    # arrived sums a run's drawn parts; without turbulence it is
    # Poisson(n * mu_alice * transmission), 1.6 photons per pulse here.
    config = preset_config("experiment3", n_pulses=20_000, seed=5)
    channel = dataclasses.replace(config.channel, rel_fluctuation=0.0)
    config = dataclasses.replace(config, channel=channel)
    mean = config.source.n_pulses * config.source.mu_alice * channel.transmission
    assert abs(run_experiment(config).totals.photons.arrived - mean) < 4 * math.sqrt(mean)


#: Per-pulse arrays of a RunResult.
COLUMNS = (
    "state", "mu_eff", "bob_basis", "c0", "c1",
    "leak_clicks", "sifted", "error",
)  # fmt: skip


def test_run_determinism_same_seed():
    config = preset_config("experiment3", n_pulses=1500, seed=31)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.totals.sample == b.totals.sample
    assert a.totals.histogram == b.totals.histogram
    for column in COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_run_changes_with_seed():
    config = preset_config("experiment3", n_pulses=1500, seed=31)
    a = run_experiment(config)
    b = run_experiment(dataclasses.replace(config, seed=32))
    assert a.totals.sample != b.totals.sample


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
        assert solo.totals.sample == split.totals.sample, case
        assert solo.totals.histogram == split.totals.histogram, case
        for column in COLUMNS:
            assert np.array_equal(getattr(solo, column), getattr(split, column)), (
                case,
                column,
            )


def test_discard_policy_changes_only_ties():
    config = preset_config("experiment3", n_pulses=2 * BLOCK_PULSES, seed=6)
    keep = run_experiment(config)
    drop = run_experiment(config, policy=DoubleClickPolicy.DISCARD)
    assert keep.totals.histogram == drop.totals.histogram
    for column in set(COLUMNS) - {"sifted", "error"}:
        assert np.array_equal(getattr(keep, column), getattr(drop, column)), column
    tie = keep.sifted & (keep.c0 == keep.c1)
    assert tie.any()
    assert np.array_equal(drop.sifted, keep.sifted & ~tie)


def test_zero_pulse_run():
    config = preset_config("experiment3", n_pulses=0, seed=1)
    result = run_experiment(config)
    assert all(getattr(result, column).size == 0 for column in COLUMNS)
    assert result.totals.sample.n_sifted_z == 0
    assert result.totals.histogram.counts.sum() == result.totals.histogram.n_dropped == 0


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
    assert result.totals.photons.counting_sbr(100_000) == pytest.approx(expected, rel=0.05)


def test_counting_sbr_without_background_is_inf_and_without_counts_nan():
    assert simulation.PhotonTotals(5, 1, 2, 0).counting_sbr(10) == math.inf
    assert math.isnan(simulation.PhotonTotals(0, 1, 2, 0).counting_sbr(10))
    assert math.isnan(simulation.PhotonTotals(0, 0, 0, 0).counting_sbr(0))


def test_run_qber_converges_to_oracle():
    config = preset_config("experiment3", n_pulses=100_000, seed=12)
    result = run_experiment(config)
    oracle = qber_oracle_from_sbr(3.2017)
    n_sifted = result.totals.sample.n_sifted_z + result.totals.sample.n_sifted_x
    se = math.sqrt(oracle * (1 - oracle) / n_sifted)
    assert abs(result.totals.sample.qber_mean - oracle) <= 3 * se
    assert result.totals.sample.qber_mean == pytest.approx(0.119, abs=0.005)


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


# --- closed-form QBER oracle -------------------------------------------------


def _qber_from_terms(a, b, policy):
    """Sifted error rate for C ~ Poisson(a) on the correct detector and W ~
    Poisson(b) on the wrong one, as (numerator, denominator)."""
    wrong = skellam.sf(0, b, a)  # P(W - C > 0)
    tie = skellam.pmf(0, b, a) - poisson.pmf(0, a + b)  # P(W = C >= 1)
    click = poisson.sf(0, a + b)  # P(C + W >= 1)
    if policy is DoubleClickPolicy.DISCARD:
        return wrong, click - tie
    return wrong + tie / 2, click


def _signal_and_background(config):
    """(mean retrieved photons per pulse at unit gain, background per detector)."""
    memory = config.memory
    signal = config.source.mu_alice * config.channel.transmission * memory.retrieval_efficiency
    return signal, memory.effective_background / 2


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_expected_qber_is_the_skellam_ratio_at_a_fixed_gain(preset, policy):
    config = preset_config(preset)
    config = dataclasses.replace(config, channel=ChannelConfig(rel_fluctuation=0.0))
    signal, b = _signal_and_background(config)
    numerator, denominator = _qber_from_terms(signal + b, b, policy)
    assert expected_qber(config, policy) == pytest.approx(numerator / denominator, rel=1e-9)


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
@pytest.mark.parametrize("rel_fluctuation", [0.05, 0.7])
@pytest.mark.parametrize("preset", ["experiment2", "experiment3", "experiment4"])
def test_expected_qber_averages_over_the_truncated_gain(preset, rel_fluctuation, policy):
    # At 0.7 about 8% of the gain's normal law lies below 0: a point mass at
    # g = 0, where nothing but background clicks.
    config = preset_config(preset)
    config = dataclasses.replace(config, channel=ChannelConfig(rel_fluctuation=rel_fluctuation))
    signal, b = _signal_and_background(config)

    def expectation(term):
        def integrand(g):
            density = norm.pdf(g, 1.0, rel_fluctuation)
            return density * _qber_from_terms(signal * g + b, b, policy)[term]

        upper = 1.0 + 12.0 * rel_fluctuation
        spread = quad(integrand, 0.0, upper, points=[1.0], limit=200)[0]
        at_zero = norm.cdf(0.0, 1.0, rel_fluctuation) * _qber_from_terms(b, b, policy)[term]
        return spread + at_zero

    reference = expectation(0) / expectation(1)
    assert expected_qber(config, policy) == pytest.approx(reference, rel=1e-7)


def test_expected_qber_is_nan_when_nothing_can_click():
    config = RunConfig(memory=MemoryConfig(retrieval_efficiency=0.0, background_mean=0.0))
    assert math.isnan(expected_qber(config))


#: Fixed before any run: an error count must lie inside the central part of
#: its binomial law that |z| <= 4 spans, each tail holding at least
#: norm.sf(4). The exact binomial tails stay valid where the expected count
#: is far below one (experiment2).
QBER_Z_BOUND = 4.0
#: Alice's key bit of each state code.
ALICE_BITS = np.array([bit_of(p) for p in POLARIZATION_CYCLE])


@pytest.mark.parametrize("policy", list(DoubleClickPolicy))
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_monte_carlo_qber_matches_expected_qber(preset, policy):
    config = preset_config(preset, n_pulses=400_000, seed=17)
    expected = expected_qber(config, policy)

    def tallies(start, block):
        # (sifted, errors) in Bob's Z and X bases and of Alice's bits 0 and
        # 1. A background excess on one detector moves errors from one bit
        # to the other, which the per-basis tallies pool away.
        bit = ALICE_BITS[block.state]
        groups = (block.bob_basis == Z, block.bob_basis == X, bit == 0, bit == 1)
        flags = (block.sifted, block.error)
        return np.array([[np.count_nonzero(f & g) for f in flags] for g in groups])

    totals = sum(simulate_blocks(config, 1, policy, tallies))
    for group, (n_sifted, n_err) in zip(("Z", "X", "bit 0", "bit 1"), totals.tolist()):
        below = binom.cdf(n_err, n_sifted, expected)
        above = binom.sf(n_err - 1, n_sifted, expected)
        z = (n_err - n_sifted * expected) / math.sqrt(n_sifted * expected * (1 - expected))
        assert min(below, above) >= norm.sf(QBER_Z_BOUND), (group, n_err, n_sifted, expected, z)


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
    h, photons = result.totals.histogram, result.totals.photons
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
        if field.name == "totals":
            assert sum(parts[1:], parts[0]) == getattr(result, field.name), field.name
        else:
            joined = np.concatenate(parts)
            assert np.array_equal(getattr(result, field.name), joined), field.name


class _InlinePool:
    """Stand-in for ThreadPoolExecutor that runs each block when submitted
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


@pytest.mark.parametrize(
    "workers,n_blocks,cpus", [(2, 11, 8), (3, 4, 8), (8, 3, 8), (10**5, 11, 3)]
)
def test_stream_bounds_blocks_in_flight(monkeypatch, workers, n_blocks, cpus):
    # _InlinePool starts no thread, whatever max_workers it is given.
    log = {}
    monkeypatch.setattr(
        simulation, "ThreadPoolExecutor", lambda max_workers: _InlinePool(max_workers, log)
    )
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
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
    assert log["processes"] == min(workers, n_blocks, cpus)
    assert starts == [b * BLOCK_PULSES for b in range(n_blocks)]


class _StopRun(Exception):
    pass


def _record_pool_size(sizes):
    """A ThreadPoolExecutor stand-in that records max_workers and stops the
    run before any thread starts."""

    def executor(max_workers):
        sizes.append(max_workers)
        raise _StopRun

    return executor


@pytest.mark.parametrize("affinity", [True, False])
def test_stream_starts_at_most_one_thread_per_usable_cpu(monkeypatch, affinity):
    # The CPUs the process may use: its affinity mask where the OS has one,
    # otherwise every CPU. Both counts are patched, so the host's do not
    # matter.
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sizes = []
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", _record_pool_size(sizes))
    config = preset_config("experiment3", n_pulses=8 * BLOCK_PULSES, seed=2)
    with pytest.raises(_StopRun):
        next(simulate_blocks(config, 10**5, DoubleClickPolicy.RANDOM, lambda start, block: start))
    assert sizes == [3]


def test_stream_on_one_usable_cpu_runs_inline(monkeypatch):
    sizes = []
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", _record_pool_size(sizes))
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    config = preset_config("experiment3", n_pulses=2 * BLOCK_PULSES + 5, seed=2)
    starts = list(simulate_blocks(config, 4, DoubleClickPolicy.RANDOM, lambda start, block: start))
    assert starts == [0, BLOCK_PULSES, 2 * BLOCK_PULSES]
    assert sizes == []


def test_stream_takes_a_reducer_that_cannot_pickle():
    # A nested function cannot pickle; pool threads call it in this process.
    config = preset_config("experiment3", n_pulses=5 * BLOCK_PULSES // 2, seed=31)
    seen = []

    def reduce(start, block):
        seen.append(start)
        return start, block.totals.sample, block.totals.histogram

    solo = list(simulate_blocks(config, 1, DoubleClickPolicy.RANDOM, reduce))
    split = list(simulate_blocks(config, 2, DoubleClickPolicy.RANDOM, reduce))
    assert split == solo
    assert sorted(seen) == sorted(2 * [0, BLOCK_PULSES, 2 * BLOCK_PULSES])


class _Token:
    """A reduced block that a weak reference can watch."""


def test_stream_holds_no_yielded_block_while_awaiting_the_next(monkeypatch):
    # Block 1's reducer, in a pool thread, waits for block 0's result to be
    # collected. The consumer drops its own reference and asks for block 1,
    # so only the stream could still hold block 0's result.
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    config = preset_config("experiment3", n_pulses=2 * BLOCK_PULSES, seed=2)
    first = []

    def reduce(start, block):
        if start == 0:
            return _Token()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if first and first[0]() is None:
                return "collected"
            time.sleep(0.001)
        return "still held"

    blocks = simulate_blocks(config, 2, DoubleClickPolicy.RANDOM, reduce)
    token = next(blocks)
    first.append(weakref.ref(token))
    del token
    assert next(blocks) == "collected"


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


def _totals(window, counts, n_dropped, sample, photons):
    hist = dataclasses.replace(
        Histogram.empty(1.0, window), counts=np.array(counts), n_dropped=n_dropped
    )
    return BlockTotals(hist, SiftedSample(*sample), PhotonTotals(*photons))


def test_block_totals_add_part_by_part():
    a = _totals((0, 3), [1, 0, 2], 4, (5, 6, 1, 2), (7, 3, 2, 1))
    b = _totals((0, 3), [0, 9, 1], 1, (2, 1, 2, 0), (1, 0, 5, 8))
    total = a + b
    assert total.histogram == a.histogram + b.histogram
    assert np.array_equal(total.histogram.counts, [1, 9, 3]) and total.histogram.n_dropped == 5
    assert total.sample == SiftedSample(7, 7, 3, 2)
    assert total.photons == PhotonTotals(8, 3, 7, 9)
    with pytest.raises(TypeError):
        a + 0
    with pytest.raises(ValueError, match="different layouts"):
        a + _totals((1, 4), [1, 0, 2], 4, (5, 6, 1, 2), (7, 3, 2, 1))


def test_block_samples_sum_to_the_run_sample():
    config = preset_config("experiment3", n_pulses=5 * BLOCK_PULSES // 2, seed=29)
    samples = list(
        simulate_blocks(config, 1, DoubleClickPolicy.DISCARD, lambda start, block: block.totals.sample)
    )
    assert len(samples) == 3
    assert sum(samples[1:], samples[0]) == run_experiment(
        config, policy=DoubleClickPolicy.DISCARD
    ).totals.sample
