import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memqkd.histogram import Histogram, roi_integrate, sbr_from_histogram
from memqkd.presets import preset_config
from memqkd.simulation import draw_histogram, run_experiment


def _binned(times, bin_width=10.0, window=(0.0, 2000.0)):
    """A Histogram of times, binned over Histogram.empty's edges."""
    h = Histogram.empty(bin_width, window)
    h.counts = np.histogram(times, np.append(h.bin_starts, h.t_end))[0]
    return h


def test_empty_histogram_has_no_counts():
    h = Histogram.empty(10.0, (0.0, 2000.0))
    assert h.n_bins == 200
    assert h.counts.sum() == 0
    assert h.n_dropped == 0


def test_bin_width_validation():
    with pytest.raises(ValueError):
        Histogram.empty(0.0, (0.0, 2000.0))
    with pytest.raises(ValueError):
        Histogram.empty(10.0, (5.0, 5.0))


@pytest.mark.parametrize(
    "bin_width,window",
    [
        (1.0, (0.0, math.inf)),
        (1.0, (-math.inf, 0.0)),
        (math.inf, (0.0, 1.0)),
        # A finite window whose length or bin count overflows.
        (1.0, (-1e308, 1e308)),
        (1e-300, (0.0, 1e300)),
    ],
    ids=repr,
)
def test_a_window_or_bin_count_that_is_not_finite_is_rejected(bin_width, window):
    with pytest.raises(ValueError, match="finite"):
        Histogram.empty(bin_width, window)


def test_roi_whole_window_is_total():
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 2000.0, 4000)
    h = _binned(ts)
    assert roi_integrate(h, 1000.0, 2000.0) == h.counts.sum()


def test_roi_zero_width_is_zero():
    h = _binned([500.0] * 10)
    assert roi_integrate(h, 500.0, 0.0) == 0


def test_roi_outside_window_rejected():
    h = Histogram.empty(10.0, (0.0, 2000.0))
    with pytest.raises(ValueError):
        roi_integrate(h, 0.0, 100.0)
    with pytest.raises(ValueError):
        roi_integrate(h, 2000.0, 10.0)


def test_roi_partial_bin_proration():
    # 10 counts spread evenly over one 10 ns bin; half the bin overlaps.
    h = Histogram(10.0, 0.0, 100.0, np.array([10] + [0] * 9), 0)
    assert roi_integrate(h, 5.0, 10.0) == 10
    assert roi_integrate(h, 10.0, 10.0) == 5  # half of bin 0, half of empty bin 1
    # quarter overlap of bin 0 -> 2.5 rounds half-up to 3
    assert roi_integrate(h, 1.25, 2.5) == 3


@given(st.integers(min_value=1, max_value=19))
def test_roi_additivity_on_aligned_splits(k):
    rng = np.random.default_rng(17)
    ts = rng.uniform(0.0, 2000.0, 3000)
    h = _binned(ts)
    split = k * 100.0  # bin-aligned seam, so proration is exact
    left = roi_integrate(h, split / 2.0, split)
    right = roi_integrate(h, (split + 2000.0) / 2.0, 2000.0 - split)
    assert left + right == roi_integrate(h, 1000.0, 2000.0)


def test_sbr_flat_histogram_near_one():
    rng = np.random.default_rng(23)
    ts = rng.uniform(0.0, 2000.0, 200_000)  # 100 per 1 ns, uniform
    h = _binned(ts)
    estimate = sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0))
    # eta ~ Poisson(1e4), q averages 8e4 rescaled by 1/8, both estimate the
    # same rate; 3 sigma on the ratio is ~3.2%.
    assert estimate == pytest.approx(1.0, abs=0.04)


def test_sbr_recovers_known_ratio():
    # Synthetic data with a known ratio: signal only inside the ROI,
    # background only inside the background region.
    rng = np.random.default_rng(29)
    true_sbr = 4.0
    n_signal = rng.poisson(40_000)
    n_background = rng.poisson(80_000)  # 800 ns region -> q = counts / 8
    ts = np.concatenate(
        [
            rng.uniform(950.0, 1050.0, n_signal),
            rng.uniform(1200.0, 2000.0, n_background),
        ]
    )
    h = _binned(ts)
    estimate = sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0))
    sigma = true_sbr * math.sqrt(1.0 / 40_000 + 1.0 / 80_000)
    assert abs(estimate - true_sbr) <= 3 * sigma


def test_sbr_zero_background_flagged_infinite():
    ts = np.full(100, 1000.0)
    h = _binned(ts)
    estimate = sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0))
    assert estimate == math.inf


def test_sbr_without_signal_or_background_is_nan():
    h = Histogram.empty(10.0, (0.0, 2000.0))
    assert math.isnan(sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0)))


def test_sbr_does_not_overflow_near_the_top_of_the_float_range():
    # counts x bin_width exceeds the float range, yet scaling every length
    # by a power of two must not change the estimate.
    counts = np.full(200, 10**9)
    small = Histogram(10.0, 0.0, 2000.0, counts)
    scale = 2.0**1000
    big = Histogram(10.0 * scale, 0.0, 2000.0 * scale, counts)
    assert float(counts[0]) * big.bin_width == math.inf
    expected = sbr_from_histogram(small, 1000.0, 100.0, (1200.0, 2000.0))
    assert expected == 1.0
    estimate = sbr_from_histogram(
        big, 1000.0 * scale, 100.0 * scale, (1200.0 * scale, 2000.0 * scale)
    )
    assert estimate == expected


def test_sbr_rejects_overlapping_regions():
    h = Histogram.empty(10.0, (0.0, 2000.0))
    with pytest.raises(ValueError):
        sbr_from_histogram(h, 1000.0, 100.0, (1000.0, 1500.0))
    with pytest.raises(ValueError):
        sbr_from_histogram(h, 1000.0, 100.0, (1500.0, 2100.0))


def test_run_histogram_shows_two_peaks():
    config = preset_config("experiment3", n_pulses=20_000, seed=13)
    result = run_experiment(config)
    h = draw_histogram(config, result.totals)
    starts = h.bin_starts
    leak_region = h.counts[(starts >= 0.0) & (starts < 400.0)]
    retrieval_region = h.counts[(starts >= 950.0) & (starts < 1050.0)]
    floor_region = h.counts[(starts >= 1200.0) & (starts < 2000.0)]
    # Leakage rides on the background floor; retrieval stands on top as well.
    assert leak_region.mean() > 3 * floor_region.mean()
    assert retrieval_region.mean() > 3 * floor_region.mean()
    # Both peaks are where they should be, nothing comparable elsewhere.
    gap_region = h.counts[(starts >= 500.0) & (starts < 900.0)]
    assert gap_region.mean() < 2 * floor_region.mean()


def test_roi_count_matches_pipeline_tally():
    # Bin-aligned ROI: the histogram ROI count equals retrieved + ROI
    # background from the pipeline exactly.
    config = preset_config("experiment3", n_pulses=5000, seed=21)
    result = run_experiment(config)
    h = draw_histogram(config, result.totals)
    roi_count = roi_integrate(h, 1000.0, 100.0)
    assert roi_count == result.totals.retrieved + result.totals.background_roi


def test_overlaps_cut_the_last_bin_at_the_window_end():
    h = Histogram.empty(10.0, (0.0, 25.0))
    assert h.n_bins == 3
    assert h.overlaps(5.0, 100.0).tolist() == [5.0, 10.0, 5.0]
    assert h.overlaps(-50.0, -1.0).tolist() == [0.0, 0.0, 0.0]
