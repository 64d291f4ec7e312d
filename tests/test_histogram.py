import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memqkd.histogram import (
    Histogram,
    bin_clicks,
    click_times,
    roi_integrate,
    sbr_from_histogram,
)
from memqkd.presets import preset_config
from memqkd.simulation import run_experiment


def test_empty_input_gives_zero_histogram():
    h = bin_clicks([], bin_width=10.0, window=(0.0, 2000.0))
    assert h.n_bins == 200
    assert h.counts.sum() == 0
    assert h.n_dropped == 0


def test_boundary_inclusion():
    h = bin_clicks([0.0, 1999.999, 2000.0, -0.001], bin_width=10.0, window=(0.0, 2000.0))
    assert h.counts[0] == 1
    assert h.counts[-1] == 1
    assert h.counts.sum() == 2
    assert h.n_dropped == 2


def test_bin_width_validation():
    with pytest.raises(ValueError):
        bin_clicks([1.0], bin_width=0.0, window=(0.0, 2000.0))
    with pytest.raises(ValueError):
        bin_clicks([1.0], bin_width=10.0, window=(5.0, 5.0))


def test_time_just_below_window_end_stays_in_the_last_bin():
    # nextafter(7, 0) / 0.7 rounds up to 10.0, one past the last of the
    # ceil(7 / 0.7) = 10 bins.
    h = bin_clicks([np.nextafter(7.0, 0.0)], 0.7, (0.0, 7.0))
    assert h.n_bins == 10
    assert h.counts.tolist() == [0] * 9 + [1]
    assert (h + bin_clicks([1.0], 0.7, (0.0, 7.0))).counts.tolist() == [0, 1] + [0] * 7 + [1]


def test_count_conservation():
    rng = np.random.default_rng(3)
    ts = rng.uniform(-100.0, 2100.0, 20_000)
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
    inside = np.count_nonzero((ts >= 0.0) & (ts < 2000.0))
    assert h.counts.sum() == inside
    assert h.n_dropped == len(ts) - inside


def test_shard_merge_equals_single_pass():
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.0, 2000.0, 5000)
    whole = bin_clicks(ts, 10.0, (0.0, 2000.0))
    pieces = np.array_split(ts, 7)
    merged = bin_clicks(pieces[0], 10.0, (0.0, 2000.0))
    for piece in pieces[1:]:
        merged = merged + bin_clicks(piece, 10.0, (0.0, 2000.0))
    assert merged == whole


def test_merge_rejects_layout_mismatch():
    a = bin_clicks([], 10.0, (0.0, 100.0))
    b = bin_clicks([], 20.0, (0.0, 100.0))
    with pytest.raises(ValueError):
        a + b


def test_add_non_histogram_raises_type_error():
    h = bin_clicks([1.0], 10.0, (0.0, 100.0))
    for other in (0, 1.5, None):
        with pytest.raises(TypeError):
            h + other
    assert h.__add__(0) is NotImplemented


def test_roi_whole_window_is_total():
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 2000.0, 4000)
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
    assert roi_integrate(h, 1000.0, 2000.0) == h.counts.sum()


def test_roi_zero_width_is_zero():
    h = bin_clicks([500.0] * 10, 10.0, (0.0, 2000.0))
    assert roi_integrate(h, 500.0, 0.0) == 0


def test_roi_outside_window_rejected():
    h = bin_clicks([], 10.0, (0.0, 2000.0))
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
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
    split = k * 100.0  # bin-aligned seam, so proration is exact
    left = roi_integrate(h, split / 2.0, split)
    right = roi_integrate(h, (split + 2000.0) / 2.0, 2000.0 - split)
    assert left + right == roi_integrate(h, 1000.0, 2000.0)


def test_sbr_flat_histogram_near_one():
    rng = np.random.default_rng(23)
    ts = rng.uniform(0.0, 2000.0, 200_000)  # 100 per 1 ns, uniform
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
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
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
    estimate = sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0))
    sigma = true_sbr * math.sqrt(1.0 / 40_000 + 1.0 / 80_000)
    assert abs(estimate - true_sbr) <= 3 * sigma


def test_sbr_zero_background_flagged_infinite():
    ts = np.full(100, 1000.0)
    h = bin_clicks(ts, 10.0, (0.0, 2000.0))
    estimate = sbr_from_histogram(h, 1000.0, 100.0, (1200.0, 2000.0))
    assert estimate == math.inf


def test_sbr_without_signal_or_background_is_nan():
    h = bin_clicks([], 10.0, (0.0, 2000.0))
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
    h = bin_clicks([], 10.0, (0.0, 2000.0))
    with pytest.raises(ValueError):
        sbr_from_histogram(h, 1000.0, 100.0, (1000.0, 1500.0))
    with pytest.raises(ValueError):
        sbr_from_histogram(h, 1000.0, 100.0, (1500.0, 2100.0))


def test_run_histogram_shows_two_peaks():
    config = preset_config("experiment3", n_pulses=20_000, seed=13)
    result = run_experiment(config)
    times = click_times(result.totals.histogram, np.random.default_rng(13))
    h = bin_clicks(times, 10.0, (0.0, 2000.0))
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
    times = click_times(result.totals.histogram, np.random.default_rng(21))
    h = bin_clicks(times, 10.0, (0.0, 2000.0))
    roi_count = roi_integrate(h, 1000.0, 100.0)
    assert roi_count == result.totals.photons.retrieved + result.totals.photons.background_roi


# --- click times derived from a histogram -------------------------------------


def _without_dropped(h):
    return dataclasses.replace(h, n_dropped=0)


@pytest.mark.parametrize("window_start_ns", [0.0, 200.0])  # 200: half the leak window drops
def test_click_times_bin_back_into_a_run_histogram(window_start_ns):
    config = preset_config("experiment2", n_pulses=20_000, seed=17)
    analysis = dataclasses.replace(config.analysis, window_start_ns=window_start_ns)
    h = run_experiment(dataclasses.replace(config, analysis=analysis)).totals.histogram
    assert (h.n_dropped > 0) == (window_start_ns > 0)
    times = click_times(h, np.random.default_rng(17))
    assert times.size == h.counts.sum()
    assert bin_clicks(times, analysis.bin_width_ns, analysis.window) == _without_dropped(h)


def test_click_times_draw_from_the_callers_generator_only():
    h = run_experiment(preset_config("experiment3", n_pulses=2000, seed=4)).totals.histogram
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(click_times(h, a), click_times(h, b))
    assert a.random() == b.random()


@given(
    st.floats(1e-3, 1e3),
    st.floats(-1e4, 1e4),
    st.integers(1, 40),
    st.floats(0.0, 0.999),
    st.integers(0, 2**32 - 1),
)
def test_click_times_round_trip_on_any_layout(bin_width, t_start, n_bins, cut, seed):
    # Bin edges that are not exact floats, and a last bin cut short.
    t_end = t_start + bin_width * (n_bins - cut)
    h = Histogram.empty(bin_width, (t_start, t_end))
    rng = np.random.default_rng(seed)
    h.counts = rng.integers(0, 30, h.n_bins)
    # A bin a few float spacings wide is outside click_times' contract.
    h.counts[h.overlaps(t_start, t_end) < 1e-9 * bin_width] = 0
    times = click_times(h, rng)
    assert ((times >= t_start) & (times < t_end)).all()
    assert bin_clicks(times, bin_width, (t_start, t_end)) == h


def test_overlaps_cut_the_last_bin_at_the_window_end():
    h = Histogram.empty(10.0, (0.0, 25.0))
    assert h.n_bins == 3
    assert h.overlaps(5.0, 100.0).tolist() == [5.0, 10.0, 5.0]
    assert h.overlaps(-50.0, -1.0).tolist() == [0.0, 0.0, 0.0]
