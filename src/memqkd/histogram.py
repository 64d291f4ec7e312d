"""Time-of-arrival histograms, ROI integration, and histogram-based SBR."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Histogram:
    """Fixed-width binning of pulse-relative arrival times.

    Bins are half-open [start, start + bin_width); the last bin may extend
    past t_end when the window is not a whole number of bins. n_dropped
    counts timestamps that fell outside [t_start, t_end).
    """

    bin_width: float
    t_start: float
    t_end: float
    counts: np.ndarray
    n_dropped: int = 0

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def bin_starts(self) -> np.ndarray:
        return self.t_start + self.bin_width * np.arange(self.n_bins)

    @classmethod
    def empty(cls, bin_width: float, window: tuple[float, float]) -> Histogram:
        """No counts, in bins of bin_width from window[0] that cover the window."""
        if not bin_width > 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        t_start, t_end = float(window[0]), float(window[1])
        if not t_end > t_start:
            raise ValueError(f"window must be nonempty, got {window}")
        n_bins = math.ceil((t_end - t_start) / bin_width)
        return cls(bin_width, t_start, t_end, np.zeros(n_bins, np.int64))

    def overlaps(self, lo: float, hi: float) -> np.ndarray:
        """Length of [lo, hi) inside each bin, the last bin cut at t_end."""
        starts = self.bin_starts
        ends = np.minimum(starts + self.bin_width, self.t_end)
        return np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, self.bin_width)

    def bin_index(self, times: np.ndarray) -> np.ndarray:
        """The bin of each time, or -1 for a time outside [t_start, t_end)."""
        inside = (times >= self.t_start) & (times < self.t_end)
        # The quotient of a time just below t_end can round up to n_bins.
        index = np.minimum(np.floor((times - self.t_start) / self.bin_width), self.n_bins - 1)
        return np.where(inside, index, -1).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bin_width == other.bin_width
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and self.n_dropped == other.n_dropped
            and np.array_equal(self.counts, other.counts)
        )

    def __add__(self, other: "Histogram") -> "Histogram":
        """Merge two histograms with identical layout by elementwise addition."""
        if not isinstance(other, Histogram):
            return NotImplemented
        if (
            self.bin_width != other.bin_width
            or self.t_start != other.t_start
            or self.t_end != other.t_end
        ):
            raise ValueError("cannot merge histograms with different layouts")
        counts, n_dropped = self.counts + other.counts, self.n_dropped + other.n_dropped
        return dataclasses.replace(self, counts=counts, n_dropped=n_dropped)


def bin_clicks(timestamps, bin_width: float, window: tuple[float, float]) -> Histogram:
    """Bin pulse-relative click times into a Histogram.

    Every timestamp in [t_start, t_end) increments exactly one bin;
    out-of-window timestamps are dropped and tallied in n_dropped, so that
    sharding a timestamp list and merging the per-shard histograms equals a
    single pass exactly.
    """
    h = Histogram.empty(bin_width, window)
    index = h.bin_index(np.asarray(timestamps, dtype=float))
    inside = index[index >= 0]
    counts = np.bincount(inside, minlength=h.n_bins).astype(np.int64)
    return dataclasses.replace(h, counts=counts, n_dropped=index.size - inside.size)


def click_times(h: Histogram, rng: np.random.Generator) -> np.ndarray:
    """Click times that bin_clicks bins back into h's counts exactly.

    Each bin's counts are drawn uniform over the bin (the last cut at t_end)
    from rng alone; n_dropped clicks are not reconstructed. Rounding can put
    a time on a bin edge or floor it onto a neighbouring bin; such a time
    moves to the middle of its own bin. That is exact for every bin wider
    than a few float spacings at its edges (a sliver of a last bin that
    rounding adds past t_end gets no counts from a run).
    """
    bins = np.repeat(np.arange(h.n_bins), h.counts)
    starts = h.bin_starts[bins]
    ends = np.minimum(starts + h.bin_width, h.t_end)
    times = rng.uniform(starts, ends)
    stray = h.bin_index(times) != bins
    times[stray] = starts[stray] + (ends[stray] - starts[stray]) / 2.0
    return times


def _window_counts(h: Histogram, lo: float, hi: float) -> float:
    """Prorated counts in [lo, hi]: full bins plus overlap fractions of partial bins.

    Weighting each count by its bin's fraction (not its overlap in ns) keeps
    the sum below the total count, so no time scale can overflow it.
    """
    if lo < h.t_start or hi > h.t_end:
        raise ValueError(
            f"region [{lo}, {hi}] extends outside the histogram window "
            f"[{h.t_start}, {h.t_end}]"
        )
    if hi <= lo:
        return 0.0
    return float(np.dot(h.counts, h.overlaps(lo, hi) / h.bin_width))


def roi_integrate(h: Histogram, center: float, width: float) -> int:
    """Counts in the ROI [center - width/2, center + width/2].

    Partial bins are prorated by their overlap fraction and the total is
    rounded half-up. Additive over disjoint ROIs whenever the ROI edges are
    bin-aligned (proration may otherwise shift one count across the seam).
    """
    if width < 0:
        raise ValueError(f"width must be nonnegative, got {width}")
    total = _window_counts(h, center - width / 2.0, center + width / 2.0)
    return int(math.floor(total + 0.5))


def sbr_from_histogram(
    h: Histogram,
    signal_center: float,
    roi_width: float,
    background_region: tuple[float, float],
) -> float:
    """SBR from one histogram: peak-ROI counts over duration-rescaled background.

    The ratio is eta / q, where eta is the (rounded) count in the ROI around
    the retrieval peak and q the background-region count rescaled linearly
    to the ROI duration. The two regions must be disjoint and inside the
    window. Zero background counts give math.inf rather than a division
    error, and math.nan when the ROI holds no counts either.
    """
    bg_lo, bg_hi = float(background_region[0]), float(background_region[1])
    if not bg_hi > bg_lo:
        raise ValueError(f"background region must be nonempty, got {background_region}")
    if not roi_width > 0:
        raise ValueError(f"roi_width must be positive, got {roi_width}")
    roi_lo = signal_center - roi_width / 2.0
    roi_hi = signal_center + roi_width / 2.0
    if roi_hi > bg_lo and bg_hi > roi_lo:
        raise ValueError("signal ROI and background region must be disjoint")
    eta = roi_integrate(h, signal_center, roi_width)
    # The length ratio first: background * roi_width alone can overflow.
    q = _window_counts(h, bg_lo, bg_hi) * (roi_width / (bg_hi - bg_lo))
    return float(eta) / q if q else (math.inf if eta else math.nan)
