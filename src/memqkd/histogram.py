"""Time-of-arrival histograms, ROI integration, and histogram-based SBR."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .keyrate import SbrEstimate


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

    def total(self) -> int:
        return int(self.counts.sum())

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
        if (
            self.bin_width != other.bin_width
            or self.t_start != other.t_start
            or self.t_end != other.t_end
        ):
            raise ValueError("cannot merge histograms with different layouts")
        return Histogram(
            self.bin_width,
            self.t_start,
            self.t_end,
            self.counts + other.counts,
            self.n_dropped + other.n_dropped,
        )


def bin_clicks(timestamps, bin_width: float, window: tuple[float, float]) -> Histogram:
    """Bin pulse-relative click times into a Histogram.

    Every timestamp in [t_start, t_end) increments exactly one bin;
    out-of-window timestamps are dropped and tallied in n_dropped, so that
    sharding a timestamp list and merging the per-shard histograms equals a
    single pass exactly.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    t_start, t_end = float(window[0]), float(window[1])
    if not t_end > t_start:
        raise ValueError(f"window must be nonempty, got {window}")
    ts = np.asarray(timestamps, dtype=float)
    n_bins = math.ceil((t_end - t_start) / bin_width)
    inside = (ts >= t_start) & (ts < t_end)
    idx = np.floor((ts[inside] - t_start) / bin_width).astype(np.int64)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    # The quotient of a time just below t_end can round up to n_bins.
    counts[n_bins - 1] += counts[n_bins:].sum()
    return Histogram(bin_width, t_start, t_end, counts[:n_bins], int(ts.size - inside.sum()))


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
    starts = h.bin_starts
    ends = starts + h.bin_width
    overlap = np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, h.bin_width)
    return float(np.dot(h.counts, overlap / h.bin_width))


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
) -> SbrEstimate:
    """SBR from one histogram: peak-ROI counts over duration-rescaled background.

    eta is the (rounded) count in the ROI around the retrieval peak; q is the
    background-region count rescaled linearly to the ROI duration. The two
    regions must be disjoint and inside the window. Zero background counts
    yield an estimate flagged infinite rather than a division error.
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
    return SbrEstimate(eta=float(eta), q=q)
