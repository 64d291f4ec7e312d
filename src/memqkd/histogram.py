"""Time-of-arrival histograms, ROI integration, and histogram-based SBR.

A run's Histogram is drawn from its totals by simulation.draw_histogram;
any other is built from its counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Histogram:
    """Counts of pulse-relative arrival times in fixed-width bins.

    Bins are half-open [start, start + bin_width) from t_start; the last bin
    may extend past t_end when the window is not a whole number of bins.
    n_dropped counts leaked photons whose arrival falls outside
    [t_start, t_end).
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
        if not 0 < bin_width < math.inf:
            raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
        t_start, t_end = float(window[0]), float(window[1])
        if not t_end > t_start:
            raise ValueError(f"window must be nonempty, got {window}")
        # Also inf for a window with an infinite end.
        n_bins = (t_end - t_start) / bin_width
        if not n_bins < math.inf:
            raise ValueError(f"window {window} holds no finite number of bins of {bin_width}")
        return cls(bin_width, t_start, t_end, np.zeros(math.ceil(n_bins), np.int64))

    def overlaps(self, lo: float, hi: float) -> np.ndarray:
        """Length of [lo, hi) inside each bin, the last bin cut at t_end."""
        starts = self.bin_starts
        ends = np.minimum(starts + self.bin_width, self.t_end)
        return np.clip(np.minimum(ends, hi) - np.maximum(starts, lo), 0.0, self.bin_width)

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
