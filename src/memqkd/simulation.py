"""Seeded Monte Carlo pipeline for the memory-assisted link.

Per pulse: a weak coherent pulse is emitted in one of four polarizations,
crosses a turbulent free-space channel, enters a dual-rail vapor memory that
either leaks, stores-and-retrieves, or loses each photon, and is measured in a
randomly chosen basis by a four-detector receiver. Sifting keeps matched-basis
pulses with at least one click inside the retrieval ROI and tallies per-basis
error rates.

Pulses are simulated in blocks of BLOCK_PULSES consecutive pulses (the last
block may be shorter). Each block draws every layer as whole arrays from one
stream keyed by (seed, block_index), in a fixed order that starts with the
prepared states. Worker chunks are unions of whole blocks and the block size
never depends on the worker count, so a run is a pure function of
(config, seed) whatever the number of workers.

Array codes: a state is its index in POLARIZATION_CYCLE (H, V, D, A) and a
basis its index in BASES (Z, X).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .keyrate import SbrEstimate
from .qubits import (
    BASES,
    BASIS_MEMBERS,
    POLARIZATION_CYCLE,
    Basis,
    Polarization,
    basis_of,
    bit_of,
    detection_probability,
)

#: Pulses per random stream. A constant of the stream layout: changing it
#: changes every seeded output.
BLOCK_PULSES = 2**14

# Lookup tables over state codes, built from the scalar definitions in qubits.
_BASIS_OF_STATE = np.array([BASES.index(basis_of(p)) for p in POLARIZATION_CYCLE])
_BIT_OF_STATE = np.array([bit_of(p) for p in POLARIZATION_CYCLE])
#: _P0[state, bob_basis]: probability that a signal photon fires the bit-0
#: detector of bob_basis.
_P0 = np.array(
    [
        [detection_probability(p, b, BASIS_MEMBERS[b][0]) for b in BASES]
        for p in POLARIZATION_CYCLE
    ]
)


class SourceMode(Enum):
    ORDERED = "ordered"
    RANDOM = "random"


class DoubleClickPolicy(Enum):
    """How a sifted pulse with equal counts on both detectors is resolved."""

    RANDOM = "random"
    DISCARD = "discard"


def _require_finite(config) -> None:
    """Reject NaN and infinite float fields; range checks cannot see NaN."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class SourceConfig:
    """Pulsed four-state source.

    Ordered mode cycles H,V,D,A (one cycle per 4 * pulse_period_ns); random
    mode draws each state uniformly from the four. mu_alice is the mean
    photon number per pulse leaving the source.
    """

    pulse_width_ns: float = 400.0
    pulse_period_ns: float = 40_000.0
    mode: SourceMode = SourceMode.RANDOM
    mu_alice: float = 1.6 / 0.59  # 1.6 at the memory input through the default channel
    n_pulses: int = 10_000

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.pulse_width_ns > 0:
            raise ValueError(f"pulse_width_ns must be positive, got {self.pulse_width_ns}")
        if not self.pulse_width_ns < self.pulse_period_ns:
            raise ValueError(
                f"pulse_width_ns ({self.pulse_width_ns}) must be smaller than "
                f"pulse_period_ns ({self.pulse_period_ns})"
            )
        if not self.mu_alice > 0:
            raise ValueError(f"mu_alice must be positive, got {self.mu_alice}")
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be nonnegative, got {self.n_pulses}")


@dataclass(frozen=True)
class ChannelConfig:
    """Free-space channel: fixed transmission plus turbulent gain fluctuations.

    rel_fluctuation is the shot-by-shot relative standard deviation of the
    multiplicative gain (mean 1, truncated at 0).
    """

    transmission: float = 0.59
    rel_fluctuation: float = 0.05

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in (0, 1], got {self.transmission}")
        if self.rel_fluctuation < 0:
            raise ValueError(
                f"rel_fluctuation must be nonnegative, got {self.rel_fluctuation}"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Phenomenological dual-rail memory.

    Each arriving photon independently leaks straight through (leak_fraction),
    is stored and retrieved into the ROI (retrieval_efficiency), or is lost.
    background_mean is the unpolarized background count expected per ROI per
    pulse; noise_suppression scales it down in suppressed-noise operation.
    """

    retrieval_efficiency: float = 0.12
    leak_fraction: float = 0.35
    background_mean: float = 0.12 * 1.6 / 3.2017  # single-photon-level calibration
    retrieval_delay_ns: float = 1000.0
    roi_width_ns: float = 100.0
    noise_suppression: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("retrieval_efficiency", "leak_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.retrieval_efficiency + self.leak_fraction > 1.0:
            raise ValueError(
                "retrieval_efficiency + leak_fraction must not exceed 1, got "
                f"{self.retrieval_efficiency} + {self.leak_fraction}"
            )
        if self.background_mean < 0:
            raise ValueError(
                f"background_mean must be nonnegative, got {self.background_mean}"
            )
        if not 0.0 <= self.noise_suppression <= 1.0:
            raise ValueError(
                f"noise_suppression must lie in [0, 1], got {self.noise_suppression}"
            )
        if not self.retrieval_delay_ns >= 0:
            raise ValueError(
                f"retrieval_delay_ns must be nonnegative, got {self.retrieval_delay_ns}"
            )
        if not self.roi_width_ns > 0:
            raise ValueError(f"roi_width_ns must be positive, got {self.roi_width_ns}")

    @property
    def effective_background(self) -> float:
        """Background mean per ROI after noise suppression."""
        return self.background_mean * self.noise_suppression


@dataclass(frozen=True)
class AnalysisConfig:
    """Per-pulse record window, histogram binning, and SBR regions.

    roi_center_ns defaults to the retrieval peak (memory retrieval delay)
    when left as None. The background region feeds the histogram SBR
    estimate and must sit inside the record window.
    """

    bin_width_ns: float = 10.0
    window_start_ns: float = 0.0
    window_end_ns: float = 2000.0
    roi_center_ns: float | None = None
    background_start_ns: float = 1200.0
    background_end_ns: float = 2000.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.bin_width_ns > 0:
            raise ValueError(f"bin_width_ns must be positive, got {self.bin_width_ns}")
        if not self.window_end_ns > self.window_start_ns:
            raise ValueError(
                f"record window must be nonempty, got "
                f"[{self.window_start_ns}, {self.window_end_ns}]"
            )
        if not self.background_end_ns > self.background_start_ns:
            raise ValueError(
                f"background region must be nonempty, got "
                f"[{self.background_start_ns}, {self.background_end_ns}]"
            )
        if (
            self.background_start_ns < self.window_start_ns
            or self.background_end_ns > self.window_end_ns
        ):
            raise ValueError("background region must lie inside the record window")

    @property
    def window(self) -> tuple[float, float]:
        return (self.window_start_ns, self.window_end_ns)

    @property
    def background_region(self) -> tuple[float, float]:
        return (self.background_start_ns, self.background_end_ns)

    def roi_center(self, memory: MemoryConfig) -> float:
        return (
            memory.retrieval_delay_ns if self.roi_center_ns is None else self.roi_center_ns
        )


@dataclass(frozen=True)
class SiftedSample:
    """Post-sifting tallies and error rates for both bases."""

    n_sifted_z: int
    n_sifted_x: int
    n_err_z: int
    n_err_x: int

    def __post_init__(self) -> None:
        if self.n_err_z > self.n_sifted_z or self.n_err_x > self.n_sifted_x:
            raise ValueError("errors cannot exceed sifted counts")

    @classmethod
    def from_flags(
        cls, bob_basis: np.ndarray, sifted: np.ndarray, error: np.ndarray
    ) -> SiftedSample:
        """Tally per-pulse (sifted, error) flags by Bob's basis."""
        in_z = bob_basis == BASES.index(Basis.Z)
        n_sifted_z = int(np.count_nonzero(sifted & in_z))
        n_err_z = int(np.count_nonzero(error & in_z))
        return cls(
            n_sifted_z=n_sifted_z,
            n_sifted_x=int(np.count_nonzero(sifted)) - n_sifted_z,
            n_err_z=n_err_z,
            n_err_x=int(np.count_nonzero(error)) - n_err_z,
        )

    @property
    def qber_z(self) -> float:
        return self.n_err_z / self.n_sifted_z if self.n_sifted_z else math.nan

    @property
    def qber_x(self) -> float:
        return self.n_err_x / self.n_sifted_x if self.n_sifted_x else math.nan

    @property
    def qber_mean(self) -> float:
        """Pooled error rate over both bases."""
        n = self.n_sifted_z + self.n_sifted_x
        return (self.n_err_z + self.n_err_x) / n if n else math.nan


def _n_blocks(n_pulses: int) -> int:
    # An empty run is one empty block, which yields correctly typed arrays.
    return max(1, -(-n_pulses // BLOCK_PULSES))


def _block_range(n_pulses: int, block: int) -> tuple[int, int]:
    start = block * BLOCK_PULSES
    return start, min(start + BLOCK_PULSES, n_pulses)


def _draw_states(
    mode: SourceMode, start: int, stop: int, rng: np.random.Generator
) -> np.ndarray:
    """State codes of pulses [start, stop); the first draw of a block stream."""
    # Ordered mode consumes no randomness so the cycle is exact.
    if mode is SourceMode.ORDERED:
        return (np.arange(start, stop) % 4).astype(np.int8)
    return rng.integers(4, size=stop - start, dtype=np.int8)


def generate_pulse_train(
    source: SourceConfig, seed: int
) -> list[tuple[int, float, Polarization]]:
    """Emission schedule as (index, emit_time_ns, state) triples.

    Random-mode states are the first draw of each block stream, so the train
    matches what a full pipeline run prepares for the same seed.
    """
    n = source.n_pulses
    codes = np.concatenate(
        [
            _draw_states(source.mode, *_block_range(n, b), np.random.default_rng([seed, b]))
            for b in range(_n_blocks(n))
        ]
    ).tolist()
    times = (np.arange(n) * source.pulse_period_ns).tolist()
    return list(zip(range(n), times, (POLARIZATION_CYCLE[k] for k in codes)))


def sample_arriving_photons(
    mu_alice: float, channel: ChannelConfig, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Channel passage for size pulses: effective means and arriving photon counts.

    The turbulent gain is normal with mean 1 and std rel_fluctuation,
    truncated at 0; the photon number is Poisson at the attenuated mean.
    """
    gain = np.maximum(0.0, rng.normal(1.0, channel.rel_fluctuation, size))
    mu_effective = mu_alice * channel.transmission * gain
    return mu_effective, rng.poisson(mu_effective)


def apply_memory(
    n_photons: np.ndarray, memory: MemoryConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Storage step: (retrieved, leaked, lost, background_roi) per pulse.

    Each photon leaks, is retrieved, or is lost: two sequential binomials
    (leaked first, then retrieved among the rest at the conditional
    efficiency) give the multinomial split and keep per-pulse conservation
    exact. Surviving photons keep their polarization: both rails store or
    miss together, so attenuation never rotates the state. Background
    counts in the ROI are Poisson at the suppressed mean and unpolarized
    (routed 50/50 at measurement).
    """
    leak = memory.leak_fraction
    leaked = rng.binomial(n_photons, leak)
    # leak == 1 forces retrieval_efficiency == 0.
    p_retrieve = min(1.0, memory.retrieval_efficiency / (1.0 - leak)) if leak < 1.0 else 0.0
    retrieved = rng.binomial(n_photons - leaked, p_retrieve)
    background = rng.poisson(memory.effective_background, np.shape(n_photons))
    return retrieved, leaked, n_photons - leaked - retrieved, background


def measure(
    state: np.ndarray,
    n_signal: np.ndarray,
    n_background: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Four-detector measurement: (bob_basis, c0, c1) per pulse.

    Bob's basis is a fair coin (the 50/50 splitter); signal photons route by
    the ideal projection table, background photons 50/50 within the chosen
    basis. c0 and c1 count the bit-0 and bit-1 detectors of bob_basis.
    Detectors are ideal and photon-number resolving within the ROI.
    """
    bob_basis = rng.integers(2, size=len(state), dtype=np.int8)
    signal_d0 = rng.binomial(n_signal, _P0[state, bob_basis])
    background_d0 = rng.binomial(n_background, 0.5)
    c0 = signal_d0 + background_d0
    c1 = (n_signal - signal_d0) + (n_background - background_d0)
    return bob_basis, c0, c1


def sift(
    state: np.ndarray,
    bob_basis: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    rng: np.random.Generator,
    policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pulse (sifted, error) flags.

    Matched-basis pulses with at least one ROI click are sifted. A pulse is
    an error when the detector with the larger ROI count decodes to the
    wrong bit; equal counts fall to the tie policy (random draws a fair bit
    from rng, discard drops the pulse from the sample).
    """
    if not len(state) == len(bob_basis) == len(c0) == len(c1):
        raise ValueError(
            f"array lengths differ: state {len(state)}, bob_basis {len(bob_basis)}, "
            f"c0 {len(c0)}, c1 {len(c1)}"
        )
    sifted = (_BASIS_OF_STATE[state] == bob_basis) & ((c0 > 0) | (c1 > 0))
    tie = sifted & (c0 == c1)
    bit = (c1 > c0).astype(np.int8)
    if policy is DoubleClickPolicy.DISCARD:
        sifted &= ~tie
    else:
        bit[tie] = rng.integers(2, size=np.count_nonzero(tie), dtype=np.int8)
    return sifted, sifted & (bit != _BIT_OF_STATE[state])


@dataclass(frozen=True, eq=False)
class RunResult:
    """One pipeline run: per-pulse arrays (row i is pulse i) plus run totals.

    state and bob_basis hold array codes (see the module docstring); c0 and
    c1 count the bit-0 and bit-1 detectors of bob_basis inside the ROI;
    leak_clicks counts arrivals in the leakage window (diagnostic only,
    never sifted). click_times_ns holds every click (leakage, retrieved,
    background) as a pulse-relative timestamp, ready for histogramming.
    """

    seed: int
    emit_time_ns: np.ndarray
    state: np.ndarray
    mu_eff: np.ndarray
    bob_basis: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    leak_clicks: np.ndarray
    sifted: np.ndarray
    error: np.ndarray
    sample: SiftedSample
    sbr: SbrEstimate
    click_times_ns: np.ndarray
    n_arrived: int
    n_retrieved: int
    n_leaked: int
    n_lost: int
    n_background_roi: int


def _simulate_block(source, channel, memory, analysis, policy, seed, block):
    """Simulate one block: (per-pulse columns, click times, photon totals).

    A pure function of its arguments; every draw comes from the block's own
    stream, in a fixed order.
    """
    start, stop = _block_range(source.n_pulses, block)
    m = stop - start
    rng = np.random.default_rng([seed, block])
    state = _draw_states(source.mode, start, stop, rng)
    mu_eff, arrived = sample_arriving_photons(source.mu_alice, channel, rng, m)
    retrieved, leaked, lost, background_roi = apply_memory(arrived, memory, rng)

    roi_center = analysis.roi_center(memory)
    roi_lo = roi_center - memory.roi_width_ns / 2.0
    roi_hi = roi_center + memory.roi_width_ns / 2.0
    window_lo, window_hi = analysis.window
    span_outside = (window_hi - window_lo) - memory.roi_width_ns
    # Background is a homogeneous process over the record window; drawing the
    # ROI share inside apply_memory and the remainder here keeps the ROI count
    # exactly Poisson(effective_background) while the histogram sees the full
    # uniform floor.
    rate_outside = memory.effective_background * span_outside / memory.roi_width_ns
    n_outside = rng.poisson(rate_outside, m)

    leak_times = rng.uniform(0.0, source.pulse_width_ns, int(leaked.sum()))
    roi_times = rng.uniform(roi_lo, roi_hi, int(retrieved.sum() + background_roi.sum()))
    u = window_lo + rng.uniform(0.0, span_outside, int(n_outside.sum()))
    outside_times = np.where(u < roi_lo, u, u + memory.roi_width_ns)
    in_leak_window = (outside_times >= 0.0) & (outside_times < source.pulse_width_ns)
    owner = np.repeat(np.arange(m), n_outside)
    leak_clicks = leaked + np.bincount(owner[in_leak_window], minlength=m)

    bob_basis, c0, c1 = measure(state, retrieved, background_roi, rng)
    sifted, error = sift(state, bob_basis, c0, c1, rng, policy)

    columns = {
        "state": state,
        "mu_eff": mu_eff,
        "bob_basis": bob_basis,
        "c0": c0,
        "c1": c1,
        "leak_clicks": leak_clicks,
        "sifted": sifted,
        "error": error,
    }
    times = np.concatenate([leak_times, roi_times, outside_times])
    totals = np.array(
        [arrived.sum(), retrieved.sum(), leaked.sum(), lost.sum(), background_roi.sum()],
        dtype=np.int64,
    )
    return columns, times, totals


def run_experiment(
    config,
    seed: int | None = None,
    workers: int = 1,
    policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM,
) -> RunResult:
    """Run the full pipeline for a RunConfig.

    Outputs are a pure function of (config, seed): block b of BLOCK_PULSES
    pulses draws every layer, sifting ties included, from one stream keyed
    by (seed, b), and workers take whole blocks, so worker count and
    chunking never change the result.
    """
    source, channel, memory, analysis = (
        config.source,
        config.channel,
        config.memory,
        config.analysis,
    )
    if seed is None:
        seed = config.seed
    roi_center = analysis.roi_center(memory)
    half = memory.roi_width_ns / 2.0
    if roi_center - half < analysis.window_start_ns or roi_center + half > analysis.window_end_ns:
        raise ValueError("retrieval ROI must lie inside the record window")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    n = source.n_pulses
    n_blocks = _n_blocks(n)
    simulate = partial(_simulate_block, source, channel, memory, analysis, policy, seed)
    # Each worker takes one chunk of consecutive blocks; map keeps block order.
    chunksize = -(-n_blocks // workers)
    n_chunks = -(-n_blocks // chunksize)
    if n_chunks == 1:
        parts = [simulate(block) for block in range(n_blocks)]
    else:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            parts = list(pool.map(simulate, range(n_blocks), chunksize=chunksize))
    columns = {name: np.concatenate([p[0][name] for p in parts]) for name in parts[0][0]}
    click_times = np.concatenate([p[1] for p in parts])
    totals = sum(p[2] for p in parts)

    arrived, retrieved, leaked, lost, background_roi = (int(t) for t in totals)
    return RunResult(
        seed=seed,
        emit_time_ns=np.arange(n) * source.pulse_period_ns,
        **columns,
        sample=SiftedSample.from_flags(
            columns["bob_basis"], columns["sifted"], columns["error"]
        ),
        sbr=SbrEstimate(
            eta=retrieved / n if n else 0.0,
            q=background_roi / n if n else 0.0,
        ),
        click_times_ns=click_times,
        n_arrived=arrived,
        n_retrieved=retrieved,
        n_leaked=leaked,
        n_lost=lost,
        n_background_roi=background_roi,
    )
