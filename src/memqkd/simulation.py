"""Seeded Monte Carlo pipeline for the memory-assisted link.

Per pulse: a weak coherent pulse is emitted in one of four polarizations,
crosses a turbulent free-space channel, enters a dual-rail vapor memory that
either leaks, stores-and-retrieves, or loses each photon, and is measured in a
randomly chosen basis by a four-detector receiver. Sifting keeps matched-basis
pulses with at least one click inside the retrieval ROI and tallies per-basis
error rates.

Pulses are simulated in blocks of BLOCK_PULSES consecutive pulses (the last
block may be shorter). Each block draws every layer as whole arrays from one
stream keyed by (config.seed, block_index), in a fixed order that starts
with the prepared states; click timing draws from that stream's first
child. Workers take whole blocks and the block size never depends on the
worker count, so a run is a pure function of its config whatever the number
of workers.

Each block is a RunResult of its own pulses. simulate_blocks streams a
run: it hands each block to a caller-supplied reducer where the block is
simulated (in a pool worker when there are several) and yields the reduced
blocks in block order, with at most _IN_FLIGHT_PER_WORKER blocks per worker
submitted and not yet consumed. run_experiment keeps every block and joins
them.

Array codes: a state is its index in POLARIZATION_CYCLE (H, V, D, A) and a
basis its index in BASES (Z, X).
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .config import ChannelConfig, MemoryConfig, SourceMode
from .histogram import Histogram
from .keyrate import SbrEstimate
from .qubits import (
    BASES,
    BASIS_MEMBERS,
    POLARIZATION_CYCLE,
    Basis,
    basis_of,
    bit_of,
    detection_probability,
)

#: Pulses per random stream. A constant of the stream layout: changing it
#: changes every seeded output.
BLOCK_PULSES = 2**14

#: Blocks each pool worker may have submitted and not yet consumed: one
#: being simulated and one queued, so a worker never waits on the consumer
#: while memory stays bounded whatever the run length.
_IN_FLIGHT_PER_WORKER = 2

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


class DoubleClickPolicy(Enum):
    """How a sifted pulse with equal counts on both detectors is resolved."""

    RANDOM = "random"
    DISCARD = "discard"


def _fieldwise_sum(self, other):
    """``__add__`` of a tally dataclass: the field-by-field sum, built by its constructor."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return type(self)(
        *(a + b for a, b in zip(dataclasses.astuple(self), dataclasses.astuple(other)))
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

    #: Tallies of two disjoint samples, such as two blocks of one run.
    __add__ = _fieldwise_sum

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


@dataclass(frozen=True)
class PhotonTotals:
    """Photons per stage over a block or a run; blocks add exactly."""

    arrived: int
    retrieved: int
    leaked: int
    lost: int
    background_roi: int

    __add__ = _fieldwise_sum

    def counting_sbr(self, n_pulses: int) -> SbrEstimate:
        """Retrieved signal over ROI background, both per pulse."""
        if not n_pulses:
            return SbrEstimate(eta=0.0, q=0.0)
        return SbrEstimate(eta=self.retrieved / n_pulses, q=self.background_roi / n_pulses)


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


def _spread(total: int, overlaps: np.ndarray, length: float, rng) -> np.ndarray:
    """Bin counts of total clicks uniform over an interval of the given length.

    overlaps holds the interval's length inside each bin; the last entry of
    the result counts the clicks that fall outside every bin.
    """
    p = overlaps / length if length > 0 else overlaps
    return rng.multinomial(total, np.append(p / max(1.0, p.sum()), 0.0))


def record_clicks(
    leaked: np.ndarray, n_roi: int, config, rng: np.random.Generator
) -> tuple[np.ndarray, Histogram]:
    """Time tagging: per-pulse leak_clicks and the Histogram of every click.

    Each click is uniform over a known interval: leaked photons over the leak
    window [0, pulse_width_ns), the n_roi retrieved and ROI background
    photons over the ROI, and other background over the record window
    outside the ROI, at effective_background per roi_width_ns. So bin counts
    are drawn, never click times: a component's total is spread over the
    bins by a multinomial on their overlaps with its interval. Background
    hits in the leak window outside the ROI are drawn per pulse first, and
    leak_clicks is leaked plus those hits; the remaining background is an
    independent Poisson count per bin. Leaked photons outside the record
    window are n_dropped.
    """
    memory, pulse_width = config.memory, config.source.pulse_width_ns
    h = Histogram.empty(config.analysis.bin_width_ns, config.analysis.window)
    roi_lo, roi_hi = memory.roi
    leak = h.overlaps(0.0, pulse_width)
    roi = h.overlaps(roi_lo, roi_hi)
    leak_background = leak - h.overlaps(max(0.0, roi_lo), min(pulse_width, roi_hi))
    rest = np.maximum(h.overlaps(h.t_start, h.t_end) - roi - leak_background, 0.0)

    def background(length):
        # Mean background counts per pulse over length ns, in the order
        # RunConfig.expected_clicks_per_pulse bounds.
        return memory.effective_background * length / memory.roi_width_ns

    leak_length = float(leak_background.sum())
    hits = rng.poisson(background(leak_length), len(leaked))
    leak_counts = _spread(int(leaked.sum()), leak, pulse_width, rng)
    counts = (
        leak_counts[:-1]
        + _spread(n_roi, roi, memory.roi_width_ns, rng)[:-1]
        + _spread(int(hits.sum()), leak_background, leak_length, rng)[:-1]
        + rng.poisson(background(rest) * len(leaked))
    )
    histogram = dataclasses.replace(h, counts=counts, n_dropped=int(leak_counts[-1]))
    return leaked + hits, histogram


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run, or one block of it: per-pulse arrays plus totals.

    Row i is the i-th pulse of the run or block. state and bob_basis hold
    array codes (see the module docstring); c0 and c1 count the bit-0 and
    bit-1 detectors of bob_basis inside the ROI; leak_clicks counts arrivals
    in the leakage window (diagnostic only, never sifted). histogram bins
    every click (leakage, retrieved, background) by its pulse-relative time
    over the record window; like sample and photons, it adds exactly across
    blocks. Pulse i of the run is emitted at i * pulse_period_ns. The
    counting SBR is photons.counting_sbr(n_pulses).
    """

    state: np.ndarray
    mu_eff: np.ndarray
    bob_basis: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    leak_clicks: np.ndarray
    sifted: np.ndarray
    error: np.ndarray
    histogram: Histogram
    sample: SiftedSample
    photons: PhotonTotals


def _simulate_block(config, policy, reduce, block):
    """Simulate one block and return reduce(start, the RunResult of its pulses).

    A pure function of its arguments; every draw comes from the block's own
    stream, in a fixed order.
    """
    source = config.source
    start, stop = _block_range(source.n_pulses, block)
    m = stop - start
    rng = np.random.default_rng([config.seed, block])
    state = _draw_states(source.mode, start, stop, rng)
    mu_eff, arrived = sample_arriving_photons(source.mu_alice, config.channel, rng, m)
    retrieved, leaked, lost, background_roi = apply_memory(arrived, config.memory, rng)
    bob_basis, c0, c1 = measure(state, retrieved, background_roi, rng)
    sifted, error = sift(state, bob_basis, c0, c1, rng, policy)
    # Click timing draws from a child stream: the tie policy and any later
    # change to the timing leave every draw above alone.
    leak_clicks, histogram = record_clicks(
        leaked, int(retrieved.sum() + background_roi.sum()), config, rng.spawn(1)[0]
    )

    result = RunResult(
        state=state,
        mu_eff=mu_eff,
        bob_basis=bob_basis,
        c0=c0,
        c1=c1,
        leak_clicks=leak_clicks,
        sifted=sifted,
        error=error,
        histogram=histogram,
        sample=SiftedSample.from_flags(bob_basis, sifted, error),
        photons=PhotonTotals(
            *(int(n.sum()) for n in (arrived, retrieved, leaked, lost, background_roi))
        ),
    )
    return reduce(start, result)


def simulate_blocks(
    config,
    workers: int,
    policy: DoubleClickPolicy,
    reduce: Callable,
) -> Iterator:
    """Yield reduce(start, block) per block, in block order.

    start is the block's first pulse index and block the RunResult of the
    block's pulses.

    reduce runs where its block is simulated: in this process for one
    worker (or one block), otherwise in one of min(workers, blocks) pool
    processes, so it and its result must pickle. At most
    _IN_FLIGHT_PER_WORKER blocks per process are submitted and not yet
    consumed; the next block is submitted as each one is consumed. Every
    block is a pure function of (config, block), so the yielded sequence
    never depends on workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_blocks = _n_blocks(config.source.n_pulses)
    simulate = partial(_simulate_block, config, policy, reduce)
    processes = min(workers, n_blocks)
    if processes == 1:
        yield from map(simulate, range(n_blocks))
        return
    blocks = iter(range(n_blocks))
    with ProcessPoolExecutor(max_workers=processes) as pool:
        in_flight = deque(
            pool.submit(simulate, b)
            for b in islice(blocks, _IN_FLIGHT_PER_WORKER * processes)
        )
        while in_flight:
            done = in_flight.popleft().result()
            in_flight.extend(pool.submit(simulate, b) for b in islice(blocks, 1))
            yield done


def _whole_block(start, block):
    """The identity reducer: keeps the whole block."""
    return block


def run_experiment(
    config,
    workers: int = 1,
    policy: DoubleClickPolicy = DoubleClickPolicy.RANDOM,
) -> RunResult:
    """Run the full pipeline for a RunConfig (which checks the ROI placement).

    Outputs are a pure function of config: block b of BLOCK_PULSES pulses
    draws every layer, sifting ties included, from one stream keyed by
    (config.seed, b), and workers take whole blocks, so the worker count
    never changes the result. Holds every block; simulate_blocks streams
    them.
    """
    blocks = list(simulate_blocks(config, workers, policy, _whole_block))

    def joined(name):
        # Arrays concatenate in block order; histogram, sample and photons
        # add exactly.
        parts = [getattr(block, name) for block in blocks]
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return sum(parts[1:], parts[0])

    names = (field.name for field in dataclasses.fields(RunResult))
    return RunResult(**{name: joined(name) for name in names})
