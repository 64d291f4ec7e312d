"""Seeded Monte Carlo pipeline for the memory-assisted link.

Per pulse: a weak coherent pulse is emitted in one of four polarizations,
crosses a turbulent free-space channel, enters a dual-rail vapor memory that
either leaks, stores-and-retrieves, or loses each photon, and is measured in a
randomly chosen basis by a four-detector receiver. Sifting keeps matched-basis
pulses with at least one click inside the retrieval ROI and tallies per-basis
error rates.

A pulse's photon number is Poisson at its mean, and each photon's fate is
an independent choice, so by Poisson thinning every part of the pulse
(leaked, retrieved onto either detector, lost) is an independent Poisson
count at the pulse's mean times that part's probability. The layers pass
means, not photon counts, and only the parts are drawn. Each layer
allocates its own outputs and writes into no array of its caller's; within
a layer one array serves several steps (a mean becomes the next mean, a
detector's signal count its whole count), and simulate_block frees each
array after its last use, so a 2**14-pulse block's traced peak is about
930 KiB, of which its RunResult keeps 576.

Pulses are simulated in blocks of BLOCK_PULSES consecutive pulses (the last
block may be shorter). Each block draws every layer as whole arrays from one
stream keyed by (config.seed, block_index), in a fixed order: the prepared
states, the turbulent gain, Bob's basis, the leaked photons, the retrieved
photons on the bit-0 and then the bit-1 detector, the background on each,
the block's lost total (one count), and the fair bits of sifting ties.
Leak-window background draws from that stream's first child; the histogram
is drawn once per run, from the summed totals (draw_histogram). Workers
take whole blocks and the block size never depends on the worker count,
so a run is a pure function of its config, seed included, whatever the
number of workers.

Each block is a RunResult of its own pulses: arrays and a BlockTotals
(simulate_block). map_blocks streams a run: it calls a caller-supplied
function on each block index in a thread and yields the results in block
order, with at most _IN_FLIGHT_PER_WORKER blocks per worker submitted and
not yet consumed. With several workers that thread is one of a _Pool's,
built on threading and a deque alone (numpy's array loops and random
draws release the GIL), so a run imports neither concurrent.futures nor
the logging and queue modules it would bring.
A function that simulates its own block owns it, and can free its arrays
before it returns (reports.block_outputs does). run_experiment keeps
every block, concatenates the arrays and adds up the totals.

Array codes: a state is its index in STATES (H, V, D, A), the one table of
each state's letter, basis code and key bit, and a basis its index in
BASES (Z, X). Every lookup table over state codes is built from the two.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .config import ChannelConfig, MemoryConfig, SourceMode
from .histogram import Histogram

#: Pulses per random stream. A constant of the stream layout: changing it
#: changes every seeded output.
BLOCK_PULSES = 2**14

#: Blocks each pool thread may have submitted and not yet consumed: one
#: being simulated and one queued, so a worker never waits on the consumer
#: while memory stays bounded whatever the run length.
_IN_FLIGHT_PER_WORKER = 2

#: The four polarization states as (letter, basis code, key bit); a state's
#: array code is its index. D and A are the balanced superpositions of H and V.
STATES = (("H", 0, 0), ("V", 0, 1), ("D", 1, 0), ("A", 1, 1))
#: The letters of the bases; a basis code is its index. Z holds the
#: detectors of H and V, X those of D and A, each as (bit 0, bit 1).
BASES = ("Z", "X")

_BASIS_OF_STATE = np.array([basis for _, basis, _ in STATES])
_BIT_OF_STATE = np.array([bit for _, _, bit in STATES])
#: _P0[state, bob_basis]: probability that a signal photon fires the bit-0
#: detector of bob_basis. A matched basis projects deterministically onto the
#: state; the conjugate basis splits 50/50.
_P0 = np.where(
    _BASIS_OF_STATE[:, None] == np.arange(len(BASES)), 1.0 - _BIT_OF_STATE[:, None], 0.5
)


def _fieldwise_sum(self, other):
    """``__add__`` of a tally dataclass: built by its constructor from each field's own sum."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return type(self)(
        *(getattr(self, f.name) + getattr(other, f.name) for f in dataclasses.fields(self))
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
        in_z = bob_basis == BASES.index("Z")
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
    """Photons per stage over a block or a run, and the background hits in
    the leak window outside the ROI (leak_hits); blocks add exactly.

    The parts are drawn, not the whole: arrived is their sum.
    """

    retrieved: int
    leaked: int
    lost: int
    background_roi: int
    leak_hits: int

    __add__ = _fieldwise_sum

    @property
    def arrived(self) -> int:
        return self.retrieved + self.leaked + self.lost

    def counting_sbr(self, n_pulses: int) -> float:
        """Retrieved signal over ROI background, both per pulse: math.inf without
        background, math.nan without either (as without pulses). The per-pulse
        division fixes the digits of summary.txt's sbr_counting: retrieved /
        background_roi differs from it in the last digit for about a third of
        count triples.
        """
        if not (n_pulses and self.background_roi):
            return math.inf if self.retrieved else math.nan
        return (self.retrieved / n_pulses) / (self.background_roi / n_pulses)


@dataclass(frozen=True)
class BlockTotals:
    """The tallies of a block or a run, which add exactly across blocks: the
    sifted sample and the photons per stage."""

    sample: SiftedSample
    photons: PhotonTotals

    __add__ = _fieldwise_sum


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
        return (np.arange(start, stop) % len(STATES)).astype(np.int8)
    return rng.integers(len(STATES), size=stop - start, dtype=np.int8)


def sample_arriving_photons(
    mu_alice: float, channel: ChannelConfig, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Channel passage for size pulses: each pulse's mean photon number at the memory.

    The turbulent gain is normal with mean 1 and std rel_fluctuation,
    truncated at 0. Given the mean, a pulse's photon number is Poisson; it
    is never drawn whole, only in the thinned parts the memory and the
    receiver draw.
    """
    gain = rng.normal(1.0, channel.rel_fluctuation, size)
    np.maximum(0.0, gain, out=gain)
    gain *= mu_alice * channel.transmission
    return gain


def _retrieval_probability(memory: MemoryConfig) -> float:
    """Probability that an arriving photon is stored and retrieved."""
    # The min keeps the lost fraction 1 - leak - p_ret nonnegative in floats.
    return min(1.0 - memory.leak_fraction, memory.retrieval_efficiency)


def apply_memory(
    mu_eff: np.ndarray, memory: MemoryConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Storage step for pulses of mean mu_eff: (mu_retrieved, leaked, mu_lost).

    Each photon of a Poisson(mu_eff) pulse independently leaks, is retrieved
    or is lost. By Poisson thinning the three counts are independent
    Poissons at mu_eff times each fraction, so only leaked is drawn here,
    per pulse. mu_retrieved is the per-pulse mean of the retrieved photons,
    which the receiver draws per detector; mu_lost is the mean of the
    block's lost total, a single count. Surviving photons keep their
    polarization: both rails store or miss together, so attenuation never
    rotates the state.
    """
    leak = memory.leak_fraction
    p_retrieve = _retrieval_probability(memory)
    # One array holds the leaked mean, then the retrieved one.
    mu = np.multiply(mu_eff, leak)
    leaked = rng.poisson(mu)
    mu_lost = float(mu_eff.sum()) * (1.0 - leak - p_retrieve)
    return np.multiply(mu_eff, p_retrieve, out=mu), leaked, mu_lost


def measure(
    state: np.ndarray,
    bob_basis: np.ndarray,
    mu_retrieved: np.ndarray,
    background_mean: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Four-detector measurement in Bob's basis: (c0, c1, retrieved) per pulse.

    Retrieved photons route by the ideal projection table, and unpolarized
    ROI background (background_mean per pulse) 50/50 within bob_basis. By
    Poisson thinning each detector's signal and background counts are
    independent Poissons: signal at mu_retrieved * P0 and mu_retrieved *
    (1 - P0), with P0 = _P0[state, bob_basis], and background at
    background_mean / 2 on each. c0 and c1 count the bit-0 and bit-1
    detectors of bob_basis; retrieved is the signal part of c0 + c1.
    Detectors are ideal and photon-number resolving within the ROI.
    """
    # One array holds the bit-0 detector's mean, then the bit-1 detector's;
    # each detector's signal array becomes its count.
    mu = _P0[state, bob_basis]
    mu *= mu_retrieved
    c0 = rng.poisson(mu)
    c1 = rng.poisson(np.subtract(mu_retrieved, mu, out=mu))
    del mu
    retrieved = c0 + c1
    c0 += rng.poisson(background_mean / 2.0, len(state))
    c1 += rng.poisson(background_mean / 2.0, len(state))
    return c0, c1, retrieved


def sift(
    state: np.ndarray,
    bob_basis: np.ndarray,
    c0: np.ndarray,
    c1: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pulse (sifted, error) flags.

    Matched-basis pulses with at least one ROI click are sifted. A pulse is
    an error when the detector with the larger ROI count decodes to the
    wrong bit; equal counts get a fair bit from rng, the squashing model
    that makes a four-detector receiver's double clicks a BB84 qubit
    measurement (Beaudry, Moroder and Luetkenhaus, PRL 101, 093601).
    """
    if not len(state) == len(bob_basis) == len(c0) == len(c1):
        raise ValueError(
            f"array lengths differ: state {len(state)}, bob_basis {len(bob_basis)}, "
            f"c0 {len(c0)}, c1 {len(c1)}"
        )
    sifted = (_BASIS_OF_STATE[state] == bob_basis) & ((c0 > 0) | (c1 > 0))
    tie = sifted & (c0 == c1)
    bit = (c1 > c0).astype(np.int8)
    bit[tie] = rng.integers(2, size=np.count_nonzero(tie), dtype=np.int8)
    return sifted, sifted & (bit != _BIT_OF_STATE[state])


def _spread(total: int, overlaps: np.ndarray, length: float, rng) -> np.ndarray:
    """Bin counts of total clicks uniform over an interval of the given length.

    overlaps holds the interval's length inside each bin; the last entry of
    the result counts the clicks that fall outside every bin.
    """
    p = overlaps / length if length > 0 else overlaps
    return rng.multinomial(total, np.append(p / max(1.0, p.sum()), 0.0))


def _leak_hits_mean(config) -> float:
    """Mean background hits per pulse in the leak window [0, pulse_width_ns),
    inside the record window and outside the ROI (which lies inside it)."""
    memory, pulse_width = config.memory, config.source.pulse_width_ns
    (lo, hi), (roi_lo, roi_hi) = config.analysis.window, memory.roi
    length = max(0.0, min(pulse_width, hi) - max(0.0, lo))
    length -= max(0.0, min(pulse_width, roi_hi) - max(0.0, roi_lo))
    return memory.effective_background * length / memory.roi_width_ns


def draw_histogram(config, photons: PhotonTotals) -> Histogram:
    """The Histogram of every click of a run, drawn from its photon totals.

    Each click is uniform over a known interval: leaked photons over the leak
    window [0, pulse_width_ns), ROI photons over the ROI, leak_hits over the
    leak window outside the ROI, other background over the rest of the
    record window. Each total is spread over the bins by a multinomial on
    their overlaps with its interval, the other background is a Poisson
    count per bin, and leaked photons outside the record window are
    n_dropped. Summed multinomials (of the same cells) and summed Poissons
    are again such draws, so this one is distributed as per-block draws added.
    """
    memory, pulse_width = config.memory, config.source.pulse_width_ns
    h = Histogram.empty(config.analysis.bin_width_ns, config.analysis.window)
    roi_lo, roi_hi = memory.roi
    leak = h.overlaps(0.0, pulse_width)
    roi = h.overlaps(roi_lo, roi_hi)
    leak_background = leak - h.overlaps(max(0.0, roi_lo), min(pulse_width, roi_hi))
    rest = np.maximum(h.overlaps(h.t_start, h.t_end) - roi - leak_background, 0.0)
    n_pulses, n_roi = config.source.n_pulses, photons.retrieved + photons.background_roi
    # Keyed past every block. SeedSequence pads entropy with zeros, so a
    # stream keyed [seed] alone would draw what block 0's [seed, 0] draws.
    rng = np.random.default_rng([config.seed, _n_blocks(n_pulses)])
    leak_counts = _spread(photons.leaked, leak, pulse_width, rng)
    counts = (
        leak_counts[:-1]
        + _spread(n_roi, roi, memory.roi_width_ns, rng)[:-1]
        + _spread(photons.leak_hits, leak_background, float(leak_background.sum()), rng)[:-1]
        + rng.poisson(memory.effective_background * rest / memory.roi_width_ns * n_pulses)
    )
    return dataclasses.replace(h, counts=counts, n_dropped=int(leak_counts[-1]))


@dataclass(frozen=True, eq=False)
class RunResult:
    """A run, or one block of it: per-pulse arrays plus totals.

    Row i is the i-th pulse of the run or block. state and bob_basis hold
    array codes (see the module docstring); c0 and c1 count the bit-0 and
    bit-1 detectors of bob_basis inside the ROI; leak_clicks counts arrivals
    in the leakage window (diagnostic only, never sifted). totals holds the
    sifted sample and photon ledger, which add exactly across blocks. Pulse
    i of the run is emitted at i * pulse_period_ns. The counting SBR is
    totals.photons.counting_sbr(n_pulses), and the run's histogram is
    draw_histogram(config, totals.photons).
    """

    state: np.ndarray
    mu_eff: np.ndarray
    bob_basis: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    leak_clicks: np.ndarray
    sifted: np.ndarray
    error: np.ndarray
    totals: BlockTotals


def simulate_block(config, block):
    """Simulate one block: (start, the RunResult of its pulses).

    A pure function of its arguments; every draw comes from the block's own
    stream, in a fixed order.
    """
    source = config.source
    start, stop = _block_range(source.n_pulses, block)
    m = stop - start
    memory = config.memory
    rng = np.random.default_rng([config.seed, block])
    state = _draw_states(source.mode, start, stop, rng)
    mu_eff = sample_arriving_photons(source.mu_alice, config.channel, rng, m)
    # Bob's basis is a fair coin (the 50/50 splitter).
    bob_basis = rng.integers(len(BASES), size=m, dtype=np.int8)
    mu_retrieved, leaked, mu_lost = apply_memory(mu_eff, memory, rng)
    c0, c1, retrieved = measure(
        state, bob_basis, mu_retrieved, memory.effective_background, rng
    )
    n_retrieved = int(retrieved.sum())
    del mu_retrieved, retrieved
    # The lost total only enters the photon ledger; drawn after every
    # per-pulse count, it moves none of them.
    lost = int(rng.poisson(mu_lost))
    sifted, error = sift(state, bob_basis, c0, c1, rng)
    n_leaked, n_roi = int(leaked.sum()), int(c0.sum() + c1.sum())
    # The leak-window background draws from a child stream: a change to it
    # leaves every draw above alone.
    hits = rng.spawn(1)[0].poisson(_leak_hits_mean(config), m)
    n_hits = int(hits.sum())
    # The leaked array becomes the leak-window count.
    leaked += hits
    del hits

    result = RunResult(
        state=state,
        mu_eff=mu_eff,
        bob_basis=bob_basis,
        c0=c0,
        c1=c1,
        leak_clicks=leaked,
        sifted=sifted,
        error=error,
        totals=BlockTotals(
            sample=SiftedSample.from_flags(bob_basis, sifted, error),
            photons=PhotonTotals(
                retrieved=n_retrieved,
                leaked=n_leaked,
                lost=lost,
                background_roi=n_roi - n_retrieved,
                leak_hits=n_hits,
            ),
        ),
    )
    return start, result


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Job:
    """A call submitted to a _Pool; its lock is held until the call returns."""

    def __init__(self, fn, arg):
        self._call, self._value, self._error = partial(fn, arg), None, None
        self._done = threading.Lock()
        self._done.acquire()

    def run(self) -> None:
        try:
            self._value = self._call()
        except BaseException as error:  # result() raises it in the consumer
            self._error = error
        self._done.release()

    def result(self):
        """Wait for the call: its value, or its exception raised. Called once;
        the job drops its own reference to the value."""
        self._done.acquire()
        if self._error is not None:
            raise self._error
        value, self._value = self._value, None
        return value


class _Pool:
    """Up to threads worker threads that take calls from one FIFO, one wake
    per call. Leaving the with block runs every call still queued and joins
    every thread.
    """

    def __init__(self, threads: int):
        self._jobs = deque()
        self._ready = threading.Semaphore(0)
        self._size = threads
        self._threads = []

    def _work(self) -> None:
        while True:
            self._ready.acquire()
            job = self._jobs.popleft()
            if job is None:
                return
            job.run()

    def submit(self, fn: Callable, arg) -> _Job:
        job = _Job(fn, arg)
        self._jobs.append(job)
        self._ready.release()
        # Each of the first submits starts a thread, so the first blocks run
        # while the later threads start: started all at once, before any
        # submit, they made a fresh two-worker 10^5-pulse run about 1 ms
        # slower (11 of 16 alternating processes).
        if len(self._threads) < self._size:
            thread = threading.Thread(target=self._work)
            thread.start()
            self._threads.append(thread)
        return job

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        # One stop per thread, queued behind every job.
        for _ in self._threads:
            self._jobs.append(None)
            self._ready.release()
        for thread in self._threads:
            thread.join()


def map_blocks(config, workers: int, fn: Callable) -> Iterator:
    """Yield fn(block) for each block index of config's run, in block order.

    fn runs in the calling thread for one worker (or one block, or one
    usable CPU), otherwise in one of min(workers, blocks, usable CPUs) pool
    threads of this process (a _Pool), so it must be safe to call from
    several threads at once. Blocks start in block order. At most
    _IN_FLIGHT_PER_WORKER blocks per thread are submitted and not yet
    consumed; the next block is submitted as each one is consumed, and a
    yielded result is no longer referenced here once the next one is asked
    for. If fn raises, the exception is raised here when its block's turn
    comes, after every block already submitted has run and every pool
    thread has been joined.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_blocks = _n_blocks(config.source.n_pulses)
    # More threads than CPUs only wait for one another, and a large workers
    # would ask the OS for that many threads.
    threads = min(workers, n_blocks, _usable_cpus())
    # Inline, not a one-thread pool: with one worker the pool ran experiment3
    # up to 6.3% slower (5 of 6 benchmark pairs, 2-core host), 0.4 MiB larger.
    if threads == 1:
        yield from map(fn, range(n_blocks))
        return
    blocks = iter(range(n_blocks))
    with _Pool(threads) as pool:
        in_flight = deque(
            pool.submit(fn, b) for b in islice(blocks, _IN_FLIGHT_PER_WORKER * threads)
        )
        while in_flight:
            done = in_flight.popleft().result()
            in_flight.extend(pool.submit(fn, b) for b in islice(blocks, 1))
            yield done
            # The consumer may have dropped it: not held while the next
            # block is awaited.
            del done


def run_experiment(config, workers: int = 1) -> RunResult:
    """Run the full pipeline for a RunConfig (which checks the ROI placement).

    Outputs are a pure function of config: block b of BLOCK_PULSES pulses
    draws every layer, sifting ties included, from one stream keyed by
    (config.seed, b), and workers take whole blocks, so the worker count
    never changes the result. Holds every block; map_blocks streams them.
    """
    simulate = partial(simulate_block, config)
    blocks = [block for _, block in map_blocks(config, workers, simulate)]

    def joined(name):
        # Arrays concatenate in block order; the totals add exactly.
        parts = [getattr(block, name) for block in blocks]
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return sum(parts[1:], parts[0])

    names = (field.name for field in dataclasses.fields(RunResult))
    return RunResult(**{name: joined(name) for name in names})


#: Gauss-Legendre nodes of expected_qber's integral over the turbulent gain.
_GAIN_NODES = 64


def expected_qber(config) -> float:
    """Closed-form sifted error rate of the model run_experiment samples.

    A sifted pulse has matching bases, so given its turbulent gain g the
    correct detector counts C ~ Poisson(lam(g) + q/2) and the wrong one
    W ~ Poisson(q/2), independently, with lam(g) = mu_alice * transmission
    * g * p_ret and q = effective_background. A tie is an error half the
    time (sift's fair bit), so the error rate is a ratio of expectations
    over g: E[P(W > C) + P(W = C >= 1) / 2] / E[P(C + W >= 1)].

    The gain is normal (mean 1, std rel_fluctuation) truncated at 0: its
    mass below 0 is a point mass at g = 0, and the rest is integrated by
    Gauss-Legendre over the central +-8 standard deviations above 0. The
    Poisson sums stop where both tails are far below double precision.
    NaN when no pulse can click.
    """
    s = config.channel.rel_fluctuation
    lo, hi = max(0.0, 1.0 - 8.0 * s), 1.0 + 8.0 * s
    # Below about 7e-18, 1 +- 8s rounds to 1: the interval has no width, and
    # the gain is 1 to double precision.
    if hi > lo:
        x, w = np.polynomial.legendre.leggauss(_GAIN_NODES)
        gain = lo + (hi - lo) * (x + 1.0) / 2.0
        density = np.exp(-0.5 * ((gain - 1.0) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        below_zero = 0.5 * math.erfc(1.0 / (s * math.sqrt(2.0)))
        gain = np.append(gain, 0.0)
        weight = np.append(w * (hi - lo) / 2.0 * density, below_zero)
    else:
        gain, weight = np.ones(1), np.ones(1)
    source, memory = config.source, config.memory
    b = memory.effective_background / 2.0
    a = source.mu_alice * config.channel.transmission * _retrieval_probability(memory) * gain + b
    top = float(a.max())
    k = np.arange(math.ceil(top + 12.0 * math.sqrt(top) + 40.0))
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))

    def pmf(mean):
        # Poisson pmf over k in log space; a zero mean puts all mass on k = 0.
        log_mean = np.log(np.maximum(mean, np.finfo(float).tiny))
        return np.exp(np.multiply.outer(log_mean, k) - np.asarray(mean)[..., None] - log_factorial)

    p_c, p_w = pmf(a), pmf(b)
    above = np.append(np.cumsum(p_w[::-1])[::-1][1:], 0.0)  # P(W > k)
    wrong = p_c @ above  # P(W > C)
    none = np.exp(-(a + b))  # P(C = W = 0)
    tie = p_c @ p_w - none  # P(W = C >= 1)
    click = -np.expm1(-(a + b))  # P(C + W >= 1)
    errors, sifted = weight @ (wrong + tie / 2.0), weight @ click
    return float(errors / sifted) if sifted > 0 else math.nan
