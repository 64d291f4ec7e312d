"""Named run presets covering the five operating regimes of the link.

Presets start from the config defaults (experiment3's calibration): all
share the channel and the memory retrieval/leakage split, and differ in
source brightness and in the background level, which is calibrated against
endpoint observables (target signal-to-background ratios) rather than
against component transmissions.
"""

from __future__ import annotations

import math
import sys

from .config import ChannelConfig, MemoryConfig, RunConfig, SourceConfig, SourceMode

DEFAULT_PULSES = 100_000


def background_mean_for_sbr(
    target_sbr: float,
    mu_memory: float,
    retrieval_efficiency: float = MemoryConfig.retrieval_efficiency,
) -> float:
    """Background mean per ROI that yields target_sbr at the given input mean.

    Inverts sbr = retrieval_efficiency * mu_memory / background_mean. A
    ratio of inputs so extreme that the mean, or the signal it is divided
    from, leaves the normal floats is rejected: inf and 0 give no ratio, and
    a subnormal holds too few digits to give target_sbr.
    """
    if not 0 < target_sbr < math.inf:
        raise ValueError(f"target_sbr must be positive and finite, got {target_sbr}")
    if not 0 < mu_memory < math.inf:
        raise ValueError(f"mu_memory must be positive and finite, got {mu_memory}")
    if not 0.0 < retrieval_efficiency <= 1.0:  # zero retrieves no signal at all
        raise ValueError(
            f"retrieval_efficiency must lie in (0, 1], got {retrieval_efficiency}"
        )
    signal = retrieval_efficiency * mu_memory
    background = signal / target_sbr
    if not sys.float_info.min <= background < math.inf:
        raise ValueError(
            f"background_mean must be finite and at least {sys.float_info.min!r}, "
            f"got {background!r} for target_sbr {target_sbr!r} at mu_memory {mu_memory!r}"
        )
    if signal < sys.float_info.min:
        raise ValueError(
            f"retrieval_efficiency * mu_memory must be at least {sys.float_info.min!r}, "
            f"got {signal!r} at mu_memory {mu_memory!r}"
        )
    return background


#: name -> (source mode, memory-input mean, background_mean, noise_suppression).
#: Each background is calibrated to a target SBR at a memory-input mean.
_PRESETS = {
    # The fidelity estimator reads 0.92 at SBR 6.25.
    "experiment1": (SourceMode.ORDERED, 1.6, background_mean_for_sbr(6.25, 1.6), 1.0),
    # Same memory as the single-photon run; only the brightness changes.
    "experiment2": (SourceMode.RANDOM, 100.0, MemoryConfig.background_mean, 1.0),
    "experiment3": (SourceMode.RANDOM, 1.6, MemoryConfig.background_mean, 1.0),
    # Suppression factor chosen so the effective SBR is exactly 26 at the
    # 1.3-photon operating point.
    "experiment4": (
        SourceMode.RANDOM,
        1.3,
        MemoryConfig.background_mean,
        background_mean_for_sbr(26.0, 1.3) / MemoryConfig.background_mean,
    ),
    # The histogram SBR integrates the background under the retrieval peak
    # into the signal count, reading one unit above the counting SBR; a
    # counting SBR of 6.2 targets a histogram reading of 7.2.
    "experiment5": (SourceMode.RANDOM, 2.0, background_mean_for_sbr(6.2, 2.0), 1.0),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_config(
    name: str,
    n_pulses: int = DEFAULT_PULSES,
    seed: int = RunConfig.seed,
    mu_memory: float | None = None,
) -> RunConfig:
    """Build the RunConfig for a named preset.

    mu_memory overrides the regime's memory-input mean while keeping its
    memory calibration, e.g. to rescale the noise-suppressed regime from 1.3
    down to 1 photon per pulse.

    experiment1: ordered four-state cycle at the single-photon level.
    experiment2: random states at high photon number (about 100 at the memory).
    experiment3: random states at the single-photon level (the error-rate run).
    experiment4: noise-suppressed background, ratio 26 at 1.3 photons.
    experiment5: portable single-rail storage, histogram SBR target 7.2.
    """
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        )
    mode, preset_mu_memory, background_mean, noise_suppression = _PRESETS[name]
    if mu_memory is None:
        mu_memory = preset_mu_memory
    channel = ChannelConfig()
    source = SourceConfig(
        mode=mode, mu_alice=mu_memory / channel.transmission, n_pulses=n_pulses
    )
    memory = MemoryConfig(background_mean=background_mean, noise_suppression=noise_suppression)
    return RunConfig(source=source, channel=channel, memory=memory, seed=seed)
