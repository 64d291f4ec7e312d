"""Monte Carlo simulator and analysis toolkit for memory-assisted free-space BB84.

The package root exports the ten names of ``__all__``; every other name
is imported from its module (``memqkd.simulation``, ``memqkd.config``, ...).
"""

from .config import MemoryConfig, RunConfig
from .histogram import Histogram, sbr_from_histogram
from .keyrate import binary_entropy, positive_rate_boundary, secret_key_rate
from .presets import preset_config
from .simulation import RunResult, run_experiment

__all__ = [
    "preset_config",
    "RunConfig",
    "MemoryConfig",
    "run_experiment",
    "RunResult",
    "Histogram",
    "sbr_from_histogram",
    "secret_key_rate",
    "binary_entropy",
    "positive_rate_boundary",
]
