"""Monte Carlo simulator and analysis toolkit for memory-assisted free-space BB84."""

import types as _types

from .config import (
    OUTPUT_DIR_ENV,
    AnalysisConfig,
    ChannelConfig,
    ConfigError,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    SourceMode,
    parse_config,
    resolve_output_dir,
    serialize_config,
)
from .histogram import Histogram, bin_clicks, roi_integrate, sbr_from_histogram
from .keyrate import (
    CLASSICAL_FIDELITY_BOUND,
    DEFAULT_EC_INEFFICIENCY,
    KeyRateMap,
    SbrEstimate,
    binary_entropy,
    classical_bound_check,
    fidelity_from_sbr,
    key_rate_map,
    positive_rate_boundary,
    qber_oracle_from_sbr,
    secret_key_rate,
)
from .presets import (
    PRESET_NAMES,
    background_mean_for_sbr,
    preset_config,
)
from .qubits import (
    BASIS_MEMBERS,
    POLARIZATION_CYCLE,
    Basis,
    Polarization,
    basis_of,
    bit_of,
    detection_probability,
)
from .simulation import (
    DoubleClickPolicy,
    RunResult,
    SiftedSample,
    apply_memory,
    generate_pulse_train,
    measure,
    run_experiment,
    sample_arriving_photons,
    sift,
)

# Public names, less the submodules that the imports above bind.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _types.ModuleType)
]
