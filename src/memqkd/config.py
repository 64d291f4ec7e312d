"""Run configuration: section dataclasses, INI-style parsing, serialization.

The four sections ([source], [channel], [memory], [analysis]) are frozen
dataclasses that hold every range check; RunConfig adds [run] (seed, output
location) and the cross-section checks. The parser and the serializer derive
their key tables from the dataclass fields.

The document format is sectioned key = value text with full-line comments
(# or ;). Unknown sections, unknown keys, duplicates, and out-of-range
values are rejected with the offending line number; omitted keys fall back
to documented defaults. parse_config(serialize_config(cfg)) is the identity
on every field.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

#: Environment variable consulted for the default output directory.
OUTPUT_DIR_ENV = "MEMQKD_OUTPUT_DIR"

_MAX_SEED = 2**64 - 1

#: Largest RunConfig.expected_clicks_per_pulse a run accepts. It bounds every
#: Poisson mean a block draws and every multinomial total it spreads over the
#: histogram bins (at most about 2000 * 2**14 clicks), far inside numpy's
#: range. The brightest preset (experiment2) expects about 101.
MAX_CLICKS_PER_PULSE = 2000.0

#: Most histogram bins (record window over bin width) a run accepts, per block.
MAX_BINS = 10**6


class SourceMode(Enum):
    ORDERED = "ordered"
    RANDOM = "random"


def _check_floats(config) -> None:
    """Reject NaN and infinite float fields; store -0.0 as 0.0 (numpy rejects it)."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
            object.__setattr__(config, field.name, value + 0.0)


def _check_integer(name: str, value) -> None:
    """Reject a non-integral count (2.5, or even 2.0), which numpy's integer
    draws and seeding would only fail on mid-run; numpy integers pass."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _check_floats(self)
        if not self.pulse_width_ns > 0:
            raise ValueError(f"pulse_width_ns must be positive, got {self.pulse_width_ns}")
        if not self.pulse_width_ns < self.pulse_period_ns:
            raise ValueError(
                f"pulse_width_ns ({self.pulse_width_ns}) must be smaller than "
                f"pulse_period_ns ({self.pulse_period_ns})"
            )
        if not self.mu_alice > 0:
            raise ValueError(f"mu_alice must be positive, got {self.mu_alice}")
        _check_integer("n_pulses", self.n_pulses)
        # Pulse indices are int64 and emit times float64 (pulses.csv).
        if not 0 <= self.n_pulses <= 2**63:
            raise ValueError(f"n_pulses must lie in [0, 2**63], got {self.n_pulses}")
        if not math.isfinite((self.n_pulses - 1) * self.pulse_period_ns):
            raise ValueError("the last emit time (n_pulses - 1) * pulse_period_ns overflows")


@dataclass(frozen=True)
class ChannelConfig:
    """Free-space channel: fixed transmission plus turbulent gain fluctuations.

    rel_fluctuation is the shot-by-shot relative standard deviation of the
    multiplicative gain (mean 1, truncated at 0).
    """

    transmission: float = 0.59
    rel_fluctuation: float = 0.05

    def __post_init__(self) -> None:
        _check_floats(self)
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in (0, 1], got {self.transmission}")
        # numpy's standard normal draws z stay below 14 in magnitude, so every
        # gain draw 1 + rel_fluctuation * z is finite.
        if not 0.0 <= self.rel_fluctuation <= 1e307:
            raise ValueError(
                f"rel_fluctuation must lie in [0, 1e307], got {self.rel_fluctuation}"
            )


@dataclass(frozen=True)
class MemoryConfig:
    """Phenomenological dual-rail memory.

    Each arriving photon independently leaks straight through (leak_fraction),
    is stored and retrieved into the ROI (retrieval_efficiency), or is lost.
    background_mean is the unpolarized background count expected per ROI per
    pulse; noise_suppression scales it down in suppressed-noise operation.
    Retrieved photons arrive uniformly inside the ROI, roi_width_ns wide and
    centred on retrieval_delay_ns.
    """

    retrieval_efficiency: float = 0.12
    leak_fraction: float = 0.35
    # SBR 3.2017 at 1.6 photons, where the counting oracle's error rate is 0.119.
    background_mean: float = 0.12 * 1.6 / 3.2017
    retrieval_delay_ns: float = 1000.0
    roi_width_ns: float = 100.0
    noise_suppression: float = 1.0

    def __post_init__(self) -> None:
        _check_floats(self)
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

    @property
    def roi(self) -> tuple[float, float]:
        """The retrieval ROI as (start, end) around retrieval_delay_ns."""
        half = self.roi_width_ns / 2.0
        return self.retrieval_delay_ns - half, self.retrieval_delay_ns + half


@dataclass(frozen=True)
class AnalysisConfig:
    """Per-pulse record window, histogram binning, and the background region.

    The background region feeds the histogram SBR estimate and must sit
    inside the record window; the signal ROI is MemoryConfig.roi.
    """

    bin_width_ns: float = 10.0
    window_start_ns: float = 0.0
    window_end_ns: float = 2000.0
    background_start_ns: float = 1200.0
    background_end_ns: float = 2000.0

    def __post_init__(self) -> None:
        _check_floats(self)
        if not self.bin_width_ns > 0:
            raise ValueError(f"bin_width_ns must be positive, got {self.bin_width_ns}")
        if not self.window_end_ns > self.window_start_ns:
            raise ValueError(
                f"record window must be nonempty, got "
                f"[{self.window_start_ns}, {self.window_end_ns}]"
            )
        if not (self.window_end_ns - self.window_start_ns) / self.bin_width_ns <= MAX_BINS:
            raise ValueError(f"the record window holds over {MAX_BINS} bins of bin_width_ns")
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


class ConfigError(ValueError):
    """Configuration problem, with the source line when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs, plus seed and output location."""

    source: SourceConfig = SourceConfig()
    channel: ChannelConfig = ChannelConfig()
    memory: MemoryConfig = MemoryConfig()
    analysis: AnalysisConfig = AnalysisConfig()
    seed: int = 1
    output_dir: str | None = None

    def __post_init__(self) -> None:
        _check_integer("seed", self.seed)
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        # Cross-section checks: the [memory] ROI against the [analysis] regions.
        analysis = self.analysis
        roi_lo, roi_hi = self.memory.roi
        window_lo, window_hi = analysis.window
        if roi_lo < window_lo or roi_hi > window_hi:
            raise ValueError(
                f"retrieval ROI [{roi_lo}, {roi_hi}] must lie inside the record "
                f"window [{window_lo}, {window_hi}]"
            )
        background_lo, background_hi = analysis.background_region
        if roi_hi > background_lo and background_hi > roi_lo:
            raise ValueError(
                f"retrieval ROI [{roi_lo}, {roi_hi}] and background region "
                f"[{background_lo}, {background_hi}] must be disjoint"
            )
        clicks = self.expected_clicks_per_pulse
        if not clicks <= MAX_CLICKS_PER_PULSE:
            raise ValueError(
                f"expected clicks per pulse ({clicks:.6g}: photons arriving at the "
                f"memory plus background over the record window) exceed the cap "
                f"of {MAX_CLICKS_PER_PULSE:g}"
            )

    @property
    def expected_clicks_per_pulse(self) -> float:
        """Mean photons arriving at the memory plus mean background counts
        over the record window, per pulse: every click is one of them.

        The turbulent gain is normal (mean 1, std rel_fluctuation) truncated
        at 0, whose mean is Phi(1/s) + s * phi(1/s) for s = rel_fluctuation.
        """
        s = self.channel.rel_fluctuation
        gain = 1.0
        if s > 0:
            z = 1.0 / s
            gain = 0.5 * math.erfc(-z / math.sqrt(2.0)) + s * math.exp(
                -0.5 * z * z
            ) / math.sqrt(2.0 * math.pi)
        window_lo, window_hi = self.analysis.window
        memory = self.memory
        background = memory.effective_background * (window_hi - window_lo) / memory.roi_width_ns
        return self.source.mu_alice * self.channel.transmission * gain + background


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _parse_mode(text: str) -> SourceMode:
    try:
        return SourceMode(text)
    except ValueError:
        choices = ", ".join(m.value for m in SourceMode)
        raise ValueError(f"mode must be one of {choices}, got {text!r}") from None


#: Field annotation -> converter from the document's value text.
_CONVERTERS = {
    "float": _parse_float,
    "int": _parse_int,
    "SourceMode": _parse_mode,
    "str | None": str,
}


def _converters(fields) -> dict:
    """key -> converter; an annotation without a converter raises KeyError."""
    return {field.name: _CONVERTERS[field.type] for field in fields}


#: Section name -> section dataclass: every RunConfig field whose default is
#: a section; the other RunConfig fields are the [run] keys.
_SECTIONS = {
    field.name: type(field.default)
    for field in dataclasses.fields(RunConfig)
    if dataclasses.is_dataclass(field.default)
}
# section -> key -> value converter. Range and cross-field checks live in the
# config dataclasses themselves; the parser maps their complaints to lines.
_SCHEMA = {name: _converters(dataclasses.fields(cls)) for name, cls in _SECTIONS.items()}
_SCHEMA["run"] = _converters(
    field for field in dataclasses.fields(RunConfig) if field.name not in _SECTIONS
)


def parse_config(text: str) -> RunConfig:
    """Parse a sectioned key-value document into a validated RunConfig."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    lines_of: dict[tuple[str, str], int] = {}
    section_line: dict[str, int] = {}
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header: {raw!r}", lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            section_line.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if key in values[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        try:
            values[section][key] = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", lineno) from None
        lines_of[(section, key)] = lineno

    def key_line(name: str, message: str) -> int | None:
        """Line of the first key of the section that the message names."""
        key = next((key for key in values[name] if key in message), None)
        return None if key is None else lines_of[(name, key)]

    parts: dict[str, object] = {}
    for name, cls in _SECTIONS.items():
        try:
            parts[name] = cls(**values[name])
        except ValueError as exc:
            # An error points at the line of the first key set in the
            # section that its message names (so [source] pulse_width_ns =
            # 50000 reports that key's line), else at the section header.
            line = key_line(name, str(exc))
            if line is None:
                line = section_line.get(name)
            raise ConfigError(f"[{name}] {exc}", line) from None
    try:
        return RunConfig(**parts, **values["run"])
    except ValueError as exc:
        line = key_line("run", str(exc))
        if line is None:
            # A cross-section error (ROI placement, click load), which has
            # no single line.
            raise ConfigError(str(exc)) from None
        raise ConfigError(f"[run] {exc}", line) from None


def _format_value(value) -> str:
    if isinstance(value, SourceMode):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig as a document parse_config maps back to it exactly."""
    lines: list[str] = []
    for name, keys in _SCHEMA.items():
        part = config if name == "run" else getattr(config, name)
        lines.append(f"[{name}]")
        for key in keys:
            value = getattr(part, key)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def resolve_output_dir(flag_value: str | None, config: RunConfig) -> Path:
    """Output directory precedence: CLI flag, config file, environment, cwd."""
    if flag_value is not None:
        return Path(flag_value)
    if config.output_dir is not None:
        return Path(config.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(".")
