"""Run configuration: strict INI-style parsing, validation, serialization.

The document format is sectioned key = value text with full-line comments
(# or ;). Unknown sections, unknown keys, duplicates, and out-of-range
values are rejected with the offending line number; omitted keys fall back
to documented defaults. parse_config(serialize_config(cfg)) is the identity
on every field.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

from .simulation import (
    AnalysisConfig,
    ChannelConfig,
    MemoryConfig,
    SourceConfig,
    SourceMode,
)

#: Environment variable consulted for the default output directory.
OUTPUT_DIR_ENV = "MEMQKD_OUTPUT_DIR"

_MAX_SEED = 2**64 - 1


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


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
        _check_seed(self.seed)
        # Cross-section checks: the ROI comes from [memory] and [analysis].
        analysis = self.analysis
        roi_lo, roi_hi = analysis.roi(self.memory)
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


# section -> key -> value converter. Range and cross-field checks live in the
# config dataclasses themselves; the parser maps their complaints to lines.
_SCHEMA = {
    "source": {
        "pulse_width_ns": _parse_float,
        "pulse_period_ns": _parse_float,
        "mode": _parse_mode,
        "mu_alice": _parse_float,
        "n_pulses": _parse_int,
    },
    "channel": {
        "transmission": _parse_float,
        "rel_fluctuation": _parse_float,
    },
    "memory": {
        "retrieval_efficiency": _parse_float,
        "leak_fraction": _parse_float,
        "background_mean": _parse_float,
        "retrieval_delay_ns": _parse_float,
        "roi_width_ns": _parse_float,
        "noise_suppression": _parse_float,
    },
    "analysis": {
        "bin_width_ns": _parse_float,
        "window_start_ns": _parse_float,
        "window_end_ns": _parse_float,
        "roi_center_ns": _parse_float,
        "background_start_ns": _parse_float,
        "background_end_ns": _parse_float,
    },
    "run": {
        "seed": _parse_int,
        "output_dir": str,
    },
}

_SECTION_TYPES = {
    "source": SourceConfig,
    "channel": ChannelConfig,
    "memory": MemoryConfig,
    "analysis": AnalysisConfig,
}


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

    parts: dict[str, object] = {}
    for name, cls in _SECTION_TYPES.items():
        try:
            parts[name] = cls(**values[name])
        except ValueError as exc:
            # Single-key range errors point at the key's line, cross-field
            # errors at the section header.
            line = None
            message = str(exc)
            for key in values[name]:
                if key in message:
                    line = lines_of[(name, key)]
                    break
            if line is None:
                line = section_line.get(name)
            raise ConfigError(f"[{name}] {message}", line) from None

    run_values = values["run"]
    seed = run_values.get("seed", 1)
    try:
        _check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}", lines_of.get(("run", "seed"))) from None
    try:
        return RunConfig(
            source=parts["source"],
            channel=parts["channel"],
            memory=parts["memory"],
            analysis=parts["analysis"],
            seed=seed,
            output_dir=run_values.get("output_dir"),
        )
    except ValueError as exc:
        # The seed is checked above, so this is a cross-section error (ROI
        # placement), which has no single line.
        raise ConfigError(str(exc)) from None


def _format_value(value) -> str:
    if isinstance(value, SourceMode):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig as a document parse_config maps back to it exactly."""
    sections = {
        "source": config.source,
        "channel": config.channel,
        "memory": config.memory,
        "analysis": config.analysis,
    }
    lines: list[str] = []
    for name, part in sections.items():
        lines.append(f"[{name}]")
        for field in dataclasses.fields(part):
            value = getattr(part, field.name)
            if value is None:
                continue
            lines.append(f"{field.name} = {_format_value(value)}")
        lines.append("")
    lines.append("[run]")
    lines.append(f"seed = {config.seed}")
    if config.output_dir is not None:
        lines.append(f"output_dir = {config.output_dir}")
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
