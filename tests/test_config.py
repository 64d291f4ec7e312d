import dataclasses
import math

import pytest

from memqkd import (
    AnalysisConfig,
    ChannelConfig,
    ConfigError,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    parse_config,
    preset_config,
    qber_oracle_from_sbr,
    serialize_config,
)
from memqkd.simulation import SourceMode

#: (section, config class, field) for every float field, roi_center_ns included.
FLOAT_FIELDS = [
    (section, cls, field.name)
    for section, cls in (
        ("source", SourceConfig),
        ("channel", ChannelConfig),
        ("memory", MemoryConfig),
        ("analysis", AnalysisConfig),
    )
    for field in dataclasses.fields(cls)
    if field.type.startswith("float")
]
NON_FINITE = [math.nan, math.inf, -math.inf]


def test_empty_document_yields_defaults():
    config = parse_config("")
    assert config == RunConfig()
    assert config.channel.transmission == 0.59
    assert config.channel.rel_fluctuation == 0.05
    assert config.source.pulse_period_ns == 40_000.0
    assert config.memory.roi_width_ns == 100.0
    assert config.seed == 1
    assert config.output_dir is None


def test_partial_document_keeps_other_defaults():
    config = parse_config(
        """
        [channel]
        transmission = 0.8

        [run]
        seed = 42
        """
    )
    assert config.channel.transmission == 0.8
    assert config.channel.rel_fluctuation == 0.05
    assert config.seed == 42


def test_comment_lines_ignored():
    config = parse_config("# leading note\n[channel]\n; inline note\ntransmission = 0.7\n")
    assert config.channel.transmission == 0.7


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3") as info:
        parse_config("[channel]\ntransmission = 0.5\nbogus = 1\n")
    assert "bogus" in str(info.value)


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[nonsense]\n")


def test_out_of_range_value_names_field_and_line():
    with pytest.raises(ConfigError) as info:
        parse_config("[channel]\ntransmission = 1.5\n")
    message = str(info.value)
    assert "transmission" in message
    assert "line 2" in message


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[source]\nnot a key value pair\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("transmission = 0.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[channel]\ntransmission = 0.5\ntransmission = 0.6\n")


def test_bad_number_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[channel]\ntransmission = zero\n")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("[source]\nmode = shuffled\n")


def test_cross_field_error_mentions_section():
    with pytest.raises(ConfigError, match=r"\[source\]"):
        parse_config("[source]\npulse_width_ns = 50000\n")


def test_seed_bounds():
    with pytest.raises(ConfigError):
        parse_config("[run]\nseed = -1\n")
    config = parse_config(f"[run]\nseed = {2**64 - 1}\n")
    assert config.seed == 2**64 - 1


def test_roundtrip_defaults():
    config = RunConfig()
    assert parse_config(serialize_config(config)) == config


def test_roundtrip_presets():
    for name in ("experiment1", "experiment2", "experiment3", "experiment4", "experiment5"):
        config = preset_config(name, n_pulses=777, seed=5)
        assert parse_config(serialize_config(config)) == config


def test_roundtrip_awkward_floats_and_optionals():
    from memqkd import AnalysisConfig, SourceConfig

    config = RunConfig(
        source=SourceConfig(mu_alice=1.6 / 0.59, mode=SourceMode.ORDERED),
        analysis=AnalysisConfig(roi_center_ns=987.654321),
        seed=2**63,
        output_dir="runs/out",
    )
    again = parse_config(serialize_config(config))
    assert again == config
    assert again.source.mu_alice == 1.6 / 0.59  # exact, via repr round-trip


def test_preset_file_oracle_error_rate():
    # The single-photon-level preset, written to a file and read back, keeps
    # the calibration whose counting oracle is 0.119.
    config = parse_config(serialize_config(preset_config("experiment3")))
    mu_memory = config.source.mu_alice * config.channel.transmission
    sbr = config.memory.retrieval_efficiency * mu_memory / config.memory.effective_background
    assert qber_oracle_from_sbr(sbr) == pytest.approx(0.119, abs=1e-4)


def test_rejects_non_integer_pulses():
    with pytest.raises(ConfigError, match="n_pulses"):
        parse_config("[source]\nn_pulses = 10.5\n")


def test_replace_preserves_validation():
    config = RunConfig()
    with pytest.raises(ValueError):
        dataclasses.replace(config, seed=-3)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("section,cls,name", FLOAT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_non_finite_float_rejected_on_construction(section, cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**{name: value})


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("section,cls,name", FLOAT_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_non_finite_float_rejected_by_parser(section, cls, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite") as info:
        parse_config(f"[{section}]\n{name} = {value!r}\n")
    assert info.value.line == 2


def test_float_fields_cover_every_section():
    assert len(FLOAT_FIELDS) == 17
    assert ("analysis", AnalysisConfig, "roi_center_ns") in FLOAT_FIELDS
