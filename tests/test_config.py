import dataclasses
import math
import types
from pathlib import Path

import numpy as np
import pytest

import memqkd
from memqkd.config import (
    MAX_BINS,
    MAX_CLICKS_PER_PULSE,
    AnalysisConfig,
    ChannelConfig,
    ConfigError,
    MemoryConfig,
    RunConfig,
    SourceConfig,
    SourceMode,
    _converters,
    parse_config,
    serialize_config,
)
from memqkd.keyrate import qber_oracle_from_sbr
from memqkd.presets import PRESET_NAMES, preset_config
from memqkd.simulation import draw_histogram, run_experiment

#: (section, config class, field) for every float field.
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


@pytest.mark.parametrize(
    "memory,analysis,message",
    [
        (MemoryConfig(retrieval_delay_ns=1500.0), AnalysisConfig(), "must be disjoint"),
        (MemoryConfig(retrieval_delay_ns=20.0), AnalysisConfig(), "record window"),
        (MemoryConfig(roi_width_ns=500.0), AnalysisConfig(), "must be disjoint"),
        (MemoryConfig(retrieval_delay_ns=1990.0), AnalysisConfig(), "record window"),
    ],
)
def test_roi_placement_checked_on_construction(memory, analysis, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(memory=memory, analysis=analysis)


def test_roi_may_touch_background_region():
    config = RunConfig(memory=MemoryConfig(retrieval_delay_ns=1150.0))
    assert config.memory.roi == (1100.0, config.analysis.background_start_ns)


def test_roi_placement_error_from_parser_has_no_run_label():
    with pytest.raises(ConfigError, match="must be disjoint") as info:
        parse_config("[memory]\nretrieval_delay_ns = 1500\n")
    assert "[run]" not in str(info.value) and info.value.line is None


def test_seed_bounds():
    with pytest.raises(ConfigError, match=r"line 2: \[run\] seed"):
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


def test_defaults_are_the_experiment3_calibration():
    # Presets start from the defaults, so the defaults must stay experiment3.
    assert preset_config("experiment3", n_pulses=RunConfig().source.n_pulses) == RunConfig()


def test_roundtrip_awkward_floats_and_optionals():
    from memqkd.config import SourceConfig

    config = RunConfig(
        source=SourceConfig(mu_alice=1.6 / 0.59, mode=SourceMode.ORDERED),
        memory=MemoryConfig(retrieval_delay_ns=987.654321),
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


@pytest.mark.parametrize("value", [2.5, 2.0, "7"], ids=repr)
def test_non_integer_n_pulses_rejected_on_construction(value):
    # Such a count used to construct and then fail inside the block stream.
    with pytest.raises(ValueError, match="n_pulses must be an integer"):
        preset_config("experiment3", n_pulses=value)
    with pytest.raises(ValueError, match="n_pulses must be an integer"):
        SourceConfig(n_pulses=value)


@pytest.mark.parametrize("value", [1.5, 1.0, "7"], ids=repr)
def test_non_integer_seed_rejected_on_construction(value):
    with pytest.raises(ValueError, match="seed must be an integer"):
        dataclasses.replace(RunConfig(), seed=value)
    with pytest.raises(ValueError, match="seed must be an integer"):
        preset_config("experiment3", seed=value)


def test_numpy_integer_counts_accepted_and_run():
    config = preset_config("experiment3", n_pulses=np.int64(64), seed=np.uint64(7))
    assert config == preset_config("experiment3", n_pulses=64, seed=7)
    assert len(run_experiment(config).state) == 64


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
    assert len(FLOAT_FIELDS) == 16


def _golden_document(mode, mu_alice, n_pulses, background_mean, noise_suppression, seed):
    return f"""\
[source]
pulse_width_ns = 400.0
pulse_period_ns = 40000.0
mode = {mode}
mu_alice = {mu_alice}
n_pulses = {n_pulses}

[channel]
transmission = 0.59
rel_fluctuation = 0.05

[memory]
retrieval_efficiency = 0.12
leak_fraction = 0.35
background_mean = {background_mean}
retrieval_delay_ns = 1000.0
roi_width_ns = 100.0
noise_suppression = {noise_suppression}

[analysis]
bin_width_ns = 10.0
window_start_ns = 0.0
window_end_ns = 2000.0
background_start_ns = 1200.0
background_end_ns = 2000.0

[run]
seed = {seed}
"""


#: serialize_config text of the defaults and of every preset (777 pulses,
#: seed 5), as strings so that the file format, the key order and every
#: preset float are pinned to the last digit.
GOLDEN_DOCUMENTS = {
    "defaults": ("random", "2.7118644067796613", 10000, "0.05996814192460255", "1.0", 1),
    "experiment1": ("ordered", "2.7118644067796613", 777, "0.03072", "1.0", 5),
    "experiment2": ("random", "169.49152542372883", 777, "0.05996814192460255", "1.0", 5),
    "experiment3": ("random", "2.7118644067796613", 777, "0.05996814192460255", "1.0", 5),
    "experiment4": ("random", "2.203389830508475", 777, "0.05996814192460255", "0.100053125", 5),
    "experiment5": ("random", "3.3898305084745766", 777, "0.038709677419354833", "1.0", 5),
    "experiment4-mu1": ("random", "1.6949152542372883", 777, "0.05996814192460255", "0.100053125", 5),
}


@pytest.mark.parametrize("name", GOLDEN_DOCUMENTS)
def test_serialized_config_matches_golden_text(name):
    if name == "defaults":
        config = RunConfig()
    elif name == "experiment4-mu1":
        config = preset_config("experiment4", n_pulses=777, seed=5, mu_memory=1.0)
    else:
        config = preset_config(name, n_pulses=777, seed=5)
    assert serialize_config(config) == _golden_document(*GOLDEN_DOCUMENTS[name])


def test_package_all_names_resolve_and_are_not_modules():
    assert len(memqkd.__all__) == len(set(memqkd.__all__))
    for name in memqkd.__all__:
        assert not isinstance(getattr(memqkd, name), types.ModuleType), name
    assert "simulation" not in memqkd.__all__ and "SourceConfig" not in memqkd.__all__


def test_field_annotation_without_converter_fails():
    @dataclasses.dataclass(frozen=True)
    class Section:
        flag: "bool" = False

    with pytest.raises(KeyError, match="bool"):
        _converters(dataclasses.fields(Section))


def test_readme_config_example_parses_to_the_defaults():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("```ini\n")[1].split("```")[0]
    assert parse_config(example) == RunConfig()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_sit_far_below_the_click_cap(name):
    assert preset_config(name).expected_clicks_per_pulse <= MAX_CLICKS_PER_PULSE / 10


@pytest.mark.parametrize(
    "preset,rel_fluctuation",
    [("experiment2", 0.05), ("experiment3", 3.0)],  # 3.0 truncates a third of the gains
)
def test_expected_clicks_match_a_run(preset, rel_fluctuation):
    config = preset_config(preset, n_pulses=40_000, seed=13)
    config = dataclasses.replace(
        config, channel=dataclasses.replace(config.channel, rel_fluctuation=rel_fluctuation)
    )
    result = run_experiment(config)
    # Arrivals plus every background click (each click is leaked, retrieved
    # or background).
    photons = result.totals.photons
    histogram = draw_histogram(config, photons)
    clicks = histogram.counts.sum() + histogram.n_dropped
    background = clicks - photons.leaked - photons.retrieved
    per_pulse = (photons.arrived + background) / 40_000
    assert per_pulse == pytest.approx(config.expected_clicks_per_pulse, rel=0.02)


@pytest.mark.parametrize(
    "section,line",
    [
        ("source", "mu_alice = 1e300"),
        ("memory", "background_mean = 1e300"),
        ("channel", "rel_fluctuation = 1e306"),
    ],
)
def test_click_load_above_the_cap_is_rejected(section, line):
    with pytest.raises(ConfigError, match="exceed the cap of 2000") as info:
        parse_config(f"[{section}]\n{line}\n")
    assert info.value.line is None  # a cross-section limit has no single line
    key, value = line.split(" = ")
    cls = {"source": SourceConfig, "memory": MemoryConfig, "channel": ChannelConfig}[section]
    with pytest.raises(ValueError, match="expected clicks per pulse"):
        RunConfig(**{section: cls(**{key: float(value)})})


def test_last_emit_time_must_be_finite():
    assert SourceConfig(pulse_period_ns=1e308, n_pulses=2).n_pulses == 2
    with pytest.raises(ValueError, match="last emit time"):
        SourceConfig(pulse_period_ns=1e308, n_pulses=3)
    # Pulse indices are int64: 2**63 pulses are numbered up to 2**63 - 1.
    assert SourceConfig(n_pulses=2**63).n_pulses == 2**63
    with pytest.raises(ValueError, match=r"n_pulses must lie in \[0, 2\*\*63\]"):
        SourceConfig(n_pulses=2**63 + 1)
    with pytest.raises(ValueError, match="n_pulses must lie in"):
        SourceConfig(n_pulses=-1)


def test_histogram_bin_count_is_capped():
    assert AnalysisConfig(bin_width_ns=2000.0 / MAX_BINS).bin_width_ns > 0
    with pytest.raises(ConfigError, match="bins of bin_width_ns") as info:
        parse_config("[analysis]\nbin_width_ns = 1e-3\n")
    assert info.value.line == 2
    with pytest.raises(ValueError, match="bins of bin_width_ns"):
        AnalysisConfig(window_start_ns=-1e308, window_end_ns=1e308, background_start_ns=0.0)


def test_largest_rel_fluctuation_draws_finite_gains():
    # A gain draw of 1 + 1e308 * z overflowed to inf, and numpy's Poisson
    # draw then failed mid-run.
    with pytest.raises(ConfigError, match=r"rel_fluctuation must lie in \[0, 1e307\]"):
        parse_config("[channel]\nrel_fluctuation = 1e308\n")
    config = RunConfig(
        source=SourceConfig(mu_alice=5e-324, n_pulses=20_000),
        channel=ChannelConfig(rel_fluctuation=1e307),
    )
    assert np.isfinite(run_experiment(config).mu_eff).all()


def test_negative_zero_is_stored_as_zero():
    # numpy rejects a normal scale or a Poisson mean of -0.0 ("scale < 0").
    config = parse_config(
        "[source]\nn_pulses = 100\n[channel]\nrel_fluctuation = -0.0\n"
        "[memory]\nbackground_mean = -0.0\n"
    )
    assert math.copysign(1.0, config.channel.rel_fluctuation) == 1.0
    assert math.copysign(1.0, config.memory.background_mean) == 1.0
    assert run_experiment(config).totals.photons.background_roi == 0
