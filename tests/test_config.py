import re
from dataclasses import fields
from pathlib import Path

import pytest

from camvitals.cli import build_parser
from camvitals.config import PipelineConfig, load_config
from camvitals.dsp import BandpassSpec


README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_match_reference_setup():
    cfg = PipelineConfig()
    # the margins are estimate's --crop, sized for full-HD frames
    args = build_parser().parse_args(["estimate", "--data", "d", "--out", "o"])
    assert args.crop == (300, 300, 200, 0)
    assert cfg.hr_bandpass == BandpassSpec(0.7, 2.5, 3)
    assert cfg.rr_bandpass == BandpassSpec(0.2, 0.5, 3)
    assert (cfg.scale_factor, cfg.min_neighbors, cfg.min_size) == (1.1, 3, 0)
    assert (cfg.video_window, cfg.video_hop, cfg.video_fft) == (256, 30, 4096)
    assert (cfg.physio_window, cfg.physio_hop, cfg.physio_fft) == (1024, 128, 8192)


def test_readme_lists_every_config_key_with_its_default():
    text = " ".join(README.read_text().split())
    section = text.split("## Pipeline configuration", 1)[1].split(" ## ", 1)[0]
    listing = section.split("Keys and defaults mirror `PipelineConfig`:", 1)[1]
    listed = re.findall(r"`(\w+) = ([^`]+)`", listing.split(". ", 1)[0])
    assert len(listed) == len(dict(listed))
    assert {name: float(value) for name, value in listed} == {
        f.name: float(f.default) for f in fields(PipelineConfig)}


def test_stft_properties_build_specs():
    cfg = PipelineConfig()
    assert cfg.video_stft.fft_size == 4096
    assert cfg.physio_stft.window_len == 1024


def test_load_config_overrides_and_coerces(tmp_path):
    p = tmp_path / "pipeline.cfg"
    p.write_text(
        "# comment line\n"
        "min_size = 24\n"
        "min_neighbors=0   # trailing comment\n"
        "\n"
        "hr_high = 3.0\n")
    cfg = load_config(p)
    assert cfg.min_size == 24 and isinstance(cfg.min_size, int)
    assert cfg.min_neighbors == 0
    assert cfg.hr_high == 3.0 and isinstance(cfg.hr_high, float)
    # untouched keys keep defaults
    assert cfg.video_fft == 4096


def test_load_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("croq_left = 0\n")
    with pytest.raises(ValueError):
        load_config(p)


def test_load_config_rejects_unparseable_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("# detection\nmin_size = wide\n")
    with pytest.raises(ValueError) as exc:
        load_config(p)
    assert str(exc.value) == f"{p}:2: config key min_size: cannot parse 'wide' as int"


def test_load_config_rejects_missing_equals(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("min_size 0\n")
    with pytest.raises(ValueError):
        load_config(p)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(hr_low=2.5, hr_high=0.7)
    with pytest.raises(ValueError):
        PipelineConfig(rr_low=0.0)
    for bad in (1.0, 0.9, float("nan")):
        with pytest.raises(ValueError, match="scale_factor must be > 1"):
            PipelineConfig(scale_factor=bad)


def test_load_config_names_the_file_of_an_invalid_setting(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("scale_factor = 1.0\n")
    with pytest.raises(ValueError) as exc:
        load_config(p)
    assert str(exc.value) == f"{p}: scale_factor must be > 1, got 1.0"


@pytest.mark.parametrize("key,value", [
    ("ecg_detrend_s", "nan"), ("ecg_refractory_s", "inf"),
    ("ecg_threshold_factor", "-inf"), ("hr_high", "NaN")])
def test_load_config_names_the_line_of_a_non_finite_value(tmp_path, key, value):
    p = tmp_path / "bad.cfg"
    p.write_text(f"# ecg\n{key} = {value}\n")
    with pytest.raises(ValueError) as exc:
        load_config(p)
    assert str(exc.value) == f"{p}:2: config key {key}: {value!r} is not a number"


@pytest.mark.parametrize("field,bad,message", [
    ("ecg_percentile", 150.0, "ecg_percentile must be in [0, 100], got 150.0"),
    ("ecg_percentile", -1.0, "ecg_percentile must be in [0, 100], got -1.0"),
    ("ecg_percentile", float("nan"), "ecg_percentile must be in [0, 100], got nan"),
    ("ecg_refractory_s", -1.0, "ecg_refractory_s must be >= 0, got -1.0"),
    ("ecg_refractory_s", float("nan"), "ecg_refractory_s must be >= 0, got nan"),
    ("ecg_threshold_factor", -0.5, "ecg_threshold_factor must be >= 0, got -0.5"),
    ("min_neighbors", -1, "min_neighbors must be >= 0, got -1"),
    ("min_size", -1, "min_size must be >= 0, got -1")],
    ids=["percentile-above", "percentile-below", "percentile-nan", "refractory-negative",
         "refractory-nan", "threshold-factor-negative", "min-neighbors-negative",
         "min-size-negative"])
def test_config_range_checks(field, bad, message):
    with pytest.raises(ValueError) as exc:
        PipelineConfig(**{field: bad})
    assert str(exc.value) == message


def test_config_range_checks_accept_their_bounds():
    for field, ok in [("ecg_percentile", 0.0), ("ecg_percentile", 100.0),
                      ("ecg_refractory_s", 0.0), ("ecg_threshold_factor", 0.0),
                      ("min_neighbors", 0), ("min_size", 0)]:
        assert getattr(PipelineConfig(**{field: ok}), field) == ok
