import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import LoSModelConfig, PinchingLayout, presets, scenario_io
from pinchsim.scenario_io import (
    ScenarioFormatError,
    layout_from_dict,
    layout_to_dict,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from tests.conftest import make_scenario


def test_scenario_round_trip(tmp_path, guide_y):
    custom_los = dict(rho_los_per_m=0.25, nlos_extra_loss_db=13.0, inmo_near_m=3.0,
                      inmo_far_m=7.5, inmo_near_decay_m=5.5, inmo_far_decay_m=40.0,
                      inmo_far_scale=0.4)
    s = make_scenario([(1.0, 2.0, 0.0), (-3.0, 4.0, 0.0)], (guide_y,),
                      snr_db=17.5, los_kind="exponential", **custom_los)
    path = save_scenario(s, tmp_path / "scenario.yaml")
    loaded = load_scenario(path)
    assert loaded.carrier.frequency_hz == s.carrier.frequency_hz
    assert loaded.transmit_snr == pytest.approx(s.transmit_snr, rel=1e-12)
    assert loaded.los_model.kind == "exponential"
    for f in dataclasses.fields(LoSModelConfig):
        assert getattr(loaded.los_model, f.name) == getattr(s.los_model, f.name), f.name
    assert {f.name for f in dataclasses.fields(LoSModelConfig)} - {"kind"} == set(custom_los)
    np.testing.assert_allclose(loaded.users.positions, s.users.positions)
    w = loaded.waveguides[0]
    np.testing.assert_allclose(w.feed_point, guide_y.feed_point)
    assert w.length_m == guide_y.length_m
    assert w.relative_permittivity == guide_y.relative_permittivity


def test_missing_keys_are_reported_with_context():
    with pytest.raises(ScenarioFormatError, match="carrier"):
        scenario_from_dict({"transmit_snr_db": 10, "waveguides": [], "users": [[0, 0, 0]]})
    with pytest.raises(ScenarioFormatError, match="transmit_snr_db"):
        scenario_from_dict({"carrier": {"frequency_hz": 1e9},
                            "waveguides": [], "users": [[0, 0, 0]]})
    with pytest.raises(ScenarioFormatError, match=r"waveguides\[0\]"):
        scenario_from_dict({"carrier": {"frequency_hz": 1e9}, "transmit_snr_db": 0,
                            "waveguides": [{"length_m": 5}], "users": [[0, 0, 0]]})


def test_bad_vectors_and_numbers_rejected():
    base = {"carrier": {"frequency_hz": 1e9}, "transmit_snr_db": 0,
            "waveguides": [{"feed_point_m": [0, 0], "axis_direction": [0, 1, 0],
                            "length_m": 5}],
            "users": [[0, 0, 0]]}
    with pytest.raises(ScenarioFormatError, match="feed_point_m"):
        scenario_from_dict(base)
    with pytest.raises(ScenarioFormatError, match="number"):
        scenario_from_dict({**base, "transmit_snr_db": "loud"})


def test_unknown_los_keys_rejected():
    with pytest.raises(ScenarioFormatError, match="unknown keys"):
        scenario_from_dict({"carrier": {"frequency_hz": 1e9}, "transmit_snr_db": 0,
                            "los_model": {"kind": "inmo", "fog_db": 3},
                            "waveguides": [], "users": [[0, 0, 0]]})


def test_non_yaml_and_missing_files(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("users: [unclosed", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="YAML"):
        load_scenario(bad)
    with pytest.raises(ScenarioFormatError, match="cannot read"):
        load_scenario(tmp_path / "nope.yaml")
    top = tmp_path / "list.yaml"
    top.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="mapping"):
        load_scenario(top)


def test_layout_round_trip():
    layout = PinchingLayout.equal_split(((1.0, 2.5), (4.0,)), minimum_spacing_m=0.3)
    again = layout_from_dict(layout_to_dict(layout))
    assert again.offsets_per_guide == layout.offsets_per_guide
    assert again.minimum_spacing_m == layout.minimum_spacing_m
    for a, b in zip(again.weights_per_guide, layout.weights_per_guide):
        assert a == pytest.approx(b)


def test_snr_db_conversion_is_exact_inverse(tmp_path, guide_y):
    s = make_scenario([(1, 1, 0)], (guide_y,), snr_db=0.0)
    path = save_scenario(s, tmp_path / "s.yaml")
    assert math.isclose(load_scenario(path).transmit_snr, 1.0, rel_tol=1e-12)


PRESETS = (presets.heatmap_scenario(), presets.compare_scenario(),
           presets.noma_scenario(), presets.noma_scenario(asymmetric=False),
           presets.tdma_scenario())


def scenario_fields(s):
    """Every field of a scenario as plain data, for exact comparison."""
    return {
        "frequency_hz": s.carrier.frequency_hz,
        "transmit_snr": s.transmit_snr,
        "los_model": dataclasses.asdict(s.los_model),
        "waveguides": [(w.feed_point.tolist(), w.axis_direction.tolist(), w.length_m,
                        w.relative_permittivity, w.guide_attenuation_np_per_m)
                       for w in s.waveguides],
        "users": s.users.positions.tolist(),
    }


@pytest.mark.parametrize("index", range(len(PRESETS)))
def test_libyaml_and_pure_python_loaders_agree(tmp_path, monkeypatch, index):
    path = save_scenario(PRESETS[index], tmp_path / "s.yaml")
    fast = load_scenario(path)
    monkeypatch.setattr(scenario_io, "_SAFE_LOADER", yaml.SafeLoader)
    assert scenario_fields(load_scenario(path)) == scenario_fields(fast)


@pytest.mark.parametrize("loader", ["default", "pure-python"])
def test_malformed_yaml_fails_under_either_loader(tmp_path, monkeypatch, loader):
    if loader == "pure-python":
        monkeypatch.setattr(scenario_io, "_SAFE_LOADER", yaml.SafeLoader)
    for i, text in enumerate(("users: [unclosed", "a: b: c", "key: 'open\n", "\t- x")):
        bad = tmp_path / f"bad{i}.yaml"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="YAML"):
            load_scenario(bad)


NUMBER_PATHS = (("carrier", "frequency_hz"), ("transmit_snr_db",),
                ("los_model", "rho_los_per_m"), ("los_model", "inmo_far_scale"),
                ("waveguides", 0, "length_m"), ("waveguides", 0, "feed_point_m", 2),
                ("users", 1, 0))


@settings(max_examples=40, deadline=None)
@given(where=st.sampled_from(NUMBER_PATHS),
       value=st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))
def test_non_finite_numbers_are_rejected_at_load(tmp_path_factory, where, value):
    data = scenario_to_dict(presets.tdma_scenario())
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path_factory.mktemp("nf") / "s.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match="finite"):
        load_scenario(path)
