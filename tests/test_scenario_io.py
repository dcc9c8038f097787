import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchsim import LoSModelConfig, presets, scenario_io
from pinchsim.scenario import LOS_MODEL_KINDS, CarrierSpec, Scenario, UserSet, WaveguideSpec
from pinchsim.scenario_io import (
    ScenarioFormatError,
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


@pytest.mark.parametrize("value", [5, "inmo", 0, False, ""])
def test_non_mapping_los_model_rejected(value):
    data = scenario_to_dict(presets.tdma_scenario())
    data["los_model"] = value
    with pytest.raises(ScenarioFormatError,
                       match=rf"^los_model: expected a mapping, got {type(value).__name__}$"):
        scenario_from_dict(data)
    defaults = dataclasses.asdict(LoSModelConfig())
    data["los_model"] = None  # null, like an absent section, means every default
    assert dataclasses.asdict(scenario_from_dict(data).los_model) == defaults
    del data["los_model"]
    assert dataclasses.asdict(scenario_from_dict(data).los_model) == defaults


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(LoSModelConfig)
                                 if f.name != "kind"])
def test_los_number_errors_name_their_field(key):
    data = scenario_to_dict(presets.tdma_scenario())
    data["los_model"][key] = "many"
    with pytest.raises(ScenarioFormatError, match=rf"^los_model\.{key}: expected a number"):
        scenario_from_dict(data)


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


@pytest.mark.parametrize("loader", ["default", "pure-python"])
def test_unprintable_text_is_not_valid_yaml(tmp_path, monkeypatch, loader):
    if loader == "pure-python":
        monkeypatch.setattr(scenario_io, "_SAFE_LOADER", yaml.SafeLoader)
    bad = tmp_path / "bell.yaml"
    bad.write_text("users: [[1.0, 2.0, 0.0]]\n\x07\n", encoding="utf-8")
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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POINTS = st.tuples(FINITE, FINITE, FINITE)


@st.composite
def scenarios(draw):
    los = LoSModelConfig(draw(st.sampled_from(LOS_MODEL_KINDS)),
                         *draw(st.tuples(*[FINITE] * 7)))
    guides = draw(st.lists(st.builds(WaveguideSpec, POINTS, POINTS, FINITE, FINITE, FINITE),
                           min_size=1, max_size=3))
    users = draw(st.lists(POINTS, min_size=1, max_size=12))
    snr_db = draw(st.floats(-300.0, 300.0))
    return Scenario(CarrierSpec(draw(FINITE)), guides, UserSet(users),
                    10.0 ** (snr_db / 10.0), los)


@settings(max_examples=60, deadline=None)
@given(s=scenarios())
def test_every_scenario_field_survives_save_and_load(tmp_path_factory, s):
    path = save_scenario(s, tmp_path_factory.mktemp("rt") / "s.yaml")
    loaded = load_scenario(path)
    expected = scenario_fields(s)
    # the file holds the SNR in dB; loading converts that value back
    expected["transmit_snr"] = 10.0 ** (scenario_to_dict(s)["transmit_snr_db"] / 10.0)
    assert scenario_fields(loaded) == expected
    assert loaded.transmit_snr == pytest.approx(s.transmit_snr, rel=1e-12)


def reference_load(path):
    """``load_scenario`` as it was before users were read from the node tree:
    build the whole document, then check it with ``scenario_from_dict``."""
    try:
        data = yaml.load(path.read_text(encoding="utf-8"), Loader=scenario_io._SAFE_LOADER)
    except (yaml.YAMLError, ValueError, IndexError, AttributeError) as exc:
        raise ScenarioFormatError(f"{path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data)


NUMBERS = st.one_of(
    FINITE.map(repr), st.integers().map(str), st.floats().map(lambda x: repr(x).lower()),
    st.sampled_from(["0", "-0.0", "1.5e+3", "1.5E+3", "1_000.5", "0x1F", "017", "0b11",
                     "+2.5", "1:30", "10" * 200, "-" + "9" * 400, ".nan", ".inf", "-.inf",
                     '!!float "1"', '!!float "-2.5e-3"', '!!int "7"', '!!float "abc"',
                     '!!int "1.5"', '!!int ""', '!!float "1.5\\n"', '!!float "1.5\\n2.5"']))
SCALARS = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(
    ["1e3", ".NaN", "true", "false", "~", "null", "abc", '"1.5"', "'2'", "!!str 3.0", "[]",
     "{a: 1}"]))


@st.composite
def users_sections(draw):
    """Text of a ``users:`` entry: rows of scalars, flow or block, with
    wrong lengths, nesting and anchors/aliases (of rows and of scalars)
    drawn in."""
    rows, anchors, scalar_anchors = [], [], []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["alias", "scalar", "nested"]))
        if kind == "alias" and anchors:
            rows.append(f"*{draw(st.sampled_from(anchors))}")
            continue
        if kind == "scalar":
            rows.append(draw(SCALARS))
            continue
        cells = draw(st.lists(SCALARS, min_size=3, max_size=3) | st.lists(SCALARS, max_size=5))
        if kind == "nested":
            cells[:1] = ["[" + ", ".join(cells[:2]) + "]"]
        if cells and scalar_anchors and draw(st.booleans()):
            cells[-1] = f"*{draw(st.sampled_from(scalar_anchors))}"
        elif cells and draw(st.booleans()):
            scalar_anchors.append(f"s{i}")
            cells[0] = f"&s{i} {cells[0]}"
        anchor = ""
        if draw(st.booleans()):
            anchors.append(f"r{i}")
            anchor = f"&r{i} "
        if draw(st.booleans()) or not cells or anchor:
            rows.append(anchor + "[" + ", ".join(cells) + "]")
        else:
            rows.append("- " + "\n    - ".join(cells))
    if not rows:
        return draw(st.sampled_from(["users: []", "users:", "users: 3", "users: {a: 1}"]))
    return "users:\n" + "".join(f"  - {row}\n" for row in rows)


# Lines put before the scenario: nothing, an earlier users key (the last
# one wins), or a value whose explicit tag crashes the constructor.
PREFIXES = ("", "users: [[1.0, 2.0, 0.0]]\n", "early: !!float 'x'\n",
            "users: [[!!int '', 1.0, 0.0]]\n")


@pytest.mark.parametrize("loader", ["default", "pure-python"])
@settings(max_examples=150, deadline=None)
@given(section=users_sections(), prefix=st.sampled_from(PREFIXES))
@example(section="users: [[1.5, -2.0e-05, 0.0], [1, 2, 0]]", prefix="")
@example(section="users: [[017, 0x1F, 1_0]]", prefix="")
@example(section="users: [[.nan, 1.0, 0.0]]", prefix="")
@example(section="users: [[1.0e+999, 1.0, 0.0]]", prefix="")
@example(section="users: [[1.5, 2.5, 0.0, 3.5], [1.0, 2.0, 0.0, 4.0], [0.5, 0.5, 0.0, 0.5]]",
         prefix="")
@example(section=f"users: [[{'9' * 400}, 1.0, 0.0]]", prefix="")
@example(section='users: [[!!int "1.5", 1.0, 0.0]]', prefix="")
@example(section='users: [[!!float "1.5\\n2.5", 1.0, 0.0]]', prefix="")
@example(section="users: [&r [&x 1.5, *x, 0.0], *r]", prefix="")
@example(section="users: [['2', 1.0, 0.0]]", prefix="")
@example(section="users: [[!!float [1], 1.0, 0.0]]", prefix="")
@example(section="users: [[0.5, 0.5, 0.0]]", prefix=PREFIXES[1])
@example(section="users: [[!!int '', 1.0, 0.0]]", prefix=PREFIXES[2])
def test_node_tree_users_match_the_full_construction(tmp_path_factory, loader, section,
                                                     prefix):
    """The loader gives the scenario, or the error, of building the whole
    document and checking it with ``scenario_from_dict``."""
    data = scenario_to_dict(presets.tdma_scenario())
    del data["users"]
    text = prefix + yaml.safe_dump(data, sort_keys=False) + section + "\n"
    path = tmp_path_factory.mktemp("users") / "s.yaml"
    path.write_text(text, encoding="utf-8")
    saved = scenario_io._SAFE_LOADER
    if loader == "pure-python":
        scenario_io._SAFE_LOADER = yaml.SafeLoader
    try:
        outcomes = []
        for load in (reference_load, load_scenario):
            try:
                outcomes.append(scenario_fields(load(path)))
            except ScenarioFormatError as exc:  # bad input, tags included, fails both alike
                outcomes.append((type(exc), str(exc)))
    finally:
        scenario_io._SAFE_LOADER = saved
    assert outcomes[0] == outcomes[1]


def test_users_of_a_merged_or_self_aliased_document_are_its_own(tmp_path):
    data = scenario_to_dict(presets.tdma_scenario())
    text = yaml.safe_dump(data, sort_keys=False)
    merged = "<<: {users: [[9.0, 9.0, 0.0]], extra: 1}\n" + text
    aliased = "&doc\n" + text + "again: *doc\n"
    for i, t in enumerate((merged, aliased)):
        path = tmp_path / f"s{i}.yaml"
        path.write_text(t, encoding="utf-8")
        assert scenario_fields(load_scenario(path)) == scenario_fields(reference_load(path))
        assert load_scenario(path).users.positions.tolist() == data["users"]
