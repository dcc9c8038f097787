"""Scenario (de)serialization.

Scenario files are YAML trees with nested ``carrier`` / ``waveguides`` /
``users`` / ``los_model`` sections. On-disk units: meters for coordinates,
Hz for frequencies, dB for the transmit SNR (converted to linear in memory).
Every number must be finite (``.nan`` and ``.inf`` are rejected). Files are
parsed with libyaml's safe loader when PyYAML has it, else with PyYAML's
pure-Python safe loader; both yield the same data. A ``users`` list of
``[x, y, z]`` number rows is read straight from the parsed node tree into
an array; any other ``users`` value is built and checked like the rest of
the file, with the same values and error messages either way.

Example::

    carrier:
      frequency_hz: 28.0e9
    transmit_snr_db: 10.0
    los_model:
      kind: inmo                # exponential | inmo | always_los
      rho_los_per_m: 0.1        # exponential kind only
      nlos_extra_loss_db: 20.0
      inmo_near_m: 1.2          # inmo kind only, as are the four below
      inmo_far_m: 6.5
      inmo_near_decay_m: 4.7
      inmo_far_decay_m: 32.6
      inmo_far_scale: 0.32
    waveguides:
      - feed_point_m: [0.0, -10.0, 3.0]
        axis_direction: [0.0, 1.0, 0.0]
        length_m: 20.0
        relative_permittivity: 2.1
        guide_attenuation_np_per_m: 0.0
    users:
      - [1.0, 2.0, 0.0]
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import yaml

from .scenario import CarrierSpec, LoSModelConfig, Scenario, UserSet, WaveguideSpec


# Both loaders run the same safe constructors; libyaml's only parses faster.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
SNR_DB_LIMIT = 3000.0  # beyond about 3082 dB, 10 ** (dB / 10) overflows a float


class ScenarioFormatError(ValueError):
    """A scenario file is structurally invalid; the message says where."""


def _require(mapping, key, context):
    if not isinstance(mapping, dict):
        raise ScenarioFormatError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    if key not in mapping:
        raise ScenarioFormatError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _number(value, context) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{context}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioFormatError(f"{context}: expected a finite number, got {value!r}")
    return x


def _vector3(value, context):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioFormatError(f"{context}: expected [x, y, z], got {value!r}")
    return [_number(v, context) for v in value]


def scenario_from_dict(data: dict) -> Scenario:
    return _scenario_from_dict(data, None)


def _scenario_from_dict(data: dict, users) -> Scenario:
    """The scenario of ``data``; ``users``, when not None, are rows already
    read and checked that stand in for ``data["users"]``."""
    carrier = CarrierSpec(_number(_require(_require(data, "carrier", "scenario"),
                                           "frequency_hz", "carrier"), "carrier.frequency_hz"))
    snr_db = _number(_require(data, "transmit_snr_db", "scenario"), "transmit_snr_db")
    if not -SNR_DB_LIMIT <= snr_db <= SNR_DB_LIMIT:
        raise ScenarioFormatError(f"transmit_snr_db: expected a value in "
                                  f"[-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB, got {snr_db!r}")

    los_raw = {} if data.get("los_model") is None else data["los_model"]  # null: defaults
    if not isinstance(los_raw, dict):
        raise ScenarioFormatError(f"los_model: expected a mapping, got {type(los_raw).__name__}")
    defaults = dataclasses.asdict(LoSModelConfig())  # every field, in field order
    extra = set(los_raw) - set(defaults)
    if extra:
        raise ScenarioFormatError(f"los_model: unknown keys {sorted(extra)}")
    los = LoSModelConfig(**{
        key: str(los_raw.get(key, default)) if key == "kind"
        else _number(los_raw.get(key, default), f"los_model.{key}")
        for key, default in defaults.items()})

    guides_raw = _require(data, "waveguides", "scenario")
    if not isinstance(guides_raw, list):
        raise ScenarioFormatError("waveguides: expected a list")
    guides = []
    for i, g in enumerate(guides_raw):
        ctx = f"waveguides[{i}]"
        guides.append(WaveguideSpec(
            feed_point=_vector3(_require(g, "feed_point_m", ctx), f"{ctx}.feed_point_m"),
            axis_direction=_vector3(_require(g, "axis_direction", ctx), f"{ctx}.axis_direction"),
            length_m=_number(_require(g, "length_m", ctx), f"{ctx}.length_m"),
            relative_permittivity=_number(g.get("relative_permittivity", 2.1),
                                          f"{ctx}.relative_permittivity"),
            guide_attenuation_np_per_m=_number(g.get("guide_attenuation_np_per_m", 0.0),
                                               f"{ctx}.guide_attenuation_np_per_m"),
        ))

    if users is None:
        users_raw = _require(data, "users", "scenario")
        if not isinstance(users_raw, list) or not users_raw:
            raise ScenarioFormatError("users: expected a non-empty list of [x, y, z]")
        users = [_vector3(u, f"users[{i}]") for i, u in enumerate(users_raw)]

    return Scenario(carrier=carrier, waveguides=tuple(guides), users=UserSet(users),
                    transmit_snr=10.0 ** (snr_db / 10.0), los_model=los)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "carrier": {"frequency_hz": s.carrier.frequency_hz},
        "transmit_snr_db": 10.0 * math.log10(s.transmit_snr),
        "los_model": dataclasses.asdict(s.los_model),
        "waveguides": [
            {
                "feed_point_m": [float(v) for v in w.feed_point],
                "axis_direction": [float(v) for v in w.axis_direction],
                "length_m": w.length_m,
                "relative_permittivity": w.relative_permittivity,
                "guide_attenuation_np_per_m": w.guide_attenuation_np_per_m,
            }
            for w in s.waveguides
        ],
        "users": s.users.positions.tolist(),
    }


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        loader = _SAFE_LOADER(text)  # the pure-Python one checks the text here
        try:
            node = loader.get_single_node()
            users = _users_node(node)
            rows = None if users is None else _number_rows(users[1])
            if rows is not None:
                # the rest of the mapping; aliases of the whole document still see users
                node = yaml.MappingNode(node.tag, [p for p in node.value if p is not users],
                                        node.start_mark, node.end_mark, node.flow_style)
            data = None if node is None else loader.construct_document(node)
        finally:
            loader.dispose()
    # an explicit tag on text its constructor cannot read, e.g. !!float "abc",
    # !!int "" or !!timestamp "x", raises one of the three others
    except (yaml.YAMLError, ValueError, IndexError, AttributeError) as exc:
        raise ScenarioFormatError(f"{path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be a mapping")
    return _scenario_from_dict(data, rows)


def save_scenario(s: Scenario, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(scenario_to_dict(s), sort_keys=False), encoding="utf-8")
    return path


_TAG = "tag:yaml.org,2002:"
# A plain decimal float: it matches YAML 1.1's float pattern and none of its
# special forms (underscores, sexagesimal, .inf, .nan).
_DECIMAL = re.compile(r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?")


def _users_node(node):
    """The ``(key, value)`` node pair of the last ``users`` key of a plain
    top-level mapping, or None.

    The last pair is the one a constructed mapping keeps. Keys that a
    ``<<`` merge brings in come before the mapping's own, so they never win.
    """
    if not isinstance(node, yaml.MappingNode) or node.tag != _TAG + "map":
        return None
    found = [pair for pair in node.value if isinstance(pair[0], yaml.ScalarNode)
             and pair[0].tag == _TAG + "str" and pair[0].value == "users"]
    return found[-1] if found else None


def _number_rows(node):
    """``[x, y, z]`` rows of finite floats read from a users node, or None.

    Only a non-empty sequence of 3-element sequences of plain decimal float
    scalars, as ``save_scenario`` writes them, is read here; for those,
    ``float(value)`` is what the loader's ``construct_yaml_float`` gives.
    Anything else (ints, other tags, forms or shapes, overflowing values)
    gives None and goes through the full construction, whose checks report it.
    """
    if not isinstance(node, yaml.SequenceNode) or node.tag != _TAG + "seq" or not node.value:
        return None
    cells = []
    for item in node.value:
        if (not isinstance(item, yaml.SequenceNode) or item.tag != _TAG + "seq"
                or len(item.value) != 3):
            return None
        cells += item.value
    if not all(isinstance(v, yaml.ScalarNode) and v.tag == _TAG + "float"
               and _DECIMAL.fullmatch(v.value) for v in cells):
        return None
    values = [float(v.value) for v in cells]
    rows = np.array(values).reshape(-1, 3)
    return rows if np.isfinite(rows).all() else None
