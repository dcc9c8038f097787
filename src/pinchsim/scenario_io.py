"""Scenario (de)serialization.

Scenario files are YAML trees with nested ``carrier`` / ``waveguides`` /
``users`` / ``los_model`` sections. On-disk units: meters for coordinates,
Hz for frequencies, dB for the transmit SNR (converted to linear in memory).
Every number must be finite (``.nan`` and ``.inf`` are rejected). Files are
parsed with libyaml's safe loader when PyYAML has it, else with PyYAML's
pure-Python safe loader; both yield the same data. The users of a saved
file are read from its text, not parsed: after a column-0 ``users:`` line,
each user is a column-0 block row ``- - x`` / ``  - y`` / ``  - z`` of plain
decimal floats (``1.5``, ``-2.0e-05``), as ``save_scenario`` writes them.
The rest of the file is parsed with ``users: []`` in their place, and the
rows are taken only where that parse shows they are the top-level ``users``
value. Any other ``users`` value, flow rows like ``- [x, y, z]`` included,
is parsed, built and checked with the rest of the file, with the same
values and error messages either way.

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


def _scenario_settings(s: Scenario) -> dict:
    """``scenario_to_dict(s)`` without its ``users``."""
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
    }


def scenario_to_dict(s: Scenario) -> dict:
    return {**_scenario_settings(s), "users": s.users.positions.tolist()}


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    saved = _read_saved_users(text)
    if saved is not None:
        return _scenario_from_dict(*saved)
    try:
        data = yaml.load(text, Loader=_SAFE_LOADER)  # the pure-Python one checks the text
    except _LOAD_ERRORS as exc:
        raise ScenarioFormatError(f"{path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioFormatError(f"{path}: top level must be a mapping")
    return _scenario_from_dict(data, None)


def save_scenario(s: Scenario, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(scenario_to_dict(s), sort_keys=False), encoding="utf-8")
    return path


_TAG = "tag:yaml.org,2002:"
# an explicit tag on text its constructor cannot read, e.g. !!float "abc",
# !!int "" or !!timestamp "x", raises one of the three others
_LOAD_ERRORS = (yaml.YAMLError, ValueError, IndexError, AttributeError)
# A plain decimal float: it matches YAML 1.1's float pattern and none of its
# special forms (underscores, sexagesimal, .inf, .nan).
_DECIMAL = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"
# One users row as save_scenario writes it: a column-0 block sequence of three.
_ROW = f"- - {_DECIMAL}\n  - {_DECIMAL}\n  - {_DECIMAL}\n"
# Up to 256 rows per match: a fraction of the calls of one per row, with the
# match state of a bounded repeat (an unbounded one holds every row's)
_ROWS = re.compile(f"(?:{_ROW}){{1,256}}")


def _read_saved_users(text):
    """``(data, rows)`` of a file whose users are saved rows, or None.

    The rows are the run of ``_ROW`` lines after the last column-0 ``users:``
    line, matched in blocks of up to 256 and read by one ``np.fromstring``:
    ``float``'s value for every decimal, as the loader's
    ``construct_yaml_float`` gives. The text with that key
    and its rows swapped for ``users: []`` is composed, and the rows are
    taken only if this ``[]`` is the value of the last ``users`` key of a
    block mapping at the top level: the text around them then means what it
    means in the whole file, since a line that would continue the rows cannot
    follow ``[]`` there. Anything else, non-finite rows and errors in the
    rest included, gives None; the whole file is then loaded, so values and
    error messages always come from the full construction.
    """
    start = text.rfind("\nusers:\n") + 1
    if not text.startswith("users:\n", start):
        return None
    pos = body = start + len("users:\n")
    while (block := _ROWS.match(text, pos)) is not None:
        pos = block.end()
    if pos == body:
        return None
    rows = np.fromstring(text[body:pos].replace("- ", " "), sep=" ").reshape(-1, 3)
    if not np.isfinite(rows).all():
        return None
    empty = start + len("users: ")  # where the placeholder's [] starts
    try:
        loader = _SAFE_LOADER(text[:start] + "users: []" + text[pos - 1:])
        try:
            node = loader.get_single_node()
            users = _users_node(node)
            if (users is None or node.flow_style
                    or (users[1].start_mark.index, users[1].end_mark.index) != (empty, empty + 2)):
                return None
            return loader.construct_document(node), rows
        finally:
            loader.dispose()
    except _LOAD_ERRORS:
        return None


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
