"""Run configuration: INI-style file with bench defaults as fallback.

Every section and key is optional; anything missing keeps its value in
DEFAULT_CONFIG, the bench parameter set. README's "Configuration" section
lists every key with its default. Angles are degrees in the file and
radians everywhere else. A key that a known section does not list raises
ValidationError; other sections and [DEFAULT] keys are not checked. A
missing file, or one that is not UTF-8 INI text, raises ParseError.

The SPRAYLINK_CONFIG environment variable supplies a default path when the
CLI is invoked without --config.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .channel import TransmitterSpec
from .errors import ParseError, ValidationError
from .fitting import SearchConfig
from .sensor import SensorSpec

CONFIG_ENV_VAR = "SPRAYLINK_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    transmitter: TransmitterSpec
    sensor: SensorSpec
    search: SearchConfig


DEFAULT_CONFIG = RunConfig(
    transmitter=TransmitterSpec(
        q=2.204e-6, te=0.5, rho_d=789.0, theta=math.radians(38.0), gamma=1.0
    ),
    sensor=SensorSpec(ein=5.0, rl=1000.0, ro=24000.0),  # sens: the MQ-3 curve
    search=SearchConfig(),
)

# Every key the file may set: (section, key, the RunConfig field it sets, parse).
_KEYS = (
    ("transmitter", "q_m3_per_s", "transmitter.q", float),
    ("transmitter", "te_s", "transmitter.te", float),
    ("transmitter", "rho_d_kg_per_m3", "transmitter.rho_d", float),
    ("transmitter", "theta_deg", "transmitter.theta", lambda raw: math.radians(float(raw))),
    ("transmitter", "gamma", "transmitter.gamma", float),
    ("sensor", "a", "sensor.sens.a", float),
    ("sensor", "b", "sensor.sens.b", float),
    ("sensor", "c", "sensor.sens.c", float),
    ("sensor", "ein_v", "sensor.ein", float),
    ("sensor", "rl_ohm", "sensor.rl", float),
    ("sensor", "ro_ohm", "sensor.ro", float),
    ("search", "k_min", "search.k_min", float),
    ("search", "k_max", "search.k_max", float),
    ("search", "gamma_min", "search.gamma_min", float),
    ("search", "gamma_max", "search.gamma_max", float),
    ("search", "k_grid", "search.k_grid", int),
    ("search", "gamma_grid", "search.gamma_grid", int),
    ("search", "refine_top", "search.refine_top", int),
    ("search", "mse_threshold", "search.mse_threshold", float),
    ("search", "flat_floor_v", "search.flat_floor_v", float),
)


def load_config(path=None) -> RunConfig:
    """Load a config file, or the defaults when no path is given.

    Resolution order: explicit path, then the SPRAYLINK_CONFIG environment
    variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return DEFAULT_CONFIG
    if not os.path.exists(path):
        raise ParseError("config file not found", path=path)
    import configparser  # here, not at the top: a run without a config file starts without it

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        # Values are read lazily, so interpolation errors surface here too.
        return _from_parser(parser)
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())
        raise ParseError(f"invalid config: {message}", path=path) from exc


def _from_parser(parser) -> RunConfig:
    known = {(section, key) for section, key, _, _ in _KEYS}
    sections = {section for section, _ in known}
    for section in parser.sections():
        for key in parser.options(section):
            # [DEFAULT] keys reach every section, and may serve only interpolation
            if section in sections and (section, key) not in known and key not in parser.defaults():
                raise ValidationError(f"[{section}] {key} is not a known key")
    values = {}  # field -> value, for each key the file sets
    for section, key, name, parse in _KEYS:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return _replaced(DEFAULT_CONFIG, "", values)


def _replaced(obj, prefix: str, values: dict):
    """obj with every field named prefix + its name in values set to that value.

    Nested dataclasses are rebuilt first, and each is validated once, with
    all of its new values.
    """
    changes = {}
    for f in dataclasses.fields(obj):
        name = prefix + f.name
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _replaced(value, f"{name}.", values)
        elif name in values:
            changes[f.name] = values[name]
    return dataclasses.replace(obj, **changes)
