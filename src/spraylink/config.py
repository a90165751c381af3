"""Run configuration: INI-style file with bench defaults as fallback.

Every section and key is optional; anything missing falls back to the
bench parameter set below (flow rate 2.204e-6 m^3/s, emission 0.5 s,
ethanol density 789 kg/m^3, half-beamwidth 38 degrees, 5 V supply, 1 kOhm
load, 24 kOhm reference resistance). Angles are degrees in the file and
radians everywhere else. Keys this module does not read are ignored. A
missing file, or one that is not UTF-8 INI text, raises ParseError.

Example file:

    [transmitter]
    q_m3_per_s = 2.204e-6
    te_s = 0.5
    rho_d_kg_per_m3 = 789
    theta_deg = 38
    gamma = 1.0

    [sensor]
    ein_v = 5.0
    rl_ohm = 1000
    ro_ohm = 24000
    a = 0.0116
    b = -0.5855
    c = -0.0743

    [search]
    k_min = 0.05
    k_max = 50
    gamma_min = 1
    gamma_max = 25
    k_grid = 16
    gamma_grid = 8
    refine_top = 5
    mse_threshold = 0.021
    flat_floor_v = 0.001

The SPRAYLINK_CONFIG environment variable supplies a default path when the
CLI is invoked without --config.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from .channel import TransmitterSpec
from .errors import ParseError, ValidationError
from .fitting import SearchConfig
from .sensor import MQ3_SENSITIVITY, SensitivityCoeffs, SensorSpec

CONFIG_ENV_VAR = "SPRAYLINK_CONFIG"


def default_transmitter() -> TransmitterSpec:
    return TransmitterSpec(
        q=2.204e-6, te=0.5, rho_d=789.0, theta=math.radians(38.0), gamma=1.0
    )


def default_sensor() -> SensorSpec:
    return SensorSpec(ein=5.0, rl=1000.0, ro=24000.0, sens=MQ3_SENSITIVITY)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    transmitter: TransmitterSpec
    sensor: SensorSpec
    search: SearchConfig


def default_config() -> RunConfig:
    return RunConfig(
        transmitter=default_transmitter(),
        sensor=default_sensor(),
        search=SearchConfig(),
    )


def _get(parser, section, key, cast, fallback):
    if not parser.has_option(section, key):
        return fallback
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def load_config(path=None) -> RunConfig:
    """Load a config file, or the defaults when no path is given.

    Resolution order: explicit path, then the SPRAYLINK_CONFIG environment
    variable, then built-in defaults.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return default_config()
    if not os.path.exists(path):
        raise ParseError("config file not found", path=path)
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
    tx_default = default_transmitter()
    transmitter = TransmitterSpec(
        q=_get(parser, "transmitter", "q_m3_per_s", float, tx_default.q),
        te=_get(parser, "transmitter", "te_s", float, tx_default.te),
        rho_d=_get(parser, "transmitter", "rho_d_kg_per_m3", float, tx_default.rho_d),
        theta=math.radians(
            _get(parser, "transmitter", "theta_deg", float, math.degrees(tx_default.theta))
        ),
        gamma=_get(parser, "transmitter", "gamma", float, tx_default.gamma),
    )
    sens_default = MQ3_SENSITIVITY
    sens = SensitivityCoeffs(
        a=_get(parser, "sensor", "a", float, sens_default.a),
        b=_get(parser, "sensor", "b", float, sens_default.b),
        c=_get(parser, "sensor", "c", float, sens_default.c),
    )
    sensor_default = default_sensor()
    sensor = SensorSpec(
        ein=_get(parser, "sensor", "ein_v", float, sensor_default.ein),
        rl=_get(parser, "sensor", "rl_ohm", float, sensor_default.rl),
        ro=_get(parser, "sensor", "ro_ohm", float, sensor_default.ro),
        sens=sens,
    )
    sc = SearchConfig()
    search = SearchConfig(
        k_min=_get(parser, "search", "k_min", float, sc.k_min),
        k_max=_get(parser, "search", "k_max", float, sc.k_max),
        gamma_min=_get(parser, "search", "gamma_min", float, sc.gamma_min),
        gamma_max=_get(parser, "search", "gamma_max", float, sc.gamma_max),
        k_grid=_get(parser, "search", "k_grid", int, sc.k_grid),
        gamma_grid=_get(parser, "search", "gamma_grid", int, sc.gamma_grid),
        refine_top=_get(parser, "search", "refine_top", int, sc.refine_top),
        mse_threshold=_get(parser, "search", "mse_threshold", float, sc.mse_threshold),
        flat_floor_v=_get(parser, "search", "flat_floor_v", float, sc.flat_floor_v),
    )
    return RunConfig(transmitter=transmitter, sensor=sensor, search=search)
