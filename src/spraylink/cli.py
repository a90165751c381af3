"""Command-line interface.

Subcommands:
    simulate         sample the modeled response and write a trace CSV
    estimate         fit (k1, k2, gamma) to a measured trace
    fit-sensitivity  fit power-law coefficients to a sensitivity table
    trend            aggregate estimate files into a distance-trend table
    flow-rate        average flow rate from mass measurements

Exit codes: 0 success, 2 validation error, 3 no signal in the trace,
4 low-confidence fit, 5 I/O or parse error. Output files are written
atomically and every command is deterministic given its config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import channel, fitting, sensor, traceio
from .config import load_config
from .errors import NoSignalError, ParseError, SprayLinkError, ValidationError, require_positive
from .kinetics import KineticsParams, peak_time

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_SIGNAL = 3
EXIT_LOW_CONFIDENCE = 4
EXIT_IO = 5

# Upper bound on simulate's t-end / dt, checked before any array is allocated.
MAX_SIMULATE_STEPS = 10_000_000

# The fitted parameters, in the order of FitResult.params and at_bound.
PARAM_NAMES = ("k1", "k2", "gamma")

# The kept fit's FitResult fields that estimate --out writes under "diagnostics".
FIT_DIAGNOSTICS = (
    "termination", "converged", "iterations", "at_bound", "jac_condition", "residual_evals", "jacobian_evals"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spraylink",
        description="Spray-to-sensor link modeling and parameter estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        help="INI config file (default: $SPRAYLINK_CONFIG, else built-in defaults)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample the modeled response to a CSV trace")
    p.add_argument("--k1", type=float, required=True, help="adhesion rate, 1/s")
    p.add_argument("--k2", type=float, required=True, help="detachment rate, 1/s")
    p.add_argument("--gamma", type=float, default=None, help="spray coefficient (default: config)")
    p.add_argument("--s", type=float, required=True, help="TX-RX distance, m")
    p.add_argument("--t-end", type=float, default=10.0, help="last sample time, s")
    p.add_argument("--dt", type=float, default=0.01, help="sample spacing, s")
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian noise sigma, V")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--out", default="model_trace.csv", help="output trace CSV")

    p = sub.add_parser("estimate", help="fit channel parameters to a trace")
    p.add_argument("trace", help="trace CSV path")
    p.add_argument("--s", type=float, required=True, help="TX-RX distance, m")
    p.add_argument(
        "--t0",
        default="0",
        help="trace start time in s, or 'auto' to detect the onset (default 0)",
    )
    p.add_argument("--out", default=None, help="write the estimate as JSON")
    p.add_argument("--residuals", default=None, help="write model-minus-measured trace CSV")

    p = sub.add_parser("fit-sensitivity", help="fit the sensitivity power law to a table")
    p.add_argument(
        "table",
        nargs="?",
        default=None,
        help="sensitivity table CSV (default: bundled table)",
    )

    p = sub.add_parser("trend", help="aggregate estimate JSONs into a distance trend")
    p.add_argument("estimates_dir", help="directory containing estimate *.json files")
    p.add_argument("--out", default="trend.csv", help="plot-ready output CSV")

    p = sub.add_parser("flow-rate", help="average flow rate from mass measurements")
    p.add_argument("measurements", help="CSV with mass_before_kg,mass_after_kg,dt_s")
    p.add_argument("--rho-d", type=float, default=None, help="liquid density, kg/m^3 (default: config)")

    return parser


def _cmd_simulate(cfg, args) -> int:
    gamma = args.gamma if args.gamma is not None else cfg.transmitter.gamma
    tx = dataclasses.replace(cfg.transmitter, gamma=gamma)
    kin = KineticsParams(args.k1, args.k2)
    if args.dt <= 0.0:
        raise ValidationError(f"dt must be > 0, got {args.dt!r}")
    if args.t_end < 0.0:
        raise ValidationError(f"t-end must be >= 0, got {args.t_end!r}")
    if not (math.isfinite(args.noise) and args.noise >= 0.0):
        raise ValidationError(f"--noise must be finite and >= 0, got {args.noise!r}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed!r}")
    c0 = channel.initial_concentration(tx, args.s)
    steps = args.t_end / args.dt
    if not steps <= MAX_SIMULATE_STEPS:
        raise ValidationError(
            f"t-end / dt must be at most {MAX_SIMULATE_STEPS} steps, got {steps:.6g}"
        )
    n = int(round(steps))
    times = np.arange(n + 1) * args.dt
    trace = channel.sample_response(tx, kin, cfg.sensor, args.s, times)
    if args.noise > 0.0:
        rng = np.random.default_rng(args.seed)
        noisy = trace.volts + rng.normal(0.0, args.noise, size=len(trace))
        trace = traceio.Trace(trace.times, noisy, meta=dict(trace.meta, noise_v=args.noise, seed=args.seed))
    traceio.store_trace(trace, args.out)
    t_star = peak_time(kin)
    peak_idx = int(np.argmax(trace.volts))
    print(f"wrote {args.out} ({len(trace)} samples)")
    print(f"C0 = {c0:.6g} kg/m^3")
    print(f"kinetics peak time = {t_star:.6g} s")
    print(f"peak voltage = {trace.volts[peak_idx]:.6g} V at t = {trace.times[peak_idx]:.6g} s")
    return EXIT_OK


def _cmd_estimate(cfg, args) -> int:
    prepared = traceio.preprocess(traceio.load_trace(args.trace), t0=args.t0)
    est = fitting.estimate_channel_params(
        prepared, cfg.transmitter, cfg.sensor, args.s, cfg.search
    )
    print(f"k1 = {est.k1:.6g} 1/s")
    print(f"k2 = {est.k2:.6g} 1/s")
    print(f"gamma = {est.gamma:.6g}")
    print(f"mse = {est.mse:.6g} V^2")
    print(f"canonical = {est.canonical}")
    if est.fit is not None:
        print(f"converged = {est.fit.converged} after {est.fit.iterations} steps")
    if est.low_confidence:
        print(
            f"low confidence: mse {est.mse:.6g} above threshold "
            f"{cfg.search.mse_threshold:.6g}",
            file=sys.stderr,
        )
    if args.out:
        payload = {
            "s": args.s,
            "k1": est.k1,
            "k2": est.k2,
            "gamma": est.gamma,
            "mse": est.mse,
            "canonical": est.canonical,
            "low_confidence": est.low_confidence,
        }
        if est.fit is not None:
            diagnostics = {name: getattr(est.fit, name) for name in FIT_DIAGNOSTICS}
            if not math.isfinite(est.fit.jac_condition):  # JSON has no NaN or inf
                diagnostics["jac_condition"] = None
            payload["diagnostics"] = diagnostics
        traceio.atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.residuals:
        model = channel.response_voltages(
            dataclasses.replace(cfg.transmitter, gamma=est.gamma),
            KineticsParams(est.k1, est.k2),
            cfg.sensor,
            args.s,
            prepared.times,
        )
        resid = traceio.Trace(
            prepared.times, model - prepared.volts, meta={"source": "residuals"}
        )
        traceio.store_trace(resid, args.residuals)
        print(f"wrote {args.residuals}")
    return EXIT_LOW_CONFIDENCE if est.low_confidence else EXIT_OK


def _cmd_fit_sensitivity(cfg, args) -> int:
    if args.table is None:
        table = sensor.bundled_sensitivity_table()
        label = "bundled table"
    else:
        table = sensor.load_sensitivity_table(args.table)
        label = args.table
    coeffs, result = fitting.fit_sensitivity(table)
    print(f"fitted {label} ({len(table)} points)")
    print(f"a = {coeffs.a:.6g}")
    print(f"b = {coeffs.b:.6g}")
    print(f"c = {coeffs.c:.6g}")
    print(f"rmse = {result.rmse:.6g}")
    print(f"converged = {result.converged} after {result.iterations} steps")
    return EXIT_OK


def _json_kind(value) -> str:
    """A parsed JSON value as errors name it: an array or object by type, else its literal, cut to 40 chars."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _json_number(data, key, default=None):
    """data[key] (or default where it is missing), which must be a JSON number, as a float."""
    value = data[key] if default is None else data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {_json_kind(value)}")
    try:
        return float(value)
    except OverflowError:  # an int literal beyond float's range
        raise ValueError(f"{key} must be a number in float range") from None


def _json_bool(data, key, default):
    """data[key] (or default where it is missing), which must be a JSON boolean."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {_json_kind(value)}")
    return value


def _doubts(data, est) -> list:
    """Why the fit an estimate file records is in doubt, from its flags and diagnostics."""
    reasons = []
    if _json_bool(data, "low_confidence", False):
        reasons.append("low confidence")
    if not est.canonical:
        reasons.append("not canonical")
    if "diagnostics" not in data:
        return reasons
    diag = data["diagnostics"]
    if not isinstance(diag, dict):
        raise ValueError(f"diagnostics must be an object, got {_json_kind(diag)}")
    if not _json_bool(diag, "converged", None):
        reasons.append("not converged")
    at_bound = diag["at_bound"]
    if not (isinstance(at_bound, list) and len(at_bound) == len(PARAM_NAMES)
            and all(isinstance(hit, bool) for hit in at_bound)):
        raise ValueError(f"at_bound must be {len(PARAM_NAMES)} booleans, got {_json_kind(at_bound)}")
    if any(at_bound):
        reasons.append("at a bound: " + ", ".join(
            name for name, hit in zip(PARAM_NAMES, at_bound) if hit))
    if diag["jac_condition"] is None:
        reasons.append("jac_condition not finite")
    else:
        cond = _json_number(diag, "jac_condition")
        if not cond <= fitting.RANK_DEFICIENT_COND:
            reasons.append(f"jac_condition {cond:.6g} above {fitting.RANK_DEFICIENT_COND:.6g}")
    return reasons


def _cmd_trend(cfg, args) -> int:
    import glob  # here, not at the top: the other commands start without it

    if not os.path.isdir(args.estimates_dir):
        raise ParseError("estimates directory not found", path=args.estimates_dir)
    paths = sorted(glob.glob(os.path.join(glob.escape(args.estimates_dir), "*.json")))
    pairs, doubts = [], []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            # bad JSON or UTF-8, an int of too many digits, or nesting too deep to parse
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"bad JSON: {exc}", path=path) from exc
        try:
            est = fitting.ChannelEstimate(
                k1=_json_number(data, "k1"),
                k2=_json_number(data, "k2"),
                gamma=_json_number(data, "gamma"),
                canonical=_json_bool(data, "canonical", True),
                mse=_json_number(data, "mse", math.nan),
            )
            s = _json_number(data, "s")
            require_positive("distance s", s)
            pairs.append((s, est))
            reasons = _doubts(data, est)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"estimate file is invalid: {exc}", path=path) from exc
        if reasons:
            doubts.append(f"warning: {path}: {'; '.join(reasons)}")
    report = fitting.distance_trend(pairs)
    for line in doubts:
        print(line, file=sys.stderr)
    lines = ["s_m,n,k1_mean,k1_std,k2_mean,k2_std,gamma_mean,gamma_std"]
    for r in report.rows:
        lines.append(
            f"{r.s:.17g},{r.n},{r.k1_mean:.17g},{r.k1_std:.17g},"
            f"{r.k2_mean:.17g},{r.k2_std:.17g},{r.gamma_mean:.17g},{r.gamma_std:.17g}"
        )
    traceio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(report.rows)} distances from {len(pairs)} estimates)")
    for name in PARAM_NAMES:
        print(f"{name}: {report.verdicts[name]}")
    return EXIT_OK


def _cmd_flow_rate(cfg, args) -> int:
    from . import calibration  # here, not at the top: the other commands start without it

    measurements = calibration.load_mass_measurements(args.measurements)
    rho_d = args.rho_d if args.rho_d is not None else cfg.transmitter.rho_d
    report = calibration.flow_rate(measurements, rho_d)
    for i, q in enumerate(report.per_measurement, start=1):
        print(f"measurement {i}: Q = {q:.6g} m^3/s")
    print(f"mean Q = {report.q:.6g} m^3/s")
    print(f"sample std = {report.std:.6g} m^3/s")
    return EXIT_OK


_HANDLERS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "fit-sensitivity": _cmd_fit_sensitivity,
    "trend": _cmd_trend,
    "flow-rate": _cmd_flow_rate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _HANDLERS[args.command](cfg, args)
    except NoSignalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SIGNAL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, SprayLinkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
