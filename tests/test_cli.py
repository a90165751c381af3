"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import configparser
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_traceio import csv_texts

from spraylink import config, fitting, traceio
from spraylink.cli import (
    EXIT_IO,
    EXIT_LOW_CONFIDENCE,
    EXIT_NO_SIGNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from spraylink.errors import ValidationError
from spraylink.traceio import TRACE_HEADER, Trace, load_trace, store_trace


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(
        ["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0,
         "--t-end", 10, "--dt", 0.01, "--out", out]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "C0 = " in captured and "peak" in captured
    trace = load_trace(out)
    assert len(trace) == 1001
    peak_t = trace.times[int(np.argmax(trace.volts))]
    assert abs(peak_t - 0.9241962407465937) <= 0.01


def test_simulate_gamma_defaults_to_config(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--out", out])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "C0 = 0.00136022" in captured


def test_simulate_prints_a_finite_peak_time_for_a_rate_near_the_float_maximum(tmp_path, capsys):
    # k1 / k2 = 2e308 overflowed peak_time's log1p argument, and k1 t the
    # exponent of exp(-k1 t), which warned
    code = run(["simulate", "--k1", 1e308, "--k2", 0.5, "--s", 1.0, "--out", tmp_path / "trace.csv"])
    assert code == EXIT_OK
    assert "kinetics peak time = 7.09889e-306 s" in capsys.readouterr().out


def test_simulate_zero_duration(tmp_path):
    out = tmp_path / "point.csv"
    code = run(["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--t-end", 0, "--out", out])
    assert code == EXIT_OK
    trace = load_trace(out)
    assert len(trace) == 1
    assert trace.times[0] == 0.0 and trace.volts[0] == 0.0


def test_simulate_invalid_parameters(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(["simulate", "--k1", -2, "--k2", 0.5, "--s", 1.0, "--out", out])
    assert code == EXIT_VALIDATION
    assert "k1" in capsys.readouterr().err


def test_simulate_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(
            ["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--noise", 0.01,
             "--seed", 42, "--out", out]
        ) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_estimate_round_trips_simulated_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    est_path = tmp_path / "est.json"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0, "--out", trace_path])
    code = run(["estimate", trace_path, "--s", 1.0, "--out", est_path])
    assert code == EXIT_OK
    est = json.loads(est_path.read_text())
    assert est["k1"] == pytest.approx(2.0, rel=1e-3)
    assert est["k2"] == pytest.approx(0.5, rel=1e-3)
    assert est["gamma"] == pytest.approx(3.0, rel=1e-3)
    assert est["canonical"] is True
    out = capsys.readouterr().out
    assert "k1 = " in out and "mse = " in out


def test_estimate_writes_the_kept_fits_diagnostics(tmp_path, capsys, monkeypatch):
    trace_path, est_path = tmp_path / "trace.csv", tmp_path / "est_1.0.json"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0, "--noise", 0.01, "--out", trace_path])
    assert run(["estimate", trace_path, "--s", 1.0, "--out", est_path]) == EXIT_OK
    text = est_path.read_text()
    data = json.loads(text)
    # the keys written before diagnostics existed keep their bytes and order
    keys = ["s", "k1", "k2", "gamma", "mse", "canonical", "low_confidence"]
    assert list(data) == keys + ["diagnostics"]
    assert text.startswith(json.dumps({key: data[key] for key in keys}, indent=2)[:-2] + ',\n  "diagnostics": {')
    cfg = config.load_config()
    prepared = traceio.preprocess(load_trace(trace_path), t0="0")
    fit = fitting.estimate_channel_params(prepared, cfg.transmitter, cfg.sensor, 1.0, cfg.search).fit
    assert data["diagnostics"] == {
        "termination": fit.termination,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "at_bound": list(fit.at_bound),
        "jac_condition": fit.jac_condition,
        "residual_evals": fit.residual_evals,
        "jacobian_evals": fit.jacobian_evals,
    }
    # a condition number that is not finite is written as null
    lm = fitting.levenberg_marquardt
    monkeypatch.setattr(fitting, "levenberg_marquardt", lambda problem: dataclasses.replace(lm(problem), jac_condition=math.nan))
    assert run(["estimate", trace_path, "--s", 1.0, "--out", est_path]) == EXIT_OK
    data = json.loads(est_path.read_text())
    assert data["diagnostics"]["jac_condition"] is None
    json.dumps(data, allow_nan=False)
    # trend reads estimates with and without diagnostics
    (tmp_path / "est_1.2.json").write_text(json.dumps({"s": 1.2, "k1": 1.5, "k2": 0.5, "gamma": 5.0, "mse": 1e-4}))
    capsys.readouterr()
    assert run(["trend", tmp_path, "--out", tmp_path / "trend.csv"]) == EXIT_OK
    assert "(2 distances from 2 estimates)" in capsys.readouterr().out


def test_estimate_auto_onset_with_offset_baseline(tmp_path):
    trace_path = tmp_path / "raw.csv"
    sim_path = tmp_path / "sim.csv"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0, "--out", sim_path])
    sim = load_trace(sim_path)
    # embed the signal after 2 s of flat 0.7 V baseline
    baseline_t = np.arange(0, 200) * 0.01
    raw = Trace(
        np.concatenate([baseline_t, sim.times + 2.0]),
        np.concatenate([np.full(200, 0.7), sim.volts + 0.7]),
    )
    store_trace(raw, trace_path)
    est_path = tmp_path / "est.json"
    code = run(["estimate", trace_path, "--s", 1.0, "--t0", "auto", "--out", est_path])
    assert code == EXIT_OK
    est = json.loads(est_path.read_text())
    assert est["k1"] == pytest.approx(2.0, rel=1e-2)
    assert est["k2"] == pytest.approx(0.5, rel=1e-2)
    assert est["gamma"] == pytest.approx(3.0, rel=1e-2)


def test_estimate_flat_trace_exit_code(tmp_path, capsys):
    flat_path = tmp_path / "flat.csv"
    store_trace(Trace(np.linspace(0, 10, 101), np.zeros(101)), flat_path)
    code = run(["estimate", flat_path, "--s", 1.0])
    assert code == EXIT_NO_SIGNAL
    assert "error" in capsys.readouterr().err


def test_estimate_low_confidence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "strict.ini"
    cfg.write_text("[search]\nmse_threshold = 1e-30\n")
    trace_path = tmp_path / "trace.csv"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0,
         "--noise", 0.01, "--seed", 7, "--out", trace_path])
    code = run(["--config", cfg, "estimate", trace_path, "--s", 1.0])
    assert code == EXIT_LOW_CONFIDENCE
    assert "low confidence" in capsys.readouterr().err


def test_estimate_residuals_output(tmp_path):
    trace_path = tmp_path / "trace.csv"
    resid_path = tmp_path / "resid.csv"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0, "--out", trace_path])
    code = run(["estimate", trace_path, "--s", 1.0, "--residuals", resid_path])
    assert code == EXIT_OK
    resid = load_trace(resid_path)
    assert len(resid) == 1001
    assert float(np.max(np.abs(resid.volts))) < 1e-5


@pytest.mark.parametrize("flag", ["--out", "--residuals"])
def test_estimate_output_onto_a_directory_names_the_directory(tmp_path, capsys, flag):
    trace_path = tmp_path / "trace.csv"
    run(["simulate", "--k1", 2, "--k2", 0.5, "--gamma", 3, "--s", 1.0, "--out", trace_path])
    (tmp_path / "probe").mkdir()
    capsys.readouterr()
    assert run(["estimate", trace_path, "--s", 1.0, flag, tmp_path / "probe"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path / 'probe'}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probe", "trace.csv"]


def test_fit_sensitivity_bundled(capsys):
    assert run(["fit-sensitivity"]) == EXIT_OK
    out = capsys.readouterr().out
    rmse = float(next(line for line in out.splitlines() if line.startswith("rmse")).split("=")[1])
    assert rmse <= 0.0471


def test_fit_sensitivity_bundled_prints_pinned_coefficients(capsys):
    assert run(["fit-sensitivity"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "fitted bundled table (13 points)\n"
        "a = 0.0115981\n"
        "b = -0.585517\n"
        "c = -0.074272\n"
        "rmse = 0.0351894\n"
        "converged = True after 5 steps\n"
    )


def test_fit_sensitivity_exact_table(tmp_path, capsys):
    path = tmp_path / "exact.csv"
    x = np.logspace(np.log10(5e-5), np.log10(1e-2), 30)
    y = 0.0116 * x**-0.5855 - 0.0743
    lines = ["concentration_kg_m3,rs_over_ro"]
    lines += [f"{xi:.17g},{yi:.17g}" for xi, yi in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    assert run(["fit-sensitivity", path]) == EXIT_OK
    out = capsys.readouterr().out
    rmse = float(next(line for line in out.splitlines() if line.startswith("rmse")).split("=")[1])
    assert rmse < 1e-8


def test_fit_sensitivity_underdetermined_table(tmp_path, capsys):
    path = tmp_path / "three.csv"
    path.write_text(
        "concentration_kg_m3,rs_over_ro\n1e-4,2.0\n1e-3,1.0\n1e-2,0.5\n"
    )
    code = run(["fit-sensitivity", path])
    assert code == EXIT_VALIDATION
    assert "under-determined" in capsys.readouterr().err


def test_fit_sensitivity_with_overflowing_residuals_exits_2_and_warns_nothing(tmp_path, capsys):
    # LM's trial costs overflow on this table; the fitted curve is refused
    path = tmp_path / "tab.csv"
    rows = ("3.2e-188,1.02", "1.16e-183,4.62", "6.4e-109,-4.28", "4.1e46,-0.00027", "3.3e103,2.44")
    path.write_text("concentration_kg_m3,rs_over_ro\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under -W error
        assert run(["fit-sensitivity", path]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: sensitivity must stay positive")


def test_trend_pipeline(tmp_path, capsys):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    k1s = {0.9: 5.0, 1.0: 4.0, 1.1: 3.0, 1.2: 2.0}
    for i, (s, k1) in enumerate(k1s.items()):
        payload = {"s": s, "k1": k1, "k2": 1.0 + 0.01 * i, "gamma": 3.0,
                   "mse": 1e-6, "canonical": True}
        (est_dir / f"est_{i}.json").write_text(json.dumps(payload))
    out_csv = tmp_path / "trend.csv"
    assert run(["trend", est_dir, "--out", out_csv]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k1: strictly decreasing" in out
    assert "k2: within +/-5% of mean" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "s_m,n,k1_mean,k1_std,k2_mean,k2_std,gamma_mean,gamma_std"
    assert len(out_csv.read_text().splitlines()) == 5


def test_trend_reads_a_directory_whose_name_is_a_glob_pattern(tmp_path, capsys):
    # "[1]" is a glob character class: unescaped, the pattern matches no file
    est_dir = tmp_path / "run[1]"
    est_dir.mkdir()
    for name, s in (("a.json", 1.0), ("b.json", 1.2)):
        (est_dir / name).write_text(json.dumps({"s": s, "k1": 2.0, "k2": 0.5, "gamma": 3.0}))
    out_csv = tmp_path / "trend.csv"
    assert run(["trend", est_dir, "--out", out_csv]) == EXIT_OK
    assert "(2 distances from 2 estimates)" in capsys.readouterr().out
    assert len(out_csv.read_text().splitlines()) == 3


def test_trend_insufficient_data(tmp_path, capsys):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    (est_dir / "only.json").write_text(
        json.dumps({"s": 1.0, "k1": 2.0, "k2": 0.5, "gamma": 3.0})
    )
    assert run(["trend", est_dir, "--out", tmp_path / "t.csv"]) == EXIT_VALIDATION


@pytest.mark.parametrize("bad_s", ["-1", "0", "NaN", "Infinity"])
def test_trend_rejects_bad_distance(tmp_path, capsys, bad_s):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for name, s in (("a.json", "1.0"), ("b.json", bad_s), ("c.json", "1.2")):
        (est_dir / name).write_text(
            f'{{"s": {s}, "k1": 2.0, "k2": 0.5, "gamma": 3.0, "mse": 1e-6}}'
        )
    out_csv = tmp_path / "trend.csv"
    assert run(["trend", est_dir, "--out", out_csv]) == EXIT_IO
    err = capsys.readouterr().err
    assert "b.json" in err and "distance s must be finite and > 0" in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "key, value",
    [("s", "true"), ("k1", "true"), ("k2", "true"), ("gamma", "true"), ("mse", "false"),
     ("s", '"1.1"'), ("k1", '"2.0"'), ("mse", "null"),
     ("canonical", '"false"'), ("canonical", "0"), ("canonical", "null")],
)
def test_trend_refuses_wrong_json_types(tmp_path, capsys, key, value):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for name, s in (("a.json", 1.0), ("b.json", 1.1), ("c.json", 1.2)):
        payload = {"s": s, "k1": 2.0, "k2": 0.5, "gamma": 3.0, "mse": 1e-6, "canonical": True}
        text = json.dumps(payload)
        if name == "b.json":
            text = text.replace(f'"{key}": {json.dumps(payload[key])}', f'"{key}": {value}')
            assert f'"{key}": {value}' in text
        (est_dir / name).write_text(text)
    out_csv = tmp_path / "trend.csv"
    assert run(["trend", est_dir, "--out", out_csv]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "b.json" in err and f"{key} must be" in err
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [("k1", "[" * 900 + "]" * 900, "k1 must be a number, got an array"),
     ("k1", json.dumps(list(range(100_000))), "k1 must be a number, got an array"),
     ("gamma", json.dumps({"x": "y" * 10_000}), "gamma must be a number, got an object"),
     ("k2", json.dumps("9" * 10_000), 'k2 must be a number, got "' + "9" * 36 + "..."),
     ("canonical", "1" * 400, "canonical must be true or false, got " + "1" * 37 + "..."),
     ("diagnostics", json.dumps([True] * 100_000), "diagnostics must be an object, got an array")],
    ids=["nested", "long array", "object", "long string", "long number", "diagnostics"],
)
def test_trend_names_a_wrong_value_by_its_type_and_cuts_its_text(tmp_path, capsys, key, value, named):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for name, s in (("a.json", 1.0), ("b.json", 1.1)):
        payload = {"s": s, "k1": 2.0, "k2": 0.5, "gamma": 3.0, "canonical": True}
        text = json.dumps(dict(payload, **{key: None}) if name == "b.json" else payload)
        (est_dir / name).write_text(text.replace(f'"{key}": null', f'"{key}": {value}'))
    assert run(["trend", est_dir, "--out", tmp_path / "trend.csv"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"error: {est_dir / 'b.json'}: estimate file is invalid: {named}\n"


_DIAGNOSTICS = {"termination": "gradient", "converged": True, "iterations": 5, "at_bound": [False] * 3,
                "jac_condition": 25.0, "residual_evals": 10, "jacobian_evals": 8}


def _write_estimates(est_dir, doubtful):
    """Four estimate files; est_1.json and est_2.json carry the fields in doubtful."""
    est_dir.mkdir()
    for i, s in enumerate((0.9, 1.0, 1.1, 1.2)):
        payload = {"s": s, "k1": 5.0 - i, "k2": 0.5, "gamma": 3.0, "mse": 1e-4, "canonical": True,
                   "low_confidence": False, "diagnostics": dict(_DIAGNOSTICS)}
        for key, value in doubtful.get(i, {}).items():
            target = payload if key in payload else payload["diagnostics"]
            target[key] = value
        (est_dir / f"est_{i}.json").write_text(json.dumps(payload))
    (est_dir / "old.json").write_text(json.dumps({"s": 1.2, "k1": 2.0, "k2": 0.5, "gamma": 3.0}))


def test_trend_warns_of_each_doubtful_estimate_it_averages(tmp_path, capsys):
    _write_estimates(tmp_path / "clean", {})
    assert run(["trend", tmp_path / "clean", "--out", tmp_path / "clean.csv"]) == EXIT_OK
    clean = capsys.readouterr()
    assert clean.err == ""
    doubtful = {
        1: {"low_confidence": True, "canonical": False, "converged": False,
            "at_bound": [True, False, True], "jac_condition": None},
        2: {"jac_condition": 2e8},
        3: {"jac_condition": 1e8},  # RANK_DEFICIENT_COND itself is not above it
    }
    est_dir = tmp_path / "doubtful"
    _write_estimates(est_dir, doubtful)
    assert run(["trend", est_dir, "--out", tmp_path / "doubtful.csv"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == (
        f"warning: {est_dir / 'est_1.json'}: low confidence; not canonical; not converged; "
        "at a bound: k1, gamma; jac_condition not finite\n"
        f"warning: {est_dir / 'est_2.json'}: jac_condition 2e+08 above 1e+08\n"
    )
    # the table, stdout and the exit code are those of the same estimates without doubts
    assert out == clean.out.replace("clean", "doubtful")
    assert (tmp_path / "doubtful.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


@pytest.mark.parametrize(
    "key, value",
    [("low_confidence", "null"), ("diagnostics", "[]"), ("diagnostics", "null"),
     ("converged", '"true"'), ("converged", "1"), ("at_bound", "true"), ("at_bound", "[0, 0, 0]"),
     ("at_bound", "[false, false]"), ("jac_condition", '"1e9"'), ("jac_condition", "false")],
)
def test_trend_refuses_diagnostics_of_wrong_json_types(tmp_path, capsys, key, value):
    est_dir = tmp_path / "estimates"
    _write_estimates(est_dir, {})
    path = est_dir / "est_1.json"
    data = json.loads(path.read_text())
    target = data if key in data else data["diagnostics"]
    target[key] = json.loads(value)
    path.write_text(json.dumps(data))
    out_csv = tmp_path / "trend.csv"
    assert run(["trend", est_dir, "--out", out_csv]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: estimate file is invalid: {key} must be"), err
    assert err.count("\n") == 1
    assert not out_csv.exists()


def test_trend_refuses_means_that_overflow(tmp_path, capsys):
    # valid estimates near the float maximum: the k1 mean at s = 1 overflows
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for name, s, k1 in (("a.json", 1, 1e308), ("b.json", 1, 1.7e308), ("c.json", 2, 2.0)):
        (est_dir / name).write_text(json.dumps({"s": s, "k1": k1, "k2": 0.5, "gamma": 3.0}))
    out_csv = tmp_path / "trend.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under -W error
        assert run(["trend", est_dir, "--out", out_csv]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: k1 mean or std is not finite at s = 1.0 m: inf, inf\n"
    assert not out_csv.exists()


def test_trend_missing_directory_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert run(["trend", missing, "--out", tmp_path / "t.csv"]) == EXIT_IO
    assert f"{missing}: estimates directory not found" in capsys.readouterr().err
    # an existing directory without estimates is a validation error
    (tmp_path / "empty").mkdir()
    assert run(["trend", tmp_path / "empty", "--out", tmp_path / "t.csv"]) == EXIT_VALIDATION
    assert "got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, cause",
    [
        pytest.param(["--s", 0.05], "detection scope (5e-05, 0.01) kg/m^3", id="near_field"),
        pytest.param(
            ["--s", 1.0, "--noise", "nan"], "--noise must be finite and >= 0", id="noise_nan"
        ),
        pytest.param(
            ["--s", 1.0, "--noise", "inf"], "--noise must be finite and >= 0", id="noise_inf"
        ),
    ],
)
def test_simulate_refusal_names_its_cause(tmp_path, capsys, extra, cause):
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--k1", 2, "--k2", 0.5, *extra, "--out", out]) == EXIT_VALIDATION
    assert cause in capsys.readouterr().err
    assert not out.exists()


def test_flow_rate_command(tmp_path, capsys):
    path = tmp_path / "mass.csv"
    path.write_text("mass_before_kg,mass_after_kg,dt_s\n1.0,0.99913052,0.5\n")
    assert run(["flow-rate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mean Q = 2.20401e-06" in out


def test_flow_rate_density_defaults_to_the_config(tmp_path, capsys):
    path = tmp_path / "mass.csv"
    path.write_text("mass_before_kg,mass_after_kg,dt_s\n1.0,0.99913052,0.5\n")
    water = tmp_path / "water.ini"
    water.write_text("[transmitter]\nrho_d_kg_per_m3 = 1000\n")
    outs = []
    for argv in (["--config", water, "flow-rate", path], ["flow-rate", path, "--rho-d", 1000],
                 ["--config", water, "flow-rate", path, "--rho-d", 789], ["flow-rate", path]):
        assert run(argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert "mean Q = 1.73896e-06" in outs[0] and "mean Q = 2.20401e-06" in outs[3]
    assert outs[0] == outs[1] and outs[2] == outs[3]


def test_flow_rate_bad_file(tmp_path, capsys):
    path = tmp_path / "mass.csv"
    path.write_text("mass_before_kg,mass_after_kg,dt_s\nnot,a,number\n")
    assert run(["flow-rate", path]) == EXIT_IO


def test_a_steep_sensitivity_curve_exits_2_and_warns_nothing(tmp_path, capsys, monkeypatch):
    # b = -500 overflows 0.01**b as the curve is checked and C0**b in the grid
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text("[sensor]\nb = -500\n")
    assert run(["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--out", "t.csv"]) == EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        for argv, expected in (
            (["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--out", "out.csv"], EXIT_VALIDATION),
            (["estimate", "t.csv", "--s", 1.0], EXIT_VALIDATION),
            (["fit-sensitivity"], EXIT_OK),  # fits its own table, not the config's curve
        ):
            assert run(["--config", "c.ini", *argv]) == expected
            err = capsys.readouterr().err
            assert (err == "") if expected == EXIT_OK else err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_missing_trace_file_is_io_error(tmp_path, capsys):
    assert run(["estimate", tmp_path / "nope.csv", "--s", 1.0]) == EXIT_IO


def test_config_file_changes_model(tmp_path, capsys):
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[transmitter]\ntheta_deg = 45\n")
    out = tmp_path / "trace.csv"
    assert run(["--config", cfg, "simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0,
                "--out", out]) == EXIT_OK
    captured = capsys.readouterr().out
    # tan(45 deg) = 1 shrinks C0 versus the 38-degree default
    assert "C0 = 0.00083029" in captured


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text("[transmitter]\ntheta_deg = 45\n")
    monkeypatch.setenv("SPRAYLINK_CONFIG", str(cfg))
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0, "--out", out]) == EXIT_OK
    assert "C0 = 0.00083029" in capsys.readouterr().out


def test_config_invalid_value(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[transmitter]\nq_m3_per_s = banana\n")
    out = tmp_path / "trace.csv"
    assert run(["--config", cfg, "simulate", "--k1", 2, "--k2", 0.5, "--s", 1.0,
                "--out", out]) == EXIT_VALIDATION


def _readme_ini():
    """README's INI block, which lists every config key at its default value."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]


# (section, key): (a valid value unlike every other one, the field it sets, its value there)
CONFIG_KEY_VALUES = {
    ("transmitter", "q_m3_per_s"): ("2.5e-6", "transmitter.q", 2.5e-6),
    ("transmitter", "te_s"): ("0.75", "transmitter.te", 0.75),
    ("transmitter", "rho_d_kg_per_m3"): ("800", "transmitter.rho_d", 800.0),
    ("transmitter", "theta_deg"): ("40", "transmitter.theta", math.radians(40.0)),
    ("transmitter", "gamma"): ("1.5", "transmitter.gamma", 1.5),
    ("sensor", "ein_v"): ("4.5", "sensor.ein", 4.5),
    ("sensor", "rl_ohm"): ("1100", "sensor.rl", 1100.0),
    ("sensor", "ro_ohm"): ("25000", "sensor.ro", 25000.0),
    ("sensor", "a"): ("0.0117", "sensor.sens.a", 0.0117),
    ("sensor", "b"): ("-0.59", "sensor.sens.b", -0.59),
    ("sensor", "c"): ("-0.074", "sensor.sens.c", -0.074),
    ("search", "k_min"): ("0.06", "search.k_min", 0.06),
    ("search", "k_max"): ("49", "search.k_max", 49.0),
    ("search", "gamma_min"): ("1.25", "search.gamma_min", 1.25),
    ("search", "gamma_max"): ("24", "search.gamma_max", 24.0),
    ("search", "k_grid"): ("15", "search.k_grid", 15),
    ("search", "gamma_grid"): ("7", "search.gamma_grid", 7),
    ("search", "refine_top"): ("4", "search.refine_top", 4),
    ("search", "mse_threshold"): ("0.022", "search.mse_threshold", 0.022),
    ("search", "flat_floor_v"): ("0.002", "search.flat_floor_v", 0.002),
}


def test_every_readme_config_key_reaches_its_field(tmp_path):
    readme = configparser.ConfigParser()
    readme.read_string(_readme_ini())
    keys = [(section, key) for section in readme.sections() for key in readme[section]]
    assert sorted(keys) == sorted(CONFIG_KEY_VALUES)
    assert sorted((section, key) for section, key, *_ in config._KEYS) == sorted(keys)
    values = [raw for raw, _, _ in CONFIG_KEY_VALUES.values()]
    assert len(set(values)) == len(values)
    ini = configparser.ConfigParser()
    for (section, key), (raw, _, _) in CONFIG_KEY_VALUES.items():
        ini.read_dict({section: {key: raw}})
    with open(tmp_path / "all.ini", "w") as fh:
        ini.write(fh)
    cfg = config.load_config(tmp_path / "all.ini")
    for key, (_, field, want) in CONFIG_KEY_VALUES.items():
        got = functools.reduce(getattr, field.split("."), cfg)
        assert got == want != functools.reduce(getattr, field.split("."), config.DEFAULT_CONFIG), key


def test_no_config_an_empty_one_and_one_of_defaults_load_equal(tmp_path, monkeypatch):
    monkeypatch.delenv("SPRAYLINK_CONFIG", raising=False)
    (tmp_path / "empty.ini").write_text("")
    (tmp_path / "defaults.ini").write_text(_readme_ini())
    assert (
        config.load_config()
        == config.load_config(tmp_path / "empty.ini")
        == config.load_config(tmp_path / "defaults.ini")
    )



def test_config_refusals_follow_the_object_order(tmp_path):
    # an invalid value for each of the transmitter, the sensitivity curve, the
    # sensor and the search: the first object's error wins
    refusals = [("transmitter", "te_s = -1", "te must be finite and > 0"),
                ("sensor", "c = nan", "c must be finite"),
                ("sensor", "ein_v = -5", "ein must be finite and > 0"),
                ("search", "k_grid = 1", "grid sizes must be >= 2")]
    for first in range(len(refusals)):
        sections = {}
        for section, line, _ in refusals[first:]:
            sections.setdefault(section, []).append(line)
        text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())
        (tmp_path / "bad.ini").write_text(text)
        with pytest.raises(ValidationError, match=refusals[first][2]):
            config.load_config(tmp_path / "bad.ini")


def test_a_key_its_section_does_not_list_is_refused_by_name(tmp_path):
    (tmp_path / "typo.ini").write_text("[search]\nk_gird = 12\n")
    with pytest.raises(ValidationError, match=r"^\[search\] k_gird "):
        config.load_config(tmp_path / "typo.ini")
    # [DEFAULT] keys reach every section, and other sections are not read
    (tmp_path / "ok.ini").write_text(
        "[DEFAULT]\nnodes = 12\n[search]\nk_grid = %(nodes)s\n[transmitter]\n[notes]\nk_gird = 1\n"
    )
    assert config.load_config(tmp_path / "ok.ini").search.k_grid == 12


# name: (files to create, argv, exit code); a None file is a directory
HOSTILE_INPUTS = {
    "config_no_section": (
        {"c.ini": b"q_m3_per_s = 1\n"}, ["--config", "c.ini", "fit-sensitivity"], EXIT_IO),
    "config_duplicate_key": (
        {"c.ini": b"[transmitter]\nte_s = 1\nte_s = 2\n"},
        ["--config", "c.ini", "fit-sensitivity"], EXIT_IO),
    "config_directory": ({"c.ini": None}, ["--config", "c.ini", "fit-sensitivity"], EXIT_IO),
    "config_bad_interpolation": (
        {"c.ini": b"[transmitter]\nq_m3_per_s = 5%\n"},
        ["--config", "c.ini", "fit-sensitivity"], EXIT_IO),
    "trace_not_utf8": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.1\xff\n"}, ["estimate", "t.csv", "--s", "1"], EXIT_IO),
    "table_not_utf8": (
        {"t.csv": b"concentration_kg_m3,rs_over_ro\n\xfe1e-4,1.5\n"},
        ["fit-sensitivity", "t.csv"], EXIT_IO),
    "mass_not_utf8": (
        {"m.csv": b"mass_before_kg,mass_after_kg,dt_s\n1.0,0.9,0.5 \xff\n"},
        ["flow-rate", "m.csv"], EXIT_IO),
    "estimate_not_utf8": (
        {"est/e.json": b'{"s": 1.0, "k1": "\xff"}'}, ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "estimate_boolean_distance": (
        {"est/e.json": b'{"s": true, "k1": 2.0, "k2": 0.5, "gamma": 3.0, "mse": 1e-6}'},
        ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "estimate_huge_integer": (
        {"est/e.json": b'{"s": 1.0, "k1": 1' + b"0" * 400 + b', "k2": 0.5, "gamma": 3.0}'},
        ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "estimate_integer_of_too_many_digits": (
        {"est/e.json": b'{"s": 1.0, "k1": 1' + b"0" * 5000 + b', "k2": 0.5, "gamma": 3.0}'},
        ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "estimate_nested_too_deep": (
        {"est/e.json": b'{"s": 1, "k1": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"},
        ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "estimate_canonical_string": (
        {"est/e.json": b'{"s": 1.0, "k1": 2.0, "k2": 0.5, "gamma": 3.0, "mse": 1e-6, '
                       b'"canonical": "false"}'},
        ["trend", "est", "--out", "out.csv"], EXIT_IO),
    "config_missing": ({}, ["--config", "nope.ini", "fit-sensitivity"], EXIT_IO),
    "flow_rate_spread_overflow": (
        {"m.csv": b"mass_before_kg,mass_after_kg,dt_s\n1e200,0,1\n1,0,1\n"},
        ["flow-rate", "m.csv", "--rho-d", "1"], EXIT_VALIDATION),
    "flow_rate_infinite": (
        {"m.csv": b"mass_before_kg,mass_after_kg,dt_s\n1e308,0,1e-308\n"},
        ["flow-rate", "m.csv"], EXIT_VALIDATION),
    "config_misspelt_key": (
        {"c.ini": b"[search]\nk_gird = 12\n"}, ["--config", "c.ini", "fit-sensitivity"],
        EXIT_VALIDATION),
    "estimate_three_samples": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n"},
        ["estimate", "t.csv", "--s", "1"], EXIT_VALIDATION),
    "simulate_noise_nan": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--noise", "nan",
             "--out", "out.csv"], EXIT_VALIDATION),
    "simulate_noise_inf": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--noise", "inf",
             "--out", "out.csv"], EXIT_VALIDATION),
    "simulate_tiny_dt": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--dt", "1e-300",
             "--out", "out.csv"], EXIT_VALIDATION),
    "simulate_tiny_distance": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1e-200", "--out", "out.csv"],
        EXIT_VALIDATION),
    "simulate_huge_distance": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1e300", "--out", "out.csv"],
        EXIT_VALIDATION),
    "estimate_tiny_distance": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n0.3,0.05\n"},
        ["estimate", "t.csv", "--s", "1e-200"], EXIT_VALIDATION),
    "estimate_t0_nan": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n0.3,0.05\n"},
        ["estimate", "t.csv", "--s", "1", "--t0", "nan"], EXIT_VALIDATION),
    "estimate_t0_text": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n0.3,0.05\n"},
        ["estimate", "t.csv", "--s", "1", "--t0", "abc"], EXIT_VALIDATION),
    "estimate_t0_after_trace": (
        {"t.csv": b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n0.3,0.05\n"},
        ["estimate", "t.csv", "--s", "1", "--t0", "5"], EXIT_VALIDATION),
    "simulate_dt_zero": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--dt", "0", "--out", "out.csv"],
        EXIT_VALIDATION),
    "simulate_t_end_negative": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--t-end", "-1", "--out", "out.csv"],
        EXIT_VALIDATION),
    "simulate_negative_seed": (
        {}, ["simulate", "--k1", "2", "--k2", "0.5", "--s", "1", "--noise", "0.01",
             "--seed", "-1", "--out", "out.csv"], EXIT_VALIDATION),
}

# [search] settings the grid cannot run on, each refused as the config loads
SEARCH_REFUSALS = {
    "k_grid_huge": "k_grid = 100000",  # 74.5 GiB of grid scratch
    "gamma_grid_huge": "gamma_grid = 100000000",  # 191 GiB of per-cell scores
    "k_max_inf": "k_max = inf",
    "gamma_max_inf": "gamma_max = inf",
    "mse_threshold_nan": "mse_threshold = nan",
    "mse_threshold_negative": "mse_threshold = -0.1",
    "flat_floor_nan": "flat_floor_v = nan",
    "flat_floor_inf": "flat_floor_v = inf",
}
_FOUR_SAMPLES = b"time_s,voltage_v\n0.0,0.0\n0.1,0.4\n0.2,0.1\n0.3,0.05\n"
HOSTILE_INPUTS.update({
    f"search_{name}": (
        {"c.ini": f"[search]\n{setting}\n".encode(), "t.csv": _FOUR_SAMPLES},
        ["--config", "c.ini", "estimate", "t.csv", "--s", "1"], EXIT_VALIDATION)
    for name, setting in SEARCH_REFUSALS.items()
})


@pytest.mark.parametrize("name", sorted(SEARCH_REFUSALS))
def test_search_refusals_score_no_grid_and_warn_nothing(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(f"[search]\n{SEARCH_REFUSALS[name]}\n")
    (tmp_path / "t.csv").write_bytes(_FOUR_SAMPLES)

    def no_grid(*args, **kwargs):
        raise AssertionError("grid scored")

    monkeypatch.setattr(fitting, "_grid_cells", no_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main(["--config", "c.ini", "estimate", "t.csv", "--s", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_hostile_inputs_exit_without_traceback(tmp_path, capsys, monkeypatch, name):
    files, argv, expected = HOSTILE_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    for rel, content in files.items():
        if content is None:
            (tmp_path / rel).mkdir()
        else:
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_bytes(content)

    # every probe must fail before a single sample array is built
    def no_allocation(*args, **kwargs):
        raise AssertionError("np.arange called")

    monkeypatch.setattr(np, "arange", no_allocation)
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "np.float64" not in err  # numbers print as plain floats
    assert not (tmp_path / "out.csv").exists()


@st.composite
def _capture_texts(draw):
    """A plausible capture of at most 200 rows: offset, pulse after an onset, noise."""
    n = draw(st.integers(4, 200))
    dt = draw(st.sampled_from([0.001, 0.01, 0.1]))
    k1, k2 = draw(st.floats(0.1, 20.0)), draw(st.floats(0.1, 20.0))
    amp, offset = draw(st.floats(0.0, 3.0)), draw(st.floats(-1.0, 1.0))
    onset = draw(st.floats(0.0, 1.0)) * n * dt
    noise = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    times = draw(st.sampled_from([0.0, 0.0, 2.5])) + np.arange(n) * dt
    after = np.clip(times - times[:1] - onset, 0.0, None)
    volts = offset + amp * (np.exp(-k2 * after) - np.exp(-k1 * after))
    volts += np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, noise, n)
    fmt = draw(st.sampled_from(["%.17g,%.17g", "%.3f,%.6f"]))
    return TRACE_HEADER + "\n" + "".join(fmt % row + "\n" for row in zip(times, volts))


@st.composite
def _trace_file_bytes(draw):
    if draw(st.booleans()):
        text = draw(_capture_texts())
    else:
        text, _ = draw(csv_texts(header=TRACE_HEADER, max_rows=20))
    data = text.encode()
    if draw(st.sampled_from([False] * 4 + [True])):  # invalid UTF-8 somewhere
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    return data


@settings(deadline=None, max_examples=150)
@given(
    data=_trace_file_bytes(),
    s=st.one_of(st.floats(0.3, 3.0).map(repr), st.sampled_from(["nan", "-1", "0", "inf", "1e-200"])),
    t0=st.one_of(
        st.sampled_from(["0", "auto"]),
        st.floats(0.0, 1.0).map(repr),
        st.sampled_from(["nan", "-1", "1e9", "soon"]),
    ),
)
def test_estimate_exits_with_a_documented_code(data, s, t0):
    # in process: an escaping exception fails the test with its traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", path, "--s", s, "--t0", t0])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NO_SIGNAL, EXIT_LOW_CONFIDENCE, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if code not in (EXIT_OK, EXIT_LOW_CONFIDENCE):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
