"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
on success; failures surface through pytest as usual). Tolerances are fixed
here and are not tunable.
"""

import dataclasses
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import rk4_trajectory

from spraylink import cli
from spraylink.calibration import reference_resistance
from spraylink.channel import (
    TransmitterSpec,
    impulse_response,
    initial_concentration,
    sample_response,
)
from spraylink.fitting import estimate_channel_params, fit_sensitivity
from spraylink.kinetics import KineticsParams, bound_concentration
from spraylink.sensor import (
    DETECTION_SCOPE,
    MQ3_SENSITIVITY,
    SensitivityTable,
    SensorSpec,
    bundled_sensitivity_table,
    sensitivity,
    voltage_from_sensitivity,
)
from spraylink.traceio import Trace

BENCH_TX = TransmitterSpec(q=2.204e-6, te=0.5, rho_d=789.0, theta=math.radians(38.0))
BENCH_SENSOR = SensorSpec(ein=5.0, rl=1000.0, ro=24000.0, sens=MQ3_SENSITIVITY)
TIME_GRID = np.arange(0, 1001) * 0.01  # 10 s at 100 Hz, the reporting window
DISTANCES = (0.9, 1.0, 1.1, 1.2)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def synthetic_trace(k1, k2, gamma, s, sigma=0.0, seed=0):
    tx = dataclasses.replace(BENCH_TX, gamma=gamma)
    trace = sample_response(tx, KineticsParams(k1, k2), BENCH_SENSOR, s, TIME_GRID)
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        trace = Trace(trace.times, trace.volts + rng.normal(0.0, sigma, len(trace)))
    return trace


def test_criterion_01_reference_resistance():
    with criterion(1, "Ro calibration"):
        assert reference_resistance(0.2, 5.0, 1000.0) == 24000.0


def test_criterion_02_initial_concentration():
    with criterion(2, "initial concentration"):
        got = initial_concentration(BENCH_TX, 1.0)
        independent = (
            3.0 * 2.204e-6 * 0.5 * 789.0 * 1.0
            / (math.pi * 1.0**3 * math.tan(math.radians(38.0)) ** 2)
        )
        assert abs(got - independent) / independent < 1e-4
        assert abs(got - 1.3602e-3) / 1.3602e-3 < 1e-4


def test_criterion_03_kinetics_oracle():
    # 100 random rate pairs; the RK4 step is kmax*dt = 0.02, which bounds the
    # truncation error near 1e-9 relative (two orders under the tolerance)
    # while keeping the sweep inside the runtime budget
    with criterion(3, "kinetics analytic vs RK4"):
        rng = np.random.default_rng(20260808)
        worst_rel = 0.0
        worst_cons = 0.0
        for _ in range(100):
            k1, k2 = rng.uniform(0.05, 20.0, size=2)
            kin = KineticsParams(k1, k2)
            t_end = 10.0 / min(k1, k2)
            dt = 0.02 / max(k1, k2)
            t, c, b, z = rk4_trajectory(1.0, kin, t_end, dt)
            b_exact = bound_concentration(1.0, kin, t)
            mask = b_exact > 0.0
            rel = np.max(np.abs(b[mask] - b_exact[mask]) / b_exact[mask])
            cons = np.max(np.abs(c + b + z - 1.0))
            worst_rel = max(worst_rel, float(rel))
            worst_cons = max(worst_cons, float(cons))
        assert worst_rel < 1e-6, worst_rel
        assert worst_cons < 1e-8, worst_cons


def test_criterion_04_confluence_stability():
    with criterion(4, "confluence stability"):
        for k in (0.1, 1.0, 10.0):
            t = np.linspace(1e-6 / k, 10.0 / k, 2000)
            exact = bound_concentration(1.0, KineticsParams(k, k), t)
            near = bound_concentration(1.0, KineticsParams(k, k * (1.0 + 1e-9)), t)
            rel = np.max(np.abs(near - exact) / exact)
            assert rel < 1e-6, (k, rel)


def test_criterion_05_sensitivity_fit():
    with criterion(5, "sensitivity fit"):
        truth = MQ3_SENSITIVITY
        x = np.logspace(math.log10(5e-5), math.log10(1e-2), 50)
        exact_table = SensitivityTable(x, truth.a * x**truth.b + truth.c)
        coeffs, result = fit_sensitivity(exact_table)
        for got, want in ((coeffs.a, truth.a), (coeffs.b, truth.b), (coeffs.c, truth.c)):
            assert abs(got - want) / abs(want) < 1e-6

        coeffs, result = fit_sensitivity(bundled_sensitivity_table())
        assert result.rmse <= 0.0471, result.rmse
        for got, want in ((coeffs.a, truth.a), (coeffs.b, truth.b), (coeffs.c, truth.c)):
            assert abs(got - want) / abs(want) < 0.10


def test_criterion_06_noiseless_parameter_recovery():
    with criterion(6, "noiseless parameter recovery"):
        truth = (2.0, 0.5, 3.0)
        for s in DISTANCES:
            trace = synthetic_trace(*truth, s=s)
            est = estimate_channel_params(trace, BENCH_TX, BENCH_SENSOR, s)
            assert est.mse < 1e-10, (s, est.mse)
            for got, want in zip((est.k1, est.k2, est.gamma), truth):
                assert abs(got - want) / want < 1e-3, (s, got, want)


def test_criterion_07_noisy_parameter_recovery():
    with criterion(7, "noisy parameter recovery"):
        truth = np.array([2.0, 0.5, 3.0])
        rel_errors = []
        for s in DISTANCES:
            for seed in range(20):
                trace = synthetic_trace(*truth, s=s, sigma=0.01, seed=seed * 37 + int(s * 10))
                est = estimate_channel_params(trace, BENCH_TX, BENCH_SENSOR, s)
                assert est.mse <= 0.021, (s, seed, est.mse)
                got = np.array([est.k1, est.k2, est.gamma])
                rel_errors.append(np.abs(got - truth) / truth)
        medians = np.median(np.array(rel_errors), axis=0)
        assert np.all(medians < 0.05), medians


def test_criterion_08_degeneracy_canonicalization():
    with criterion(8, "swap-scale canonicalization"):
        straight = synthetic_trace(2.0, 0.5, 3.0, s=1.0)
        mirrored = synthetic_trace(0.5, 2.0, 12.0, s=1.0)
        est_a = estimate_channel_params(straight, BENCH_TX, BENCH_SENSOR, 1.0)
        est_b = estimate_channel_params(mirrored, BENCH_TX, BENCH_SENSOR, 1.0)
        assert est_a.canonical and est_b.canonical
        for a, b in ((est_a.k1, est_b.k1), (est_a.k2, est_b.k2), (est_a.gamma, est_b.gamma)):
            assert abs(a - b) / b < 1e-6, (a, b)


def test_criterion_09_monotonicity_suite():
    with criterion(9, "monotonicity and limits"):
        # concentration -> voltage strictly increasing across the scope
        b = np.linspace(DETECTION_SCOPE[0], DETECTION_SCOPE[1], 1000)
        v = voltage_from_sensitivity(sensitivity(b, MQ3_SENSITIVITY), BENCH_SENSOR)
        assert np.all(np.diff(v) > 0.0)
        # C0 strictly decreasing in s with the exact 1/8 doubling ratio
        s = np.linspace(0.3, 3.0, 100)
        c0 = np.array([initial_concentration(BENCH_TX, float(si)) for si in s])
        assert np.all(np.diff(c0) < 0.0)
        assert initial_concentration(BENCH_TX, 0.9) / initial_concentration(BENCH_TX, 1.8) == 8.0
        # voltage limits at both ends of the pulse
        kin = KineticsParams(2.0, 0.5)
        assert impulse_response(BENCH_TX, kin, BENCH_SENSOR, 1.0, 0.0) == 0.0
        t_inf = 1e3 / min(kin.k1, kin.k2)
        assert impulse_response(BENCH_TX, kin, BENCH_SENSOR, 1.0, t_inf) < 1e-6


def test_criterion_10_distance_trend(tmp_path, capsys):
    # noisy estimates with k1 decreasing across distance (k2 fixed), fed
    # through the trend command
    with criterion(10, "distance trend verdicts"):
        ground = {0.9: (3.0, 2.0), 1.0: (2.5, 3.0), 1.1: (2.0, 4.0), 1.2: (1.5, 5.0)}
        est_dir = tmp_path / "estimates"
        est_dir.mkdir()
        count = 0
        for s, (k1, gamma) in ground.items():
            for seed in range(3):
                trace = synthetic_trace(k1, 0.5, gamma, s=s, sigma=0.01, seed=seed + int(s * 100))
                est = estimate_channel_params(trace, BENCH_TX, BENCH_SENSOR, s)
                payload = {"s": s, "k1": est.k1, "k2": est.k2, "gamma": est.gamma,
                           "mse": est.mse, "canonical": est.canonical}
                (est_dir / f"est_{count}.json").write_text(json.dumps(payload))
                count += 1
        out_csv = tmp_path / "trend.csv"
        code = cli.main(["trend", str(est_dir), "--out", str(out_csv)])
        assert code == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "k1: strictly decreasing" in printed
        assert "k2: within +/-5% of mean" in printed
