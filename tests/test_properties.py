"""Property-based checks of the channel model (hypothesis)."""

import dataclasses
import math
from unittest import mock

import numpy as np
from conftest import _fd_jacobian
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylink import fitting, kinetics, sensor
from spraylink.channel import TransmitterSpec, response_voltages
from spraylink.kinetics import KineticsParams
from spraylink.sensor import MQ3_SENSITIVITY, SensorSpec
from spraylink.traceio import Trace, preprocess

TX = TransmitterSpec(q=2.204e-6, te=0.5, rho_d=789.0, theta=math.radians(38.0))
SENSOR = SensorSpec(ein=5.0, rl=1000.0, ro=24000.0, sens=MQ3_SENSITIVITY)
TIMES = np.linspace(0.0, 10.0, 201)


@settings(deadline=None)
@given(
    k2=st.floats(0.05, 50.0),
    rate_ratio=st.floats(1.0, 25.0),
    gamma_share=st.floats(0.0, 1.0),
)
def test_response_is_invariant_under_swap_scale(k2, rate_ratio, gamma_share):
    # k1 >= k2, and both gammas stay in [1, 25], so C0 <= 0.034 kg/m^3 at
    # s = 1 m: inside the range where the MQ-3 curve is defined
    k1 = k2 * rate_ratio
    gamma = 1.0 + gamma_share * (25.0 / rate_ratio - 1.0)
    direct = response_voltages(
        dataclasses.replace(TX, gamma=gamma), KineticsParams(k1, k2), SENSOR, 1.0, TIMES
    )
    swapped = response_voltages(
        dataclasses.replace(TX, gamma=gamma * k1 / k2), KineticsParams(k2, k1), SENSOR, 1.0, TIMES
    )
    np.testing.assert_allclose(swapped, direct, rtol=1e-9, atol=0.0)


_RATE = st.one_of(
    st.sampled_from([0.05, 50.0]),  # on a bound of the default box
    st.floats(math.log(0.05), math.log(50.0)).map(math.exp),
)


@settings(deadline=None)
@given(
    k1=_RATE,
    k2=_RATE,
    # None: an independent k2; 0: the exact diagonal; else near-confluent
    confluence=st.one_of(st.none(), st.just(0.0), st.floats(-1e-5, 1e-5)),
    gamma=st.one_of(st.sampled_from([1.0, 25.0]), st.floats(1.0, 25.0)),
)
def test_channel_jacobian_matches_finite_differences(k1, k2, confluence, gamma):
    # TIMES starts at t = 0, where B = 0. The oracle is the mean of a
    # forward and a backward _fd_jacobian (a central difference, step 1e-5
    # relative) of a model that takes the expm1 form off the exact
    # diagonal: the two-exponential form's cancellation near confluence,
    # about eps / |(k1 - k2) t| relative, would swamp any difference step.
    if confluence is not None:
        k2 = min(max(k1 * (1.0 + confluence), 0.05), 50.0)
    p = np.array([k1, k2, gamma])
    trace_fit = fitting._TraceFit(Trace(TIMES, np.zeros_like(TIMES)), TX, SENSOR, 1.0)
    jac = trace_fit.jacobian(p)
    with mock.patch.object(kinetics, "CONFLUENT_REL_TOL", 1.0):
        r0 = trace_fit.residual(p)
        step = 1e-5 * np.abs(p)
        fd = 0.5 * (
            _fd_jacobian(trace_fit.residual, p, r0, step, np.full(3, np.inf))
            + _fd_jacobian(trace_fit.residual, p, r0, step, p)  # flipped steps
        )
    assert np.all(np.isfinite(jac))
    assert np.all(jac[0] == 0.0)  # B = 0 at t = 0
    err = np.max(np.abs(jac - fd), axis=0)
    assert np.all(err <= 1e-6 * np.linalg.norm(fd, axis=0)), err / np.linalg.norm(fd, axis=0)


_POINT = st.builds(
    lambda k1, k2, confluence, gamma: np.array(
        [k1, k2 if confluence is None else min(max(k1 * (1.0 + confluence), 0.05), 50.0), gamma]
    ),
    _RATE,
    _RATE,
    st.one_of(st.none(), st.just(0.0), st.floats(-1e-5, 1e-5)),
    st.one_of(st.sampled_from([1.0, 25.0]), st.floats(1.0, 25.0)),
)
_MEASURED = Trace(TIMES, 0.3 * np.sin(TIMES))


@settings(deadline=None)
@given(p=_POINT, q=_POINT)
def test_channel_model_is_evaluated_afresh_at_a_new_point(p, q):
    # LM asks for the Jacobian at the point of its last residual, and
    # _TraceFit reuses that evaluation; at any other point it must not
    def fresh():
        return fitting._TraceFit(_MEASURED, TX, SENSOR, 1.0)

    r, jac = fresh().residual(p), fresh().jacobian(p)
    trace_fit = fresh()
    assert np.array_equal(trace_fit.residual(p), r, equal_nan=True)
    assert np.array_equal(trace_fit.jacobian(p), jac)
    trace_fit.residual(q)
    assert np.array_equal(trace_fit.jacobian(p), jac)
    assert np.array_equal(trace_fit.residual(p), r, equal_nan=True)
    moved = p.copy()
    trace_fit = fresh()
    trace_fit.residual(moved)
    moved[:] = q  # the same array, changed in place, is a new point
    assert np.array_equal(trace_fit.jacobian(moved), fresh().jacobian(q))


@settings(deadline=None, max_examples=60)
@given(
    k1=st.floats(math.log(0.1), math.log(20.0)).map(math.exp),
    k2=st.floats(math.log(0.1), math.log(20.0)).map(math.exp),
    gamma=st.floats(1.0, 10.0),
    s=st.floats(0.8, 1.5),
    sigma=st.sampled_from([0.0, 1e-3, 0.01, 0.05]),
    seed=st.integers(0, 2**32 - 1),
    refine_top=st.integers(1, 12),
    n=st.sampled_from([TIMES.size, 1001, 2637]),  # no probe, one, and five
)
def test_pruned_grid_is_a_prefix_of_the_full_grid(k1, k2, gamma, s, sigma, seed, refine_top, n):
    # C0 <= 0.027 kg/m^3 for gamma <= 10 at s >= 0.8 m: the truth is defined
    times = np.linspace(0.0, 10.0, n)
    volts = response_voltages(
        dataclasses.replace(TX, gamma=gamma), KineticsParams(k1, k2), SENSOR, s, times
    )
    trace = Trace(times, volts + np.random.default_rng(seed).normal(0.0, sigma, n))
    search = fitting.SearchConfig(refine_top=refine_top)
    every_cell = dataclasses.replace(search, refine_top=search.k_grid**2 * search.gamma_grid)
    full = fitting._grid_cells(trace, TX, SENSOR, s, every_cell)
    pruned = fitting._grid_cells(trace, TX, SENSOR, s, search)
    assert len(pruned) >= min(refine_top, len(full))
    assert np.array_equal(pruned, full[: len(pruned)])


@settings(deadline=None, max_examples=25)
@given(
    k2=st.floats(math.log(0.1), math.log(5.0)).map(math.exp),
    rate_ratio=st.floats(1.5, 10.0),
    gamma=st.floats(1.0, 10.0),
    s=st.floats(0.8, 1.3),
    sigma=st.floats(math.log(1e-3), math.log(0.03)).map(math.exp),
    seed=st.integers(0, 2**32 - 1),
)
def test_distinct_starts_lose_nothing_against_every_top_cell(k2, rate_ratio, gamma, s, sigma, seed):
    # Non-confluent truths: a later start that enters the basin of a minimum
    # already found is dropped, and none of the best grid cells, each
    # refined to the end, finds a lower MSE than the estimate. Noise is at
    # least 1e-3 V: the MSE at a minimum rounds to about eps V / sigma
    # relative, which exceeds 1e-12 below that (a noiseless trace fits to
    # about 1e-33 V^2). Noise can pull the estimate itself onto k1 ~ k2,
    # where the two-exponential form of B leaves the MSE flat to about
    # 2.4e-10 relative (see kinetics.CONFLUENT_REL_TOL); there the bound is
    # that floor.
    times = np.arange(1001) * 0.01
    volts = response_voltages(
        dataclasses.replace(TX, gamma=gamma), KineticsParams(k2 * rate_ratio, k2), SENSOR, s, times
    )
    trace = Trace(times, volts + np.random.default_rng(seed).normal(0.0, sigma, times.size))
    search = fitting.SearchConfig()
    est = fitting.estimate_channel_params(trace, TX, SENSOR, s, search)
    trace_fit = fitting._TraceFit(trace, TX, SENSOR, s)
    every = min(
        fitting.levenberg_marquardt(trace_fit.problem(cell[1:], search)).mse
        for cell in fitting._grid_cells(trace, TX, SENSOR, s, search)[: search.refine_top]
    )
    floor = 2.4e-10 if abs(est.k1 - est.k2) <= 1e-3 * max(est.k1, est.k2) else 1e-12
    assert est.mse <= every * (1.0 + floor), (est.mse, every)


_SCOPE_B = st.floats(*np.log(sensor.DETECTION_SCOPE)).map(math.exp)  # kg/m^3


@given(eout=st.floats(1e-6, 1.0 - 1e-9).map(lambda share: share * SENSOR.ein))
def test_voltage_resistance_round_trip(eout):
    rs = sensor.resistance_from_voltage(eout, SENSOR)
    assert rs > 0.0
    assert math.isclose(sensor.voltage_from_resistance(rs, SENSOR), eout, rel_tol=1e-12)


@given(rs=st.floats(math.log(1e-3), math.log(1e6)).map(lambda x: SENSOR.rl * math.exp(x)))
def test_resistance_voltage_round_trip(rs):
    # (Ein / Eout - 1) cancels to about eps RL / R_S relative
    eout = sensor.voltage_from_resistance(rs, SENSOR)
    assert 0.0 < eout < SENSOR.ein
    back = sensor.resistance_from_voltage(eout, SENSOR)
    assert math.isclose(back, rs, rel_tol=1e-12 * (1.0 + SENSOR.rl / rs))


@given(b=_SCOPE_B)
def test_concentration_voltage_round_trip(b):
    eout = sensor.voltage_from_sensitivity(sensor.sensitivity(b, MQ3_SENSITIVITY), SENSOR)
    assert 0.0 < eout < SENSOR.ein
    assert math.isclose(sensor.concentration_from_voltage(eout, SENSOR), b, rel_tol=1e-9)


@given(b=_SCOPE_B)
def test_voltage_concentration_round_trip(b):
    eout = sensor.voltage_from_sensitivity(sensor.sensitivity(b, MQ3_SENSITIVITY), SENSOR)
    back = sensor.concentration_from_voltage(eout, SENSOR)
    again = sensor.voltage_from_sensitivity(sensor.sensitivity(back, MQ3_SENSITIVITY), SENSOR)
    assert math.isclose(again, eout, rel_tol=1e-12)


@given(
    steps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=40),
    volts=st.lists(st.floats(-1.0, 5.0), min_size=41, max_size=41),
    start=st.floats(0.0, 100.0),
    at=st.floats(0.0, 1.0),
)
def test_preprocess_is_idempotent_on_a_prepared_trace(steps, volts, start, at):
    times = start + np.concatenate(([0.0], np.cumsum(steps)))
    raw = Trace(times, np.array(volts[: times.size]))
    once = preprocess(raw, t0=min(float(times[0] + at * (times[-1] - times[0])), times[-1]))
    twice = preprocess(once, t0=0.0)
    assert np.array_equal(twice.times, once.times)
    assert np.array_equal(twice.volts, once.volts)
    moved = {"t0": None, "offset_v": None}  # the only metadata that may change
    assert {**twice.meta, **moved} == {**once.meta, **moved}
