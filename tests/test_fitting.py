"""Least-squares driver, problem adapters, and trend aggregation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import _fd_jacobian

from spraylink import channel, fitting, kinetics
from spraylink.channel import response_voltages, sample_response
from spraylink.errors import (
    AlignmentError,
    InsufficientDataError,
    NoSignalError,
    ValidationError,
)
from spraylink.fitting import (
    ChannelEstimate,
    FitProblem,
    SearchConfig,
    canonicalize,
    distance_trend,
    estimate_channel_params,
    fit_sensitivity,
    levenberg_marquardt,
    mse,
)
from spraylink.kinetics import KineticsParams
from spraylink.sensor import MQ3_SENSITIVITY, SensitivityCoeffs, SensitivityTable
from spraylink.traceio import Trace


def make_trace(times, volts):
    return Trace(np.asarray(times, float), np.asarray(volts, float))


# ---------------------------------------------------------------- mse


def test_mse_identical_traces():
    t = make_trace([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
    assert mse(t, t) == 0.0


def test_mse_constant_offset():
    t = np.linspace(0.0, 1.0, 11)
    a = make_trace(t, np.zeros(11))
    b = make_trace(t, np.full(11, 0.1))
    assert mse(a, b) == pytest.approx(0.01, rel=1e-12)
    assert mse(b, a) == mse(a, b)


def test_mse_hand_arithmetic():
    a = make_trace([0.0, 1.0], [0.1, -0.3])
    b = make_trace([0.0, 1.0], [0.0, 0.0])
    assert mse(a, b) == pytest.approx(0.05, rel=1e-12)


def test_mse_misaligned_grids():
    a = make_trace([0.0, 1.0], [0.1, 0.2])
    b = make_trace([0.0, 1.1], [0.1, 0.2])
    with pytest.raises(AlignmentError, match="resample"):
        mse(a, b)
    with pytest.raises(AlignmentError):
        mse(a, make_trace([0.0, 0.5, 1.0], [0.0, 0.0, 0.0]))


# ------------------------------------------- levenberg_marquardt


def _unit_jacobian(p):
    """Jacobian of the residual p - const."""
    return np.eye(np.size(p))


def test_lm_linear_residual():
    problem = FitProblem(
        residual=lambda p: p - 3.0,
        jacobian=_unit_jacobian,
        bounds=((-100.0, 100.0),),
        x0=np.array([0.0]),
    )
    result = levenberg_marquardt(problem)
    assert result.converged
    assert result.iterations <= 3
    assert result.params[0] == pytest.approx(3.0, abs=1e-9)


def test_lm_power_law_recovery():
    truth = (0.0116, -0.5855, -0.0743)
    x = np.logspace(math.log10(5e-5), math.log10(1e-2), 50)
    y = truth[0] * x ** truth[1] + truth[2]

    problem = FitProblem(
        residual=lambda p: p[0] * x ** p[1] + p[2] - y,
        jacobian=lambda p: np.column_stack((x ** p[1], p[0] * x ** p[1] * np.log(x), np.ones_like(x))),
        bounds=((1e-8, 10.0), (-5.0, -0.01), (-10.0, 10.0)),
        x0=np.array([0.01, -0.5, 0.0]),
    )
    result = levenberg_marquardt(problem)
    assert result.converged
    rel = np.abs(result.params - np.array(truth)) / np.abs(truth)
    assert np.max(rel) < 1e-6


def test_lm_rosenbrock():
    def residual(p):
        return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

    problem = FitProblem(
        residual=residual,
        jacobian=lambda p: np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]]),
        bounds=((-5.0, 5.0), (-5.0, 5.0)),
        x0=np.array([-1.2, 1.0]),
    )
    result = levenberg_marquardt(problem)
    assert result.converged
    assert np.max(np.abs(result.params - 1.0)) < 1e-6


def test_lm_never_raises_on_nonconvergence_and_descends():
    # noisy, badly scaled problem: must return a result, not raise, and the
    # final cost can never exceed the initial cost
    rng = np.random.default_rng(2)
    x = np.linspace(0.1, 1.0, 30)
    y = rng.normal(size=30)

    def residual(p):
        return p[0] * np.sin(40.0 * p[1] * x) - y

    def jacobian(p):
        return np.column_stack((np.sin(40.0 * p[1] * x), 40.0 * p[0] * x * np.cos(40.0 * p[1] * x)))

    x0 = np.array([0.5, 0.5])
    problem = FitProblem(residual=residual, jacobian=jacobian, bounds=((-2.0, 2.0), (-2.0, 2.0)), x0=x0)
    result = levenberg_marquardt(problem)
    r0 = residual(x0)
    assert result.mse <= float(r0 @ r0) / r0.size + 1e-15
    assert isinstance(result.converged, bool)
    assert result.termination in ("gradient", "step", "max_iter", "no_descent")
    assert result.converged == (result.termination in ("gradient", "step"))


def test_lm_respects_bounds():
    problem = FitProblem(
        residual=lambda p: p - 3.0, jacobian=_unit_jacobian, bounds=((-1.0, 1.0),), x0=np.array([0.0])
    )
    result = levenberg_marquardt(problem)
    assert result.params[0] == 1.0  # clipped at the boundary
    # pinned at the bound, where r and J stay parallel: the step test ends it
    assert result.termination == "step" and result.converged
    assert result.at_bound == (True,)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_lm_gradient_test_does_not_depend_on_scale(scale):
    # an inconsistent linear system: at its least-squares solution r != 0 is
    # orthogonal to both columns of J, whatever the units of r
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 4.0])
    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: scale * (a @ p - b),
            jacobian=lambda p: scale * a,
            bounds=((-10.0, 10.0), (-10.0, 10.0)),
            x0=[0.0, 0.0],
        )
    )
    assert result.termination == "gradient" and result.converged
    assert result.at_bound == (False, False)
    assert (result.iterations, result.residual_evals) == (3, 4)  # the same at every scale
    np.testing.assert_allclose(result.params, np.linalg.lstsq(a, b, rcond=None)[0], rtol=1e-9)


def test_lm_gradient_test_takes_a_zero_column_or_residual_as_orthogonal():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 4.0])
    box = ((-10.0, 10.0),) * 3
    # p[2] does not enter the residual: its column of J is 0
    jac = np.column_stack((a, np.zeros(3)))
    ignored = FitProblem(
        residual=lambda p: a @ p[:2] - b, jacobian=lambda p: jac, bounds=box, x0=[0.0, 0.0, 1.0]
    )
    exact = FitProblem(
        residual=lambda p: a @ p[:2] - a @ [1.0, 2.0], jacobian=lambda p: jac, bounds=box, x0=[1.0, 2.0, 1.0]
    )
    for problem in (ignored, exact):
        result = levenberg_marquardt(problem)
        assert result.termination == "gradient" and result.converged
    assert result.iterations == 0 and result.mse == 0.0


def test_lm_gradient_test_is_not_met_by_a_column_whose_norm_underflows():
    # ||J_2||^2 = 1e-340 underflows to 0 while J_2' r = 1e-170 does not:
    # that cosine is inf, not a division error, and never ends on "gradient"
    jac = np.diag([1.0, 1.0, 1e-170])
    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: jac @ p - np.array([1.0, 2.0, -1.0]),
            jacobian=lambda p: jac,
            bounds=((-10.0, 10.0),) * 3,
            x0=[0.0, 0.0, 0.0],
        )
    )
    assert (jac.T @ jac)[2, 2] == 0.0
    assert result.termination != "gradient" and result.iterations > 0


def test_lm_gradient_test_is_not_met_by_a_nan_cosine():
    # at x0, J' r = (0, 0, NaN): two cosines are 0 and the third is NaN
    jac = np.diag([1.0, 1.0, np.nan])
    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: np.array([p[0] - 1.0, p[1] - 2.0, 1.0]),
            jacobian=lambda p: jac,
            bounds=((-10.0, 10.0),) * 3,
            x0=[1.0, 2.0, 0.5],
        )
    )
    assert result.termination != "gradient" and not result.converged


def test_lm_stops_after_max_iterations():
    # r = exp(-p) descends by a Gauss-Newton step of 1 without end, and one
    # residual is always parallel to its one column
    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: np.exp(-p),
            jacobian=lambda p: -np.exp(-p)[:, None],
            bounds=((0.0, 1e3),),
            x0=[0.0],
        )
    )
    assert result.termination == "max_iter" and not result.converged
    assert result.iterations == fitting.MAX_ITERATIONS
    assert result.at_bound == (False,)


def test_lm_stops_when_no_damping_descends():
    x0 = np.array([1.0])

    def residual(p):
        # large steps at any damping, and no finite residual but at the start
        return p - 1e6 if np.array_equal(p, x0) else np.array([np.nan])

    result = levenberg_marquardt(
        FitProblem(residual=residual, jacobian=_unit_jacobian, bounds=((-10.0, 10.0),), x0=x0)
    )
    assert result.termination == "no_descent" and not result.converged
    assert result.params[0] == 1.0 and result.iterations == 0


def test_lm_abandons_before_it_evaluates_a_point():
    asked = []

    def abandon(p):
        asked.append(float(p[0]))
        return p[0] > 1.0

    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: p - 3.0,
            jacobian=_unit_jacobian,
            bounds=((-10.0, 10.0),),
            x0=[0.0],
            abandon=abandon,
        )
    )
    assert result.termination == "abandoned" and not result.converged
    assert asked[0] == 0.0 and asked[1] > 1.0 and len(asked) == 2
    # the start was evaluated; the first trial step was not
    assert (result.residual_evals, result.jacobian_evals, result.iterations) == (1, 1, 0)
    assert result.params[0] == 0.0 and result.mse == 9.0
    assert math.isnan(result.jac_condition)  # a J was taken, but its condition is not

    result = levenberg_marquardt(
        FitProblem(
            residual=lambda p: p - 3.0,
            jacobian=_unit_jacobian,
            bounds=((-10.0, 10.0),),
            x0=[0.0],
            abandon=lambda p: True,
        )
    )
    assert result.termination == "abandoned" and not result.converged
    assert (result.residual_evals, result.jacobian_evals, result.iterations) == (0, 0, 0)
    assert result.params[0] == 0.0 and math.isnan(result.mse)


def test_lm_input_validation():
    with pytest.raises(ValidationError):
        FitProblem(residual=lambda p: p, jacobian=_unit_jacobian, bounds=((0.0, 1.0),), x0=np.array([2.0]))
    with pytest.raises(ValidationError):
        FitProblem(
            residual=lambda p: p, jacobian=_unit_jacobian, bounds=((0.0, math.inf),), x0=np.array([0.5])
        )
    problem = FitProblem(
        residual=lambda p: p * np.nan, jacobian=_unit_jacobian, bounds=((0.0, 1.0),), x0=np.array([0.5])
    )
    with pytest.raises(ValidationError):
        levenberg_marquardt(problem)


def test_lm_probes_stay_inside_a_box_narrower_than_the_fd_step():
    # every point LM evaluates, residual or Jacobian, lies in a box 1e-7
    # wide, a tenth of a 1e-6 relative difference step
    lo, hi = 1.0, 1.0 + 1e-7

    def residual(p):
        assert lo <= p[0] <= hi, p
        return np.array([p[0] - 2.0, 0.5 * p[0]])

    def jacobian(p):
        assert lo <= p[0] <= hi, p
        return np.array([[1.0], [0.5]])

    result = levenberg_marquardt(
        FitProblem(residual=residual, jacobian=jacobian, bounds=((lo, hi),), x0=[hi])
    )
    assert lo <= result.params[0] <= hi


def test_lm_counts_evaluations():
    calls = {"residual": 0, "jacobian": 0}

    def residual(p):
        calls["residual"] += 1
        return np.array([p[0] - 3.0, 2.0 * (p[1] + 1.0) ** 2])

    def jacobian(p):
        calls["jacobian"] += 1
        return np.array([[1.0, 0.0], [0.0, 4.0 * (p[1] + 1.0)]])

    box = ((-10.0, 10.0), (-10.0, 10.0))
    result = levenberg_marquardt(
        FitProblem(residual=residual, jacobian=jacobian, bounds=box, x0=[0.0, 0.0])
    )
    assert result.residual_evals == calls["residual"]
    assert result.jacobian_evals == calls["jacobian"] > 0


def test_fd_jacobian_against_analytic():
    a, b, c = 0.0116, -0.5855, -0.0743
    x = np.logspace(-4, -2, 20)

    def residual(p):
        return p[0] * x ** p[1] + p[2] - 1.0

    p = np.array([a, b, c])
    J = _fd_jacobian(residual, p, residual(p), 1e-6 * np.abs(p), np.array([1.0, 1.0, 1.0]))
    analytic = np.column_stack([x**b, a * x**b * np.log(x), np.ones_like(x)])
    np.testing.assert_allclose(J, analytic, rtol=1e-4)


# --------------------------------------------------- fit_sensitivity


def test_fit_sensitivity_exact_recovery():
    truth = MQ3_SENSITIVITY
    x = np.logspace(math.log10(5e-5), math.log10(1e-2), 50)
    table = SensitivityTable(x, truth.a * x**truth.b + truth.c)
    coeffs, result = fit_sensitivity(table)
    assert result.rmse < 1e-8
    assert coeffs.a == pytest.approx(truth.a, rel=1e-6)
    assert coeffs.b == pytest.approx(truth.b, rel=1e-6)
    assert coeffs.c == pytest.approx(truth.c, rel=1e-6)


def test_fit_sensitivity_noisy_rmse():
    truth = MQ3_SENSITIVITY
    x = np.logspace(math.log10(5e-5), math.log10(1e-2), 50)
    clean = truth.a * x**truth.b + truth.c
    for seed in range(20):
        rng = np.random.default_rng(seed)
        table = SensitivityTable(x, clean + rng.normal(0.0, 0.01, size=x.size))
        _, result = fit_sensitivity(table)
        assert abs(result.rmse - 0.01) < 0.005, (seed, result.rmse)


def test_fit_sensitivity_degenerate_table():
    x = np.logspace(-4, -2, 10)
    table = SensitivityTable(x, np.full(10, 1.5))
    with pytest.warns(UserWarning, match="rank-deficient"):
        _, result = fit_sensitivity(table)
    assert not result.converged


def test_fit_sensitivity_pinned_to_its_bounds_is_not_converged():
    # x**b overflows at 1e-300 for most b in the box; the fit ends on a and b's bounds
    x = np.array([1e-300, 1e-200, 1e-100, 1e300])
    table = SensitivityTable(x, np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.warns(UserWarning, match="bound of a, b;"):
        coeffs, result = fit_sensitivity(table)
    assert (coeffs.a, coeffs.b) == (1e-8, -0.01)
    assert result.at_bound == (True, True, False) and not result.converged


def test_fit_sensitivity_validation():
    with pytest.raises(ValidationError, match="under-determined"):
        fit_sensitivity(SensitivityTable(np.array([1e-4, 2e-4, 3e-4]), np.ones(3)))
    with pytest.raises(ValidationError):
        fit_sensitivity(SensitivityTable(np.array([2e-4, 1e-4, 3e-4, 4e-4]), np.ones(4)))


# -------------------------------------- estimate_channel_params


def _synthetic_trace(bench_tx, bench_sensor, k1, k2, gamma, s, sigma=0.0, seed=0):
    times = np.arange(0, 1001) * 0.01
    tx = dataclasses.replace(bench_tx, gamma=gamma)
    trace = sample_response(tx, KineticsParams(k1, k2), bench_sensor, s, times)
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        trace = Trace(trace.times, trace.volts + rng.normal(0.0, sigma, len(trace)))
    return trace


def test_estimate_noiseless_self_consistency(bench_tx, bench_sensor):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)
    assert est.canonical
    assert est.mse < 1e-12
    assert est.k1 == pytest.approx(2.0, rel=1e-3)
    assert est.k2 == pytest.approx(0.5, rel=1e-3)
    assert est.gamma == pytest.approx(3.0, rel=1e-3)
    assert not est.low_confidence


def test_estimate_swapped_generation_same_canonical(bench_tx, bench_sensor):
    a = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0)
    b = _synthetic_trace(bench_tx, bench_sensor, 0.5, 2.0, 12.0, s=1.0)
    est_a = estimate_channel_params(a, bench_tx, bench_sensor, 1.0)
    est_b = estimate_channel_params(b, bench_tx, bench_sensor, 1.0)
    assert est_a.k1 == pytest.approx(est_b.k1, rel=1e-6)
    assert est_a.k2 == pytest.approx(est_b.k2, rel=1e-6)
    assert est_a.gamma == pytest.approx(est_b.gamma, rel=1e-6)


def test_estimate_grid_brackets_truth(bench_tx, bench_sensor):
    # the coarse grid alone must land within one log step of the truth
    from spraylink.channel import response_voltages

    search = SearchConfig()
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0)
    k_nodes = np.geomspace(search.k_min, search.k_max, search.k_grid)
    g_nodes = np.geomspace(search.gamma_min, search.gamma_max, search.gamma_grid)
    best = None
    for k1 in k_nodes:
        for k2 in k_nodes:
            for gamma in g_nodes:
                v = response_voltages(
                    dataclasses.replace(bench_tx, gamma=float(gamma)),
                    KineticsParams(float(k1), float(k2)),
                    bench_sensor,
                    1.0,
                    trace.times,
                )
                diff = v - trace.volts
                score = float(diff @ diff) / diff.size
                if best is None or score < best[0]:
                    best = (score, float(k1), float(k2), float(gamma))
    _, k1, k2, gamma, canonical = (best[0], *canonicalize(best[1], best[2], best[3]))
    k_step = math.log(search.k_max / search.k_min) / (search.k_grid - 1)
    g_step = math.log(search.gamma_max / search.gamma_min) / (search.gamma_grid - 1)
    assert abs(math.log(k1 / 2.0)) <= k_step + 1e-9
    assert abs(math.log(k2 / 0.5)) <= k_step + 1e-9
    assert abs(math.log(gamma / 3.0)) <= g_step + 1e-9


def test_estimate_noisy_recovery(bench_tx, bench_sensor):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=3)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)
    assert est.k1 == pytest.approx(2.0, rel=0.05)
    assert est.k2 == pytest.approx(0.5, rel=0.05)
    assert est.gamma == pytest.approx(3.0, rel=0.05)
    assert est.mse < 2e-4  # about sigma^2


def _reference_grid_cells(trace, tx, sensor, s, search):
    """The grid scored one response_voltages call per cell, refusals skipped."""
    k_nodes = np.geomspace(search.k_min, search.k_max, search.k_grid)
    g_nodes = np.geomspace(search.gamma_min, search.gamma_max, search.gamma_grid)
    cells = []
    for k1 in k_nodes:
        for k2 in k_nodes:
            for gamma in g_nodes:
                try:
                    with np.errstate(over="ignore"):
                        v = response_voltages(
                            dataclasses.replace(tx, gamma=gamma),
                            KineticsParams(k1, k2),
                            sensor,
                            s,
                            trace.times,
                        )
                except ValidationError:
                    continue
                diff = v - trace.volts
                cells.append((float(diff @ diff) / diff.size, k1, k2, gamma))
    cells.sort()
    return np.array(cells)


def _noisy_trace(tx, sensor, k1, k2, gamma, s, times):
    clean = sample_response(
        dataclasses.replace(tx, gamma=gamma), KineticsParams(k1, k2), sensor, s, times
    )
    noise = np.random.default_rng(5).normal(0.0, 0.01, times.size)
    return Trace(times, clean.volts + noise)


def _assert_same_cells(cells, ref):
    """Same feasible cells, in the same order, with the same scores."""
    assert cells.shape == ref.shape
    assert np.array_equal(cells[:, 1:], ref[:, 1:])
    np.testing.assert_allclose(cells[:, 0], ref[:, 0], rtol=1e-12, atol=0.0)


_CONFLUENT_K = float(np.geomspace(0.05, 50.0, 16)[7])
_STEEP = SensitivityCoeffs(a=1e-13, b=-5.0, c=0.01)
_DEFAULT = SearchConfig()
# every off-diagonal rate pair lies within CONFLUENT_REL_TOL: the expm1 branch
_EXPM1_BOX = SearchConfig(k_min=1.0, k_max=1.0 + 5e-7)
_SMALL_GRID = SearchConfig(k_grid=5, gamma_grid=3)
_TOP1 = SearchConfig(refine_top=1)
# samples per time chunk of the default grid
_CHUNK = fitting._GRID_BLOCK_ELEMENTS // _DEFAULT.k_grid**2
# slow rates whose B still rises at the end of a 14 s trace
_LATE_K = (0.1, 0.05)
# rates whose pre-pass ranks cells that score at most tau outside its candidates
_SWEPT_K = (1.0, 10.0)


def _full(search):
    """search with refine_top at every cell: the grid keeps every feasible cell."""
    return dataclasses.replace(search, refine_top=search.k_grid**2 * search.gamma_grid)


# (k1, k2, gamma, s, duration, samples, sensitivity, search) of a noisy trace
_GRID_CASE_ARGS = "k1, k2, gamma, s, t_end, n, sens, search"
_GRID_CASES = [
    pytest.param(
        2.0, 0.5, 3.0, 0.5, 10.0, 1001, None, _DEFAULT, id="near_field_infeasible"
    ),
    pytest.param(
        _CONFLUENT_K, 1.01 * _CONFLUENT_K, 2.5, 1.0, 10.0, 1001, None, _DEFAULT,
        id="confluent",
    ),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 5001, None, _DEFAULT, id="split_gamma_blocks"),
    pytest.param(
        2.0, 0.5, 3.0, 1.0, 10.0, 1001, _STEEP, _DEFAULT, id="steep_tail_overflow"
    ),
    # fast cells decay into subnormal Bhat whose B = c0 * Bhat rounds to 0
    pytest.param(2.0, 0.5, 3.0, 1.0, 100.0, 2001, None, _DEFAULT, id="tail_underflow"),
    pytest.param(1.0, 1.0, 2.0, 1.0, 10.0, 1001, None, _EXPM1_BOX, id="expm1_branch"),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 50, None, _DEFAULT, id="shorter_than_a_chunk"),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, _CHUNK, None, _DEFAULT, id="one_full_chunk"),
    pytest.param(
        2.0, 0.5, 3.0, 1.0, 10.0, _CHUNK + 1, None, _DEFAULT, id="one_sample_past_a_chunk"
    ),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 2001, None, _SMALL_GRID, id="small_grid"),
    # few live pairs: main-pass calls span many pieces, the last one short
    pytest.param(
        2.0, 0.5, 3.0, 1.0, 10.0, 20 * _CHUNK + 77, None, _TOP1, id="top1_short_last_piece"
    ),
    # probes: the most energy in the last whole piece, too few whole pieces
    # for a probe and just enough for one, refine_top = 1, and probes that
    # score cells which the tail's steep overflow then refuses
    pytest.param(
        *_LATE_K, 3.0, 1.0, 14.0, 8 * _CHUNK + 77, None, _DEFAULT, id="late_peak_probes"
    ),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 3 * _CHUNK + 50, None, _DEFAULT, id="no_probes"),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 4 * _CHUNK, None, _DEFAULT, id="one_probe"),
    pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 8 * _CHUNK + 5, None, _TOP1, id="top1_probes"),
    pytest.param(
        2.0, 0.5, 3.0, 1.0, 10.0, 20 * _CHUNK + 77, _STEEP, _DEFAULT, id="steep_probes"
    ),
    # the sweep, past the probes, scores kept cells
    pytest.param(
        *_SWEPT_K, 1.0, 1.0, 10.0, 5001, None, _DEFAULT, id="kept_beyond_candidates"
    ),
    # the sweep keeps cells of rate pairs that have no candidate cell, and
    # the steep curve's overflow refuses 7 of them: only a pass over those
    # pairs' Bhat range over the whole trace sees it
    pytest.param(
        *_SWEPT_K, 1.0, 0.7, 10.0, 1001, _STEEP, _TOP1, id="kept_without_candidate_refused"
    ),
]


@pytest.mark.parametrize(_GRID_CASE_ARGS, _GRID_CASES)
def test_grid_cells_match_per_cell_model(
    bench_tx, bench_sensor, k1, k2, gamma, s, t_end, n, sens, search
):
    sensor = bench_sensor if sens is None else dataclasses.replace(bench_sensor, sens=sens)
    trace = _noisy_trace(bench_tx, sensor, k1, k2, gamma, s, np.linspace(0.0, t_end, n))

    cells = fitting._grid_cells(trace, bench_tx, sensor, s, _full(search))
    _assert_same_cells(cells, _reference_grid_cells(trace, bench_tx, sensor, s, search))

    full = search.k_grid**2 * search.gamma_grid
    if s == 0.5 or sens is not None:
        assert len(cells) < full  # the refusal rule is exercised
    if n == 5001:
        assert n > 10 * _CHUNK  # many time chunks, the last one partial
    if k1 == _CONFLUENT_K:
        assert cells[0, 1] == cells[0, 2]  # best cell on the diagonal k1 == k2
    if search is _EXPM1_BOX:
        assert search.k_max - search.k_min < kinetics.CONFLUENT_REL_TOL * search.k_min
    if search is _SMALL_GRID:
        assert fitting._GRID_BLOCK_ELEMENTS // search.k_grid**2 < n  # two chunks
    if search is _TOP1:
        assert n % _CHUNK != 0


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="the grid judges a pair at c0 times its smallest positive Bhat, which underflows",
)
def test_grid_definedness_matches_the_per_cell_model_on_a_long_steep_trace(
    bench_tx, bench_sensor
):
    # c0 times the smallest positive Bhat underflows to 0, which counts as
    # defined, while a B of about 2e-62 at earlier samples overflows B^-5:
    # the grid keeps 1469 cells, the per-cell model 1248. The pruned grid
    # is still a prefix of the full one here, so this is not a _GRID_CASES
    # entry.
    sensor = dataclasses.replace(bench_sensor, sens=_STEEP)
    trace = _noisy_trace(bench_tx, sensor, 2.0, 0.5, 1.0, 0.5, np.linspace(0.0, 200.0, 2001))
    cells = fitting._grid_cells(trace, bench_tx, sensor, 0.5, _full(_DEFAULT))
    _assert_same_cells(cells, _reference_grid_cells(trace, bench_tx, sensor, 0.5, _DEFAULT))


def _assert_pruned_prefix(pruned, full, keep):
    """The pruned grid is the full grid's prefix, bit for bit, with the keep best cells."""
    assert len(pruned) >= min(keep, len(full))
    assert np.array_equal(pruned, full[: len(pruned)])


@pytest.mark.parametrize(
    _GRID_CASE_ARGS,
    _GRID_CASES
    + [pytest.param(2.0, 0.5, 3.0, 1.0, 10.0, 20001, None, _DEFAULT, id="20001_samples")],
)
def test_pruned_grid_is_a_prefix_of_the_full_grid(
    bench_tx, bench_sensor, k1, k2, gamma, s, t_end, n, sens, search
):
    sensor = bench_sensor if sens is None else dataclasses.replace(bench_sensor, sens=sens)
    trace = _noisy_trace(bench_tx, sensor, k1, k2, gamma, s, np.linspace(0.0, t_end, n))
    full = fitting._grid_cells(trace, bench_tx, sensor, s, _full(search))
    for keep in (1, search.refine_top):
        pruned = fitting._grid_cells(trace, bench_tx, sensor, s, dataclasses.replace(search, refine_top=keep))
        _assert_pruned_prefix(pruned, full, keep)
        if n >= 1001 and search is _DEFAULT:
            assert len(pruned) < len(full) // 10  # the bound prunes
        if (k1, k2) == _SWEPT_K and keep == 1:
            assert len(pruned) > 2  # more kept cells than the pre-pass's 2 candidates
    piece = fitting._GRID_BLOCK_ELEMENTS // search.k_grid**2
    probes = fitting._probe_starts(trace.volts, piece, search.k_grid**2 * search.gamma_grid)
    assert (len(probes) > 0) == (n // piece >= 4)
    if (k1, k2) == _LATE_K:
        assert probes[0] == 7 * _CHUNK  # the last whole piece
    # with refine_top at least the feasible cells, tau is inf or above every score
    exact = dataclasses.replace(search, refine_top=len(full))
    assert np.array_equal(fitting._grid_cells(trace, bench_tx, sensor, s, exact), full)


@pytest.mark.parametrize("n, dt", [(1001, 0.01), (20001, 0.0005)], ids=["fit_1k", "fit_20k"])
def test_pruned_grid_evaluates_under_two_fifths_of_bhat(bench_tx, bench_sensor, monkeypatch, n, dt):
    # (rate pairs x samples) of Bhat per grid; one unpruned pass makes k_grid^2 n
    trace = _noisy_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, 1.0, np.arange(n) * dt)
    bhat = kinetics._bhat
    work = []

    def counted(k, t, *args, pairs=None, **kwargs):
        work.append((np.size(k) ** 2 if pairs is None else pairs[0].size) * np.size(t))
        return bhat(k, t, *args, pairs=pairs, **kwargs)

    monkeypatch.setattr(kinetics, "_bhat", counted)
    fitting._grid_cells(trace, bench_tx, bench_sensor, 1.0, _DEFAULT)
    assert sum(work) < 0.4 * _DEFAULT.k_grid**2 * n


def test_pruned_grid_scores_whole_pieces_per_kernel_call(bench_tx, bench_sensor, monkeypatch):
    # one kernel call per piece of _CHUNK samples made 158 calls of the
    # rate-node table here; a call now spans as many pieces as the live rate
    # pairs fill. After the pre-pass, the candidates cover the whole trace.
    # Each probe scores one whole piece, and the sweep scores the other cells
    # in time order, never over a probe piece, until none is live.
    n = 20001
    times = np.arange(n) * 0.0005
    trace = _noisy_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, 1.0, times)
    bhat = kinetics._bhat
    calls = []  # (first sample, samples) per call of the table, the pre-pass first

    def counted(k, t, *args, **kwargs):
        if np.size(k) == _DEFAULT.k_grid:
            calls.append((int(np.searchsorted(times, t[0])), np.size(t)))
        return bhat(k, t, *args, **kwargs)

    monkeypatch.setattr(kinetics, "_bhat", counted)
    fitting._grid_cells(trace, bench_tx, bench_sensor, 1.0, _DEFAULT)
    assert len(calls) <= 40
    assert calls[0][0] == 0 and calls[0][1] <= _CHUNK
    starts, sizes = np.array(calls[1:]).T
    split = np.searchsorted(np.cumsum(sizes), n) + 1
    assert sum(sizes[:split]) == n and starts[0] == 0
    assert np.array_equal(starts[1:split], np.cumsum(sizes[: split - 1]))  # in time order,
    assert all(size % _CHUNK == 0 for size in sizes[: split - 1])  # in whole pieces,
    assert sizes[split - 1] > _CHUNK and sizes[split - 1] % _CHUNK == n % _CHUNK  # a short one
    probes = fitting._probe_starts(trace.volts, _CHUNK, _DEFAULT.k_grid**2 * _DEFAULT.gamma_grid)
    assert len(probes) == fitting._PROBES
    assert calls[1 + split : 1 + split + len(probes)] == [(at, _CHUNK) for at in probes]
    sweep = calls[1 + split + len(probes) :]
    assert sweep and sweep[0][0] == 0
    assert all(size % _CHUNK == 0 or at + size == n for at, size in sweep)
    # sweep calls and the probe pieces before the sweep's end tile the trace up to there
    end = sum(sweep[-1])
    spans = sorted(sweep + [(at, _CHUNK) for at in probes if at < end])
    assert [at for at, _ in spans] == [0] + list(np.cumsum([size for _, size in spans])[:-1])
    assert sum(size for _, size in sweep) + len(probes) * _CHUNK < n


@pytest.mark.parametrize(
    "search", [_DEFAULT, _EXPM1_BOX, _SMALL_GRID], ids=["default", "expm1_box", "small_grid"]
)
@pytest.mark.parametrize("t_end", [1.0, 10.0, 200.0])  # down to underflowed tails
def test_pair_bhat_equals_bound_concentration_bit_for_bit(search, t_end):
    # the kernel over all rate pairs (at C0 = 1), and bound_concentration per
    # pair, equal the closed forms written out per pair in their original
    # operation order
    k_nodes = np.geomspace(search.k_min, search.k_max, search.k_grid)
    t = np.linspace(0.0, t_end, 301)
    for c0 in (1.0, 1.3602e-3):
        ref = np.array([[_closed_form_b(c0, k1, k2, t) for k2 in k_nodes] for k1 in k_nodes])
        if c0 == 1.0:
            assert np.array_equal(kinetics._bhat(k_nodes, t, np.empty(ref.shape)), ref)
        per_pair = [[kinetics.bound_concentration(c0, KineticsParams(k1, k2), t)
                     for k2 in k_nodes] for k1 in k_nodes]
        assert np.array_equal(np.array(per_pair), ref)


def _closed_form_b(c0, k1, k2, t):
    """B(t) by the branch of the kinetics module doc for one rate pair."""
    delta = k1 - k2
    if abs(delta) < kinetics.CONFLUENT_REL_TOL * max(k1, k2):
        if delta == 0.0:
            b = c0 * k1 * t * np.exp(-k1 * t)
        else:
            b = c0 * k1 * np.exp(-k1 * t) * np.expm1(delta * t) / delta
    else:
        b = k1 * c0 / (k2 - k1) * (np.exp(-k1 * t) - np.exp(-k2 * t))
    return np.maximum(b, 0.0)


def test_grid_refuses_pairs_at_their_first_sample(bench_tx, bench_sensor):
    # Bhat(1e-12 s) is about k1 * 1e-12, so B^-20 overflows there for slow
    # adhesion and small gamma only, seven chunks before the tail.
    sensor = dataclasses.replace(bench_sensor, sens=SensitivityCoeffs(a=1e-60, b=-20.0, c=0.01))
    times = np.concatenate(([0.0, 1e-12], np.linspace(0.01, 10.0, 999)))
    trace = _noisy_trace(bench_tx, sensor, 20.0, 0.5, 3.0, 1.0, times)
    cells = fitting._grid_cells(trace, bench_tx, sensor, 1.0, _full(_DEFAULT))
    ref = _reference_grid_cells(trace, bench_tx, sensor, 1.0, _DEFAULT)
    assert len(cells) < _DEFAULT.k_grid**2 * _DEFAULT.gamma_grid
    _assert_same_cells_by_triple(cells, ref)


def test_grid_keeps_pairs_whose_bhat_is_zero_throughout(bench_tx, bench_sensor):
    # At 100 s spacing the fast pairs have Bhat = 0 at every sample: 0 V
    # throughout, which is defined although f(B) -> c < 0 for the MQ-3 curve.
    trace = _noisy_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, 1.0, np.linspace(0.0, 1e5, 1001))
    cells = fitting._grid_cells(trace, bench_tx, bench_sensor, 1.0, _full(_DEFAULT))
    ref = _reference_grid_cells(trace, bench_tx, bench_sensor, 1.0, _DEFAULT)
    assert len(cells) == _DEFAULT.k_grid**2 * _DEFAULT.gamma_grid
    _assert_same_cells_by_triple(cells, ref)


def _assert_same_cells_by_triple(cells, ref):
    """Same cells and scores; the order of near-0 V cells is left open.

    Such cells score within an ulp of each other, so their order follows
    the summation order.
    """
    _assert_same_cells(*(c[np.lexsort((c[:, 3], c[:, 2], c[:, 1]))] for c in (cells, ref)))


def test_grid_does_not_evaluate_per_pair(bench_tx, bench_sensor, monkeypatch):
    trace = _noisy_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, 0.5, np.linspace(0.0, 10.0, 1001))
    ref = _reference_grid_cells(trace, bench_tx, bench_sensor, 0.5, _DEFAULT)

    def refuse(*args, **kwargs):
        raise AssertionError("kinetics.bound_concentration called")

    monkeypatch.setattr(kinetics, "bound_concentration", refuse)
    _assert_same_cells(fitting._grid_cells(trace, bench_tx, bench_sensor, 0.5, _full(_DEFAULT)), ref)


def test_pruned_grid_scratch_stays_flat_as_calls_span_more_pieces(bench_tx, bench_sensor):
    # with few live pairs one call spans many pieces; exp(-k t) rows for
    # every rate node over all of them took about 4.5 MB here
    search = SearchConfig(k_grid=64, gamma_grid=4)
    trace = _noisy_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, 1.0, np.arange(20001) * 0.0005)
    tracemalloc.start()
    try:
        fitting._grid_cells(trace, bench_tx, bench_sensor, 1.0, search)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


def test_grid_scoring_memory_is_bounded(bench_tx, bench_sensor):
    # a whole (gamma, time) table per rate pair would take about 2.1 MB here,
    # and so did full-length arrays per pre-pass candidate of the pruned grid
    times = np.linspace(0.0, 200.0, 20001)
    trace = sample_response(
        dataclasses.replace(bench_tx, gamma=3.0), KineticsParams(2.0, 0.5), bench_sensor, 1.0, times
    )
    for search in (_full(_DEFAULT), _DEFAULT):
        tracemalloc.start()
        try:
            fitting._grid_cells(trace, bench_tx, bench_sensor, 1.0, search)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, search.refine_top


def _criterion_07_traces(bench_tx, bench_sensor):
    """The 80 noisy traces of acceptance criterion 07, as (s, trace)."""
    for s in (0.9, 1.0, 1.1, 1.2):
        for seed in range(20):
            trace = _synthetic_trace(
                bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=s, sigma=0.01, seed=seed * 37 + int(s * 10)
            )
            yield s, trace


def test_distinct_starts_lose_nothing_against_every_top_cell(bench_tx, bench_sensor):
    search = SearchConfig()
    skipped = 0
    for s, trace in _criterion_07_traces(bench_tx, bench_sensor):
        est = estimate_channel_params(trace, bench_tx, bench_sensor, s, search)
        cells = fitting._grid_cells(trace, bench_tx, bench_sensor, s, search)
        trace_fit = fitting._TraceFit(trace, bench_tx, bench_sensor, s)
        every = min(
            levenberg_marquardt(trace_fit.problem(cell[1:], search)).mse
            for cell in cells[: search.refine_top]
        )
        assert est.mse <= every * (1.0 + 1e-12), (s, est.mse, every)
        skipped += search.refine_top - len(fitting._distinct_starts(cells, search, lambda x0: True))
    assert skipped > 0  # the rule is exercised


# (k1, k2, gamma) points: the truth, confluent, near-confluent (the series
# head of dB/dk2 covers every sample), mirrored and far off
_FIT_POINTS = [(2.0, 0.5, 3.0), (1.0, 1.0, 2.0), (1.0, 1.0 + 1e-7, 2.0), (0.5, 2.0, 12.0), (40.0, 0.06, 1.0)]


def test_trace_fit_jacobian_buffers_hold_no_stale_point(bench_tx, bench_sensor):
    # a _TraceFit writes every Jacobian into one array of its own and keeps
    # the model of its last point; each J must still be a fresh object's, and
    # each residual a new array that no later call changes
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=3)
    fit = fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0)

    def fresh_jacobian(p):
        return fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0).jacobian(p).tobytes()

    returned = []
    for p, q in zip(_FIT_POINTS, _FIT_POINTS[1:] + _FIT_POINTS[:1]):
        r = fit.residual(p)
        returned.append((r, r.copy()))
        again = fit.residual(p)
        assert not np.shares_memory(r, again) and again.tobytes() == r.tobytes()
        assert fit.jacobian(p).tobytes() == fresh_jacobian(p)  # from the held model
        assert fit.jacobian(p).tobytes() == fresh_jacobian(p)  # asked again
        assert fit.jacobian(q).tobytes() == fresh_jacobian(q)  # a point with no residual
        r = fit.residual(q)
        returned.append((r, r.copy()))
        assert fit.jacobian(p).tobytes() == fresh_jacobian(p)  # back, after q's residual
    for r, copy in returned:
        assert r.tobytes() == copy.tobytes()
    assert len({id(r) for r, _ in returned}) == len(returned)


def test_trace_fit_residual_is_the_per_pair_model_bit_for_bit(bench_tx, bench_sensor):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=3)
    fit = fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0)
    for k1, k2, gamma in _FIT_POINTS:
        b = kinetics.bound_concentration(fit.c0 * gamma, KineticsParams(k1, k2), trace.times)
        want = channel._volts(b, bench_sensor) - trace.volts
        assert np.array_equal(fit.residual((k1, k2, gamma)), want, equal_nan=True), (k1, k2)


def test_trace_fit_residual_at_a_new_point_allocates_one_row(bench_tx, bench_sensor):
    # the model rows belong to the fit, so a new point allocates only its
    # residual; allocating B, a B^b and the exp rows per point took 5.1 rows
    trace = sample_response(
        dataclasses.replace(bench_tx, gamma=3.0), KineticsParams(2.0, 0.5), bench_sensor, 1.0,
        np.linspace(0.0, 10.0, 10001),
    )
    fit = fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0)
    fit.residual(_FIT_POINTS[0])
    for p in ((2.1, 0.5, 3.0), (0.5, 2.0, 12.0), (1.0, 2.0, 2.0)):
        tracemalloc.start()
        try:
            r = fit.residual(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(r))
        assert peak < 1.5 * r.nbytes, peak / r.nbytes


def test_fit_condition_is_that_of_a_fresh_jacobian(bench_tx, bench_sensor):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=3)
    fit = fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0)
    for x0 in _FIT_POINTS:
        result = levenberg_marquardt(fit.problem(x0, SearchConfig()))
        fresh = fitting._TraceFit(trace, bench_tx, bench_sensor, 1.0).jacobian(result.params)
        assert result.jacobian_evals > 1 and result.termination != "abandoned"
        assert result.jac_condition == float(np.linalg.cond(fresh))


def test_fit_refines_each_basin_once(bench_tx, bench_sensor):
    # with the absolute gradient test and every distinct start refined to
    # the end, these fits made about 30 model evaluations each
    fits = [
        estimate_channel_params(trace, bench_tx, bench_sensor, s).fit
        for s, trace in _criterion_07_traces(bench_tx, bench_sensor)
    ]
    evals = [fit.residual_evals + fit.jacobian_evals for fit in fits]
    assert sum(evals) <= 18 * len(fits), sum(evals) / len(fits)
    assert all(fit.termination == "gradient" for fit in fits)


def _recording_lm(monkeypatch, fake_first=None):
    """Patch fitting.levenberg_marquardt to record each start's problem and result.

    fake_first, if given, replaces the params of the first start's result.
    """
    real = fitting.levenberg_marquardt
    calls = []

    def lm(problem):
        result = real(problem)
        if fake_first is not None and not calls:
            result = dataclasses.replace(result, params=np.array(fake_first), mse=1.0)
        calls.append((problem, result))
        return result

    monkeypatch.setattr(fitting, "levenberg_marquardt", lm)
    return calls


def test_later_starts_are_dropped_only_inside_a_basin_found(bench_tx, bench_sensor, monkeypatch):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=3)
    calls = _recording_lm(monkeypatch)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)
    (first, found), later = calls[0], calls[1:]
    assert first.abandon is None and found.termination == "gradient"
    assert later and all(result.termination == "abandoned" for _, result in later)
    assert est.fit.residual_evals == sum(result.residual_evals for _, result in calls)
    assert est.fit.jacobian_evals == sum(result.jacobian_evals for _, result in calls)

    # abandoned starts are never candidates, not even where their last
    # point scores below the minimum found (here given an MSE of 1 V^2)
    calls = _recording_lm(monkeypatch, fake_first=found.params)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)
    assert all(result.termination == "abandoned" for _, result in calls[1:])
    assert est.mse == 1.0 > min(result.mse for _, result in calls[1:])

    # a first minimum in another basin, far from where the later starts
    # lead: the second start runs to the end and its minimum is kept, and
    # the third (of three here) enters the basin the second found
    calls = _recording_lm(monkeypatch, fake_first=(40.0, 30.0, 20.0))
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0, SearchConfig(refine_top=12))
    (_, fake), (second, refined), (_, third) = calls
    assert second.abandon is not None and refined.termination == "gradient"
    assert third.termination == "abandoned"
    assert est.mse == refined.mse < fake.mse
    assert (est.k1, est.k2, est.gamma) == pytest.approx((2.0, 0.5, 3.0), rel=0.05)


def test_a_start_pinned_on_a_bound_skips_no_later_cell(bench_tx, bench_sensor):
    # The best grid cell lies near the swap-scale mirror (k2, k1, gamma k1 / k2)
    # of the truth, and from it LM ends on gamma = gamma_max: the mirror of
    # the minimum needs gamma of about 25.4. The next distinct cell is that
    # start's own mirror. Skipped as such, it left the estimate on the bound
    # at an MSE 1.8 % higher.
    trace = _synthetic_trace(bench_tx, bench_sensor, 15.0, 3.0, 5.0, s=1.0, sigma=0.01, seed=4)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)
    assert est.canonical and est.fit.at_bound == (False, False, False)
    assert est.fit.termination == "gradient"
    assert est.gamma * est.k1 / est.k2 > _DEFAULT.gamma_max
    assert est.mse < 1.04e-4  # 1.027e-4; 1.045e-4 on the bound
    assert (est.k1, est.k2, est.gamma) == pytest.approx((15.0, 3.0, 5.0), rel=0.05)


def test_pruned_grid_leaves_every_estimate_unchanged(bench_tx, bench_sensor, monkeypatch):
    traces = list(_criterion_07_traces(bench_tx, bench_sensor))
    pruned = [repr(estimate_channel_params(trace, bench_tx, bench_sensor, s)) for s, trace in traces]
    full_grid = fitting._grid_cells
    def full_grid_cells(trace, tx, sensor, s, search):
        return full_grid(trace, tx, sensor, s, _full(search))

    monkeypatch.setattr(fitting, "_grid_cells", full_grid_cells)
    full = [repr(estimate_channel_params(trace, bench_tx, bench_sensor, s)) for s, trace in traces]
    assert pruned == full


def test_distinct_starts_skip_neighbours_and_mirrors():
    search = SearchConfig()
    k = np.geomspace(search.k_min, search.k_max, search.k_grid)
    g = np.geomspace(search.gamma_min, search.gamma_max, search.gamma_grid)
    cells = np.array([
        [1.0, k[8], k[5], g[2]],
        [2.0, k[5], k[8], g[5]],  # swap-scale mirror of the first
        [3.0, k[9], k[4], g[3]],  # one step from the first in each coordinate
        [4.0, k[10], k[5], g[2]],  # two steps in k1: a start of its own
        [5.0, k[8], k[5], g[2]],
        [6.0, k[0], k[0], g[0]],  # beyond refine_top
    ])
    assert fitting._distinct_starts(cells, search, lambda x0: True) == [
        (k[8], k[5], g[2]), (k[10], k[5], g[2])
    ]
    one = SearchConfig(refine_top=1)
    assert fitting._distinct_starts(cells, one, lambda x0: True) == [(k[8], k[5], g[2])]
    # a start that refine reports as ending on the box's edge skips nothing
    every = [tuple(cell[1:]) for cell in cells[: search.refine_top]]
    assert fitting._distinct_starts(cells, search, lambda x0: False) == every
    taken = []

    def refine(x0):
        taken.append(x0)
        return len(taken) > 1

    # the mirror now skips the cells within reach of its own canonical triple
    starts = fitting._distinct_starts(cells, search, refine)
    assert starts == taken == [(k[8], k[5], g[2]), (k[5], k[8], g[5]), (k[9], k[4], g[3])]


def test_fit_makes_a_quarter_of_the_residual_calls(bench_tx, bench_sensor):
    # finite differences with five starts took about 150 residual calls per fit
    for s in (0.9, 1.0, 1.1, 1.2):
        trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=s, sigma=0.01, seed=7)
        assert len(trace) == 1001
        fit = estimate_channel_params(trace, bench_tx, bench_sensor, s).fit
        assert fit.residual_evals <= 150 // 4, (s, fit.residual_evals)
        assert 1 <= fit.jacobian_evals <= fit.residual_evals


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_grid": 100_000},
        {"gamma_grid": 100_000_000},
        {"k_grid": 2048, "gamma_grid": 5},  # one k_grid^2 row past 2**24 cells
        {"k_max": math.inf},
        {"gamma_max": math.inf},
        {"mse_threshold": math.nan},
        {"mse_threshold": math.inf},
        {"mse_threshold": -0.1},
        {"flat_floor_v": math.nan},
        {"flat_floor_v": -1e-3},
    ],
)
def test_search_config_refuses(kwargs):
    with pytest.raises(ValidationError):
        SearchConfig(**kwargs)


def test_search_config_limits_are_inclusive():
    assert SearchConfig(k_grid=200, gamma_grid=2).k_grid == 200
    assert SearchConfig(k_grid=2048, gamma_grid=4).k_grid == 2048  # exactly 2**24 cells
    assert SearchConfig(mse_threshold=0.0, flat_floor_v=0.0).flat_floor_v == 0.0


def test_estimate_refuses_negative_times(bench_tx, bench_sensor):
    trace = make_trace(np.linspace(-1.0, 9.0, 101), np.linspace(0.0, 0.5, 101))
    with pytest.raises(ValidationError, match="time must be finite and >= 0"):
        estimate_channel_params(trace, bench_tx, bench_sensor, 1.0)


def test_estimate_needs_four_samples(bench_tx, bench_sensor):
    for n in (0, 1, 3):
        short = make_trace(np.arange(n) * 0.1, np.arange(n) * 0.5)
        with pytest.raises(InsufficientDataError, match="need >= 4 samples"):
            estimate_channel_params(short, bench_tx, bench_sensor, 1.0)


def test_estimate_in_a_gamma_box_narrower_than_the_fd_step(bench_tx, bench_sensor):
    # LM must not probe gamma below 1, which TransmitterSpec refuses
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 1.0, s=1.0, sigma=0.01, seed=3)
    search = SearchConfig(gamma_min=1.0, gamma_max=1.000001)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0, search)
    assert 1.0 <= est.gamma <= 1.000001


def test_estimate_flat_trace(bench_tx, bench_sensor):
    flat = make_trace(np.linspace(0.0, 10.0, 101), np.zeros(101))
    with pytest.raises(NoSignalError):
        estimate_channel_params(flat, bench_tx, bench_sensor, 1.0)


def test_estimate_low_confidence_flag(bench_tx, bench_sensor):
    trace = _synthetic_trace(bench_tx, bench_sensor, 2.0, 0.5, 3.0, s=1.0, sigma=0.01, seed=4)
    search = SearchConfig(mse_threshold=1e-12)
    est = estimate_channel_params(trace, bench_tx, bench_sensor, 1.0, search)
    assert est.low_confidence


def test_canonicalize():
    assert canonicalize(2.0, 0.5, 3.0) == (2.0, 0.5, 3.0, True)
    k1, k2, gamma, canonical = canonicalize(0.5, 2.0, 12.0)
    assert (k1, k2) == (2.0, 0.5)
    assert gamma == pytest.approx(3.0, rel=1e-15)
    assert canonical
    # swapping would push gamma below 1: keep the non-canonical branch
    k1, k2, gamma, canonical = canonicalize(0.5, 2.0, 2.0)
    assert (k1, k2, gamma) == (0.5, 2.0, 2.0)
    assert not canonical


# ------------------------------------------------- distance_trend


def _estimate(k1, k2, gamma=3.0):
    return ChannelEstimate(k1=k1, k2=k2, gamma=gamma, canonical=True, mse=1e-6)


def test_trend_k1_decreasing():
    pairs = [
        (0.9, _estimate(5.0, 1.0)),
        (1.0, _estimate(4.0, 1.02)),
        (1.1, _estimate(3.0, 0.98)),
        (1.2, _estimate(2.0, 1.01)),
    ]
    report = distance_trend(pairs)
    assert report.verdicts["k1"] == "strictly decreasing"
    assert report.verdicts["k2"] == "within +/-5% of mean"
    assert [r.s for r in report.rows] == [0.9, 1.0, 1.1, 1.2]


def test_trend_duplicate_distances_averaged():
    pairs = [
        (1.0, _estimate(2.0, 0.5)),
        (1.0, _estimate(4.0, 0.5)),
        (1.2, _estimate(3.0, 0.5)),
    ]
    report = distance_trend(pairs)
    row = report.rows[0]
    assert row.n == 2
    assert row.k1_mean == 3.0
    assert row.k1_std == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_trend_single_distance_rejected():
    with pytest.raises(InsufficientDataError):
        distance_trend([(1.0, _estimate(2.0, 0.5)), (1.0, _estimate(3.0, 0.5))])
