"""Adhesion/detachment kinetics: closed forms against the RK4 integrator."""

import math

import numpy as np
import pytest
from conftest import rk4_trajectory

from spraylink import kinetics
from spraylink.errors import ValidationError
from spraylink.kinetics import (
    KineticsParams,
    bound_concentration,
    free_concentration,
    peak_time,
)

# ln(4)/1.5, the peak time for (k1, k2) = (2, 0.5)
T_STAR_2_05 = 0.9241962407465937


def test_params_validation():
    with pytest.raises(ValidationError):
        KineticsParams(0.0, 1.0)
    with pytest.raises(ValidationError):
        KineticsParams(1.0, -0.5)
    with pytest.raises(ValidationError):
        KineticsParams(1.0, math.inf)


def test_bound_concentration_zero_at_t0():
    for k1, k2 in [(2.0, 0.5), (1.0, 1.0), (0.05, 20.0)]:
        assert bound_concentration(1.0, KineticsParams(k1, k2), 0.0) == 0.0


def test_bound_concentration_peak_value():
    # at the peak, B(t*) = e^{-k2 t*} for C0 = 1 (stationarity of B)
    kin = KineticsParams(2.0, 0.5)
    b = bound_concentration(1.0, kin, T_STAR_2_05)
    assert b == pytest.approx(0.6299605249474365, rel=1e-12)
    assert b == pytest.approx(math.exp(-0.5 * T_STAR_2_05), rel=1e-12)


def test_bound_concentration_confluent_value():
    b = bound_concentration(1.0, KineticsParams(1.0, 1.0), 1.0)
    assert b == pytest.approx(math.exp(-1.0), rel=1e-12)
    # nearly-confluent parameters must agree with the exact confluent limit
    b_eps = bound_concentration(1.0, KineticsParams(1.0, 1.0 + 1e-9), 1.0)
    assert b_eps == pytest.approx(b, rel=1e-6)


def test_bound_concentration_rejects_bad_input():
    kin = KineticsParams(1.0, 2.0)
    with pytest.raises(ValidationError):
        bound_concentration(-1.0, kin, 1.0)
    with pytest.raises(ValidationError):
        bound_concentration(1.0, kin, -0.1)


def test_free_concentration():
    kin = KineticsParams(2.0, 0.5)
    assert free_concentration(1.0, kin, 0.0) == 1.0
    assert free_concentration(1.0, kin, math.log(2.0) / 2.0) == pytest.approx(0.5, rel=1e-12)
    assert free_concentration(1.3602e-3, kin, 1.0) == pytest.approx(
        1.840830522584406e-4, rel=1e-10
    )


def test_peak_time():
    assert peak_time(KineticsParams(2.0, 0.5)) == pytest.approx(T_STAR_2_05, rel=1e-14)
    assert peak_time(KineticsParams(1.0, 1.0)) == 1.0
    # symmetric under swapping the rates, bitwise
    assert peak_time(KineticsParams(2.0, 0.5)) == peak_time(KineticsParams(0.5, 2.0))


def test_peak_time_where_the_rate_ratio_overflows():
    # ka / kb = 1e600: (ka - kb) / kb overflows, and the peak is ln(1e600) / 1e300
    kin = KineticsParams(1e300, 1e-300)
    assert peak_time(kin) == pytest.approx(600.0 * math.log(10.0) / 1e300, rel=1e-14)
    assert peak_time(kin) == peak_time(KineticsParams(1e-300, 1e300))


def test_bound_concentration_where_a_rate_times_a_time_overflows():
    # -k1 t is -inf once k1 t > 1.8e308, and exp(-inf) = 0 is exact; the
    # overflow warning would fail here, as pytest makes it an error
    c0, t = 1.3602e-3, np.linspace(0.0, 10.0, 1001)
    b = bound_concentration(c0, KineticsParams(1e308, 0.5), t)
    assert b[0] == 0.0
    np.testing.assert_allclose(b[1:], c0 * np.exp(-0.5 * t[1:]), rtol=1e-12)


def test_peak_separates_rise_and_decay():
    kin = KineticsParams(2.0, 0.5)
    t_star = peak_time(kin)
    before = bound_concentration(1.0, kin, np.linspace(0.0, t_star, 200))
    after = bound_concentration(1.0, kin, np.linspace(t_star, 10.0, 200))
    assert np.all(np.diff(before) > 0.0)
    assert np.all(np.diff(after) < 0.0)


def test_bound_nonnegative_near_confluence():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 20.0, 400)
    for _ in range(50):
        k = rng.uniform(0.05, 20.0)
        kin = KineticsParams(k, k * (1.0 + rng.uniform(-1e-9, 1e-9)))
        assert np.all(bound_concentration(1.0, kin, t) >= 0.0)


def test_swap_scale_identity():
    # B(t; C0 g, k1, k2) == B(t; C0 g k1/k2, k2, k1)
    t = np.linspace(0.0, 12.0, 500)
    rng = np.random.default_rng(11)
    for _ in range(20):
        k1, k2 = rng.uniform(0.05, 20.0, size=2)
        c0 = rng.uniform(1e-4, 1e-2)
        left = bound_concentration(c0, KineticsParams(k1, k2), t)
        right = bound_concentration(c0 * k1 / k2, KineticsParams(k2, k1), t)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-300)


def test_confluence_continuity():
    # approaching k1 == k2 from eps = 1e-6 stays within 1e-5 relative
    for k in (0.1, 1.0, 10.0):
        t = np.linspace(1e-3, 10.0 / k, 300)
        exact = bound_concentration(1.0, KineticsParams(k, k), t)
        near = bound_concentration(1.0, KineticsParams(k, k * (1.0 + 1e-6)), t)
        np.testing.assert_allclose(near, exact, rtol=1e-5)


def test_rk4_matches_analytic_reference_case():
    # C0 = 1, (k1, k2) = (2, 0.5), dt = 1e-4, horizon 10 s
    t, c, b, z = rk4_trajectory(1.0, KineticsParams(2.0, 0.5), 10.0, 1e-4)
    b_exact = bound_concentration(1.0, KineticsParams(2.0, 0.5), t)
    assert np.max(np.abs(b - b_exact)) < 1e-8
    assert np.max(np.abs(c + b + z - 1.0)) < 1e-8
    # mass only leaks toward the detached state
    assert np.all(c >= 0.0) and np.all(b >= 0.0) and np.all(z >= 0.0)
    assert np.all(c + b <= 1.0 + 1e-12)
    assert (t[0], c[0], b[0], z[0]) == (0.0, 1.0, 0.0, 0.0)
    # a coarse 0.01 s step still lands within 1e-9 at t = 1 s
    t, c, b, z = rk4_trajectory(1.0, KineticsParams(2.0, 0.5), 2.0, 0.01)
    assert t[100] == 1.0
    assert b[100] == pytest.approx(
        bound_concentration(1.0, KineticsParams(2.0, 0.5), t[100]), rel=1e-9
    )
    # no droplets, nothing adheres: 11 all-zero states
    t, c, b, z = rk4_trajectory(0.0, KineticsParams(2.0, 0.5), 1.0, 0.1)
    assert t.size == 11
    assert not (np.any(c) or np.any(b) or np.any(z))
    # dt = 0, a negative horizon and a step beyond the horizon are refused
    kin = KineticsParams(1.0, 1.0)
    for t_end, dt in ((1.0, 0.0), (-1.0, 0.1), (0.5, 1.0)):
        with pytest.raises(ValidationError):
            rk4_trajectory(1.0, kin, t_end, dt)


def test_rk4_randomized_sweep():
    # pointwise relative agreement < 1e-6 across random rate pairs; the step
    # is sized so kmax*dt = 0.02, which keeps the RK4 truncation error about
    # two orders below the tolerance (see the reference case above for a
    # literal dt = 1e-4 run)
    rng = np.random.default_rng(21)
    for _ in range(20):
        k1, k2 = rng.uniform(0.05, 20.0, size=2)
        kin = KineticsParams(k1, k2)
        t_end = 10.0 / min(k1, k2)
        dt = 0.02 / max(k1, k2)
        t, c, b, z = rk4_trajectory(1.0, kin, t_end, dt)
        b_exact = bound_concentration(1.0, kin, t)
        mask = b_exact > 0.0
        rel = np.abs(b[mask] - b_exact[mask]) / b_exact[mask]
        assert np.max(rel) < 1e-6, (k1, k2, np.max(rel))
        assert np.max(np.abs(c + b + z - 1.0)) < 1e-8


def test_bhat_rate_derivative_across_its_two_forms():
    # dB/dk2 = -k1 t^2 e^{-k1 t} phi'(x), x = (k1 - k2) t, phi(x) = expm1(x) / x.
    # phi'(x) = (x e^x - expm1(x)) / x^2 is accurate to about eps / |x| for
    # 1e-5 <= |x| <= 1, a band around |x| = 1e-2, where the kernel switches
    # from the series of phi' to the two-exponential form.
    t = np.linspace(0.0, 20.0, 2001)
    for k1, k2 in ((2.0, 1.995), (2.0, 2.005), (0.5, 0.45)):
        b = bound_concentration(1.0, KineticsParams(k1, k2), t)
        out = np.empty_like(b), np.empty_like(b)
        dk1, dk2 = kinetics._bhat_rate_grad(k1, k2, t, 1.0, b, np.exp(-k1 * t), np.exp(-k2 * t), out)
        x = (k1 - k2) * t
        band = (np.abs(x) >= 1e-5) & (np.abs(x) <= 1.0)
        assert (np.abs(x[band]) < 1e-2).any() and (np.abs(x[band]) > 1e-2).any()
        xb, tb = x[band], t[band]
        ref = -k1 * tb**2 * np.exp(-k1 * tb) * (xb * np.exp(xb) - np.expm1(xb)) / xb**2
        np.testing.assert_allclose(dk2[band], ref, rtol=1e-9)
        np.testing.assert_array_equal(dk1, b * (1.0 / k1 - t) - dk2)


def test_bhat_rate_derivative_series_head_bit_for_bit():
    # dB/dk2 on the series head, in the kernel's operation order, sign of
    # zero included: at t = 0 it is -0.0, and there the head is often that
    # one sample; traces that start at 0 and after it
    for t in (np.linspace(0.0, 10.0, 1001), np.linspace(0.003, 10.0, 1001)):
        for k1, k2 in ((2.0, 0.5), (0.5, 2.0), (2.0, 1.995), (1.0, 1.0)):
            for c0 in (1.0, 1.3602e-3, 0.0):
                b = bound_concentration(c0, KineticsParams(k1, k2), t)
                e1 = np.exp(-k1 * t)
                out = np.empty_like(b), np.empty_like(b)
                dk1, dk2 = kinetics._bhat_rate_grad(k1, k2, t, c0, b, e1, np.exp(-k2 * t), out)
                cut = int(np.searchsorted(abs(k1 - k2) * t, 1e-2))
                x = (k1 - k2) * t
                dphi = x / 144.0
                for coef in (1.0 / 30.0, 1.0 / 8.0, 1.0 / 3.0):
                    dphi = x * (coef + dphi)
                ref = -(k1 * c0) * t * t * e1 * (0.5 + dphi)
                assert cut >= 1
                assert np.array_equal(dk2[:cut].view(np.int64), ref[:cut].view(np.int64)), (k1, k2, c0)
                np.testing.assert_array_equal(dk1, b * (1.0 / k1 - t) - dk2)


def test_bhat_pairs_equal_the_full_table_bit_for_bit():
    # near-confluent, diagonal and distinct pairs, in a scattered order
    k = np.array([0.5, 1.0, 1.0 + 1e-7, 2.0, 50.0])
    t = np.linspace(0.0, 30.0, 257)
    full = np.empty((k.size, k.size, t.size))
    assert kinetics._bhat(k, t, full) is full
    i = np.array([4, 0, 1, 2, 1, 3, 2, 0])
    j = np.array([0, 4, 2, 1, 1, 3, 2, 3])
    out, work = np.empty((2, i.size, t.size))
    pairs = kinetics._bhat(k, t, out, pairs=(i, j), work=work)
    assert pairs is out
    assert np.array_equal(pairs, full[i, j])
    assert np.array_equal(kinetics._bhat(k, t, np.empty_like(out), pairs=(i, j)), full[i, j])
