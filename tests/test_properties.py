"""Property-based checks of the channel model (hypothesis)."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spraylink.channel import TransmitterSpec, response_voltages
from spraylink.kinetics import KineticsParams
from spraylink.sensor import MQ3_SENSITIVITY, SensorSpec

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
