"""First-order adhesion/detachment kinetics in the reception volume.

Free droplets X adhere to the sensor surface (rate k1) forming a sensed
complex Y, which then detaches into an unsensed state Z (rate k2):

    X -> Y -> Z,    dC/dt = -k1 C,    dB/dt = k1 C - k2 B,

with C(0) = C0 and B(0) = 0, where C is the free-droplet concentration and
B the adhered-complex concentration, both in kg/m^3. The closed forms are

    C(t) = C0 exp(-k1 t)
    B(t) = k1 C0 / (k2 - k1) * (exp(-k1 t) - exp(-k2 t))      (k1 != k2)
    B(t) = C0 k1 t exp(-k1 t)                                  (k1 == k2)

Near the confluent point k1 == k2 the two-exponential form cancels
catastrophically, so evaluation switches to an expm1-based form that is
exact in the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# |k1 - k2| below this fraction of max(k1, k2) uses the confluent-stable form.
CONFLUENT_REL_TOL = 1e-6


@dataclass(frozen=True)
class KineticsParams:
    """Adhesion rate k1 and detachment rate k2, both in 1/s."""

    k1: float
    k2: float

    def __post_init__(self):
        for name in ("k1", "k2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")


def _as_time_array(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("time must be finite and >= 0")
    return arr


def _match(arr, like):
    """Return a scalar if the original input was scalar."""
    return float(arr) if np.ndim(like) == 0 else arr


def free_concentration(c0: float, kin: KineticsParams, t):
    """Free-droplet concentration C(t) = C0 exp(-k1 t).

    Accepts a scalar or array time; returns the matching shape.
    """
    if not (math.isfinite(c0) and c0 >= 0.0):
        raise ValidationError(f"c0 must be finite and >= 0, got {c0!r}")
    tt = _as_time_array(t)
    return _match(c0 * np.exp(-kin.k1 * tt), t)


def _exp_rows(k, t):
    """exp(-k t) for each rate of the column k, one row each, taken in place."""
    rows = np.multiply(-k, t)
    return np.exp(rows, out=rows)


def _bhat(k1, k2, t, c0=1.0, out=None, pairs=None, work=None, exps=None):
    """B(t) of every rate pair (k1[i], k2[j]), unchecked; shape (k1.size, k2.size, t.size).

    k1 and k2 are 1-D arrays of rates, t a 1-D array of times; c0 scales
    the result as bound_concentration's c0 does. exp(-k t) is taken once
    per rate (once in all when k2 is k1). Each pair takes the branch that
    bound_concentration documents, in one operation order: the
    two-exponential form, c0 k1 t e^{-k1 t} on the exact diagonal, the
    expm1 form within CONFLUENT_REL_TOL, then a clip at 0. out, if given,
    receives B. pairs, if given, is a pair of index arrays (i, j): only the
    rate pairs (k1[i], k2[j]) are evaluated, by the same operations, as
    rows of shape (i.size, t.size), and exp(-k t) only for the rates that
    they use, so that its scratch grows with i.size, not with the number
    of rates. work, if given with pairs, is an array of that shape that
    receives the gathered exp(-k2[j] t) rows, so that no temporary of B's
    size is allocated. exps, if given, is a list that receives the
    exp(-k1 t) and exp(-k2 t) tables, one row per rate used.
    _bhat_rate_grad gives the rate derivatives of one pair.
    """
    same = k2 is k1
    if pairs is not None:  # only the rate nodes that the pairs use
        k1 = np.asarray(k1, dtype=float)
        k2 = k1 if same else np.asarray(k2, dtype=float)
        used1 = np.zeros(k1.size, dtype=bool)
        used2 = used1 if same else np.zeros(k2.size, dtype=bool)
        used1[pairs[0]] = used2[pairs[1]] = True
        pairs = np.cumsum(used1)[pairs[0]] - 1, np.cumsum(used2)[pairs[1]] - 1
        k1 = k1[used1]
        k2 = k1 if same else k2[used2]
    k1 = np.asarray(k1, dtype=float)[:, None]
    k2 = k1.T if same else np.asarray(k2, dtype=float)[None, :]
    e1 = _exp_rows(k1, t)
    e2 = e1 if same else _exp_rows(k2.T, t)
    if exps is not None:
        exps[:] = e1, e2
    k1c0 = k1 * c0
    delta = k1 - k2
    confluent = np.abs(delta) < CONFLUENT_REL_TOL * np.maximum(k1, k2)
    scale = k1c0 / np.where(confluent, np.inf, -delta)
    if pairs is None:
        b = np.subtract(e1[:, None, :], e2[None, :, :], out=out)
        i, j = np.nonzero(confluent)
        at = (i, j)
    else:
        i, j = pairs
        b = np.take(e1, i, axis=0, out=out)
        b -= np.take(e2, j, axis=0, out=work)
        scale = scale[i, j]
        at = np.flatnonzero(confluent[i, j])
        i, j = i[at], j[at]
    b *= scale[..., None]
    if i.size:
        d, a, e = delta[i, j][:, None], k1c0[i], e1[i]
        with np.errstate(invalid="ignore"):  # 0/0 on the diagonal, not selected
            b[at] = np.where(d == 0.0, (a * t) * e, a * e * np.expm1(d * t) / d)
    np.maximum(b, 0.0, out=b)
    return b


def _bhat_rate_grad(k1, k2, t, c0, b, e1, e2, out):
    """(dB/dk1, dB/dk2) of the rate pair (k1, k2) at ascending times t, unchecked.

    b is that pair's B, _bhat([k1], [k2], t, c0)[0, 0], and e1 and e2 are
    the exp(-k1 t) and exp(-k2 t) rows that _bhat took for it. out is a
    pair of arrays shaped like b that receive dB/dk1 and dB/dk2, which are
    returned; no other array of b's size is allocated. dB/dk2 is
    (c0 k1 t e^{-k2 t} - B) / (k2 - k1), whose cancellation costs about
    2 eps / (delta t)^2 relative, delta = k1 - k2. Where |delta t| < 1e-2
    it is -c0 k1 t^2 e^{-k1 t} phi'(delta t) instead, phi(x) = expm1(x) / x,
    with five terms of the series of phi' (exact to 3e-13 there). Times
    ascend, so that is a prefix of them, found by bisection on t and
    settled by that test at its edge, and each form is evaluated only on
    its own samples. dB/dk1 follows from dB/dk1 + dB/dk2 = B (1/k1 - t).
    """
    dk1, dk2 = out
    delta = k1 - k2
    k1c0 = k1 * c0
    gap = abs(float(delta))
    cut = int(np.searchsorted(t, 1e-2 / gap)) if gap > 0.0 else t.size
    while cut > 0 and not gap * t[cut - 1] < 1e-2:  # |delta t| grows with t
        cut -= 1
    while cut < t.size and gap * t[cut] < 1e-2:
        cut += 1
    head, tail = t[:cut], t[cut:]
    x = np.multiply(delta, head, out=dk2[:cut])  # until dphi is done
    dphi = np.divide(x, 144.0, out=dk1[:cut])  # 0.5 + x (1/3 + x (1/8 + x (1/30 + x/144)))
    for coef in (1.0 / 30.0, 1.0 / 8.0, 1.0 / 3.0):
        np.add(coef, dphi, out=dphi)
        np.multiply(x, dphi, out=dphi)
    np.add(0.5, dphi, out=dphi)
    lead = np.multiply(-k1c0, head, out=dk2[:cut])
    lead *= head
    lead *= e1[:cut]
    lead *= dphi
    rest = np.multiply(k1c0, tail, out=dk2[cut:])
    rest *= e2[cut:]
    rest -= b[cut:]
    rest /= -delta
    np.subtract(1.0 / k1, t, out=dk1)
    np.multiply(b, dk1, out=dk1)
    dk1 -= dk2
    return dk1, dk2


def bound_concentration(c0: float, kin: KineticsParams, t):
    """Adhered-complex concentration B(t), in kg/m^3.

    Evaluates the two-exponential closed form, switching to the
    expm1-scaled form within CONFLUENT_REL_TOL of k1 == k2 so the value
    stays finite and non-negative through the confluent point. Accepts a
    scalar or array time. The validated form of _bhat for one rate pair.
    """
    if not (math.isfinite(c0) and c0 >= 0.0):
        raise ValidationError(f"c0 must be finite and >= 0, got {c0!r}")
    tt = _as_time_array(t)
    b = _bhat([kin.k1], [kin.k2], tt.reshape(-1), c0)
    return _match(b.reshape(tt.shape), t)


def peak_time(kin: KineticsParams) -> float:
    """Time of the maximum of B(t): ln(k1/k2)/(k1 - k2), or 1/k1 at confluence.

    Evaluated as log1p((ka - kb)/kb)/(ka - kb) with (ka, kb) ordered so the
    result is stable near confluence and bitwise symmetric under swapping
    k1 and k2.
    """
    ka, kb = max(kin.k1, kin.k2), min(kin.k1, kin.k2)
    delta = ka - kb
    if delta == 0.0:
        return 1.0 / ka
    return math.log1p(delta / kb) / delta
