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

from .errors import ValidationError, require_positive

# |k1 - k2| below this fraction of max(k1, k2) uses the confluent-stable form.
CONFLUENT_REL_TOL = 1e-6


@dataclass(frozen=True)
class KineticsParams:
    """Adhesion rate k1 and detachment rate k2, both in 1/s."""

    k1: float
    k2: float

    def __post_init__(self):
        for name in ("k1", "k2"):
            require_positive(name, getattr(self, name))


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


def _bhat(k, t, out, pairs=None, work=None):
    """B(t) at C0 = 1 of every rate pair (k[i], k[j]) into out, unchecked; returns out.

    The grid's table kernel. k is a 1-D float array of rate nodes, t a 1-D
    array of times and out of shape (k.size, k.size, t.size). exp(-k t) is
    taken once per rate node. Each pair takes the branch and the operation
    order of _pair_bhat at c0 = 1. pairs, if given, is a pair of index
    arrays (i, j): only the rate pairs (k[i], k[j]) are evaluated, by the
    same operations, into out of shape (i.size, t.size), and exp(-k t) only
    for the nodes that they use, so that its scratch grows with i.size, not
    with the number of nodes. work, if given with pairs, is an array of
    that shape that receives the gathered exp(-k[j] t) rows, so that no
    temporary of B's size is allocated.
    """
    if pairs is not None:  # only the rate nodes that the pairs use
        used = np.zeros(k.size, dtype=bool)
        used[pairs[0]] = used[pairs[1]] = True
        place = np.cumsum(used) - 1  # of each used node among the used nodes
        pairs = place[pairs[0]], place[pairs[1]]
        k = k[used]
    k1 = k[:, None]
    k2 = k1.T
    e = np.multiply(-k1, t)
    np.exp(e, out=e)
    delta = k1 - k2
    confluent = np.abs(delta) < CONFLUENT_REL_TOL * np.maximum(k1, k2)
    scale = k1 / np.where(confluent, np.inf, -delta)
    if pairs is None:
        b = np.subtract(e[:, None, :], e[None, :, :], out=out)
        i, j = np.nonzero(confluent)
        at = (i, j)
    else:
        i, j = pairs
        b = np.take(e, i, axis=0, out=out)
        b -= np.take(e, j, axis=0, out=work)
        scale = scale[i, j]
        at = (np.flatnonzero(confluent[i, j]),)
        i, j = i[at], j[at]
    b *= scale[..., None]
    if i.size:  # the confluent pairs: the exact diagonal's form, then the expm1 form off it
        a, e = k1[i], e[i]
        b[at] = (a * t) * e
        d = delta[i, j]
        near = d != 0.0
        if near.any():
            a, e, d = a[near], e[near], d[near][:, None]
            b[tuple(x[near] for x in at)] = a * e * np.expm1(d * t) / d
    np.maximum(b, 0.0, out=b)
    return b


def _pair_bhat(k1, k2, t, c0, e1, e2, b):
    """B(t) of one rate pair (k1, k2), floats, into the row b, unchecked; returns b.

    exp(-k1 t) and exp(-k2 t) go into the rows e1 and e2. The branch is
    bound_concentration's: k1 c0 / (k2 - k1) (e1 - e2), or within
    CONFLUENT_REL_TOL (read at each call) of k1 == k2, (c0 k1 t) e1 on the
    exact diagonal and c0 k1 e1 expm1(delta t) / delta off it; then a clip
    at 0. Only the off-diagonal confluent form allocates, one row.
    """
    np.exp(np.multiply(-k1, t, out=e1), out=e1)
    np.exp(np.multiply(-k2, t, out=e2), out=e2)
    k1c0 = k1 * c0
    delta = k1 - k2
    if not abs(delta) < CONFLUENT_REL_TOL * max(k1, k2):
        np.subtract(e1, e2, out=b)
        b *= k1c0 / -delta
    elif delta == 0.0:
        np.multiply(k1c0, t, out=b)
        b *= e1
    else:
        np.expm1(np.multiply(delta, t, out=b), out=b)
        np.multiply(k1c0 * e1, b, out=b)
        b /= delta
    return np.maximum(b, 0.0, out=b)


def _bhat_rate_grad(k1, k2, t, c0, b, e1, e2, out):
    """(dB/dk1, dB/dk2) of the rate pair (k1, k2) at ascending times t, unchecked.

    b is that pair's B, and e1 and e2 are the exp(-k1 t) and exp(-k2 t)
    rows behind it, as _pair_bhat writes them. out is a pair of arrays
    shaped like b that receive dB/dk1 and dB/dk2, which are returned; no
    other array of b's size is allocated. dB/dk2 is
    (c0 k1 t e^{-k2 t} - B) / (k2 - k1), whose cancellation costs about
    2 eps / (delta t)^2 relative, delta = k1 - k2. Where |delta t| < 1e-2
    it is -c0 k1 t^2 e^{-k1 t} phi'(delta t) instead, phi(x) = expm1(x) / x,
    with five terms of the series of phi' (exact to 3e-13 there). Times
    ascend, so |delta| t never decreases and that is a prefix of them,
    found by a binary search of |delta| t, and each form is evaluated only
    on its own samples. dB/dk1 follows from dB/dk1 + dB/dk2 = B (1/k1 - t).
    """
    dk1, dk2 = out
    delta = k1 - k2
    k1c0 = k1 * c0
    cut = int(np.multiply(abs(delta), t, out=dk2).searchsorted(1e-2))
    # At t = 0 the series gives exactly -k1 c0 * 0.0; that sample, often the
    # whole head, is written directly.
    lo = 1 if cut and t[0] == 0.0 else 0
    dk2[:lo] = -k1c0 * 0.0
    if lo < cut:
        head = t[lo:cut]
        x = np.multiply(delta, head, out=dk2[lo:cut])  # until dphi is done
        dphi = np.divide(x, 144.0, out=dk1[lo:cut])  # 0.5 + x (1/3 + x (1/8 + x (1/30 + x/144)))
        for coef in (1.0 / 30.0, 1.0 / 8.0, 1.0 / 3.0):
            np.add(coef, dphi, out=dphi)
            np.multiply(x, dphi, out=dphi)
        np.add(0.5, dphi, out=dphi)
        lead = np.multiply(-k1c0, head, out=dk2[lo:cut])
        lead *= head
        lead *= e1[lo:cut]
        lead *= dphi
    rest = np.multiply(k1c0, t[cut:], out=dk2[cut:])
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
    scalar or array time. The validated form of _pair_bhat. A rate times
    a time beyond the float range gives -k t = -inf, so exp(-k t) = 0, its
    exact value, with no overflow warning.
    """
    if not (math.isfinite(c0) and c0 >= 0.0):
        raise ValidationError(f"c0 must be finite and >= 0, got {c0!r}")
    tt = _as_time_array(t)
    exps = np.empty((2, tt.size))
    with np.errstate(over="ignore"):
        b = _pair_bhat(kin.k1, kin.k2, tt.reshape(-1), c0, exps[0], exps[1], np.empty(tt.size))
    return _match(b.reshape(tt.shape), t)


def peak_time(kin: KineticsParams) -> float:
    """Time of the maximum of B(t): ln(k1/k2)/(k1 - k2), or 1/k1 at confluence.

    Evaluated as log1p((ka - kb)/kb)/(ka - kb) with (ka, kb) ordered so the
    result is stable near confluence and bitwise symmetric under swapping
    k1 and k2. Where (ka - kb)/kb overflows, ka/kb is beyond the float range
    and ln(ka) - ln(kb) takes the place of the log1p.
    """
    ka, kb = max(kin.k1, kin.k2), min(kin.k1, kin.k2)
    delta = ka - kb
    if delta == 0.0:
        return 1.0 / ka
    ratio = delta / kb
    if math.isinf(ratio):
        return (math.log(ka) - math.log(kb)) / delta
    return math.log1p(ratio) / delta
