"""Damped least-squares fitting and the two problem adapters built on it.

The solver is a bounded Levenberg-Marquardt loop: solve
(J'J + lambda diag(J'J)) step = -J'r, grow lambda tenfold on a rejected
step, shrink it tenfold on an accepted one, and project iterates back into
the bounds box after every step. Every problem supplies its analytic
Jacobian J (the MINPACK lmder pattern). The two adapters are:

* fit_sensitivity: power-law coefficients (a, b, c) of a sensitivity table.
* estimate_channel_params: channel parameters (k1, k2, gamma) from a
  measured voltage trace, seeded by a coarse log-spaced grid search and
  refined from distinct starts among the best grid cells.

Both stages factorise the model: B = C0(gamma) * Bhat(k1, k2, t) with
Bhat the adhered concentration for C0 = 1, and C0 linear in gamma. The
grid takes Bhat from kinetics._bhat, a table kernel over rate pairs, and LM
from kinetics._pair_bhat, the same operations for one pair, into rows that
the fit owns; kinetics._bhat_rate_grad gives the rate derivatives of that
Bhat. LM evaluates the model once per point: its Jacobian reuses the B of
the residual at the same point, and the exp(-k1 t) and exp(-k2 t) rows
behind it, and is written into the (3, n) rows of an array that the fit
owns, returned as their (n, 3) transpose, so a point allocates only its
residual and LM forms J'J from contiguous rows. Both stages mask where
channel._defined fails: the grid at the largest and smallest positive B of
each cell whose feasibility it reads (the candidates and the cells kept,
below), and LM through the NaN of channel._volts.

The grid's sensitivity is f(B) = a C0^b Bhat^b + c. It sums squared
errors in pieces of L = _GRID_PIECE_ELEMENTS / k_grid^2 samples (64 at
16 rate nodes). A kernel call's scratch is apart from the piece: it holds
_GRID_BLOCK_ELEMENTS, twice a piece of every rate pair, and one call spans
as many whole pieces as that holds for its live rate pairs: two while
every pair is live, hundreds once few are, and the last call may end in a
shorter piece. The Bhat rows of a call are grown to what it needs, so the
few candidates (below) of a short trace keep them small. Per call, one exp(-k t) row per rate node gives Bhat^b for
every live rate pair at once, and each live (gamma, pair) cell sums its
squared error through an affine map and the divider, piece by piece, and
adds the piece sums to its running SSE in time order. So the sums are
those of one call per piece, bit for bit.

LM refines only the refine_top best grid cells, so the grid scores in full
only the cells that can still finish among them. It abandons the others
early, as in squared-distance search (Rakthanmanon et al., "Searching and
mining trillions of time series subsequences under dynamic time warping",
KDD 2012), with bounds that are exact, and as there a cheap lower bound
comes before the costly sum. A pre-pass scores every cell on the samples
times[::stride], stride = ceil(n / L), at most one piece. Its 2 refine_top
best cells, the candidates, are those of a stable sort of the pre-pass
sums (ties to the lower cell index, NaN last), found by np.partition and a
sort of only the sums at or below its cut. They are scored over the whole
trace in whole-piece kernel calls, and their feasibility is judged from
the Bhat ends those calls track. tau, the refine_top-th smallest feasible
sum of squared errors (SSE) among them times 1 + _PRUNE_SLACK (inf with
fewer), bounds the refine_top-th best SSE from above. With
bound = tau (1 + _PRUNE_SLACK), a candidate is kept if its SSE is at most
tau and its pre-pass SSE at most bound, and is not scored again. Any
other cell is dropped once its pre-pass SSE exceeds bound, and then once
that plus its envelope bound (below) does. The sweep scores the cells left in time order
and drops a cell once its running SSE exceeds bound; a cell live to the
end is kept only if it scores at most tau. The sweep's calls track the
Bhat ends of their live pairs too (only the pre-pass does not), so every
kept cell is judged from its pair's Bhat over the whole
trace: it is a candidate, or it was live in every call of the sweep. Every
kept SSE adds the same piece sums in time order as one call per piece
would, so the kept cells, and their scores bit for bit, are a prefix of
the full grid's that holds at least the refine_top best; with refine_top
at least the feasible cells, tau is at least every score and the prefix is
the whole grid.

The envelope bound is the piecewise aggregate bound of Keogh et al.,
"Dimensionality reduction for fast similarity search in large time series
databases" (KAIS 2001). The c = stride - 1 samples between two consecutive
pre-pass samples form a block (later samples add nothing), and the bound
reads Bhat^b at the blocks' ends from the pre-pass's own table, which the
grid keeps, with the mask of its Bhat < 2^-1000, until the envelope has
gathered the rows of its live pairs. A cell's volts
G / (s Bhat^b + o) rise with Bhat wherever s Bhat^b + o > 0 (G, s > 0,
b < 0), and Bhat is unimodal with its peak at ln(k1 / k2) / (k1 - k2), or
1 / k1 where k1 = k2. So in a block the model lies in [lo, hi], its values
at the block's ends, and by Cauchy-Schwarz the samples, of mean mu, add at
least c dist(mu, [lo, hi])^2 to the SSE. A block that holds the peak, or
whose ends are both below 2^-1000 (they count as 0, as subnormal rounding
is absolute), takes hi = G / o, the model's supremum as Bhat grows without
bound; hi = inf where the widened end gives s Bhat^b + o <= 0 or o <= 0.
The widening covers how far the computed Bhat departs from monotone: eps
(1 + k t) from the exp(-k t) rows, times about 1 / (|k1 - k2| t) in the
two-exponential form (as in _bhat_rate_grad), used only where
|k1 - k2| >= CONFLUENT_REL_TOL k_min. Each block's end Bhat^b take the
factors (1 -/+ m)^b (1 +/- 2^-46), which also cover the power's rounding,
with m = 2^-44 (1 + k_max t1)(1 + 1 / (CONFLUENT_REL_TOL k_min t0)), t0 and
t1 the block's first positive and last times: about 40 times the departure
at both ends; m >= 1 leaves hi = G / o. lo and hi then follow by the SSE's
own floating-point operations, which are monotone, and mu is widened by
2^-50 times the block's sum of |v|, over its rounding. Every 8th block is
bounded first, then every block for the cells left. Squared errors are
>= 0, so a sum over a subset of the samples, or such a bound, is at most
the sum over all of them (the two round differently, by far less than the
slack), and no cell that scores at most tau is dropped.

LM stops on MINPACK's scale-free gradient test: once every column of J is
within GRADIENT_COS_TOL of orthogonal to r, further steps change the cost
only in its last digits. Each basin is refined once. The adhesion/detachment
model is exactly degenerate under swapping k1 and k2 while rescaling gamma
(B(t; C0 g, k1, k2) = B(t; C0 g k1/k2, k2, k1)), so channel estimates are
canonicalized to k1 >= k2. Grid cells that are mirrors or neighbours of a
start already refined are not refined again, and a later start is dropped
as soon as it comes within one grid step of a minimum already found. Both
rules hold only for minima inside the box: the box is not symmetric under
the swap, so a start that ends on a bound may have a mirror that does not.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import kinetics as kin_mod
from .channel import TransmitterSpec
from .errors import (
    AlignmentError,
    InsufficientDataError,
    NoSignalError,
    ValidationError,
    require_positive,
)
from .sensor import SensitivityCoeffs, SensitivityTable, SensorSpec
from .traceio import Trace

MAX_ITERATIONS = 200
# Converged once every Jacobian column is this close to orthogonal to r
# (MINPACK's gtol): max_j |J_j' r| / (||J_j|| ||r||), free of scale and n.
GRADIENT_COS_TOL = 1e-8
STEP_TOL = 1e-12
LAMBDA_INIT = 1e-3

# Jacobian condition estimate above this is reported as rank-deficient.
RANK_DEFICIENT_COND = 1e8

# Bound on k_grid^2 * L, the float64 elements of one piece of the grid stage:
# L samples, at least one, for every rate pair, summed on their own. The
# pre-pass scores at most one piece.
_GRID_PIECE_ELEMENTS = 2**14

# Bound on the float64 elements of the scratch of one grid kernel call, at
# least one sample for every rate pair, so scratch memory stays flat in trace
# length. It is apart from the piece: one call spans whole pieces, as many as
# its scratch holds for the live rate pairs.
_GRID_BLOCK_ELEMENTS = 2**15

# Relative slack of the grid's pruning bound over the rounding of its sums.
_PRUNE_SLACK = 1e-9

# Most grid cells a search may ask for. The grid keeps a few float64 arrays
# of one entry per cell, so this caps them at a few hundred MB.
_MAX_GRID_CELLS = 2**24


@dataclass
class FitProblem:
    """A bounded nonlinear least-squares problem.

    residual maps a parameter vector to a residual vector, and jacobian
    maps it to the residual's Jacobian J (one row per residual, one column
    per parameter) in either memory order: LM reads its columns as the rows
    of J.T, and a J that is the transpose of a C-ordered array gives them
    contiguous. bounds is a sequence of finite (lo, hi) pairs; x0 must
    lie inside the bounds. abandon, if given, is asked before the residual
    is evaluated at each new point (the start and every trial step); once
    it returns True the fit stops, terminated "abandoned".
    """

    residual: callable
    jacobian: callable
    bounds: tuple
    x0: np.ndarray
    abandon: callable | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        lo, hi = self._bounds_arrays()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("bounds must be finite")
        if np.any(lo >= hi):
            raise ValidationError("each bound interval must satisfy lo < hi")
        if lo.shape != self.x0.shape:
            raise ValidationError("bounds and x0 must have matching length")
        if np.any(self.x0 < lo) or np.any(self.x0 > hi):
            raise ValidationError("initial guess must lie inside the bounds")

    def _bounds_arrays(self):
        b = np.asarray(self.bounds, dtype=float)
        return b[:, 0], b[:, 1]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    mse is the mean squared residual (V^2 for trace problems), rmse its
    square root, iterations the number of accepted steps, and
    jac_condition the 2-norm condition estimate of the final Jacobian.
    residual_evals and jacobian_evals count the calls of the problem's
    residual and jacobian.
    termination says why the fit stopped: "gradient" or "step" (both
    converged), "max_iter", "no_descent" (no damping gave a lower cost) or
    "abandoned" (the problem's abandon said so; jac_condition is NaN, and
    mse and rmse are NaN if no residual was evaluated). at_bound holds, per
    parameter, whether the final iterate lies on its lower or upper bound.
    """

    params: np.ndarray
    mse: float
    rmse: float
    iterations: int
    converged: bool
    jac_condition: float
    residual_evals: int
    jacobian_evals: int
    termination: str
    at_bound: tuple


@dataclass(frozen=True)
class ChannelEstimate:
    """Estimated channel parameters for one trace.

    canonical is True when the k1 >= k2 convention is in force; it is False
    only when enforcing it would push gamma below 1, in which case the
    non-canonical branch is kept. low_confidence marks a best MSE above the
    configured threshold.
    """

    k1: float
    k2: float
    gamma: float
    canonical: bool
    mse: float
    low_confidence: bool = False
    fit: FitResult | None = None

    def __post_init__(self):
        for name in ("k1", "k2"):
            require_positive(name, getattr(self, name))
        if not self.gamma >= 1.0 - 1e-9:
            raise ValidationError(f"gamma must be >= 1, got {self.gamma!r}")
        if self.canonical and self.k1 < self.k2:
            raise ValidationError(
                f"canonical estimate requires k1 >= k2, got ({self.k1!r}, {self.k2!r})"
            )


@dataclass(frozen=True)
class SearchConfig:
    """Grid and refinement settings for estimate_channel_params.

    The rate-constant box and the gamma ceiling are engineering defaults
    sized for seconds-scale spray signals; tighten gamma_max to the
    geometric bound (tan theta / tan theta_rv)^2 when the inner-cone angle
    has been measured. refine_top bounds the LM starts: at most refine_top
    distinct starts among the refine_top best grid cells, where a cell
    within one grid step of a start already taken, directly or as its
    swap-scale mirror, is skipped, and a start that enters a basin already
    refined (within one grid step of its minimum) is dropped there. Both
    rules follow only starts whose fit ended inside the box. refine_top also
    sets how many cells the grid scores in full (see the module doc).

    The box bounds and the thresholds must be finite, the thresholds >= 0,
    and the grid may have at most _MAX_GRID_CELLS (2^24) cells,
    k_grid^2 * gamma_grid.
    """

    k_min: float = 0.05
    k_max: float = 50.0
    gamma_min: float = 1.0
    gamma_max: float = 25.0
    k_grid: int = 16
    gamma_grid: int = 8
    refine_top: int = 5
    mse_threshold: float = 0.021
    flat_floor_v: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.k_min < self.k_max):
            raise ValidationError("need 0 < k_min < k_max")
        if not (1.0 <= self.gamma_min < self.gamma_max):
            raise ValidationError("need 1 <= gamma_min < gamma_max")
        if not (math.isfinite(self.k_max) and math.isfinite(self.gamma_max)):
            raise ValidationError(
                f"k_max and gamma_max must be finite, got {self.k_max!r} and {self.gamma_max!r}"
            )
        if self.k_grid < 2 or self.gamma_grid < 2:
            raise ValidationError("grid sizes must be >= 2")
        cells = self.k_grid**2 * self.gamma_grid
        if cells > _MAX_GRID_CELLS:
            raise ValidationError(
                f"k_grid^2 * gamma_grid = {cells} grid cells, more than the {_MAX_GRID_CELLS} allowed"
            )
        if self.refine_top < 1:
            raise ValidationError("refine_top must be >= 1")
        for name in ("mse_threshold", "flat_floor_v"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class DistanceStats:
    """Per-distance mean and sample std of the three channel parameters."""

    s: float
    n: int
    k1_mean: float
    k1_std: float
    k2_mean: float
    k2_std: float
    gamma_mean: float
    gamma_std: float


@dataclass(frozen=True)
class TrendReport:
    """Distance trend of fitted parameters: per-distance stats plus verdicts."""

    rows: tuple
    verdicts: dict = field(default_factory=dict)


def mse(model: Trace, measured: Trace) -> float:
    """Mean squared voltage difference between two traces on one grid, V^2.

    The traces must have the same sample count and time stamps matching
    within 1e-9 s; otherwise resample one of them onto the other's grid
    first.
    """
    if len(model) != len(measured) or len(model) == 0:
        raise AlignmentError(
            f"sample counts differ ({len(model)} vs {len(measured)}) or are "
            "zero; resample onto a common grid"
        )
    if np.max(np.abs(model.times - measured.times)) > 1e-9:
        raise AlignmentError(
            "time stamps differ by more than 1e-9 s; resample onto a common grid"
        )
    diff = model.volts - measured.volts
    return float(diff @ diff) / diff.size


def _normal_equations(J, r):
    """g = J'r and A = J'J, for J of either memory order.

    A's upper triangle takes one dot per pair of J's columns, the rows of
    J.T, and is mirrored to the lower one, so A is exactly symmetric.
    """
    cols = J.T
    A = np.empty((len(cols), len(cols)))
    for i, j in itertools.combinations_with_replacement(range(len(cols)), 2):
        A[i, j] = A[j, i] = cols[i] @ cols[j]
    return cols @ r, A


def levenberg_marquardt(problem: FitProblem) -> FitResult:
    """Minimize 0.5 ||r(p)||^2 subject to box bounds.

    Stops converged on the gradient test of MINPACK's lmder (Moré 1978),
    which does not depend on the scale of r or of the parameters: every
    column of J is within GRADIENT_COS_TOL of orthogonal to r,
    max_j |J_j' r| / (||J_j|| ||r||) <= GRADIENT_COS_TOL, where a zero
    column counts as 0 and r = 0 as converged ("gradient"); or once the
    proposed relative step falls below STEP_TOL ("step"). Stops
    unconverged after MAX_ITERATIONS accepted steps ("max_iter"), when no
    decreasing step exists at any damping ("no_descent"), or when the
    problem's abandon returns True for the next point to evaluate
    ("abandoned"); the result keeps the evaluation counts and the last
    accepted point. Never raises for non-convergence. A non-finite residual
    at the initial guess is an input error.

    J is read only until the next jacobian call, so the problem's jacobian
    may return one array that it overwrites each call. Its residual must
    return a new array each call: the accepted r is kept beside r_trial.
    The fit runs under np.errstate(over="ignore"), the problem's residual,
    jacobian and abandon included: an overflow gives inf without a
    RuntimeWarning, and a step whose cost is not finite is rejected.
    """
    lo, hi = problem._bounds_arrays()
    residual_evals = jacobian_evals = 0

    def residual(x):
        nonlocal residual_evals
        residual_evals += 1
        return np.asarray(problem.residual(x), dtype=float)

    def jacobian(x):
        nonlocal jacobian_evals
        jacobian_evals += 1
        return np.asarray(problem.jacobian(x), dtype=float)

    def abandoned(x):
        return problem.abandon is not None and bool(problem.abandon(x))

    with np.errstate(over="ignore"):  # an overflowing r, J or cost is inf, not a warning
        p = problem.x0.copy()
        r = J = None
        accepted_steps = 0
        termination = "abandoned" if abandoned(p) else None
        if termination is None:
            r = residual(p)
            if not np.all(np.isfinite(r)):
                raise ValidationError("residual is not finite at the initial guess")
            cost = 0.5 * float(r @ r)
            lam = LAMBDA_INIT
        while termination is None:
            J = jacobian(p)
            g, A = _normal_equations(J, r)
            diag = A.diagonal().tolist()
            norms = [math.sqrt(ajj) * math.sqrt(2.0 * cost) for ajj in diag]  # ||J_j|| ||r||
            # each cosine |J_j' r| / norms_j is 0 where J_j' r = 0 (a zero column,
            # or r = 0) and inf where only norms_j is; a NaN one fails the test
            if all(gj == 0.0 or nj and abs(gj) / nj <= GRADIENT_COS_TOL for gj, nj in zip(g.tolist(), norms)):
                termination = "gradient"
                break
            if accepted_steps >= MAX_ITERATIONS:
                termination = "max_iter"
                break
            damping = np.diag([1.0 if ajj <= 0.0 else ajj for ajj in diag])
            step_floor = STEP_TOL * (np.linalg.norm(p) + STEP_TOL)
            termination = "no_descent"  # unless a step is accepted below
            while lam <= 1e15:
                damped = A + lam * damping
                try:
                    step = np.linalg.solve(damped, -g)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(damped, -g, rcond=None)[0]
                if not all(map(math.isfinite, step.tolist())):
                    lam *= 10.0
                    continue
                trial = (p + step).clip(lo, hi)
                moved = trial - p
                if np.linalg.norm(moved) < step_floor:
                    termination = "step"
                    break
                if abandoned(trial):
                    termination = "abandoned"
                    break
                r_trial = residual(trial)
                cost_trial = 0.5 * float(r_trial @ r_trial)
                if not math.isfinite(cost_trial):  # a NaN or inf residual, or overflow
                    cost_trial = math.inf
                if cost_trial < cost:
                    p, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 10.0, 1e-14)
                    accepted_steps += 1
                    termination = None
                    break
                lam *= 10.0
        mean_sq = math.nan if r is None else float(r @ r) / r.size
        try:
            cond = math.nan if J is None or termination == "abandoned" else float(np.linalg.cond(J))
        except np.linalg.LinAlgError:
            cond = math.inf
    return FitResult(
        params=p,
        mse=mean_sq,
        rmse=math.sqrt(mean_sq),
        iterations=accepted_steps,
        converged=termination in ("gradient", "step"),
        jac_condition=cond,
        residual_evals=residual_evals,
        jacobian_evals=jacobian_evals,
        termination=termination,
        at_bound=tuple(bool(v) for v in (p <= lo) | (p >= hi)),
    )


def fit_sensitivity(table: SensitivityTable) -> tuple[SensitivityCoeffs, FitResult]:
    """Fit a * x^b + c to a sensitivity table by least squares.

    Needs at least 4 points with strictly increasing, positive
    concentrations. The initial guess comes from a profiled scan, variable
    projection (Golub & Pereyra 1973): at each of 60 values of b evenly
    spaced over its bounds, (a, c) is the linear least-squares fit, clipped
    to their bounds, and the b of lowest SSE is kept; a b where some x^b
    is not finite is skipped. A degenerate table (constant ratio column, or
    a rank-deficient Jacobian at the solution), or a fit that ends on a
    bound, produces a warning and converged=False.
    """
    x = table.concentration
    y = table.ratio
    if len(table) < 4:
        raise ValidationError(
            f"sensitivity fit is under-determined: need >= 4 points, got {len(table)}"
        )
    if np.any(x <= 0.0) or (x.size > 1 and not np.all(np.diff(x) > 0.0)):
        raise ValidationError("concentrations must be positive and strictly increasing")

    degenerate = float(np.ptp(y)) < 1e-12

    bounds = ((1e-8, 1e3), (-5.0, -0.01), (-1e3, 1e3))
    lo, hi = np.array(bounds).T
    x0, best = None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for b in np.linspace(lo[1], hi[1], 60):
            power = x**b
            if not np.all(np.isfinite(power)):
                continue
            a, c = np.linalg.lstsq(np.column_stack((power, np.ones_like(x))), y, rcond=None)[0]
            p = np.clip([a, b, c], lo, hi)
            sse = float(np.sum((p[0] * power + p[2] - y) ** 2))
            if x0 is None or sse < best:
                x0, best = p, sse

    def residual(p):
        return p[0] * x ** p[1] + p[2] - y

    def jacobian(p):
        power = x ** p[1]
        return np.column_stack((power, p[0] * power * np.log(x), np.ones_like(x)))

    problem = FitProblem(
        residual=residual,
        jacobian=jacobian,
        bounds=bounds,
        x0=x0,
    )
    result = levenberg_marquardt(problem)
    pinned = ", ".join(name for name, hit in zip("abc", result.at_bound) if hit)
    why = None
    if degenerate or result.jac_condition > RANK_DEFICIENT_COND:
        why = (
            "sensitivity table is rank-deficient for a power-law fit; "
            "coefficients are not uniquely determined"
        )
    elif pinned:
        why = f"sensitivity fit ended on the bound of {pinned}; coefficients are not a free minimum"
    if why:
        warnings.warn(why, stacklevel=2)
        result = dataclasses.replace(result, converged=False)
    coeffs = SensitivityCoeffs(
        a=float(result.params[0]), b=float(result.params[1]), c=float(result.params[2])
    )
    return coeffs, result


def canonicalize(k1: float, k2: float, gamma: float, gamma_min: float = 1.0):
    """Map an estimate onto the k1 >= k2 branch when gamma allows it.

    Returns (k1, k2, gamma, canonical). The mirror triple (k2, k1,
    gamma k1 / k2) is exact, so this never changes the modeled voltages.
    """
    if k1 >= k2:
        return k1, k2, gamma, True
    mirror_gamma = gamma * k1 / k2
    if mirror_gamma >= gamma_min * (1.0 - 1e-12):
        return k2, k1, max(mirror_gamma, gamma_min), True
    return k1, k2, gamma, False


@functools.lru_cache(maxsize=16, typed=True)  # typed: a float grid size still fails in geomspace
def _grid_nodes(k_min, k_max, k_grid, gamma_min, gamma_max, gamma_grid):
    """The grid's rate nodes and gamma nodes, log-spaced over the box, as read-only arrays.

    Cached per box, so that a run of fits on one SearchConfig computes them once.
    """
    nodes = np.geomspace(k_min, k_max, k_grid), np.geomspace(gamma_min, gamma_max, gamma_grid)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _smallest(values: np.ndarray, m: int) -> np.ndarray:
    """Flat indices of the m smallest values, as np.argsort(values, axis=None, kind="stable")[:m].

    np.partition finds the m-th smallest value, and only the entries not
    above it are sorted: they hold the m smallest, and the stable sort
    orders them by value, then by index, with NaN last, as the full sort
    does.
    """
    flat = values.ravel()
    if m >= flat.size:
        return np.argsort(flat, kind="stable")
    at = np.flatnonzero(~(flat > np.partition(flat, m - 1)[m - 1]))  # NaN entries too; they sort last
    return at[np.argsort(flat[at], kind="stable")[:m]]


@np.errstate(divide="ignore", over="ignore")
def _envelope_blocks(times, volts, stride, k_nodes, live, powers, small, b):
    """The envelope bound's terms (module doc) for the blocks between the samples times[::stride].

    stride >= 2, and there are 2 or more such samples. powers holds Bhat^b
    there for the rate pairs live (k1 node * k_nodes.size + k2 node), one
    row each, and small is True where Bhat < 2^-1000; powers is set to
    inf, Bhat = 0's power, where small is. Returns, with the block on the last
    axis: the left and right ends' Bhat^b and no_hi (no upper end) per pair,
    the widened (lo - mu, mu - hi) shift and the margin factors on the
    (larger, smaller) end Bhat^b.
    """
    at = times[::stride]
    inner = volts[: (at.size - 1) * stride].reshape(-1, stride)[:, 1:]
    mean, slack = inner.sum(axis=1) / (stride - 1), 2.0**-50 * np.abs(inner).sum(axis=1)
    shift = np.stack((-(mean + slack), mean - slack))
    t0 = np.where(at[:-1] > 0.0, at[:-1], times[1])
    m = 2.0**-44 * (1.0 + k_nodes[-1] * at[1:]) * (1.0 + 1.0 / (kin_mod.CONFLUENT_REL_TOL * k_nodes[0] * t0))
    factor = np.stack((np.maximum(1.0 - m, 0.0) ** b, np.where(m < 1.0, (1.0 + m) ** b, 0.0)))
    factor *= [[1.0 + 2.0**-46], [1.0 - 2.0**-46]]
    k1, k2 = k_nodes[live // k_nodes.size], k_nodes[live % k_nodes.size]
    delta = np.abs(k1 - k2)
    peak_t = np.divide(np.log1p(delta / np.minimum(k1, k2)), delta, out=1.0 / k1, where=delta > 0.0)[:, None]
    no_hi = small[:, :-1] & small[:, 1:] | (at[:-1] < peak_t * (1.0 + 2.0**-40)) & (at[1:] > peak_t * (1.0 - 2.0**-40))
    powers[small] = np.inf
    return powers[:, :-1], powers[:, 1:], no_hi, shift, factor


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a NaN bound (0 * inf) drops no cell
def _envelope_bound(blocks, rows, slope, offset, gain, c, work):
    """Per cell of volts gain / (slope[i] Bhat^b + offset), the sum of c dist(mu, [lo, hi])^2 over blocks.

    blocks is _envelope_blocks' terms or a slice of their last axis, and
    cell i reads their pair row rows[i]. work is the scratch, four floats
    per cell and block, in as many groups of cells as it needs.
    """
    left, right, no_hi, shift, factor = blocks
    width = shift.shape[-1]
    out = np.empty(rows.size)
    step = work.size // (4 * width)
    for a in range(0, rows.size, step):
        chunk = slice(a, a + step)
        x, part = work[: 4 * rows[chunk].size * width].reshape(2, -1, 2, width)
        np.take(left, rows[chunk], axis=0, out=x[:, 0])
        np.take(right, rows[chunk], axis=0, out=x[:, 1])
        np.maximum(x[:, 0], x[:, 1], out=part[:, 0])  # Bhat^b falls as Bhat rises
        np.minimum(x[:, 0], x[:, 1], out=part[:, 1])
        np.copyto(part[:, 1], 0.0, where=no_hi[rows[chunk]])
        part *= factor
        part *= slope[chunk, None, None]
        part += offset
        np.maximum(part[:, 1], 0.0, out=part[:, 1])  # at or past the pole: hi = inf
        np.divide([[gain], [-gain]], part, out=part)
        part += shift
        np.maximum(part, 0.0, out=part)
        out[chunk] = c * np.einsum("ijk,ijk->i", part, part)
    return out


def _grid_cells(
    measured: Trace,
    tx: TransmitterSpec,
    sensor: SensorSpec,
    s: float,
    search: SearchConfig,
) -> np.ndarray:
    """Score the coarse (k1, k2, gamma) grid against a trace, pruned to search.refine_top.

    Returns one row (mse, k1, k2, gamma) per feasible cell kept (see the
    module doc for the pieces, the kernel calls, the candidates, the
    envelope and the sweep), sorted by MSE, ties broken by the smallest
    triple. Bhat = 0 gives Bhat^b = inf and so exactly 0 V, the model's
    B -> 0 limit. A cell is left out where channel._defined fails at its
    largest or its smallest positive B. That is evaluated only at the cells
    it decides: the candidates, before tau is taken among them, and the
    cells kept.
    """
    sens = sensor.sens
    k_nodes, g_nodes = _grid_nodes(
        search.k_min, search.k_max, search.k_grid, search.gamma_min, search.gamma_max, search.gamma_grid
    )
    c0 = channel_mod.initial_concentration(dataclasses.replace(tx, gamma=1.0), s) * g_nodes
    offset = sens.c + sensor.rl / sensor.ro
    gain = sensor.ein * sensor.rl / sensor.ro
    times, meas_v = measured.times, measured.volts
    n, k = meas_v.size, k_nodes.size
    pairs = k * k
    piece = max(1, _GRID_PIECE_ELEMENTS // pairs)
    block_buf = np.empty(pairs * max(1, _GRID_BLOCK_ELEMENTS // pairs))
    bhat_buf = np.empty(0)  # grown to what a call needs, at most block_buf.size
    peak = np.zeros(pairs)
    low = np.full(pairs, np.inf)
    sse = np.zeros((g_nodes.size, pairs))
    alive = np.ones(sse.shape, dtype=bool)

    def bhat_rows(rows, size):
        """bhat_buf as rows x size, grown first if it is shorter."""
        nonlocal bhat_buf
        if bhat_buf.size < rows * size:
            bhat_buf = np.empty(rows * size)
        return bhat_buf[: rows * size].reshape(rows, size)

    def add_pieces(t, meas, live, cells, sums):
        """Add the squared errors at times t of the (gamma, pair) cells set in cells to sums.

        live holds the pairs of the cells set, and live.size times t.size
        fit block_buf. Their Bhat, in bhat_buf, is folded into their peak
        and smallest positive Bhat, and its power goes to add_powers.
        """
        bhat = bhat_rows(live.size, t.size)
        if live.size == pairs:  # every pair: no gathers
            kin_mod._bhat(k_nodes, t, bhat.reshape(k, k, t.size))
        else:
            work = block_buf[: bhat.size].reshape(bhat.shape)
            kin_mod._bhat(k_nodes, t, bhat, pairs=np.divmod(live, k), work=work)
        peak[live] = np.maximum(peak[live], bhat.max(axis=1))
        row_low = bhat.min(axis=1)
        zero = ~(row_low > 0.0)  # rows holding a 0 take their smallest positive Bhat
        if zero.any():
            rows = bhat if zero.all() else bhat[zero]
            row_low[zero] = np.min(rows, axis=1, initial=np.inf, where=rows > 0.0)
        low[live] = np.minimum(low[live], row_low)
        add_powers(np.power(bhat, sens.b, out=bhat), live, meas, cells, sums)

    def add_powers(powers, live, meas, cells, sums):
        """Add the squared errors at the samples meas of the (gamma, pair) cells set in cells to sums.

        powers holds Bhat^b there of the pairs live, one row each. meas is
        whole pieces and at most one shorter last piece. Each piece is
        summed on its own, and the piece sums are added to sums in time
        order, as one call per piece would add them.
        """
        size = meas.size
        whole = size // piece * piece  # samples in whole pieces
        g_of, row_of = np.nonzero(cells[:, live])
        step = live.size * (block_buf.size // (live.size * size))  # rows that fill block_buf
        for a in range(0, g_of.size, step):
            g, rows = g_of[a : a + step], row_of[a : a + step]
            part = block_buf[: rows.size * size].reshape(-1, size)
            nodes = rows.size // live.size
            if rows.size == nodes * live.size and g[-1] - g[0] + 1 == nodes:  # whole gamma nodes, every live pair
                np.multiply(slope[g[0] : g[-1] + 1, None, None], powers, out=part.reshape(nodes, live.size, size))
            else:
                np.take(powers, rows, axis=0, out=part)
                part *= slope[g, None]
            part += offset
            np.divide(gain, part, out=part)
            part -= meas
            run = np.empty((rows.size, 1 + -(-size // piece)))  # running SSE, piece by piece
            run[:, 0] = sums[g, live[rows]]
            if whole:
                head = part[:, :whole].reshape(rows.size, -1, piece)
                np.einsum("ijk,ijk->ij", head, head, out=run[:, 1 : 1 + whole // piece])
            if whole < size:
                np.einsum("ij,ij->i", part[:, whole:], part[:, whole:], out=run[:, -1])
            np.cumsum(run, axis=1, out=run)
            sums[g, live[rows]] = run[:, -1]

    def add_trace(cells, sums, bound):
        """Add the squared errors over the whole trace of the cells set in cells to sums.

        Each add_pieces call spans as many whole pieces as block_buf holds
        for the live pairs; after each, a cell whose running sum exceeds
        bound is cleared from cells, until none is live. So a cell still
        set at the end has its pair's Bhat range over the whole trace.
        """
        start = 0
        while start < n and cells.any():
            live = np.flatnonzero(cells.any(axis=0))
            stop = min(start + block_buf.size // live.size // piece * piece, n)
            add_pieces(times[start:stop], meas_v[start:stop], live, cells, sums)
            cells &= ~(sums > bound)
            start = stop

    def defined(cells):
        """cells, cleared where channel._defined fails at their pair's peak or smallest positive Bhat as tracked."""
        g, p = np.nonzero(cells)
        # a pair with no positive Bhat has peak 0 and checks B = 0 at both ends
        ends = c0[g, None] * np.stack((peak[p], np.minimum(low[p], peak[p])), axis=-1)
        ok = np.zeros_like(cells)
        ok[g, p] = channel_mod._defined(ends, sens.a * ends**sens.b + sens.c).all(axis=1)
        return ok

    top = search.refine_top
    with np.errstate(divide="ignore", over="ignore"):
        slope = sens.a * c0**sens.b
        stride = -(-n // piece)
        at = times[::stride]
        prepass = kin_mod._bhat(k_nodes, at, np.empty((k, k, at.size))).reshape(pairs, at.size)
        small = prepass < 2.0**-1000  # the envelope counts such an end as 0
        sub = np.zeros_like(sse)
        add_powers(np.power(prepass, sens.b, out=prepass), np.arange(pairs), meas_v[::stride], alive, sub)
        candidates = np.zeros_like(alive)
        candidates.flat[_smallest(sub, 2 * top)] = True
        add_trace(candidates, sse, np.inf)
        best = np.sort(sse[defined(candidates)])
        tau = best[top - 1] * (1.0 + _PRUNE_SLACK) if best.size >= top else np.inf
        bound = tau * (1.0 + _PRUNE_SLACK)
        alive = ~(sub > bound)
        scored = alive & ~candidates  # the candidates have their SSE already
        if bound < np.inf and scored.any() and n > stride > 1:  # the envelope: samples lie between pre-pass ones
            live = np.flatnonzero(scored.any(axis=0))
            powers = np.take(prepass, live, axis=0, out=bhat_rows(live.size, at.size))
            blocks = _envelope_blocks(times, meas_v, stride, k_nodes, live, powers, small[live], sens.b)
            for use, into in ((slice(0, None, 8), sub.copy()), (slice(None), sub)):  # every 8th block first
                g, rows = np.nonzero(scored[:, live])
                part = tuple(term[..., use] for term in blocks)
                into[g, live[rows]] += _envelope_bound(part, rows, slope[g], offset, gain, stride - 1, block_buf)
                scored &= ~(into > bound)
        del prepass, small  # the sweep reads no pre-pass table
        add_trace(scored, sse, bound)
        ok = defined((scored | alive & candidates) & ~(sse > tau))
    scores = np.where(ok, sse / n, np.inf).T.reshape(k, k, g_nodes.size)
    flat = scores.ravel()
    feasible_idx = np.flatnonzero(flat < np.inf)
    # Flat indices run over (k1, k2, gamma) in node order, so a stable sort
    # by MSE breaks ties on the smallest triple.
    order = feasible_idx[np.argsort(flat[feasible_idx], kind="stable")]
    i, j, g = np.unravel_index(order, scores.shape)
    return np.column_stack((flat[order], k_nodes[i], k_nodes[j], g_nodes[g]))


class _TraceFit:
    """Residual and Jacobian of the channel model on one trace, in p = (k1, k2, gamma).

    Set up once per fit: C0 is linear in gamma, so c0 is C0 at gamma = 1,
    and the caller checks the time array once. Both use
    B = c0 gamma Bhat(k1, k2, t) from kinetics._pair_bhat, a B^b, and the
    exp(-k1 t) and exp(-k2 t) rows of Bhat, evaluated once per point into
    four rows that this object owns: LM asks for the Jacobian at the point
    of its last residual, and that call reuses them. Any other point is
    evaluated afresh, and only the last point is held. The residual maps B
    to volts by channel._volts (NaN where the model is undefined), and is a
    new array each call, since LM keeps the accepted residual beside the
    trial one. The Jacobian is
    dV/dtheta = -(V^2/G) a b B^(b-1) dB/dtheta, with G = ein rl / ro,
    dB/dk1 and dB/dk2 from kinetics._bhat_rate_grad and
    dB/dgamma = B / gamma, evaluated as -b V w (dB/dtheta) / B with
    w = a B^b / (f(B) + rl/ro) so that no factor overflows; it is 0 where
    B = 0. It is written into the rows of one (3, n) array that this object
    owns, with no other scratch: dV/dB waits in the gamma row while
    kinetics._bhat_rate_grad writes the rate rows, which are then scaled by
    it in place. It is returned as the (n, 3) transpose, so it is
    overwritten by the next Jacobian call: LM reads only its latest J.
    """

    def __init__(self, measured: Trace, tx: TransmitterSpec, sensor: SensorSpec, s: float):
        self.times = measured.times
        self.volts = measured.volts
        self.sensor = sensor
        self.c0 = channel_mod.initial_concentration(dataclasses.replace(tx, gamma=1.0), s)
        self._at = None  # the point (k1, k2, gamma) whose model _model_rows hold
        self._model_rows = np.empty((4, self.times.size))  # B, a B^b, exp(-k1 t), exp(-k2 t)
        self._jac = np.empty((3, self.times.size))  # one row per parameter

    def _model(self, p):
        """p as floats, and B, a B^b, exp(-k1 t) and exp(-k2 t) at p."""
        at = tuple(map(float, p))
        b, ab, e1, e2 = self._model_rows
        if at != self._at:
            self._at = None  # until the rows hold the new point
            kin_mod._pair_bhat(at[0], at[1], self.times, self.c0 * at[2], e1, e2, b)
            sens = self.sensor.sens
            with np.errstate(divide="ignore", over="ignore"):
                np.power(b, sens.b, out=ab)
                np.multiply(sens.a, ab, out=ab)
            self._at = at
        return at, b, ab, e1, e2

    def residual(self, p):
        _, b, ab, _, _ = self._model(p)
        r = channel_mod._volts(b, self.sensor, ab)
        r -= self.volts
        return r

    def jacobian(self, p):
        (k1, k2, gamma), b, ab, e1, e2 = self._model(p)
        sensor, sens = self.sensor, self.sensor.sens
        jac = self._jac
        work, dv_db = jac[0], jac[2]  # dV/dB waits in the gamma row
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            denom = np.add(ab, sens.c + sensor.rl / sensor.ro, out=work)
            volts = np.divide(sensor.ein * sensor.rl / sensor.ro, denom, out=dv_db)
            np.multiply(-sens.b, volts, out=dv_db)
            dv_db *= np.divide(ab, denom, out=work)
            dv_db /= b
        dv_db[~(b > 0.0)] = 0.0
        kin_mod._bhat_rate_grad(k1, k2, self.times, self.c0 * gamma, b, e1, e2, out=jac[:2])
        jac[:2] *= dv_db
        dv_db *= b
        dv_db /= gamma
        return jac.T

    def problem(self, x0, search: SearchConfig) -> FitProblem:
        """The bounded LM problem started at x0 = (k1, k2, gamma)."""
        return FitProblem(
            residual=self.residual,
            bounds=(
                (search.k_min, search.k_max),
                (search.k_min, search.k_max),
                (search.gamma_min, search.gamma_max),
            ),
            x0=x0,
            jacobian=self.jacobian,
        )


def _start_reach(search: SearchConfig) -> np.ndarray:
    """One grid step in each of log k1, log k2 and log gamma, and a little slack."""
    k_step = math.log(search.k_max / search.k_min) / (search.k_grid - 1)
    g_step = math.log(search.gamma_max / search.gamma_min) / (search.gamma_grid - 1)
    return np.array([k_step, k_step, g_step]) * (1.0 + 1e-9)


def _canonical_key(p, search: SearchConfig) -> np.ndarray:
    """The canonical triple of p = (k1, k2, gamma) (see canonicalize), in logs."""
    return np.log(canonicalize(*p, search.gamma_min)[:3])


def _within_reach(key, keys, reach) -> bool:
    """Whether key lies within reach of one of keys in every coordinate."""
    return any(np.all(np.abs(key - other) <= reach) for other in keys)


def _distinct_starts(cells: np.ndarray, search: SearchConfig, refine) -> list:
    """The (k1, k2, gamma) starts among the best refine_top grid cells.

    A cell is skipped when its canonical triple (see canonicalize) lies
    within one grid step, in each of log k1, log k2 and log gamma, of the
    canonical triple of a start already taken: such cells are grid
    neighbours or swap-scale mirrors that reach the same minimum. The start
    itself is the grid cell, not its canonical triple. refine is called with
    each start as it is taken, and a start for which it returns False skips
    no later cell.
    """
    reach = _start_reach(search)
    starts, keys = [], []
    for _, k1, k2, gamma in cells[: search.refine_top]:
        key = _canonical_key((k1, k2, gamma), search)
        if not _within_reach(key, keys, reach):
            starts.append((k1, k2, gamma))
            if refine((k1, k2, gamma)):
                keys.append(key)
    return starts


def estimate_channel_params(
    measured: Trace,
    tx: TransmitterSpec,
    sensor: SensorSpec,
    s: float,
    search: SearchConfig | None = None,
) -> ChannelEstimate:
    """Estimate (k1, k2, gamma) of a preprocessed voltage trace.

    Stage 1 scores the feasible cells of a log-spaced (k1, k2, gamma) grid
    by MSE against the trace (see _grid_cells); stage 2 refines at most
    refine_top distinct starts among the best cells (see _distinct_starts)
    with levenberg_marquardt, and keeps the lowest-MSE result, ties broken
    by the lexicographically smallest triple. The first start runs to the
    end. Each later one is abandoned before it evaluates a point whose
    canonical triple lies within one grid step (in logs) of the canonical
    triple of a minimum already found inside the box; abandoned starts are
    not candidates. A start whose fit ends on a bound skips no later cell.
    The result is canonicalized to k1 >= k2. Its fit is the kept start's FitResult, with residual_evals
    and jacobian_evals summed over every start, abandoned ones included.
    The gamma field of tx is ignored; gamma is estimated.

    Raises InsufficientDataError for fewer than 4 samples, NoSignalError
    for a flat trace, and ValidationError for negative or non-finite
    times. A best MSE above search.mse_threshold only sets low_confidence,
    it is not an error.
    """
    if search is None:
        search = SearchConfig()
    require_positive("distance s", s)
    if len(measured) < 4:
        raise InsufficientDataError(
            "channel fit is under-determined: need >= 4 samples for 3 "
            f"parameters, got {len(measured)}"
        )
    if float(np.ptp(measured.volts)) < search.flat_floor_v:
        raise NoSignalError(
            f"trace peak-to-peak span is below {search.flat_floor_v} V; "
            "nothing to fit"
        )
    kin_mod._as_time_array(measured.times)

    cells = _grid_cells(measured, tx, sensor, s, search)
    if len(cells) == 0:
        raise ValidationError(
            "model is not evaluable anywhere in the search box; check the "
            "transmitter and sensor configuration"
        )

    trace_fit = _TraceFit(measured, tx, sensor, s)
    reach = _start_reach(search)
    minima = []  # canonical log-triples of the minima found inside the box
    results = []

    def refine(x0):
        """Refine from x0; whether its fit ended inside the box."""
        problem = trace_fit.problem(x0, search)
        if minima:
            problem.abandon = lambda p: _within_reach(_canonical_key(p, search), minima, reach)
        result = levenberg_marquardt(problem)
        results.append(result)
        inside = not any(result.at_bound)
        if inside and result.termination != "abandoned":
            minima.append(_canonical_key(result.params, search))
        return inside

    _distinct_starts(cells, search, refine)
    finished = (r for r in results if r.termination != "abandoned")
    best_fit = min(finished, key=lambda r: (r.mse, tuple(r.params)))
    best_mse, (k1, k2, gamma) = best_fit.mse, best_fit.params
    best_fit = dataclasses.replace(
        best_fit,
        residual_evals=sum(r.residual_evals for r in results),
        jacobian_evals=sum(r.jacobian_evals for r in results),
    )
    k1, k2, gamma, canonical = canonicalize(k1, k2, gamma, search.gamma_min)
    return ChannelEstimate(
        k1=k1,
        k2=k2,
        gamma=gamma,
        canonical=canonical,
        mse=best_mse,
        low_confidence=best_mse > search.mse_threshold,
        fit=best_fit,
    )


def _spread_verdict(values: np.ndarray) -> str:
    """Classify per-distance means: near-constant, monotone, or neither."""
    mean = float(np.mean(values))
    if mean != 0.0 and float(np.max(np.abs(values - mean))) / abs(mean) <= 0.05:
        return "within +/-5% of mean"
    diffs = np.diff(values)
    if np.all(diffs < 0.0):
        return "strictly decreasing"
    if np.all(diffs > 0.0):
        return "strictly increasing"
    return "non-monotonic"


def distance_trend(estimates) -> TrendReport:
    """Aggregate channel estimates by distance and judge their trends.

    estimates is an iterable of (s, ChannelEstimate) pairs; at least two
    distinct distances are required. Duplicate distances are averaged
    (sample std, ddof = 1, reported as 0 for singletons). Verdicts classify
    the per-distance means of k1, k2, and gamma. A mean or std that is not
    finite (values near the float maximum overflow) raises ValidationError.
    """
    groups: dict[float, list[ChannelEstimate]] = {}
    for s, est in estimates:
        groups.setdefault(float(s), []).append(est)
    if len(groups) < 2:
        raise InsufficientDataError(
            f"need estimates at >= 2 distinct distances, got {len(groups)}"
        )

    distances = sorted(groups)
    columns, verdicts = {}, {}
    for name in ("k1", "k2", "gamma"):
        values = [np.array([getattr(e, name) for e in groups[s]], dtype=float) for s in distances]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            columns[f"{name}_mean"] = means = [float(v.mean()) for v in values]
            columns[f"{name}_std"] = stds = [float(np.std(v, ddof=1)) if v.size > 1 else 0.0 for v in values]
        for at, mean, std in zip(distances, means, stds):
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ValidationError(f"{name} mean or std is not finite at s = {at!r} m: {mean!r}, {std!r}")
        verdicts[name] = _spread_verdict(np.array(means))
    rows = tuple(
        DistanceStats(s=s, n=len(groups[s]), **{key: col[i] for key, col in columns.items()})
        for i, s in enumerate(distances)
    )
    return TrendReport(rows=rows, verdicts=verdicts)
