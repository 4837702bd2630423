"""Closed-form limit covariance kernels.

These are the ground truth the Monte Carlo harness compares against:
Brownian-bridge kernels for indicator classes, the cumulative-hazard
variance function C for Nelson-Aalen limits, and the product-limit
kernel for Kaplan-Meier limits, each with the permutation coefficient
(1/lambda_i * 1{i=j} - 1) or the bootstrap coefficient
(1{i=j} / lambda_i).

Population objects come in two flavours sharing one evaluation path:
plug-in (built from pooled empirical step functions, what the
conditional statements compare against at finite N) and analytic
(closed forms or ``quad``, an adaptive Gauss-Legendre quadrature in
numpy to max(1e-10, 1.49e-8 |I|), QUADPACK's default target).  Its
nodes are computed on the first call, not when the package is imported.
``permboot.verify`` builds its targets here too: ``PlainPopulation``
for indicator classes and ``EmpiricalSurvivalPopulation`` (plug-in) or
``exponential_survival_population`` (analytic) for survival classes.

``assemble_kernel_matrix`` is the one implementation of every kernel.
A full matrix costs one population evaluation (a quadrature for
analytic populations) per grid point and function, plus O(m^2 G^2)
array arithmetic; one entry, at groups (i, j) and times (s, t), is
``assemble_kernel_matrix(kind, pop, lambdas, [s, t])[2*i, 2*j + 1]``
for all but the cross kinds.  The per-cell reference it reproduces bit
for bit, one scalar kernel call per entry, is ``tests/oracles.py``.

The pooled-bootstrap covariance block for the joint (at-risk,
uncensored) pair is not displayed in closed form anywhere; it is taken
as the i = j permutation block with coefficient 1/lambda_i, consistent
with independent H-Brownian-bridge limits (derived by analogy).
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .empirical import LambdaVector
from .errors import ContractError, SingularityError
from .functionals import HazardBundle, km_from_hazard, nelson_aalen

__all__ = [
    "KernelKind",
    "coeff_matrix",
    "PlainPopulation",
    "EmpiricalSurvivalPopulation",
    "AnalyticSurvivalPopulation",
    "exponential_survival_population",
    "assemble_kernel_matrix",
]

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1.49e-8  # QUADPACK's default epsrel
_QUAD_ORDER = 20
_QUAD_MAX_DEPTH = 50  # panels 2^-50 of the interval wide: near float resolution
_QUAD_MAX_PANELS = 1024  # per level, so a level costs at most ~60k evaluations


@functools.cache
def _legendre_rule():
    """Gauss-Legendre weights on [-1, 1], and the nodes of the rule on
    [-1, 1], then on its left and on its right half."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_QUAD_ORDER)
    return np.concatenate([nodes, (nodes - 1.0) / 2.0, (nodes + 1.0) / 2.0]), weights


def quad(func, a, b, epsabs=QUAD_ABS_TOL):
    """Integral of ``func`` over [a, b] as (value, error estimate).

    ``func`` maps a 1-D float array of points to an array of its values
    there.  Every panel is integrated by the n-point Gauss-Legendre rule
    and by the same rule on its two halves, in one ``func`` call per
    level for all open panels; a panel is done when the two differ by at
    most its width's share of tol = max(epsabs, QUAD_REL_TOL * |I|),
    where I is the first estimate of the whole integral, and is bisected
    otherwise.  The value sums the halves' estimates and the error the
    differences.  Raises ``SingularityError`` if a panel is still open
    at depth 50 or a level opens more than 1024 panels: the integrand is
    singular, discontinuous or too rough there for the tolerance.
    """
    offsets, weights = _legendre_rule()
    width = abs(b - a)
    lo = np.array([float(a)])
    half = np.array([(b - a) / 2.0])
    tol = None
    values, errors = [], []
    for depth in range(_QUAD_MAX_DEPTH + 1):
        x = (lo + half)[:, None] + half[:, None] * offsets
        # per panel: the sums of the rule on it, on its left and on its right half
        sums = np.asarray(func(x.ravel()), dtype=float).reshape(len(lo), 3, -1) @ weights
        whole = sums[:, 0] * half
        halves = (sums[:, 1] + sums[:, 2]) * (half / 2.0)
        diff = np.abs(whole - halves)
        if tol is None:
            tol = max(epsabs, QUAD_REL_TOL * abs(float(halves[0])))
        done = diff * width <= tol * np.abs(2.0 * half)
        values += halves[done].tolist()
        errors += diff[done].tolist()
        if done.all():
            return math.fsum(values), math.fsum(errors)
        lo, half = lo[~done], half[~done]
        if depth == _QUAD_MAX_DEPTH or 2 * lo.size > _QUAD_MAX_PANELS:
            u = float(lo[0] + half[0])
            raise SingularityError(
                f"quadrature over [{a}, {b}] cannot reach tolerance {tol:.3g} near {u}", at=u
            )
        lo = np.stack([lo, lo + half], axis=1).ravel()
        half = np.repeat(half / 2.0, 2)


class KernelKind(enum.Enum):
    PERM_INDICATOR = "perm-indicator"
    BOOT_INDICATOR = "boot-indicator"
    PERM_SURVIVAL_NA = "perm-survival-na"
    BOOT_SURVIVAL_NA = "boot-survival-na"
    PERM_KM = "perm-km"
    BOOT_KM = "boot-km"
    PERM_SURVIVAL_CROSS = "perm-survival-cross"
    BOOT_SURVIVAL_CROSS = "boot-survival-cross"


_PERM_KINDS = {
    KernelKind.PERM_INDICATOR,
    KernelKind.PERM_SURVIVAL_NA,
    KernelKind.PERM_KM,
    KernelKind.PERM_SURVIVAL_CROSS,
}


def coeff_matrix(kind: KernelKind, lambdas) -> np.ndarray:
    """The m x m matrix of the kind's group coefficients: diag(1/lambda)
    - 1 for the permutation, diag(1/lambda) for the pooled bootstrap."""
    inv = np.diag(1.0 / np.asarray(lambdas, dtype=float))
    return inv - 1.0 if kind in _PERM_KINDS else inv


# -- populations -------------------------------------------------------

class PlainPopulation:
    """Pooled distribution function H, as a StepFn plug-in or an
    analytic CDF callable."""

    def __init__(self, H):
        self._H = H

    def H(self, t):
        return self._H(t)


class EmpiricalSurvivalPopulation:
    """Plug-in pooled survival quantities from a hazard bundle.

    Event data is reduced once to (time, hazard jump, at-risk level)
    triples, and every kernel ingredient to running sums over them, so
    an evaluation is one bisection into the event times.
    """

    def __init__(self, bundle: HazardBundle):
        self.tau = bundle.tau
        self._at_risk = bundle.at_risk
        self._uncensored = bundle.uncensored
        lam = nelson_aalen(bundle)
        self._surv = km_from_hazard(lam)
        events = []
        if lam.base != 0:
            events.append((0.0, lam.base, bundle.at_risk(0)))
        events += zip(lam.breakpoints, lam.jumps, bundle.at_risk.evaluate(lam.breakpoints))
        self._times = [u for u, _dlam, _r in events]
        self._C = list(accumulate(
            ((1.0 - dlam) * dlam / r for _u, dlam, r in events), initial=0.0
        ))
        # a jump of 1 (up to roundoff: a full-death jump may compute to
        # 1 +- eps) empties the risk set, so only the last event has one
        self._singular = len(events) - bool(events and events[-1][1] >= 1.0 - 1e-12)
        self._km = list(accumulate(
            (dlam / ((1.0 - dlam) * r) for _u, dlam, r in events[:self._singular]), initial=0.0
        ))

    def Hbar(self, t):
        return self._at_risk(t)

    def Huc(self, t):
        return self._uncensored(t)

    def Huc_left(self, t):
        return self._uncensored.left_limit(t) if t > 0 else 0.0

    def S(self, t):
        return self._surv(t)

    def C(self, t):
        return self._C[bisect_right(self._times, t)]

    def km_integral(self, t):
        k = bisect_right(self._times, t)
        if k > self._singular:
            u = self._times[self._singular]
            raise SingularityError(f"hazard jump of 1 at time {u} inside integration range", at=u)
        return self._km[k]


class AnalyticSurvivalPopulation:
    """Continuous pooled survival model from densities and survivals.

    ``uc_density`` is the density of the uncensored subdistribution
    (d/dt P(Z <= t, uncensored)); ``at_risk`` is t -> P(Z >= t).  Both
    take a numpy array of times and return the array of their values
    (``quad`` evaluates its nodes in one call); ``Hbar`` also calls
    ``at_risk`` on one time and returns a Python float.  ``Huc``, ``C``
    and the cumulative hazard are one ``quad`` each, to max(1e-10,
    1.49e-8 |I|).
    """

    def __init__(self, uc_density, at_risk, tau):
        self._f = uc_density
        self._hbar = at_risk
        self.tau = tau

    def Hbar(self, t):
        return float(self._hbar(t))

    def Huc(self, t):
        val, _err = quad(self._f, 0.0, t)
        return val

    Huc_left = Huc  # continuous model: no atoms

    def cum_hazard(self, t):
        val, _err = quad(lambda u: self._f(u) / self._hbar(u), 0.0, t)
        return val

    def S(self, t):
        return math.exp(-self.cum_hazard(t))

    def C(self, t):
        val, _err = quad(lambda u: self._f(u) / self._hbar(u) ** 2, 0.0, t)
        return val

    km_integral = C  # the (1 - dLambda) factors coincide when Lambda is continuous


def exponential_survival_population(fail_rates, cens_rates, lambdas, tau):
    """Pooled mixture of exponential failure / exponential censoring groups.

    ``cens_rates`` entries may be 0 for uncensored groups.
    """
    fail_rates = tuple(fail_rates)
    cens_rates = tuple(cens_rates)
    lam = tuple(lambdas.values if isinstance(lambdas, LambdaVector) else lambdas)
    if not len(fail_rates) == len(cens_rates) == len(lam):
        raise ContractError("need one (failure, censoring) rate pair per group")

    def uc_density(u):
        return sum(
            w * a * np.exp(-(a + c) * u)
            for w, a, c in zip(lam, fail_rates, cens_rates)
        )

    def at_risk(u):
        return sum(
            w * np.exp(-(a + c) * u)
            for w, a, c in zip(lam, fail_rates, cens_rates)
        )

    return AnalyticSurvivalPopulation(uc_density, at_risk, tau)


# -- kernels -----------------------------------------------------------

def _at_min(values, s, t):
    """values at min(s, t) over the grid pairs, with Python's tie rule."""
    return np.where(t < s, values[None, :], values[:, None])


def _at_max(values, s, t):
    """values at max(s, t) over the grid pairs, with Python's tie rule."""
    return np.where(s < t, values[None, :], values[:, None])


def assemble_kernel_matrix(kind: KernelKind, pop, lambdas, grid) -> np.ndarray:
    """Full grid covariance matrix over groups x grid (and, for the
    cross kernels, the two survival processes).

    Each population function is evaluated once per grid point; entry
    (i*G + a, j*G + b) is the kernel at (i, j, grid[a], grid[b]), bit
    for bit the per-cell reference in ``tests/oracles.py``.  The grid
    may be unsorted and may repeat points.
    """
    coeffs = coeff_matrix(kind, lambdas)
    points = list(grid)
    g = np.array(points)
    s, t = g[:, None], g[None, :]

    def values(fn):
        return np.array([fn(u) for u in points])

    if kind in (KernelKind.PERM_SURVIVAL_CROSS, KernelKind.BOOT_SURVIVAL_CROSS):
        hbar, huc, huc_left = values(pop.Hbar), values(pop.Huc), values(pop.Huc_left)
        bar_bar = _at_max(hbar, s, t) - hbar[:, None] * hbar[None, :]
        uc_uc = _at_min(huc, s, t) - huc[:, None] * huc[None, :]
        # E[G_uc(s) G_bar(t)]: the indicator part lives on t <= s
        uc_bar = (
            np.where(t <= s, huc[:, None] - huc_left[None, :], 0.0)
            - huc[:, None] * hbar[None, :]
        )
        cell = np.block([[bar_bar, uc_bar.T], [uc_bar, uc_uc]])
    elif kind in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
        h = values(pop.H)
        cell = _at_min(h, s, t) - h[:, None] * h[None, :]
    elif kind in (KernelKind.PERM_SURVIVAL_NA, KernelKind.BOOT_SURVIVAL_NA):
        cell = _at_min(values(pop.C), s, t)
    else:
        surv = values(pop.S)
        cell = (surv[:, None] * surv[None, :]) * _at_min(values(pop.km_integral), s, t)
    return np.kron(coeffs, cell).astype(float)
