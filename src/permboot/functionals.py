"""Hadamard-differentiable functionals and their derivative operators.

Wilcoxon integral, Nelson-Aalen cumulative hazard, product integral,
Kaplan-Meier product limit, restricted mean survival time, and the
quantile (inverse) map, each with the matching derivative where one
exists.

Two integral conventions coexist and are never mixed implicitly:
Wilcoxon integrals run over the half-open range (a, .]; survival
integrals run over the closed range [0, .] where the increment at 0 is
defined as the function value at 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .errors import ContractError, DomainError, SingularityError
from .stepfn import (
    LEFT,
    RIGHT,
    StepFn,
    affine_combine,
    integral_curve,
    ls_integral,
)

__all__ = [
    "HazardBundle",
    "QuantileProblem",
    "wilcoxon",
    "wilcoxon_curve",
    "wilcoxon_derivative",
    "nelson_aalen",
    "na_derivative",
    "product_integral",
    "prodint_derivative",
    "kaplan_meier",
    "km_from_hazard",
    "km_derivative",
    "rmst",
    "quantile",
    "quantile_derivative",
    "restrict",
    "pointwise_product",
]


# -- domain types ------------------------------------------------------

@dataclass(frozen=True)
class HazardBundle:
    """At-risk curve (left-continuous), uncensored subdistribution
    (right-continuous) and a horizon tau > 0."""

    at_risk: StepFn
    uncensored: StepFn
    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ContractError(f"tau must be positive, got {self.tau}")
        if self.at_risk.convention is not LEFT:
            raise ContractError("at_risk must be left-continuous")
        if self.uncensored.convention is not RIGHT:
            raise ContractError("uncensored must be right-continuous")
        if self.at_risk.lo != 0 or self.uncensored.lo != 0:
            raise ContractError("survival curves must start at 0")


@dataclass(frozen=True)
class QuantileProblem:
    """A nondecreasing function, a level p, and (optionally) the known
    analytic derivative of the limit function at the solution."""

    fn: StepFn
    p: float
    derivative_at_solution: float | None = None

    def __post_init__(self):
        if any(j < 0 for j in self.fn.jumps):
            raise ContractError("quantile requires a nondecreasing function")


# -- small StepFn helpers ----------------------------------------------

def restrict(f: StepFn, hi) -> StepFn:
    """Restrict f to [f.lo, hi], dropping breakpoints beyond hi."""
    if not f.lo < hi <= f.hi:
        raise DomainError(f"cannot restrict to [{f.lo}, {hi}]")
    k = bisect_right(f.breakpoints, hi)
    return replace(f, breakpoints=f.breakpoints[:k], jumps=f.jumps[:k], hi=hi)


def pointwise_product(f: StepFn, g: StepFn) -> StepFn:
    """Pointwise product of two right-continuous step functions."""
    if f.convention is not RIGHT or g.convention is not RIGHT:
        raise ContractError("pointwise product defined for right-continuous inputs")
    if f.lo != g.lo or f.hi != g.hi:
        raise ContractError("mismatched domains")
    merged = sorted(set(f.breakpoints) | set(g.breakpoints))
    base = f.base * g.base
    bps, jumps = [], []
    prev = base
    for u in merged:
        val = f(u) * g(u)
        bps.append(u)
        jumps.append(val - prev)
        prev = val
    return StepFn(
        base=base, breakpoints=tuple(bps), jumps=tuple(jumps),
        lo=f.lo, hi=f.hi, convention=RIGHT,
    )


def _check_common_domain(*fns):
    lo, hi = fns[0].lo, fns[0].hi
    for f in fns[1:]:
        if f.lo != lo or f.hi != hi:
            raise ContractError("functions must share a common domain")


# -- Wilcoxon ----------------------------------------------------------

def wilcoxon(A: StepFn, B: StepFn, upto=None):
    """Integral of A with respect to B over (a, upto]."""
    _check_common_domain(A, B)
    return ls_integral(A, B, upto)


def wilcoxon_curve(A: StepFn, B: StepFn) -> StepFn:
    _check_common_domain(A, B)
    return integral_curve(A, B)


def wilcoxon_derivative(A: StepFn, B: StepFn, alpha: StepFn, beta: StepFn) -> StepFn:
    """Derivative curve t -> int_(a,t] A d(beta) + int_(a,t] alpha d(B)."""
    _check_common_domain(A, B, alpha, beta)
    return affine_combine([1, 1], [integral_curve(A, beta), integral_curve(alpha, B)])


# -- Nelson-Aalen ------------------------------------------------------

def _inverse_at_risk(r, u):
    """1 / r, the inverse of the at-risk level r at time u;
    SingularityError where nobody is at risk."""
    if r <= 0:
        raise SingularityError(f"empty risk set at time {u}", at=u)
    return 1 / r


def nelson_aalen(bundle: HazardBundle) -> StepFn:
    """Cumulative hazard with jump d(u)/r(u) at each event time u <= tau."""
    huc = restrict(bundle.uncensored, bundle.tau)
    at_risk = bundle.at_risk
    levels = at_risk.evaluate(huc.breakpoints)
    # the [0, .] convention: deaths at 0 are huc's base
    base = _inverse_at_risk(at_risk(0), 0) * huc.base if huc.base != 0 else 0
    return StepFn(
        base=base,
        breakpoints=huc.breakpoints,
        jumps=tuple(
            _inverse_at_risk(r, u) * j for u, r, j in zip(huc.breakpoints, levels, huc.jumps)
        ),
        lo=huc.lo,
        hi=huc.hi,
        convention=RIGHT,
    )


def na_derivative(bundle: HazardBundle, alpha: StepFn, beta: StepFn) -> StepFn:
    """Derivative of the cumulative-hazard map in direction (alpha, beta).

    alpha perturbs the at-risk curve, beta the uncensored
    subdistribution: the chain rule gives
    int [0,.] (1/r) d(beta) - int [0,.] alpha/r^2 d(uncensored).
    """
    huc = restrict(bundle.uncensored, bundle.tau)
    beta_r = restrict(beta, bundle.tau) if beta.hi != bundle.tau else beta
    r = bundle.at_risk

    def inv(u):
        return _inverse_at_risk(r(u), u)

    def neg_alpha_over_r2(u):
        return -alpha(u) * inv(u) ** 2

    term1 = integral_curve(inv, beta_r, jump_at_zero=True)
    term2 = integral_curve(neg_alpha_over_r2, huc, jump_at_zero=True)
    return affine_combine([1, 1], [term1, term2])


# -- product integral --------------------------------------------------

# terminal hazard jumps of exactly 1 accumulate to -1 only up to float
# roundoff; a jump within this band of -1 is treated as exactly -1
_TERMINAL_TOL = 1e-12


def _prodint_factor(delta, u):
    if delta < -1 - _TERMINAL_TOL:
        raise DomainError(f"jump {delta} below -1 at time {u}")
    return max(1 + delta, 0) if delta < -1 + _TERMINAL_TOL else 1 + delta


def product_integral(A: StepFn, *, jump_at_zero: bool = False) -> StepFn:
    """prod over u <= t of (1 + dA(u)).

    A jump of exactly -1 is allowed and sends the product to 0 from
    there on (the terminal Kaplan-Meier case); jumps below -1 are
    rejected.
    """
    running = 1
    if jump_at_zero:
        if A.lo != 0:
            raise ContractError("jump-at-zero convention requires domain starting at 0")
        running = _prodint_factor(A(0), 0)
    base = running
    bps, jumps = [], []
    for u, j in zip(A.breakpoints, A.jumps):
        if u <= A.lo:
            continue
        new = running * _prodint_factor(j, u)
        bps.append(u)
        jumps.append(new - running)
        running = new
    return StepFn(
        base=base, breakpoints=tuple(bps), jumps=tuple(jumps),
        lo=A.lo, hi=A.hi, convention=RIGHT,
    )


def prodint_derivative(A: StepFn, alpha: StepFn, *, jump_at_zero: bool = False) -> StepFn:
    """Derivative of the product integral at A in direction alpha:
    prod(A)(.) * (alpha(.) - alpha(a) - sum dA * d(alpha) / (1 + dA)).

    Unlike the product integral itself, the derivative needs every jump
    of A strictly above -1: a jump within the product integral's
    roundoff band of -1 is rejected as exactly -1.
    """
    _check_common_domain(A, alpha)
    phi = product_integral(A, jump_at_zero=jump_at_zero)
    corr_base = 0
    alpha_part = alpha
    if jump_at_zero:
        a0 = A(0)
        if a0 < -1 + _TERMINAL_TOL:
            raise DomainError("derivative undefined: jump of exactly -1 at time 0")
        corr_base = a0 * alpha(0) / (1 + a0)
    else:
        alpha_part = replace(alpha, base=alpha.base - alpha(alpha.lo))
    bps, jumps = [], []
    for u, j in zip(A.breakpoints, A.jumps):
        if u <= A.lo:
            continue
        if j < -1 + _TERMINAL_TOL:
            raise DomainError(f"derivative undefined: jump of exactly -1 at time {u}")
        da = alpha.jump_at(u)
        term = j * da / (1 + j)
        if term != 0:
            bps.append(u)
            jumps.append(term)
    correction = StepFn(
        base=corr_base, breakpoints=tuple(bps), jumps=tuple(jumps),
        lo=A.lo, hi=A.hi, convention=RIGHT,
    )
    alpha_rc = replace(alpha_part, convention=RIGHT)
    inner = affine_combine([1, -1], [alpha_rc, correction])
    return pointwise_product(phi, inner)


# -- Kaplan-Meier ------------------------------------------------------

def kaplan_meier(bundle: HazardBundle) -> StepFn:
    """Product-limit survival curve prod over [0, t] of (1 - dLambda)."""
    return km_from_hazard(nelson_aalen(bundle))


def km_from_hazard(lam: StepFn) -> StepFn:
    """The product-limit curve of a cumulative hazard lam on [0, tau]
    (``nelson_aalen``), for callers that keep lam as well."""
    return product_integral(lam.scale(-1), jump_at_zero=True)


def km_derivative(bundle: HazardBundle, alpha: StepFn, beta: StepFn) -> StepFn:
    """Derivative of the Kaplan-Meier map in direction (alpha, beta),
    via the chain through the cumulative hazard."""
    lam = nelson_aalen(bundle)
    dlam = na_derivative(bundle, alpha, beta)
    return prodint_derivative(lam.scale(-1), dlam.scale(-1), jump_at_zero=True)


# -- RMST --------------------------------------------------------------

def rmst(S: StepFn, tau: float):
    """Exact integral of the piecewise-constant S over [0, tau)."""
    if not (S.lo <= 0 < tau <= S.hi and math.isfinite(tau)):
        raise DomainError(f"tau={tau} outside domain ({S.lo}, {S.hi}]")
    total = 0
    prev = 0 if S.lo == -math.inf else max(S.lo, 0)
    level = S(prev)
    for u, j in zip(S.breakpoints, S.jumps):
        if u <= prev:
            level = S(prev)
            continue
        if u >= tau:
            break
        total += level * (u - prev)
        prev = u
        level = level + j
    total += level * (tau - prev)
    return total


# -- quantile ----------------------------------------------------------

def quantile(problem: QuantileProblem):
    """Infimum y with fn(y) >= p (any valid selection would do)."""
    f, p = problem.fn, problem.p
    if f.base >= p:
        return f.lo
    level = f.base
    for u, j in zip(f.breakpoints, f.jumps):
        level += j
        if level >= p:
            return u
    raise DomainError(f"no solution: sup fn = {level} < p = {p}")


def quantile_derivative(problem: QuantileProblem, alpha: StepFn):
    """-alpha(xi_p) / A'(xi_p); the derivative must be supplied
    analytically and be positive."""
    d = problem.derivative_at_solution
    if d is None or d <= 0:
        raise ContractError("quantile derivative needs a positive analytic A'(xi_p)")
    xi = quantile(problem)
    return -alpha(xi) / d
