"""Exact checks of the delta method: difference quotients of the
functionals against their Hadamard derivatives along moving-base
sequences, and the inverse-map counterexample, a kinked sequence
converging to the identity on [0, 2] along which the quantile map's
difference quotients miss its pointwise derivative.  At perfect-square
n the counterexample is exact Fraction arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .empirical import ecdf
from .errors import ContractError, SingularityError
from .functionals import prodint_derivative, wilcoxon_derivative
from .stepfn import StepFn, affine_combine


# -- Hadamard difference-quotient checks -------------------------------

def _perturb(theta, t, h):
    if isinstance(theta, tuple):
        return tuple(a + t * b for a, b in zip(theta, h))
    return theta + t * h


def hadamard_ratio_check(fn, theta_seq, h_seq, t_seq, derivative_ref):
    """Deviations || t_n^-1 (fn(theta_n + t_n h_n) - fn(theta_n)) - ref ||
    of the functional ``fn`` (a callable of one theta).

    No pass/fail judgement here: convergence (or its failure, for the
    counterexample sequences) is asserted by the caller.
    """
    if not len(theta_seq) == len(h_seq) == len(t_seq):
        raise ContractError(
            "theta_seq, h_seq and t_seq differ in length: "
            f"{len(theta_seq)}, {len(h_seq)} and {len(t_seq)}"
        )
    devs = []
    for idx, (theta_n, h_n, t_n) in enumerate(zip(theta_seq, h_seq, t_seq)):
        try:
            lhs = fn(_perturb(theta_n, t_n, h_n))
            base = fn(theta_n)
        except (ContractError, SingularityError) as exc:
            raise ContractError(f"sequence element {idx}: {exc}") from exc
        if isinstance(lhs, StepFn):
            diff = affine_combine(
                [1 / t_n, -1 / t_n, -1], [lhs, base, derivative_ref]
            )
            devs.append(diff.sup_norm())
        else:
            devs.append(abs((lhs - base) / t_n - derivative_ref))
    return devs


def _default_t_seq(n_values):
    return [1 / math.sqrt(n) for n in n_values]


def wilcoxon_ratio_sequences(n_values=(4, 16, 64, 256, 1024)):
    """Built-in moving-base sequences for the Wilcoxon ratio check."""
    A = ecdf([0.2, 0.5, 0.9])
    B = ecdf([0.3, 0.6, 0.8])
    dA = StepFn(0, (0.25, 0.7), (0.4, -0.3))
    dB = StepFn(0, (0.45, 0.85), (-0.2, 0.5))
    hA = StepFn(0, (0.35, 0.65), (0.6, -0.4))
    hB = StepFn(0, (0.15, 0.75), (0.3, 0.2))
    eA = StepFn(0, (0.55,), (0.25,))
    eB = StepFn(0, (0.4,), (-0.35,))
    t_seq = _default_t_seq(n_values)
    theta_seq = [(A + t * dA, B + t * dB) for t in t_seq]
    h_seq = [(hA + t * eA, hB + t * eB) for t in t_seq]
    ref = wilcoxon_derivative(A, B, hA, hB)
    return theta_seq, h_seq, t_seq, ref


def prodint_ratio_sequences(n_values=(4, 16, 64, 256, 1024)):
    """Built-in moving-base sequences for the product-integral ratio check."""
    A = StepFn(0, (1.0, 2.0, 3.0), (0.3, -0.2, 0.4), lo=0.0, hi=5.0)
    dA = StepFn(0, (1.5, 2.0), (0.1, -0.05), lo=0.0, hi=5.0)
    h = StepFn(0, (1.0, 2.5), (0.5, -0.3), lo=0.0, hi=5.0)
    eh = StepFn(0, (3.5,), (0.2,), lo=0.0, hi=5.0)
    t_seq = _default_t_seq(n_values)
    theta_seq = [A + t * dA for t in t_seq]
    h_seq = [h + t * eh for t in t_seq]
    ref = prodint_derivative(A, h)
    return theta_seq, h_seq, t_seq, ref


# -- the inverse-map counterexample ------------------------------------

@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [xs[0], xs[-1]].

    Arithmetic is generic over the number type, so Fraction-valued knots
    give exact results.
    """

    xs: tuple
    ys: tuple

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ContractError("need matching knot/value lists of length >= 2")
        for a, b in zip(self.xs, self.xs[1:]):
            if not a < b:
                raise ContractError("knots must be strictly increasing")

    def __call__(self, x):
        if not self.xs[0] <= x <= self.xs[-1]:
            raise ContractError(f"{x} outside [{self.xs[0]}, {self.xs[-1]}]")
        for (x0, y0), (x1, y1) in zip(
            zip(self.xs, self.ys), zip(self.xs[1:], self.ys[1:])
        ):
            if x <= x1:
                # knots return their stored value; only strict interiors
                # interpolate (keeps int/Fraction inputs exact)
                if x == x0:
                    return y0
                if x == x1:
                    return y1
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def __add__(self, other):
        if isinstance(other, PiecewiseLinear):
            knots = sorted(set(self.xs) | set(other.xs))
            return PiecewiseLinear(
                tuple(knots), tuple(self(x) + other(x) for x in knots)
            )
        return PiecewiseLinear(self.xs, tuple(y + other for y in self.ys))

    __radd__ = __add__

    def __mul__(self, c):
        return PiecewiseLinear(self.xs, tuple(c * y for y in self.ys))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, PiecewiseLinear) else -other)

    def solve_level(self, p):
        """Smallest x with f(x) = p, for nondecreasing f."""
        if p < self.ys[0] or p > max(self.ys):
            raise ContractError(f"level {p} not attained")
        for (x0, y0), (x1, y1) in zip(
            zip(self.xs, self.ys), zip(self.xs[1:], self.ys[1:])
        ):
            if y0 <= p <= y1:
                if y1 == y0:
                    return x0
                return x0 + (x1 - x0) * (p - y0) / (y1 - y0)
        raise ContractError(f"level {p} not attained")


def _exact_inv_sqrt(n: int):
    """1/sqrt(n) as a Fraction for perfect squares, else a float."""
    if n < 1:
        raise ContractError("need n >= 1")
    r = math.isqrt(n)
    if r * r == n:
        return Fraction(1, r)
    return 1.0 / math.sqrt(n)


def counterexample_family(n: int) -> PiecewiseLinear:
    """The kinked approximating sequence around the quantile solution:
    slope 2 on (1 - 1/sqrt(n), 1 + 1/sqrt(n)), shifted outside."""
    s = _exact_inv_sqrt(n)
    if n == 1:
        # the middle segment spans the whole domain
        return PiecewiseLinear((0, 2), (-1, 3))
    return PiecewiseLinear(
        (0, 1 - s, 1 + s, 2), (-s, 1 - 2 * s, 1 + 2 * s, 2 + s)
    )


def counterexample_limit() -> PiecewiseLinear:
    return PiecewiseLinear((0, 2), (0, 2))


def inverse_counterexample(n_values) -> list:
    """Difference quotients of the quantile map along the counterexample
    sequence, against the pointwise Hadamard derivative -1."""
    p = 1
    rows = []
    for n in n_values:
        t_n = _exact_inv_sqrt(n)
        a_n = counterexample_family(n)
        shifted = a_n + t_n  # alpha == 1, so the direction adds a constant
        ratio = (shifted.solve_level(p) - a_n.solve_level(p)) / t_n
        # derivative of the inverse at the limit: -alpha(xi_p) / A'(xi_p)
        derivative = -1.0 / 1.0
        rows.append(
            {
                "n": int(n),
                "t_n": float(t_n),
                "ratio": float(ratio),
                "derivative": float(derivative),
                "gap": float(abs(ratio - derivative)),
            }
        )
    return rows


def increment_condition_probe(family, n: int, K) -> float:
    """sqrt(n) * sup over |x| <= K/sqrt(n) of the increment mismatch
    |A_n(xi+x) - A_n(xi) - A(xi+x) + A(xi)| of A_n = family(n), a
    ``PiecewiseLinear``, against the identity A, evaluated exactly at the
    piecewise-linear segment endpoints."""
    if n < 1 or K <= 0:
        raise ContractError("need n >= 1 and K > 0")
    a_n = family(n)
    a = counterexample_limit()
    diff = a_n - a
    xi = 1
    s = _exact_inv_sqrt(n)
    w = K * s
    lo = max(diff.xs[0], xi - w)
    hi = min(diff.xs[-1], xi + w)
    candidates = {lo, hi, xi}
    candidates.update(x for x in diff.xs if lo < x < hi)
    center = diff(xi)
    sup = max(abs(diff(x) - center) for x in candidates)
    root_n = math.isqrt(n) if math.isqrt(n) ** 2 == n else math.sqrt(n)
    return float(root_n * sup)
