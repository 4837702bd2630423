"""Piecewise-constant functions with finitely many jumps.

Every empirical or limit object downstream (ECDFs, at-risk curves,
cumulative hazards, product-limit survival curves) is a finite step
function, so Lebesgue-Stieltjes integration reduces to finite sums over
jump locations and all identities can be checked exactly.

Arithmetic is generic over the number type: feeding
``fractions.Fraction`` values in yields exact rational results, plain
floats give ordinary IEEE arithmetic.  Breakpoints are compared with
exact equality when merging; callers wanting fuzzy merging must
pre-round.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "Convention",
    "StepFn",
    "affine_combine",
    "ls_integral",
    "integral_curve",
]


class Convention(enum.Enum):
    """Continuity convention at jump points.

    The value is also the side a sorted search takes at a breakpoint
    (``bisect_right`` / ``np.searchsorted(side="right")`` count the jump
    there), which is how scalar and bulk evaluation share one rule.
    """

    RIGHT_CONTINUOUS = "right"  # value at a breakpoint includes the jump
    LEFT_CONTINUOUS = "left"    # value at a breakpoint excludes the jump


RIGHT = Convention.RIGHT_CONTINUOUS
LEFT = Convention.LEFT_CONTINUOUS

_BISECT = {"right": bisect_right, "left": bisect_left}


@dataclass(frozen=True)
class StepFn:
    """A function constant between finitely many jumps.

    ``base`` is the value at ``lo`` before any jump.  Breakpoints are
    strictly increasing and lie in ``(lo, hi]``; as an exception, a
    breakpoint exactly at ``lo`` is allowed for left-continuous
    functions (the value at ``lo`` itself still equals ``base``, the
    jump only affects points to the right).  ``lo``/``hi`` may be
    ``-inf``/``inf``; they are symbolic, no infinities enter arithmetic.
    """

    base: float
    breakpoints: tuple = ()
    jumps: tuple = ()
    lo: float = -math.inf
    hi: float = math.inf
    convention: Convention = RIGHT

    def __post_init__(self):
        bps = tuple(self.breakpoints)
        js = tuple(self.jumps)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "jumps", js)
        if len(bps) != len(js):
            raise ContractError("breakpoints and jumps must have equal length")
        if not self.lo < self.hi:
            raise ContractError("domain must satisfy lo < hi")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ContractError("breakpoints must be strictly increasing")
        if bps:
            lo_ok = bps[0] > self.lo or (
                bps[0] == self.lo and self.convention is LEFT
            )
            if not lo_ok or bps[-1] > self.hi:
                raise ContractError(
                    f"breakpoints must lie in ({self.lo}, {self.hi}]"
                )
        # prefix sums of jumps; cum[k] = total jump mass of the first k jumps
        object.__setattr__(self, "_cum", (0,) + tuple(accumulate(js)))
        object.__setattr__(self, "_side", self.convention.value)

    # -- evaluation ----------------------------------------------------

    def _check_domain(self, first, last):
        """DomainError unless lo <= first and last <= hi."""
        if not self.lo <= first:
            raise DomainError(f"point {first} outside domain [{self.lo}, {self.hi}]")
        if not last <= self.hi:
            raise DomainError(f"point {last} outside domain [{self.lo}, {self.hi}]")

    def __call__(self, t):
        self._check_domain(t, t)
        return self.base + self._cum[_BISECT[self._side](self.breakpoints, t)]

    def evaluate(self, ts):
        """``[self(t) for t in ts]`` from one sorted search over the
        breakpoints: the same ``base + cum[k]`` values ``__call__`` returns.

        ``ts`` and the breakpoints must be numbers numpy orders exactly as
        Python does, such as floats.
        """
        ts = np.asarray(ts)
        if ts.size:
            self._check_domain(ts.min(), ts.max())
        levels = self.levels()
        ks = np.searchsorted(self.breakpoints, ts, side=self._side)
        return [levels[k] for k in ks.tolist()]

    def left_limit(self, t):
        """lim_{s -> t-} f(s); requires lo < t <= hi."""
        if not (self.lo < t <= self.hi):
            raise DomainError(f"left limit needs {self.lo} < t <= {self.hi}, got {t}")
        k = bisect_left(self.breakpoints, t)
        return self.base + self._cum[k]

    def jump_at(self, u):
        """Jump size at u (0 if u is not a breakpoint)."""
        k = bisect_left(self.breakpoints, u)
        if k < len(self.breakpoints) and self.breakpoints[k] == u:
            return self.jumps[k]
        return 0

    # -- simple functionals --------------------------------------------

    def total_variation(self):
        return sum(abs(j) for j in self.jumps)

    def levels(self):
        """Values taken after each breakpoint, starting with base."""
        return self._levels

    @cached_property
    def _levels(self):
        # built on first use and kept: the function is immutable
        return tuple(self.base + c for c in self._cum)

    def sup_norm(self):
        return max(abs(v) for v in self.levels())

    # -- algebra -------------------------------------------------------

    def scale(self, c):
        return replace(self, base=c * self.base, jumps=tuple(c * j for j in self.jumps))

    def __add__(self, other):
        if isinstance(other, StepFn):
            return affine_combine([1, 1], [self, other])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, StepFn):
            return affine_combine([1, -1], [self, other])
        return NotImplemented

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------

    def to_text(self):
        """Line-oriented text form: header ``lo hi convention base``, then
        one ``breakpoint jump`` pair per line."""
        lines = [
            f"{_fmt(self.lo)} {_fmt(self.hi)} {self.convention.value} {_fmt(self.base)}"
        ]
        for u, j in zip(self.breakpoints, self.jumps):
            lines.append(f"{_fmt(u)} {_fmt(j)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ContractError("empty step-function text")
        lo_s, hi_s, conv_s, base_s = lines[0].split()
        bps, js = [], []
        for ln in lines[1:]:
            u_s, j_s = ln.split()
            bps.append(float(u_s))
            js.append(float(j_s))
        return cls(
            base=float(base_s),
            breakpoints=tuple(bps),
            jumps=tuple(js),
            lo=float(lo_s),
            hi=float(hi_s),
            convention=Convention(conv_s),
        )


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def affine_combine(coeffs: Sequence, fns: Sequence[StepFn]) -> StepFn:
    """Pointwise linear combination; breakpoints are the merged union.

    All functions must share domain and continuity convention.
    """
    if len(coeffs) != len(fns):
        raise ContractError("need one coefficient per function")
    if not fns:
        raise ContractError("need at least one function")
    conv = fns[0].convention
    lo, hi = fns[0].lo, fns[0].hi
    for f in fns[1:]:
        if f.convention is not conv:
            raise ContractError("mixed continuity conventions")
        if f.lo != lo or f.hi != hi:
            raise ContractError("mismatched domains")
    merged = {}
    for c, f in zip(coeffs, fns):
        for u, j in zip(f.breakpoints, f.jumps):
            merged[u] = merged.get(u, 0) + c * j
    bps = tuple(sorted(merged))
    base = sum(c * f.base for c, f in zip(coeffs, fns))
    return StepFn(
        base=base,
        breakpoints=bps,
        jumps=tuple(merged[u] for u in bps),
        lo=lo,
        hi=hi,
        convention=conv,
    )


def _as_callable(g) -> Callable:
    return g if callable(g) and not isinstance(g, StepFn) else g.__call__


def ls_integral(g, f: StepFn, upto=None, *, jump_at_zero: bool = False):
    """Lebesgue-Stieltjes integral of g with respect to the step function f.

    Returns sum of g(u) * jump(f, u) over breakpoints u <= upto with
    u > f.lo.  With ``jump_at_zero`` (the closed-interval [0, .]
    convention used for survival integrals) the increment at 0 is
    defined as f(0) itself and a g(0) * f(0) term is added; this
    requires f.lo == 0.

    g may be a StepFn (evaluated under its own convention) or any
    callable.
    """
    if upto is None:
        upto = f.hi
    if not (f.lo <= upto <= f.hi):
        raise DomainError(f"upper limit {upto} outside domain [{f.lo}, {f.hi}]")
    if jump_at_zero and f.lo != 0:
        raise ContractError("jump-at-zero convention requires domain starting at 0")
    geval = _as_callable(g)
    total = 0
    if jump_at_zero:
        z = f(0)
        if z != 0:
            total = geval(0) * z
    k = bisect_right(f.breakpoints, upto)
    for u, j in zip(f.breakpoints[:k], f.jumps[:k]):
        if u <= f.lo:
            continue  # a breakpoint at lo carries no mass in (lo, upto]
        total = total + geval(u) * j
    return total


def integral_curve(g, f: StepFn, *, jump_at_zero: bool = False) -> StepFn:
    """The curve t -> ls_integral(g, f, t), as a right-continuous StepFn."""
    geval = _as_callable(g)
    base = 0
    if jump_at_zero:
        if f.lo != 0:
            raise ContractError("jump-at-zero convention requires domain starting at 0")
        z = f(0)
        if z != 0:
            base = geval(0) * z
    bps, js = [], []
    for u, j in zip(f.breakpoints, f.jumps):
        if u <= f.lo:
            continue
        bps.append(u)
        js.append(geval(u) * j)
    return StepFn(
        base=base,
        breakpoints=tuple(bps),
        jumps=tuple(js),
        lo=f.lo,
        hi=f.hi,
        convention=RIGHT,
    )
