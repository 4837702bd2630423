import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permboot.errors import ContractError, DomainError
from permboot.stepfn import (
    LEFT,
    RIGHT,
    StepFn,
    affine_combine,
    integral_curve,
    ls_integral,
)


def test_eval_constant():
    f = StepFn(3, lo=0, hi=1)
    assert f(0.5) == 3


def test_eval_conventions_at_breakpoint():
    right = StepFn(0, (0.5,), (1,), convention=RIGHT)
    left = StepFn(0, (0.5,), (1,), convention=LEFT)
    assert right(0.5) == 1
    assert left(0.5) == 0
    assert right(0.6) == 1 == left(0.6)


def test_eval_outside_domain():
    f = StepFn(0, lo=0, hi=1)
    with pytest.raises(DomainError):
        f(1.5)


@given(
    st.lists(st.floats(0.0, 10.0), max_size=12, unique=True),
    st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    st.sampled_from([RIGHT, LEFT]),
    st.lists(st.floats(0.0, 10.0), max_size=8),
)
def test_evaluate_equals_pointwise_calls(bps, jumps, conv, extra):
    bps = sorted(b for b in bps if b > 0 or conv is LEFT)
    f = StepFn(0.25, bps, jumps[: len(bps)], lo=0.0, hi=10.0, convention=conv)
    # every breakpoint, both domain ends and arbitrary points, unsorted
    ts = bps + [0.0, 10.0] + extra
    assert f.evaluate(ts) == [f(t) for t in ts]
    assert f.evaluate([]) == []


@pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
def test_evaluate_outside_domain(bad):
    f = StepFn(0, (0.5,), (1,), lo=0, hi=1)
    with pytest.raises(DomainError, match="outside domain"):
        f.evaluate([0.25, bad, 0.75])
    with pytest.raises(DomainError, match="outside domain"):
        f(bad)


def test_left_limit():
    f = StepFn(0, (0.5,), (1,))
    assert f.left_limit(0.5) == 0
    g = StepFn(7, lo=0, hi=1)
    assert g.left_limit(0.5) == 7


def test_left_limit_of_ecdf_like():
    # ECDF of {1,2,3}: left limit at 2 is 1/3
    f = StepFn(0, (1, 2, 3), (Fraction(1, 3),) * 3)
    assert f.left_limit(2) == Fraction(1, 3)


def test_breakpoint_at_lo_rejected_for_right_continuous():
    with pytest.raises(ContractError):
        StepFn(0, (0,), (1,), lo=0, hi=1, convention=RIGHT)
    # allowed for left-continuous: value at 0 is still base
    f = StepFn(1, (0,), (-0.5,), lo=0, hi=1, convention=LEFT)
    assert f(0) == 1
    assert f(0.1) == 0.5


def test_total_variation():
    assert StepFn(0, (1, 2), (0.5, -0.25)).total_variation() == 0.75
    assert StepFn(5).total_variation() == 0
    ecdf_like = StepFn(0, (1, 2, 3), (1 / 3,) * 3)
    assert ecdf_like.total_variation() == pytest.approx(1)


def test_ls_integral_total_mass():
    f = StepFn(0, (1, 2, 3), (Fraction(1, 3),) * 3)
    assert ls_integral(lambda u: 1, f) == 1


def test_ls_integral_wilcoxon_075():
    g = StepFn(0, (1, 2), (0.5, 0.5))
    assert ls_integral(g, g) == 0.75


def test_ls_integral_constant_integrator():
    g = StepFn(0, (1,), (1,))
    assert ls_integral(g, StepFn(4)) == 0


def test_ls_integral_upto():
    f = StepFn(0, (1, 2, 3), (Fraction(1, 3),) * 3)
    assert ls_integral(lambda u: 1, f, upto=2) == Fraction(2, 3)
    with pytest.raises(DomainError):
        ls_integral(lambda u: 1, StepFn(0, (1,), (1,), lo=0, hi=2), upto=5)


def test_ls_integral_jump_at_zero():
    # increment at 0 is f(0) itself under the closed-interval convention
    f = StepFn(Fraction(1, 4), (1,), (Fraction(1, 2),), lo=0, hi=2)
    assert ls_integral(lambda u: 1, f) == Fraction(1, 2)  # without the 0 term
    assert ls_integral(lambda u: 1, f, jump_at_zero=True) == Fraction(3, 4)


def test_affine_combine_cancellation():
    f = StepFn(1, (0.3, 0.7), (2, -1))
    z = affine_combine([1, -1], [f, f])
    assert z(0.1) == 0 and z(0.5) == 0 and z(0.9) == 0


def test_affine_combine_two_point_merge():
    a = StepFn(0, (1,), (1,))
    b = StepFn(0, (3,), (1,))
    h = affine_combine([0.5, 0.5], [a, b])
    assert h(0.5) == 0
    assert h(1) == 0.5
    assert h(3) == 1


def test_affine_combine_convention_mismatch():
    with pytest.raises(ContractError):
        affine_combine([1, 1], [StepFn(0), StepFn(0, convention=LEFT)])


@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=0,
        max_size=6,
        unique_by=lambda p: p[0],
    ),
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=0,
        max_size=6,
        unique_by=lambda p: p[0],
    ),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-6, 6, allow_nan=False),
)
def test_affine_combine_pointwise(pairs_f, pairs_g, cf, cg, t):
    def build(pairs):
        pairs = sorted(pairs)
        return StepFn(0, tuple(u for u, _ in pairs), tuple(j for _, j in pairs))

    f, g = build(pairs_f), build(pairs_g)
    combo = affine_combine([cf, cg], [f, g])
    assert combo(t) == pytest.approx(cf * f(t) + cg * g(t), abs=1e-12)


@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.fractions()),
        min_size=1,
        max_size=5,
        unique_by=lambda p: p[0],
    )
)
def test_tv_subadditive(pairs):
    pairs = sorted(pairs)
    f = StepFn(0, tuple(u for u, _ in pairs), tuple(j for _, j in pairs))
    combo = affine_combine([2, -3], [f, f])
    assert combo.total_variation() <= 5 * f.total_variation()


def test_integration_by_parts():
    # int A dB + int B(.-) dA = A(t)B(t) - A(a)B(a) for right-continuous pairs
    A = StepFn(Fraction(1), (1, 3), (Fraction(1, 2), Fraction(-1, 4)), lo=0, hi=4)
    B = StepFn(Fraction(0), (2, 3), (Fraction(2), Fraction(1)), lo=0, hi=4)
    for t in (1, 2, 3, 4):
        lhs = ls_integral(A, B, t) + ls_integral(B.left_limit, A, t)
        assert lhs == A(t) * B(t) - A(0) * B(0)


def test_integral_curve_matches_pointwise():
    g = StepFn(0, (1, 2), (0.5, 0.5))
    curve = integral_curve(g, g)
    for t in (0.5, 1, 1.5, 2, 3):
        assert curve(t) == ls_integral(g, g, t)


def test_text_roundtrip():
    f = StepFn(0.25, (0.5, 1.75), (1.0, -0.5), lo=0.0, hi=2.0, convention=LEFT)
    g = StepFn.from_text(f.to_text())
    assert g == f


def test_text_roundtrip_infinite_domain():
    f = StepFn(0.0, (1.0,), (1.0,))
    assert StepFn.from_text(f.to_text()) == f


def test_scale_and_operators():
    f = StepFn(1, (1,), (2,), lo=0, hi=2)
    assert (3 * f)(1) == 9
    assert (f - f)(1.5) == 0
    assert (f + f)(1) == 6
