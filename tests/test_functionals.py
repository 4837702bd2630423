import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permboot.empirical import at_risk_process, ecdf, uncensored_subdist
from permboot.errors import ContractError, DomainError, SingularityError
from permboot.functionals import (
    HazardBundle,
    QuantileProblem,
    kaplan_meier,
    km_derivative,
    na_derivative,
    nelson_aalen,
    pointwise_product,
    prodint_derivative,
    product_integral,
    quantile,
    quantile_derivative,
    restrict,
    rmst,
    wilcoxon,
    wilcoxon_curve,
    wilcoxon_derivative,
)
from permboot.stepfn import StepFn, affine_combine


def _bundle(obs, tau):
    return HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau)


# -- Wilcoxon ----------------------------------------------------------

def test_wilcoxon_self_075():
    f = ecdf([1, 2])
    assert wilcoxon(f, f) == 0.75


def test_wilcoxon_constant_integrator():
    f = ecdf([1, 2])
    assert wilcoxon(StepFn(3), StepFn(4)) == 0
    assert wilcoxon(f, StepFn(0)) == 0


def test_wilcoxon_continuous_symmetry():
    # fine discretization of F = G continuous: psi -> 1/2
    xs = [(k + 0.5) / 400 for k in range(400)]
    f = ecdf(xs)
    assert wilcoxon(f, f) == pytest.approx(0.5, abs=2e-3)


def test_wilcoxon_derivative_zero_direction():
    f = ecdf([1, 2])
    d = wilcoxon_derivative(f, f, StepFn(0), StepFn(0))
    assert d(3) == 0


def test_wilcoxon_derivative_one_jump_each():
    e = ecdf([1])
    d = wilcoxon_derivative(e, e, e, e)
    assert d(0.5) == 0
    assert d(1) == 2  # int A d(beta) = 1 plus int alpha dB = 1


def test_wilcoxon_derivative_linearity():
    a, b = ecdf([1, 3]), ecdf([2, 4])
    al, be = ecdf([1.5]), ecdf([2.5])
    d1 = wilcoxon_derivative(a, b, al.scale(2), be.scale(2))
    d2 = wilcoxon_derivative(a, b, al, be)
    for t in (1, 2, 2.5, 5):
        assert d1(t) == pytest.approx(2 * d2(t), abs=1e-14)


# -- Nelson-Aalen ------------------------------------------------------

def test_nelson_aalen_no_censoring():
    lam = nelson_aalen(_bundle([(1, 1), (2, 1), (3, 1)], tau=3))
    assert lam(0.5) == 0
    assert lam(1) == pytest.approx(1 / 3)
    assert lam(2) == pytest.approx(1 / 3 + 1 / 2)
    assert lam(3) == pytest.approx(11 / 6)


def test_nelson_aalen_with_censoring():
    lam = nelson_aalen(_bundle([(1, 1), (2, 0), (3, 1)], tau=3))
    assert lam(3) == pytest.approx(4 / 3)


def test_nelson_aalen_no_events():
    lam = nelson_aalen(_bundle([(1, 0), (2, 0)], tau=2))
    assert lam(2) == 0


def test_nelson_aalen_nondecreasing():
    lam = nelson_aalen(_bundle([(0.5, 1), (1, 0), (2, 1), (2, 1)], tau=2))
    assert all(j >= 0 for j in lam.jumps)


def test_nelson_aalen_death_at_zero():
    lam = nelson_aalen(_bundle([(0, 1), (1, 1)], tau=1))
    assert lam(0) == 0.5  # jump-at-zero convention picks up the event at 0


def test_nelson_aalen_reciprocal_rank_sum():
    # uncensored: Lambda(max) = sum over deaths of 1/(remaining at risk)
    obs = [(t, 1) for t in (0.3, 0.7, 1.1, 1.9, 2.5)]
    lam = nelson_aalen(_bundle(obs, tau=3))
    n = len(obs)
    assert lam(3) == pytest.approx(sum(1 / (n - i) for i in range(n)))


def test_na_singularity_named():
    # event at t=1 but nobody at risk past 0.5
    bundle = HazardBundle(at_risk_process([(0.5, 1)]), uncensored_subdist([(1.0, 1)]), tau=2)
    with pytest.raises(SingularityError):
        nelson_aalen(bundle)


def test_na_derivative_finite_difference():
    # derivative agrees with the difference quotient, first order in t
    obs = [(0.4, 1), (0.9, 0), (1.3, 1), (2.0, 1)]
    bundle = _bundle(obs, tau=2)
    alpha = StepFn(0.3, (0.7, 1.5), (-0.1, -0.05), lo=0, hi=math.inf,
                   convention=bundle.at_risk.convention)
    beta = StepFn(0, (0.6, 1.3), (0.2, 0.1), lo=0, hi=math.inf)
    deriv = na_derivative(bundle, alpha, beta)
    grid = (0.5, 1.0, 1.4, 2.0)

    def quotient(t_step):
        pert = HazardBundle(
            affine_combine([1, t_step], [bundle.at_risk, alpha]),
            affine_combine([1, t_step], [bundle.uncensored, beta]),
            bundle.tau,
        )
        diff = affine_combine([1, -1], [nelson_aalen(pert), nelson_aalen(bundle)])
        return [diff(t) / t_step for t in grid]

    errs = []
    for t_step in (1e-2, 1e-3, 1e-4):
        q = quotient(t_step)
        errs.append(max(abs(qv - deriv(t)) for qv, t in zip(q, grid)))
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[0] < 0.2  # at least first order


# -- product integral --------------------------------------------------

def test_product_integral_single_jump():
    A = StepFn(0, (1,), (0.5,), lo=0, hi=2)
    phi = product_integral(A)
    assert phi(0.5) == 1 and phi(1) == 1.5


def test_product_integral_empty():
    assert product_integral(StepFn(0, lo=0, hi=1))(1) == 1


def test_product_integral_terminal_zero_jump_allowed():
    lam = nelson_aalen(_bundle([(1, 1), (2, 1), (3, 1)], tau=3))
    phi = product_integral(lam.scale(-1), jump_at_zero=True)
    assert phi(1) == pytest.approx(2 / 3)
    assert phi(2) == pytest.approx(1 / 3)
    assert phi(3) == pytest.approx(0, abs=1e-15)


def test_product_integral_rejects_jump_below_minus_one():
    with pytest.raises(DomainError):
        product_integral(StepFn(0, (1,), (-1.5,), lo=0, hi=2))


def test_prodint_derivative_constant_direction():
    A = StepFn(0, (1, 2), (0.5, -0.25), lo=0, hi=3)
    d = prodint_derivative(A, StepFn(4, lo=0, hi=3))
    for t in (0.5, 1, 2.5):
        assert d(t) == 0


def test_prodint_derivative_at_zero_function():
    alpha = StepFn(0, (1,), (0.7,), lo=0, hi=2)
    d = prodint_derivative(StepFn(0, lo=0, hi=2), alpha)
    assert d(1.5) == pytest.approx(0.7)  # phi'_0(alpha) = alpha(.) - alpha(lo)


def test_prodint_derivative_single_jump_pair():
    h, g = 0.5, 0.3
    A = StepFn(0, (1,), (h,), lo=0, hi=2)
    alpha = StepFn(0, (1,), (g,), lo=0, hi=2)
    d = prodint_derivative(A, alpha)
    assert d(1) == pytest.approx((1 + h) * (g - h * g / (1 + h)))
    assert d(1) == pytest.approx(g)


def test_prodint_derivative_rejects_minus_one_jump():
    A = StepFn(0, (1,), (-1.0,), lo=0, hi=2)
    with pytest.raises(DomainError):
        prodint_derivative(A, StepFn(0, (1,), (0.5,), lo=0, hi=2))


def test_duhamel_identity_small():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bpa = np.sort(rng.uniform(0.01, 1, size=rng.integers(1, 8)))
        bpb = np.sort(rng.uniform(0.01, 1, size=rng.integers(1, 8)))
        A = StepFn(0, tuple(bpa), tuple(rng.uniform(-0.9, 2, bpa.size)), lo=0, hi=1)
        B = StepFn(0, tuple(bpb), tuple(rng.uniform(-0.9, 2, bpb.size)), lo=0, hi=1)
        phiA, phiB = product_integral(A), product_integral(B)
        t = 1.0
        diff = affine_combine([1, -1], [B, A])
        rhs = sum(
            phiB.left_limit(u) * j * phiA(t) / phiA(u)
            for u, j in zip(diff.breakpoints, diff.jumps)
        )
        lhs = phiB(t) - phiA(t)
        scale = max(1.0, abs(phiA(t)), abs(phiB(t)))
        assert abs(lhs - rhs) / scale < 1e-12


# -- Kaplan-Meier ------------------------------------------------------

def test_km_example_values():
    surv = kaplan_meier(_bundle([(1, 1), (2, 0), (3, 1)], tau=3))
    assert surv(1) == pytest.approx(2 / 3, abs=1e-15)
    assert surv(2) == pytest.approx(2 / 3, abs=1e-15)
    assert surv(3) == pytest.approx(0, abs=1e-15)


def test_km_all_censored():
    surv = kaplan_meier(_bundle([(1, 0), (2, 0)], tau=2))
    assert surv(2) == 1


def test_km_single_death():
    surv = kaplan_meier(_bundle([(1, 1)], tau=2))
    assert surv(0.99) == 1 and surv(1) == 0


def _km_oracle(obs, t):
    """Hand-rolled product-limit over death times: prod (1 - d_u/r_u)."""
    deaths = sorted({z for z, d in obs if d == 1 and z <= t})
    out = 1.0
    for u in deaths:
        d_u = sum(1 for z, d in obs if d == 1 and z == u)
        r_u = sum(1 for z, _ in obs if z >= u)
        out *= 1 - d_u / r_u
    return out


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=1, max_size=12
    )
)
def test_km_matches_risk_set_oracle(obs):
    tau = max(z for z, _ in obs) + 1
    surv = kaplan_meier(_bundle(obs, tau=tau))
    for t in range(7):
        assert surv(min(t, tau)) == pytest.approx(_km_oracle(obs, t), abs=1e-12)


def test_km_nonincreasing_in_unit_interval():
    surv = kaplan_meier(_bundle([(1, 1), (1, 1), (2, 0), (3, 1), (4, 1)], tau=4))
    levels = surv.levels()
    assert all(1 >= a >= b >= 0 for a, b in zip(levels, levels[1:]))


def test_km_derivative_linearity():
    obs = [(0.5, 1), (1.0, 0), (1.5, 1), (2.5, 1)]
    bundle = _bundle(obs, tau=2)
    alpha = StepFn(0.2, (0.8,), (-0.1,), lo=0, hi=math.inf,
                   convention=bundle.at_risk.convention)
    beta = StepFn(0, (1.2,), (0.3,), lo=0, hi=math.inf)
    d1 = km_derivative(bundle, alpha.scale(3), beta.scale(3))
    d2 = km_derivative(bundle, alpha, beta)
    for t in (0.5, 1.0, 2.0):
        assert d1(t) == pytest.approx(3 * d2(t), abs=1e-12)


# -- RMST --------------------------------------------------------------

def test_rmst_constant():
    assert rmst(StepFn(1, lo=0, hi=5), 2) == 2


def test_rmst_unit_step():
    S = StepFn(1, (1,), (-1,), lo=0, hi=5)
    assert rmst(S, 2) == 1


def test_rmst_km_example():
    surv = kaplan_meier(_bundle([(1, 1), (2, 0), (3, 1)], tau=3))
    assert rmst(surv, 3) == pytest.approx(7 / 3, abs=1e-15)


def test_rmst_tau_outside_domain():
    with pytest.raises(DomainError):
        rmst(StepFn(1, lo=0, hi=2), 3)


# -- quantile ----------------------------------------------------------

def test_quantile_order_statistics():
    f = ecdf([1, 2, 3, 4])
    assert quantile(QuantileProblem(f, 0.5)) == 2


def test_quantile_p_zero_degenerate():
    f = ecdf([1, 2], lo=0, hi=5)
    assert quantile(QuantileProblem(f, 0)) == 0  # base 0 >= 0 at lo


def test_quantile_no_solution():
    f = ecdf([1, 2])
    with pytest.raises(DomainError):
        quantile(QuantileProblem(f, 1.5))


def test_quantile_rejects_decreasing():
    with pytest.raises(ContractError):
        QuantileProblem(StepFn(1, (1,), (-0.5,)), 0.5)


def test_quantile_derivative():
    f = ecdf([1, 2, 3, 4])
    prob = QuantileProblem(f, 0.5, derivative_at_solution=1.0)
    one = StepFn(1)
    assert quantile_derivative(prob, one) == -1
    assert quantile_derivative(prob, StepFn(0)) == 0
    assert quantile_derivative(prob, one.scale(2)) == -2


def test_quantile_derivative_needs_analytic_slope():
    f = ecdf([1, 2])
    with pytest.raises(ContractError):
        quantile_derivative(QuantileProblem(f, 0.5), StepFn(1))


# -- helpers -----------------------------------------------------------

def test_restrict():
    f = StepFn(0, (1, 2, 3), (1, 1, 1), lo=0, hi=5)
    g = restrict(f, 2)
    assert g.hi == 2 and g.breakpoints == (1, 2)
    with pytest.raises(DomainError):
        restrict(f, 7)


def test_pointwise_product():
    f = StepFn(1, (1,), (1,), lo=0, hi=3)
    g = StepFn(2, (2,), (-1,), lo=0, hi=3)
    p = pointwise_product(f, g)
    for t in (0.5, 1, 2, 3):
        assert p(t) == f(t) * g(t)
