import math
from fractions import Fraction

import numpy as np
import pytest

from permboot import limits
from permboot.empirical import LambdaVector, at_risk_process, ecdf, uncensored_subdist
from permboot.errors import ContractError, SingularityError
from permboot.functionals import HazardBundle
from permboot.limits import (
    AnalyticSurvivalPopulation,
    EmpiricalSurvivalPopulation,
    KernelKind,
    PlainPopulation,
    assemble_kernel_matrix,
    coeff_matrix,
    exponential_survival_population,
)
from permboot.stepfn import StepFn

from oracles import (
    bb_cov,
    boot_coeff,
    indicator_kernel,
    km_kernel,
    na_kernel,
    perm_coeff,
    survival_cross_kernel,
)

LAM = LambdaVector((0.25, 0.75))


def test_perm_coeff_values():
    assert perm_coeff(LAM, 0, 0) == pytest.approx(3.0)  # 1/0.25 - 1
    assert perm_coeff(LAM, 1, 1) == pytest.approx(1 / 3)
    assert perm_coeff(LAM, 0, 1) == -1.0


def test_boot_coeff_values():
    assert boot_coeff(LAM, 0, 0) == pytest.approx(4.0)
    assert boot_coeff(LAM, 0, 1) == 0.0


def test_perm_coeff_weighted_rows_vanish():
    # sum_j lambda_j * coeff(i, j) = 0: the conservation constraint
    for m in (2, 3, 5):
        lam = LambdaVector.from_sizes(tuple(range(1, m + 1)))
        for i in range(m):
            s = sum(lam[j] * perm_coeff(lam, i, j) for j in range(m))
            assert s == pytest.approx(0, abs=1e-14)


def _lambda_args(m):
    lam = LambdaVector.from_sizes(tuple(range(1, m + 1)))
    return [lam, list(lam.values)]


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_coeff_matrix_is_the_per_entry_coefficients(kind, m):
    coeff = perm_coeff if kind.value.startswith("perm-") else boot_coeff
    for lam in _lambda_args(m):
        expected = [[coeff(lam, i, j) for j in range(m)] for i in range(m)]
        assert np.array_equal(coeff_matrix(kind, lam), expected)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_coeff_matrix_perm_rows_vanish_and_boot_off_diagonal_is_zero(m):
    off_diagonal = ~np.eye(m, dtype=bool)
    for lam in _lambda_args(m):
        weights = np.array([lam[i] for i in range(m)])
        for kind in KernelKind:
            c = coeff_matrix(kind, lam)
            if kind.value.startswith("perm-"):
                np.testing.assert_allclose(weights @ c, 0.0, atol=1e-14)
            else:
                assert np.all(c[off_diagonal] == 0.0)


def test_bb_cov_uniform():
    pop = PlainPopulation(lambda t: min(max(t, 0.0), 1.0))
    assert bb_cov(pop, 0.5, 0.5) == pytest.approx(0.25)
    assert bb_cov(pop, 0.25, 0.75) == pytest.approx(0.25 - 0.25 * 0.75)


def test_indicator_kernel_wrong_kind():
    pop = PlainPopulation(lambda t: t)
    with pytest.raises(ContractError):
        indicator_kernel(KernelKind.PERM_KM, pop, LAM, 0, 0, 0.3, 0.3)


def test_exponential_population_c_function():
    # Exp(1) failures, no censoring: C(t) = e^t - 1 and Lambda(t) = t
    pop = exponential_survival_population([1.0, 1.0], [0.0, 0.0], LAM, tau=1.5)
    for t in (0.2, 0.8, 1.5):
        assert pop.C(t) == pytest.approx(math.exp(t) - 1, rel=1e-8)
        assert pop.cum_hazard(t) == pytest.approx(t)
        assert pop.S(t) == pytest.approx(math.exp(-t))
        assert pop.km_integral(t) == pop.C(t)


def test_exponential_population_with_censoring():
    # Exp(a) failure, Exp(c) censoring: Hbar = e^{-(a+c)t},
    # C(t) = a/(a+c) (e^{(a+c)t} - 1)
    a, c = 1.0, 0.5
    pop = exponential_survival_population([a, a], [c, c], LAM, tau=1.0)
    for t in (0.3, 1.0):
        assert pop.Hbar(t) == pytest.approx(math.exp(-(a + c) * t))
        expected = a / (a + c) * (math.exp((a + c) * t) - 1)
        assert pop.C(t) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("a, c, lambdas, tau", [
    (1.0, 0.0, (0.5, 0.5), 1.5),
    (1.0, 0.5, (0.25, 0.75), 2.0),
    (0.3, 2.0, (0.2, 0.3, 0.5), 3.0),
    (2.5, 0.7, (0.6, 0.4), 1.0),
])
def test_identical_groups_match_the_one_group_closed_forms(a, c, lambdas, tau):
    # identical groups pool to one Exp(a) failure / Exp(c) censoring law:
    # Lambda(t) = a t, S(t) = e^{-a t}, C(t) = a/(a+c) (e^{(a+c)t} - 1)
    k = len(lambdas)
    pop = exponential_survival_population([a] * k, [c] * k, lambdas, tau)
    for t in np.linspace(tau / 50, tau, 50):
        assert pop.cum_hazard(t) == pytest.approx(a * t, rel=1e-14)
        assert pop.S(t) == pytest.approx(math.exp(-a * t), rel=1e-14)
        assert pop.C(t) == pytest.approx(a / (a + c) * math.expm1((a + c) * t), rel=1e-14)


def test_empirical_population_small_dataset():
    obs = [(1, 1), (2, 0), (3, 1)]
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau=3)
    pop = EmpiricalSurvivalPopulation(bundle)
    assert pop.Hbar(2) == pytest.approx(2 / 3)
    assert pop.Huc(3) == pytest.approx(2 / 3)
    assert pop.S(2) == pytest.approx(2 / 3)
    # C = sum (1 - dL) dL / Hbar over events: (2/3)(1/3)/1 + 0
    assert pop.C(3) == pytest.approx(2 / 9)
    # km integral up to 2 only sees the event at 1: (1/3)/((2/3) * 1)
    assert pop.km_integral(2) == pytest.approx(0.5)
    with pytest.raises(SingularityError):
        pop.km_integral(3)  # hazard jump of 1 at the last death


def test_na_kernel_min_structure():
    pop = exponential_survival_population([1.0, 1.0], [0.0, 0.0], LAM, tau=2)
    v_st = na_kernel(KernelKind.PERM_SURVIVAL_NA, pop, LAM, 0, 0, 0.5, 1.5)
    v_ts = na_kernel(KernelKind.PERM_SURVIVAL_NA, pop, LAM, 0, 0, 1.5, 0.5)
    assert v_st == pytest.approx(v_ts)
    assert v_st == pytest.approx(perm_coeff(LAM, 0, 0) * (math.exp(0.5) - 1), rel=1e-8)


def test_km_kernel_zero_for_boot_offdiag():
    pop = exponential_survival_population([1.0, 1.0], [0.0, 0.0], LAM, tau=2)
    assert km_kernel(KernelKind.BOOT_KM, pop, LAM, 0, 1, 0.5, 0.5) == 0.0


def test_cross_kernel_block_symmetry():
    pop = exponential_survival_population([1.0, 1.2], [0.3, 0.4], LAM, tau=2)
    for s, t in ((0.4, 1.1), (1.1, 0.4), (0.7, 0.7)):
        b_ij = survival_cross_kernel(KernelKind.PERM_SURVIVAL_CROSS, pop, LAM, 0, 1, s, t)
        b_ji = survival_cross_kernel(KernelKind.PERM_SURVIVAL_CROSS, pop, LAM, 1, 0, t, s)
        assert np.allclose(b_ij, b_ji.T, atol=1e-10)


def test_assemble_matrix_symmetric_psd():
    pop = PlainPopulation(lambda t: 1 - math.exp(-t))
    grid = [0.2, 0.6, 1.1, 2.0]
    for kind in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
        mat = assemble_kernel_matrix(kind, pop, LAM, grid)
        assert mat.shape == (8, 8)
        assert np.allclose(mat, mat.T, atol=1e-12)
        assert np.linalg.eigvalsh(mat).min() > -1e-10


def test_assemble_cross_matrix_shape():
    pop = exponential_survival_population([1.0, 1.0], [0.5, 0.5], LAM, tau=1.5)
    grid = [0.3, 0.9]
    mat = assemble_kernel_matrix(KernelKind.PERM_SURVIVAL_CROSS, pop, LAM, grid)
    assert mat.shape == (8, 8)
    assert np.allclose(mat, mat.T, atol=1e-9)


def test_boot_cross_matrix_block_diagonal():
    pop = exponential_survival_population([1.0, 1.0], [0.5, 0.5], LAM, tau=1.5)
    grid = [0.3, 0.9]
    mat = assemble_kernel_matrix(KernelKind.BOOT_SURVIVAL_CROSS, pop, LAM, grid)
    # groups independent: the off-diagonal 4x4 group blocks vanish
    assert np.allclose(mat[:4, 4:], 0, atol=1e-12)
    assert np.allclose(mat[4:, :4], 0, atol=1e-12)


def test_plugin_tracks_analytic_at_scale():
    # plug-in C from a large simulated pooled sample approaches e^t - 1
    rng = np.random.default_rng(77)
    z = rng.exponential(1.0, size=20000)
    obs = [(float(t), 1) for t in z]
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau=1.0)
    pop = EmpiricalSurvivalPopulation(bundle)
    for t in (0.3, 0.7, 1.0):
        assert pop.C(t) == pytest.approx(math.exp(t) - 1, rel=0.1)


# -- array assembly against the scalar kernels ---------------------------

LAM3 = LambdaVector((0.2, 0.3, 0.5))
# unsorted, with a repeated point and 0.0
ODD_GRID = [1.2, 0.0, 2.0, 0.5, 1.2, 2.6]
CROSS_KINDS = (KernelKind.PERM_SURVIVAL_CROSS, KernelKind.BOOT_SURVIVAL_CROSS)
KM_KINDS = (KernelKind.PERM_KM, KernelKind.BOOT_KM)
_SCALAR = {
    KernelKind.PERM_INDICATOR: indicator_kernel,
    KernelKind.BOOT_INDICATOR: indicator_kernel,
    KernelKind.PERM_SURVIVAL_NA: na_kernel,
    KernelKind.BOOT_SURVIVAL_NA: na_kernel,
    KernelKind.PERM_KM: km_kernel,
    KernelKind.BOOT_KM: km_kernel,
}


def _per_cell_matrix(kind, pop, lambdas, grid):
    """Reference: one scalar kernel call per matrix cell."""
    m, G = len(lambdas), len(grid)
    width = 2 if kind in CROSS_KINDS else 1
    out = np.empty((width * m * G, width * m * G))
    for i in range(m):
        for j in range(m):
            for a, s in enumerate(grid):
                for b, t in enumerate(grid):
                    if kind in CROSS_KINDS:
                        block = survival_cross_kernel(kind, pop, lambdas, i, j, s, t)
                        for p in range(2):
                            for q in range(2):
                                out[(i * 2 + p) * G + a, (j * 2 + q) * G + b] = block[p, q]
                    else:
                        out[i * G + a, j * G + b] = _SCALAR[kind](kind, pop, lambdas, i, j, s, t)
    return out


def _tied_plugin_population():
    obs = [(0.5, 1), (0.5, 1), (1.0, 0), (1.2, 1), (1.2, 0), (1.5, 1),
           (2.0, 1), (2.0, 0), (2.0, 1), (2.5, 1), (2.7, 0), (3.0, 0)]
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau=3.0)
    return EmpiricalSurvivalPopulation(bundle)


def _populations(kind):
    if kind in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
        return [
            PlainPopulation(lambda t: 1 - math.exp(-t) if t > 0 else 0.0),
            PlainPopulation(ecdf([0.5, 0.5, 1.2, 2.0, 2.0, 3.1])),
            # exact rational values: the float rounding happens at the coefficient
            PlainPopulation(StepFn(Fraction(0), (0.5, 1.2, 2.0),
                                   (Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)))),
        ]
    return [
        # unequal rates: S goes through the cumulative-hazard quadrature
        exponential_survival_population([1.0, 1.4, 0.7], [0.5, 0.2, 0.0], LAM3, tau=3.0),
        _tied_plugin_population(),
    ]


@pytest.mark.parametrize("kind", list(KernelKind))
def test_assemble_matches_per_cell_bitwise(kind):
    for pop in _populations(kind):
        got = assemble_kernel_matrix(kind, pop, LAM3, ODD_GRID)
        ref = _per_cell_matrix(kind, pop, LAM3, ODD_GRID)
        assert got.dtype == float and got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("kind", KM_KINDS)
def test_km_matrix_exactly_symmetric(kind):
    for pop in _populations(kind):
        mat = assemble_kernel_matrix(kind, pop, LAM3, ODD_GRID)
        assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("kind", [k for k in KernelKind if "indicator" not in k.value])
def test_assemble_quadratures_per_grid_point(kind, monkeypatch):
    calls = []
    real_quad = limits.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(limits, "quad", counting_quad)
    pop = exponential_survival_population([1.0, 1.4, 0.7], [0.5, 0.2, 0.0], LAM3, tau=3.0)
    assemble_kernel_matrix(kind, pop, LAM3, ODD_GRID)
    assert 0 < len(calls) <= 2 * len(ODD_GRID)


@pytest.mark.parametrize("kind", KM_KINDS)
def test_assemble_km_singular_plugin_raises(kind):
    obs = [(1, 1), (2, 0), (3, 1)]
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau=3)
    pop = EmpiricalSurvivalPopulation(bundle)
    with pytest.raises(SingularityError):
        assemble_kernel_matrix(kind, pop, LAM, [0.5, 3.0])


# -- quadrature against exact oracles -------------------------------------

def test_quadrature_matches_closed_forms_of_a_shared_kappa_mixture():
    # unequal groups, so every cumulative quantity goes through quad, but
    # with one kappa = a / (a + c) = 2/3: the pooled hazard f / Hbar is
    # -kappa (log Hbar)', which gives every quantity in closed form
    fail, cens, tau = (1.0, 2.0), (0.5, 1.0), 2.0
    kappa = 2 / 3
    pop = exponential_survival_population(fail, cens, LAM, tau=tau)

    def hbar(t):
        return sum(w * math.exp(-(a + c) * t) for w, a, c in zip(LAM, fail, cens))

    for t in np.linspace(tau / 20, tau, 20):
        huc = sum(w * a / (a + c) * -math.expm1(-(a + c) * t) for w, a, c in zip(LAM, fail, cens))
        assert pop.Hbar(t) == pytest.approx(hbar(t), rel=1e-14)
        assert pop.Huc(t) == pytest.approx(huc, rel=1e-12)
        assert pop.cum_hazard(t) == pytest.approx(-kappa * math.log(hbar(t)), rel=1e-12)
        assert pop.C(t) == pytest.approx(kappa * (1 / hbar(t) - 1), rel=1e-12)
        assert pop.S(t) == pytest.approx(hbar(t) ** kappa, rel=1e-12)


@pytest.mark.parametrize("fail, cens, lambdas, tau", [
    ((1.0, 1.4, 0.7), (0.5, 0.2, 0.0), LAM3, 3.0),
    # Hbar(3.35) ~ 2e-5, so C(3.35) ~ 3e4 and the relative target rules
    ((2.0, 3.0), (1.0, 2.0), LambdaVector((0.5, 0.5)), 3.35),
])
def test_quadrature_matches_tight_scipy_reference(fail, cens, lambdas, tau):
    from scipy.integrate import quad as scipy_quad

    pop = exponential_survival_population(fail, cens, lambdas, tau=tau)

    def f(u):
        return sum(w * a * math.exp(-(a + c) * u) for w, a, c in zip(lambdas, fail, cens))

    def hbar(u):
        return sum(w * math.exp(-(a + c) * u) for w, a, c in zip(lambdas, fail, cens))

    integrands = {
        "Huc": f, "cum_hazard": lambda u: f(u) / hbar(u), "C": lambda u: f(u) / hbar(u) ** 2,
    }
    for t in np.linspace(tau / 15, tau, 15):
        for name, integrand in integrands.items():
            ref, _err = scipy_quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-13)
            assert getattr(pop, name)(t) == pytest.approx(ref, rel=1e-12), (name, t)


@pytest.mark.parametrize("epsabs", [limits.QUAD_ABS_TOL, 0.0])
def test_quad_bisects_a_kinked_integrand(epsabs):
    # at epsabs 0 only the relative target is left; it is taken from the
    # whole integral, so it does not shrink with the panels at the kink
    calls = []

    def kinked(x):
        calls.append(x.size)
        return np.abs(x - 1 / 3)

    value, err = limits.quad(kinked, 0.0, 1.0, epsabs=epsabs)
    assert value == pytest.approx(5 / 18, rel=1e-12)  # (1/3)^2 / 2 + (2/3)^2 / 2
    assert 0 <= err <= limits.QUAD_REL_TOL * value
    assert len(calls) > 1  # the panel holding the kink was bisected


@pytest.mark.parametrize("integrand, near", [
    # 1/x is not integrable at 0: the panel next to it never settles and
    # the depth cap stops it
    (lambda x: 1 / x, 0.0),
    # NaN never compares within tolerance: every panel splits on every
    # level until the panel cap stops it
    (lambda x: np.full_like(x, np.nan), None),
])
def test_quad_raises_where_the_tolerance_cannot_be_met(integrand, near):
    with pytest.raises(SingularityError, match="cannot reach tolerance") as info:
        limits.quad(integrand, 0.0, 1.0)
    if near is not None:
        assert info.value.at == pytest.approx(near, abs=1e-12)
