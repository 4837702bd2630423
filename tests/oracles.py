"""Per-cell reference kernels for ``permboot.limits``, and the per-draw
bin counts of pooled indices for ``permboot.verify``'s counters.

One covariance entry per call, written straight from the limit
formulas: the group coefficient (1/lambda_i * 1{i=j} - 1 for the
permutation, 1{i=j} / lambda_i for the pooled bootstrap) times the
population cell at (s, t).  ``limits.assemble_kernel_matrix`` and
``limits.coeff_matrix`` are checked against them bit for bit; the
library itself does not use them.
"""

import numpy as np

from permboot.empirical import LambdaVector
from permboot.errors import ContractError
from permboot.limits import KernelKind, PlainPopulation

_PERM_KINDS = {
    KernelKind.PERM_INDICATOR,
    KernelKind.PERM_SURVIVAL_NA,
    KernelKind.PERM_KM,
    KernelKind.PERM_SURVIVAL_CROSS,
}


def perm_coeff(lambdas: LambdaVector, i: int, j: int) -> float:
    """Permutation limit coefficient 1/lambda_i * 1{i=j} - 1."""
    return (1.0 / lambdas[i] if i == j else 0.0) - 1.0


def boot_coeff(lambdas: LambdaVector, i: int, j: int) -> float:
    """Pooled-bootstrap coefficient: independent groups, 1/lambda_i on
    the diagonal."""
    return 1.0 / lambdas[i] if i == j else 0.0


def _coeff(kind: KernelKind, lambdas, i, j):
    return perm_coeff(lambdas, i, j) if kind in _PERM_KINDS else boot_coeff(lambdas, i, j)


def bb_cov(pop: PlainPopulation, s, t) -> float:
    """H-Brownian-bridge covariance H(min) - H(s) H(t)."""
    return pop.H(min(s, t)) - pop.H(s) * pop.H(t)


def indicator_kernel(kind: KernelKind, pop: PlainPopulation, lambdas, i, j, s, t):
    if kind not in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
        raise ContractError(f"{kind} is not an indicator kernel")
    return _coeff(kind, lambdas, i, j) * bb_cov(pop, s, t)


def na_kernel(kind: KernelKind, pop, lambdas, i, j, s, t):
    if kind not in (KernelKind.PERM_SURVIVAL_NA, KernelKind.BOOT_SURVIVAL_NA):
        raise ContractError(f"{kind} is not a Nelson-Aalen kernel")
    return _coeff(kind, lambdas, i, j) * pop.C(min(s, t))


def km_kernel(kind: KernelKind, pop, lambdas, i, j, s, t):
    if kind not in (KernelKind.PERM_KM, KernelKind.BOOT_KM):
        raise ContractError(f"{kind} is not a Kaplan-Meier kernel")
    c = _coeff(kind, lambdas, i, j)
    if c == 0.0:
        return 0.0
    # S(s) * S(t) first, so that the (s, t) and (t, s) entries are equal
    return c * ((pop.S(s) * pop.S(t)) * pop.km_integral(min(s, t)))


def _cross_entry(pop, s, t):
    """E[G_uc(s) G_bar(t)] for a single H-bridge pair."""
    ind = pop.Huc(s) - pop.Huc_left(t) if t <= s else 0.0
    return ind - pop.Huc(s) * pop.Hbar(t)


def survival_cross_kernel(kind: KernelKind, pop, lambdas, i, j, s, t) -> np.ndarray:
    """2x2 covariance block of the (at-risk, uncensored) pair at (s, t),
    rows/cols ordered (bar, uc)."""
    if kind not in (KernelKind.PERM_SURVIVAL_CROSS, KernelKind.BOOT_SURVIVAL_CROSS):
        raise ContractError(f"{kind} is not a survival cross kernel")
    c = _coeff(kind, lambdas, i, j)
    bar_bar = pop.Hbar(max(s, t)) - pop.Hbar(s) * pop.Hbar(t)
    uc_uc = pop.Huc(min(s, t)) - pop.Huc(s) * pop.Huc(t)
    return c * np.array(
        [
            [bar_bar, _cross_entry(pop, t, s)],
            [_cross_entry(pop, s, t), uc_uc],
        ]
    )


def binned(counter, idx, sizes) -> np.ndarray:
    """A ``verify._Counter``'s counts of each label for each run of
    ``sizes`` columns of the pooled indices idx (B, n): exact integers,
    (m, B, nbins)."""
    return counter.count_labels(counter.labels[idx], sizes)
