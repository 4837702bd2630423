"""Monte Carlo and exhaustive-enumeration verification harness.

Checks the conditional limit theorems for the permutation and pooled
bootstrap empirical processes against the closed-form covariance
kernels, and measures delta-method linearization residuals along sample
size ladders.  The exact difference-quotient checks and the inverse-map
counterexample live in ``permboot.counterexample``.

The covariance experiment and the ladder draw their pooled sample one
way (``_sample``).  A Monte Carlo scenario is what one replicate makes
of that sample: a grid, a
statistic of the resampled groups' per-draw counts, and the population
whose limit kernel the covariance is compared with.  A linearization
rung counts every draw the same way and evaluates a functional and its
derivative on those counts.  Both make, count and evaluate draws through
one driver, in blocks of a fixed size, so a block's memory does not
grow with N or B.  Two Monte Carlo counters skip the index draws and
draw each block's per-group bins from their law
(``resampling.draw_counts``): the plain indicator's K + 1 bins, and the
two bins per event time of a two-group survival permutation; numpy's C
sampler draws both groups' bins of every two-group permutation.
Survival bootstraps and permutations of three or more groups, the
ladder and exhaustive enumeration count index draws.  A replicate's
blocks are allocated as they are drawn, and its centred (draws, m * grid
points) statistic is filled block by block; nothing outlives the call.
Every running total over the event times or distinct values, a
Monte Carlo survival curve and a linearization residual alike, is read
at its grid only, by one reader (``_running``): the per-event
increments up to the last grid point are summed (multiplied) segment by
segment between the grid points and run over those segments.

Everything is deterministic given (config, seed): datasets and draws
use counter-based child seeds, and reductions are order-independent, so
reports are byte-identical regardless of thread count.

Sampling laws and configs live in ``permboot.config``.
"""

from __future__ import annotations

import concurrent.futures
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import (
    ExperimentConfig,
    Law,
    LinearizationConfig,
    Scenario,
    _check_grid_within_tau,
    simulate_plain_groups,
    simulate_survival_groups,
)
from .empirical import LambdaVector, at_risk_process, uncensored_subdist
from .errors import ContractError, DataError, DomainError
from .functionals import HazardBundle
from .jsonio import canonical_json
from .limits import (
    EmpiricalSurvivalPopulation,
    PlainPopulation,
    assemble_kernel_matrix,
    exponential_survival_population,
)
from .resampling import ResampleKind, SeedSpec, all_permutations, draw_blocks, draw_counts

__all__ = [
    # benchmarks/tracing.py patches Law.sample here, as permboot.verify:Law
    "Law",
    "VerifyReport",
    "conditional_cov_experiment",
    "linearization_residual_experiment",
    "simulate_grid_gaussian",
]

_MAX_DATASET_RETRIES = 100
# integers per block of draws: index draws are made and counted in
# blocks of this many entries of the widest per-draw array (the N pooled
# indices or the m groups' bin counts), so a block's memory depends on
# neither N nor B; bins drawn from their law come in blocks of this many
# bins per group
_BLOCK_CELLS = 1 << 17
# a linearization rung compares its curves at this many pooled quantiles
_LADDER_GRID_POINTS = 9


# -- report ------------------------------------------------------------

@dataclass
class VerifyReport:
    config: dict
    kernel_kind: str
    kernel_mean: np.ndarray
    mc_mean: np.ndarray
    dev: np.ndarray
    se: np.ndarray
    cell_pass: np.ndarray
    aggregates: dict
    passed: bool

    def to_json(self) -> str:
        return canonical_json(self) + "\n"


# -- conditional covariance experiment ---------------------------------

@dataclass(frozen=True)
class _Counter:
    """Per-draw counts of assigned pooled indices, from one label in
    0..nbins-1 per pooled index: ``count_labels(flat, sizes)`` counts
    each label for each run of ``sizes`` columns of the labels flat
    (B, n) of drawn indices (exact integers, (m, B, nbins)),
    ``pooled_bins`` counts each label once over the pooled sample, and
    ``finish`` turns bins into the counts a statistic reads, and may
    overwrite the bins.  With ``by_law``, Monte Carlo draws skip the
    indices and take each group's bins from their law
    (``draw_counts``), which pays where the bins are few, or where
    numpy's C sampler draws two groups' many bins."""

    labels: np.ndarray
    nbins: int
    finish: Callable = lambda bins: bins
    by_law: bool = False

    def count_labels(self, flat: np.ndarray, sizes) -> np.ndarray:
        """The counts of each run of ``sizes`` columns of the labels flat
        (B, n), (m, B, nbins); flat is overwritten."""
        B, width = flat.shape[0], len(sizes) * self.nbins
        # run j of row b counts into bins (b m + j) nbins + label
        flat += np.repeat(self.nbins * np.arange(len(sizes)), sizes)
        flat += width * np.arange(B)[:, None]
        counts = np.bincount(flat.ravel(), minlength=B * width).reshape(B, len(sizes), self.nbins)
        return counts.transpose(1, 0, 2)

    def pooled_bins(self) -> np.ndarray:
        """The counts of every pooled index, (nbins,)."""
        return np.bincount(self.labels, minlength=self.nbins)


def _indicator_counter(pooled: np.ndarray, grid: np.ndarray) -> _Counter:
    """Counts per draw of assigned values <= each grid point, in grid
    order (unsorted and repeated points allowed); (B, K)."""
    order = np.argsort(grid, kind="stable")
    # values <= sorted grid point k are those in bins 0..k
    bins = np.searchsorted(grid[order], pooled, side="left")
    K = grid.size

    def finish(binned):
        out = np.empty((binned.shape[0], K), dtype=np.intp)
        out[:, order] = np.cumsum(binned[:, :K], axis=1)
        return out

    # K + 1 bins: drawn from their law, not counted from index draws
    return _Counter(bins, K + 1, finish, by_law=True)


def _survival_counter(z: np.ndarray, delta: np.ndarray, t_max: float):
    """The event times (distinct uncensored times <= t_max) and a counter
    of per-draw (deaths, at risk) at each event time, (B, K) each."""
    death = (delta == 1) & (z <= t_max)
    events = np.unique(z[death])
    K = events.size
    # a time is at risk at events[k] for every k below its risk bin; a
    # death's risk bin is one past its event index, so one label
    # 2 * risk bin + death carries both counts
    labels = 2 * np.searchsorted(events, z, side="right") + death

    def finish(binned):
        per_bin = binned.reshape(-1, K + 1, 2)
        # times per risk bin, from bin K down to bin 1, summed downwards
        # in place of the censored times of bins K..1
        at_risk = per_bin[:, :0:-1, 0]
        np.add(at_risk, per_bin[:, :0:-1, 1], out=at_risk)
        np.cumsum(at_risk, axis=1, out=at_risk)
        return per_bin[:, 1:, 1], per_bin[:, 1:, 0]

    return events, _Counter(labels, 2 * (K + 1), finish)


def _over_draws(fn, counter: _Counter, sizes, kind: ResampleKind, draws: int, seed: SeedSpec,
                exhaustive: bool = False) -> list:
    """``fn(first, bins)`` of each block of draws, in order: ``first`` is
    the index of the block's first draw and ``bins`` its per-group bins,
    (m, rows, nbins).  The draws are ``draws`` rows of ``kind`` from
    seed.child(1), or every permutation when ``exhaustive``, group j
    assigned the j-th run of ``sizes`` columns.  A ``by_law`` counter's
    bins are drawn from their law, block after block from seed.child(1),
    instead."""
    N = sum(sizes)
    by_law = counter.by_law and not exhaustive
    # at least two rows; the law draws of a block depend on its rows, so
    # their rule is part of what fixes a report's bytes
    width = counter.nbins if by_law else max(N, len(sizes) * counter.nbins)
    rows = max(2, _BLOCK_CELLS // width)
    if by_law:
        pooled, rng = counter.pooled_bins(), seed.child(1).rng()
        return [
            fn(first, draw_counts(kind, pooled, sizes, min(rows, draws - first), rng))
            for first in range(0, draws, rows)
        ]
    if exhaustive:
        perms = all_permutations(N)
        draws = len(perms)
        blocks = (counter.labels[perms[i:i + rows]] for i in range(0, draws, rows))
    else:
        # each drawn block of indices is overwritten by their labels
        # (mode "clip" writes in place where "raise" buffers; every index
        # is in range)
        blocks = map(
            lambda idx: np.take(counter.labels, idx, out=idx, mode="clip"),
            draw_blocks(kind, N, draws, seed.child(1).rng(), rows),
        )
    # a block's labels are freed once counted, before fn runs, so a block
    # peaks at its labels and counts, or its counts and fn's arrays: about
    # 1.5 times its count array.  glibc hands a freed heap top back to the
    # system once it passes twice the largest array it has mapped (a
    # count block), and the next replicate would fault it in again
    return [fn(first, counter.count_labels(next(blocks), sizes)) for first in range(0, draws, rows)]


def _hazard(deaths: np.ndarray, at_risk: np.ndarray) -> np.ndarray:
    """Hazard increments deaths / at risk, as floats.  A death is in its
    own risk set, so where nobody is at risk nobody dies either, and the
    increment is 0 there: the divisor is at least 1."""
    h = at_risk.astype(float)
    np.maximum(h, 1.0, out=h)
    return np.divide(deaths, h, out=h)


def _running(increments: np.ndarray, positions: np.ndarray, product: bool = False) -> np.ndarray:
    """Running sums (with ``product``, products) of the per-event
    increments (B, K) after the first ``positions[g]`` of them, (B, G),
    for positions in any order and with repeats: 0 (1) at position 0.
    The increments are summed (multiplied) segment by segment between
    the distinct positions, then run over those few segments alone."""
    # column s of curve is the total after the first cuts[s] increments,
    # and the segment that ends there holds increments cuts[s - 1]..cuts[s] - 1;
    # increments past the last cut are left out, since reduceat's last
    # segment would run to the end
    cuts = sorted({0, *positions.tolist()})
    curve = np.empty((increments.shape[0], len(cuts)))
    curve[:, 0] = float(product)
    (np.multiply if product else np.add).reduceat(
        increments[:, :cuts[-1]], cuts[:-1], axis=1, out=curve[:, 1:]
    )
    (np.cumprod if product else np.cumsum)(curve, axis=1, out=curve)
    return curve[:, np.searchsorted(cuts, positions)]


def _survival_curve(deaths: np.ndarray, at_risk: np.ndarray, km: bool,
                    positions: np.ndarray) -> np.ndarray:
    """Nelson-Aalen (running sum of the hazard increments) or, with
    ``km``, Kaplan-Meier (running product of 1 - increment) curves of
    deaths and at risk (B, K), ``_running`` at positions, (B, G)."""
    last = positions.max(initial=0)
    h = _hazard(deaths[:, :last], at_risk[:, :last])
    return _running(np.subtract(1.0, h, out=h) if km else h, positions, km)


def _resolve_grid(config: ExperimentConfig, z: np.ndarray, default_probs, tau=None):
    """The configured grid: explicit points, or quantiles of the pooled
    sample z (``default_probs`` for "pooled-deciles", taken over the
    times <= tau when those of z would pass tau); survival grids must
    lie within tau."""
    if isinstance(config.grid, tuple):
        grid = np.asarray(config.grid, dtype=float)
    elif config.grid == "pooled-deciles":
        grid = np.quantile(z, default_probs)
        if tau is not None and grid.max() > tau and (z <= tau).any():
            grid = np.quantile(z[z <= tau], default_probs)
    else:
        grid = np.quantile(z, np.asarray(config.grid["pooled_quantiles"], dtype=float))
    _check_grid_within_tau(grid, tau)
    return grid


def _sample(config, sizes, seed: SeedSpec, survival: bool, tau=None):
    """The pooled sample of ``sizes`` drawn from config's laws: plain
    values from seed.child(0), or survival data from seed.child(0,
    retries), redrawn until every group is still at risk at tau (by
    default the pooled ``config.tau_quantile`` quantile).

    Returns (the data, pooled values or times z, censoring indicators
    delta as 0/1 integers, tau, retries); delta and tau are None for
    plain data.
    """
    if not survival:
        data = simulate_plain_groups(config.group_laws, sizes, seed.child(0).rng())
        return data, data.values, None, None, 0
    for retries in range(_MAX_DATASET_RETRIES + 1):
        data = simulate_survival_groups(
            config.group_laws, config.censoring_laws, sizes, seed.child(0, retries).rng()
        )
        z, delta = data.pooled
        t = tau if tau is not None else float(np.quantile(z, config.tau_quantile))
        if all(z[data.group_slice(j)].max() >= t for j in range(data.m)):
            return data, z, delta, t, retries
    raise DataError("could not simulate a dataset with all groups at risk at tau")


def _plain_scenario(config: ExperimentConfig, sample):
    """Indicator scenario on a ``_sample``: the grid, the counter, the
    statistic (the ECDF at the grid of n assigned values, (B, K), from
    their counts), the population."""
    pooled = sample[1]
    grid = _resolve_grid(config, pooled, np.linspace(0.1, 0.9, 9))
    counter = _indicator_counter(pooled, grid)
    if config.target == "plugin":
        pop = PlainPopulation(lambda t: np.mean(pooled <= t))
    else:
        mix = [(n / pooled.size, law) for law, n in zip(config.group_laws, config.sizes)]
        pop = PlainPopulation(lambda t: sum(w * law.cdf(t) for w, law in mix))
    return grid, counter, np.divide, pop


def _survival_scenario(config: ExperimentConfig, sample):
    """Nelson-Aalen or Kaplan-Meier scenario on a ``_sample``: the grid,
    the counter, the statistic (the curve at the grid of the assigned
    observations, read by segment from their counts of deaths and at
    risk at the pooled event times), the population."""
    data, z, delta, tau, _retries = sample
    grid = _resolve_grid(config, z, np.linspace(0.1, 0.7, 5), tau)
    events, counter = _survival_counter(z, delta, grid.max())
    if len(config.sizes) == 2 and config.resample_kind is ResampleKind.PERMUTATION:
        # numpy's C sampler draws two groups' bins faster than index
        # draws are made and counted
        counter = replace(counter, by_law=True)
    pos = np.searchsorted(events, grid, side="right")
    km_mode = config.scenario is Scenario.SURVIVAL_KM

    # a death at events[k] is in its own risk set (risk bin k + 1), so no
    # draw has deaths where nobody is at risk
    def curve(counts, _n):
        return _survival_curve(*counts, km_mode, pos)

    if config.target == "plugin":
        obs = data.pooled
        pop = EmpiricalSurvivalPopulation(
            HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau)
        )
    else:
        pop = _analytic_survival_population(config, tau)
    return grid, counter, curve, pop


def _analytic_survival_population(config: ExperimentConfig, tau):
    if any(law.kind != "exponential" for law in config.group_laws) or any(
        law.kind not in ("exponential", "none") for law in config.censoring_laws
    ):
        raise ContractError(
            "analytic survival targets are available for exponential "
            "failure/censoring laws only; use target='plugin'"
        )
    fail = [law.params[0] for law in config.group_laws]
    cens = [
        law.params[0] if law.kind == "exponential" else 0.0
        for law in config.censoring_laws
    ]
    return exponential_survival_population(
        fail, cens, LambdaVector.from_sizes(config.sizes), tau
    )


def _draws(config: ExperimentConfig) -> int:
    """The draws a replicate makes: the N! permutations when exhaustive,
    else the config's ``draws``."""
    return math.factorial(sum(config.sizes)) if config.exhaustive else config.draws


def _replicate(config: ExperimentConfig, r: int):
    """Dataset r: the covariance over draws of sqrt(N) (group statistic -
    pooled statistic), the limit kernel, the conditional mean, the
    dataset retries."""
    seed = config.seed.child(r)
    plain = config.scenario is Scenario.PLAIN_INDICATOR
    sample = _sample(config, config.sizes, seed, not plain, config.tau)
    grid, counter, stat, pop = (_plain_scenario if plain else _survival_scenario)(config, sample)
    sizes = config.sizes
    N = sum(sizes)
    G = grid.size
    root = math.sqrt(N)
    pooled = stat(counter.finish(counter.pooled_bins()[None]), N)[0]
    draws = _draws(config)
    # X is filled block by block.  Its memory order fixes the summation
    # order of its column means, and so a report's bytes: row-major for
    # the plain indicator, column-major for survival (the layout of the
    # fancy-indexed read that its grid reader returns)
    X = np.empty((draws, len(sizes) * G), order="C" if plain else "F")

    def fill(first, bins):
        block = X[first:first + bins.shape[1]]
        for j, (group_bins, n) in enumerate(zip(bins, sizes)):
            cells = block[:, j * G:(j + 1) * G]
            np.subtract(stat(counter.finish(group_bins), n), pooled, out=cells)
            cells *= root

    _over_draws(fill, counter, sizes, config.resample_kind, config.draws, seed,
                config.exhaustive)
    cond_mean = X.mean(axis=0)
    X -= cond_mean
    cov = (X.T @ X) / draws
    kernel = assemble_kernel_matrix(
        config.kernel_kind(), pop, LambdaVector.from_sizes(sizes), grid
    )
    return cov, kernel, cond_mean, sample[-1]


def conditional_cov_experiment(config: ExperimentConfig, threads: int = 1) -> VerifyReport:
    """Estimate the conditional resampling covariance on a grid and
    compare it cellwise against the matching limit kernel."""
    if threads < 1:
        raise ContractError(f"threads must be >= 1, got {threads}")
    R = config.outer_reps
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda r: _replicate(config, r), range(R)))
    else:
        results = [_replicate(config, r) for r in range(R)]

    covs = np.stack([res[0] for res in results])
    kernels = np.stack([res[1] for res in results])
    cond_means = np.stack([res[2] for res in results])
    retries = sum(res[3] for res in results)

    devs = covs - kernels
    dev_mean = devs.mean(axis=0)
    if R > 1:
        se = devs.std(axis=0, ddof=1) / math.sqrt(R)
    else:
        se = np.zeros_like(dev_mean)
    tol = config.tolerance
    threshold = np.maximum(tol.abs_tol, tol.se_multiplier * se)
    cell_pass = np.abs(dev_mean) <= threshold

    m = len(config.sizes)
    dim = dev_mean.shape[0]
    G = dim // m
    group_of = np.repeat(np.arange(m), G)
    offdiag = group_of[:, None] != group_of[None, :]
    # a cell with no deviation has ratio 0 even where its SE is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        se_ratio = np.where(dev_mean == 0, 0.0, np.abs(dev_mean) / se)
    aggregates = {
        "n_cells": int(dev_mean.size),
        "frac_pass": float(cell_pass.mean()),
        "max_abs_dev": float(np.abs(dev_mean).max()),
        "max_se_ratio": _finite_max(se_ratio) if R > 1 else None,
        "offdiag_max_abs_dev": float(np.abs(dev_mean[offdiag]).max()),
        "offdiag_max_se_ratio": _finite_max(se_ratio[offdiag]) if R > 1 else None,
        "cond_mean_max_abs": float(np.abs(cond_means).max()),
        "dataset_retries": int(retries),
        "outer_reps": int(R),
        "draws": _draws(config),
    }
    return VerifyReport(
        # a library-built config echoes every field
        config=config.raw if config.raw is not None else {
            key: value for key, value in asdict(config).items() if key != "raw"
        },
        kernel_kind=config.kernel_kind().value,
        kernel_mean=kernels.mean(axis=0),
        mc_mean=covs.mean(axis=0),
        dev=dev_mean,
        se=se,
        cell_pass=cell_pass,
        aggregates=aggregates,
        passed=bool(cell_pass.all()),
    )


def _finite_max(values: np.ndarray) -> float | None:
    """The largest value, or None (JSON null) when it is infinite."""
    top = float(values.max())
    return top if math.isfinite(top) else None


# -- linearization residuals -------------------------------------------

def _wilcoxon_residuals(z, sizes, grid):
    """The counter of the distinct pooled values and, from the two
    groups' counts of them, per draw the sup over the grid of the
    residual of the Wilcoxon curve t -> int_(-inf, t] A dB at
    (A, B) = (H_n, H_n); (B,)."""
    N = z.size
    n1 = sizes[0]
    root = math.sqrt(N)
    values, labels = np.unique(z, return_inverse=True)
    K = values.size
    dh = np.bincount(labels, minlength=K) / N
    h = np.cumsum(dh)
    positions = np.searchsorted(values, grid, side="right")

    def residuals(bins):
        f1 = np.cumsum(bins[0], axis=1) / n1
        df2 = bins[1] / (N - n1)
        alpha, dbeta = root * (f1 - h), root * (df2 - dh)
        # change minus the derivative int H_n d(beta) + int alpha dH_n,
        # increment by increment
        steps = root * (f1 * df2 - h * dh) - (h * dbeta + alpha * dh)
        return np.abs(_running(steps, positions)).max(axis=1)

    return _Counter(labels, K), residuals


def _survival_residuals(scenario, z, delta, sizes, tau, grid):
    """The counter of deaths and at risk at the pooled event times up to
    tau and, from each group's counts, per draw the largest residual over
    the groups of the Nelson-Aalen, Kaplan-Meier or RMST map; (B,)."""
    if tau <= 0:
        raise ContractError("tau must be positive")
    events, counter = _survival_counter(z, delta, tau)
    N = z.size
    root = math.sqrt(N)
    deaths, at_risk = counter.finish(counter.pooled_bins()[None])
    km = scenario != "survival-na"
    terminal = deaths[0] == at_risk[0]
    if km and terminal.any():
        raise DomainError(
            f"derivative undefined: jump of exactly -1 at time {events[terminal][0]}"
        )
    # the RMST integrates the levels after each event below tau up to the
    # next event or tau; the other maps are read at the grid
    below = np.searchsorted(events, tau, side="left")
    widths = np.diff(np.append(events[:below], tau))
    rmst = scenario == "rmst"
    positions = np.arange(1, below + 1) if rmst else np.searchsorted(events, grid, side="right")
    hn = _hazard(deaths, at_risk)
    curve_n = _survival_curve(deaths, at_risk, km, positions)
    dbar, rbar = deaths / N, at_risk / N

    def residuals(bins):
        out = []
        for group_bins, n in zip(bins, sizes):
            d, r = counter.finish(group_bins)
            # directions sqrt(N) (group - pooled) of the at-risk fraction
            # (alpha) and of the uncensored subdistribution's jumps (dbeta)
            alpha = root * (r / n - rbar)
            dbeta = root * (d / n - dbar)
            # chain rule: int (1/r) d(beta) - int alpha / r^2 d(uncensored)
            dlam = dbeta / rbar - alpha * dbar / rbar**2
            if km:
                # change minus the Duhamel form of the product-integral
                # derivative (Gill & Johansen 1990)
                residual = (root * (_survival_curve(d, r, True, positions) - curve_n)
                            + curve_n * _running(dlam / (1.0 - hn), positions))
            else:
                residual = _running(root * (_hazard(d, r) - hn) - dlam, positions)
            out.append(np.abs((residual * widths).sum(axis=1)) if rmst
                       else np.abs(residual).max(axis=1))
        return np.max(out, axis=0)

    return counter, residuals


def _ladder_residuals(config: LinearizationConfig, sizes, seed: SeedSpec) -> np.ndarray:
    """Per draw, the largest linearization residual over its units.

    A unit is a pair of resampled processes theta with pooled
    counterpart theta_n: the two group ECDFs for Wilcoxon, each group's
    (at-risk, uncensored) pair for the hazard scenarios.  Its residual
    compares sqrt(N) (phi(theta) - phi(theta_n)) with the derivative at
    theta_n in the direction sqrt(N) (theta - theta_n): the sup over the
    grid for curves, the absolute value for RMST.  Every draw is
    counted by bin on the distinct pooled values or the pooled event
    times, so each block of draws is evaluated at once on (rows, K)
    arrays.
    """
    wilcoxon = config.scenario == "wilcoxon"
    if wilcoxon and len(sizes) != 2:
        raise ContractError("the Wilcoxon scenario needs exactly two groups")
    _data, z, delta, tau, _retries = _sample(config, sizes, seed, not wilcoxon)
    top = 0.9 if wilcoxon else config.tau_quantile - 0.1
    grid = np.quantile(z, np.linspace(0.1, top, _LADDER_GRID_POINTS))
    if wilcoxon:
        counter, residuals = _wilcoxon_residuals(z, sizes, grid)
    else:
        counter, residuals = _survival_residuals(config.scenario, z, delta, sizes, tau, grid)
    # rows are independent, so blocks of them change no result
    return np.concatenate(_over_draws(
        lambda _first, bins: residuals(bins),
        counter, sizes, config.resample_kind, config.draws, seed,
    ))


def linearization_residual_experiment(config: LinearizationConfig) -> dict:
    """Residual quantiles of the delta-method linearization along a
    sample-size ladder."""
    probs = (0.1, 0.25, 0.5, 0.75, 0.9)
    per_n = []
    for step, sizes in enumerate(config.ladder):
        seed = config.seed.child(step)
        residuals = _ladder_residuals(config, tuple(sizes), seed)
        qs = np.quantile(np.asarray(residuals), probs)
        per_n.append(
            {
                "N": int(sum(sizes)),
                "sizes": [int(n) for n in sizes],
                "quantiles": {str(p): float(q) for p, q in zip(probs, qs)},
                "median": float(qs[2]),
                "draws": len(residuals),
            }
        )
    return {
        "scenario": config.scenario,
        "resample_kind": config.resample_kind.value,
        "seed": {
            "master_seed": config.seed.master_seed,
            "stream_id": config.seed.stream_id,
        },
        "ladder": per_n,
    }


# -- Gaussian grid simulation ------------------------------------------

def simulate_grid_gaussian(kernel_matrix, seed: SeedSpec, size: int | None = None):
    """Zero-mean Gaussian vectors with the given covariance, via the
    symmetric square root; eigenvalues in [-1e-10, 0) are clipped to 0,
    anything lower is rejected."""
    mat = np.asarray(kernel_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractError("kernel matrix must be square")
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < -1e-10:
        raise ContractError(
            f"matrix substantially non-PSD (min eigenvalue {eigvals.min():.3e})"
        )
    root = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    rng = seed.rng()
    if size is None:
        return root @ rng.standard_normal(mat.shape[0])
    return rng.standard_normal((size, mat.shape[0])) @ root.T
