import json
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permboot.config import ToleranceSpec, simulate_plain_groups
from permboot.empirical import LambdaVector, at_risk_process, uncensored_subdist
from permboot.errors import ContractError, DataError, DomainError, PermbootError
from permboot.functionals import (
    HazardBundle,
    kaplan_meier,
    km_derivative,
    na_derivative,
    nelson_aalen,
    product_integral,
    rmst,
    wilcoxon_curve,
    wilcoxon_derivative,
)
from permboot.limits import (
    EmpiricalSurvivalPopulation,
    KernelKind,
    PlainPopulation,
    assemble_kernel_matrix,
    coeff_matrix,
    exponential_survival_population,
)
from permboot.resampling import (
    ResampleDraw,
    ResampleKind,
    SeedSpec,
    all_permutations,
    centered_process,
    draw_counts,
    draw_matrix,
    resampled_group_fns,
)
from permboot.empirical import MultiSampleData, pooled_ecdf
from permboot.stepfn import StepFn, affine_combine
from permboot.counterexample import (
    PiecewiseLinear,
    counterexample_family,
    counterexample_limit,
    hadamard_ratio_check,
    increment_condition_probe,
    inverse_counterexample,
    prodint_ratio_sequences,
    wilcoxon_ratio_sequences,
)
from permboot.verify import (
    ExperimentConfig,
    Law,
    LinearizationConfig,
    Scenario,
    conditional_cov_experiment,
    linearization_residual_experiment,
    simulate_grid_gaussian,
    simulate_survival_groups,
    _indicator_counter,
    _ladder_residuals,
    _plain_scenario,
    _replicate,
    _sample,
    _survival_counter,
    _survival_scenario,
)
import permboot.verify as verify_module
from oracles import binned, multisample, perm_coeff
from test_imports import _fresh_python
from test_resampling import _RngRecorder


def _base_config(**over):
    d = {
        "scenario": "plain-indicator",
        "group_laws": [
            {"kind": "exponential", "rate": 1.0},
            {"kind": "exponential", "rate": 1.5},
        ],
        "sizes": [30, 30],
        "draws": 200,
        "outer_reps": 4,
        "resample_kind": "permutation",
        "seed": {"master_seed": 99},
    }
    d.update(over)
    return d


# -- laws --------------------------------------------------------------

def test_law_cdfs():
    assert Law.exponential(2.0).cdf(0) == 0
    assert Law.exponential(1.0).cdf(1.0) == pytest.approx(1 - math.exp(-1))
    assert Law.uniform(0, 2).cdf(0.5) == 0.25
    pm = Law.point_masses([(1, 0.5), (3, 0.5)])
    assert pm.cdf(2) == 0.5 and pm.cdf(3) == 1.0
    assert Law.none().cdf(1e9) == 0.0


def test_law_sampling():
    rng = SeedSpec(4).rng()
    x = Law.point_masses([(2, 1.0)]).sample(rng, 5)
    assert np.all(x == 2)
    assert np.all(np.isinf(Law.none().sample(rng, 3)))


def test_law_validation():
    with pytest.raises(ContractError):
        Law.exponential(-1)
    with pytest.raises(ContractError):
        Law.uniform(2, 1)
    with pytest.raises(ContractError):
        Law.point_masses([(1, 0.4), (2, 0.4)])
    with pytest.raises(DataError):
        Law.from_dict({"kind": "cauchy"})


# -- config ------------------------------------------------------------

def test_config_schema_rejects_garbage():
    with pytest.raises(DataError):
        ExperimentConfig.from_dict(_base_config(scenario="nope"))
    with pytest.raises(DataError):
        ExperimentConfig.from_dict(_base_config(extra_field=1))
    with pytest.raises(DataError):
        ExperimentConfig.from_dict({"scenario": "plain-indicator"})


def test_config_invariants():
    with pytest.raises(DataError, match="50 is less than the minimum of 100"):
        ExperimentConfig.from_dict(_base_config(draws=50))  # B >= 100
    with pytest.raises((ContractError, DataError)):
        ExperimentConfig.from_dict(_base_config(sizes=[1, 30]))
    with pytest.raises(ContractError):
        ExperimentConfig.from_dict(_base_config(sizes=[5, 5], exhaustive=True))
    cfg = ExperimentConfig.from_dict(_base_config(sizes=[2, 2], draws=24, exhaustive=True))
    assert cfg.exhaustive


def test_exhaustive_bootstrap_rejected_with_the_config():
    with pytest.raises(ContractError, match="permutations only"):
        ExperimentConfig.from_dict(_base_config(
            sizes=[2, 2], draws=24, exhaustive=True, resample_kind="bootstrap",
        ))


def test_tolerance_spec():
    with pytest.raises(ContractError):
        ToleranceSpec(abs_tol=0)
    with pytest.raises(ContractError):
        ToleranceSpec(se_multiplier=1)


def test_kernel_kind_selection():
    cfg = ExperimentConfig.from_dict(_base_config())
    assert cfg.kernel_kind() is KernelKind.PERM_INDICATOR
    cfg = ExperimentConfig.from_dict(_base_config(resample_kind="bootstrap"))
    assert cfg.kernel_kind() is KernelKind.BOOT_INDICATOR


# -- conditional covariance --------------------------------------------

def test_exhaustive_conditional_mean_exactly_zero():
    cfg = ExperimentConfig.from_dict(
        _base_config(
            sizes=[2, 2],
            draws=24,
            outer_reps=3,
            exhaustive=True,
            group_laws=[
                {"kind": "uniform", "lo": 0, "hi": 1},
                {"kind": "uniform", "lo": 0, "hi": 1},
            ],
        )
    )
    report = conditional_cov_experiment(cfg)
    assert report.aggregates["cond_mean_max_abs"] == 0.0


def test_exhaustive_config_needs_no_draws():
    # exhaustive mode enumerates the N! permutations, so draws may be left out
    uniform = {"kind": "uniform", "lo": 0, "hi": 1}
    doc = _base_config(sizes=[2, 2], draws=24, outer_reps=3, exhaustive=True,
                       group_laws=[uniform, uniform])
    without = {key: value for key, value in doc.items() if key != "draws"}
    reports = [replace(conditional_cov_experiment(ExperimentConfig.from_dict(d)), config=None)
               for d in (doc, without)]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[1].aggregates["cond_mean_max_abs"] == 0.0
    assert reports[1].aggregates["draws"] == 24
    # anywhere else draws stays required
    del without["exhaustive"]
    for over in ({}, {"exhaustive": False}):
        with pytest.raises(DataError, match="'draws' is a required property"):
            ExperimentConfig.from_dict({**without, **over})


def test_constant_statistic_zero_covariance():
    # indicator at a point below every observation is constant 0 under
    # any redistribution, so the conditional covariance vanishes exactly
    cfg = ExperimentConfig.from_dict(
        _base_config(sizes=[2, 2], draws=24, outer_reps=1, exhaustive=True,
                     grid=[-1.0, 1e9])
    )
    report = conditional_cov_experiment(cfg)
    assert np.all(report.mc_mean == 0.0)


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
def test_survival_grid_before_every_event_zero_covariance(scenario):
    # exponential times are positive, so no event lies at or before the
    # grid and every resampled curve stays at its start
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario=scenario, outer_reps=1, grid=[0.0, 0.0],
        censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2,
    ))
    report = conditional_cov_experiment(cfg)
    assert np.all(report.mc_mean == 0.0)


def test_report_byte_reproducible_and_thread_invariant():
    cfg = ExperimentConfig.from_dict(_base_config())
    a = conditional_cov_experiment(cfg, threads=1)
    b = conditional_cov_experiment(cfg, threads=3)
    c = conditional_cov_experiment(ExperimentConfig.from_dict(_base_config()))
    assert a.to_json() == b.to_json() == c.to_json()


def test_library_config_report_echoes_every_field():
    cfg = ExperimentConfig(
        scenario=Scenario.SURVIVAL_KM, group_laws=(Law.exponential(1.0), Law.uniform(0.0, 2.0)),
        sizes=(20, 25), draws=100, outer_reps=2, resample_kind=ResampleKind.POOLED_BOOTSTRAP,
        seed=SeedSpec(8, 3), censoring_laws=(Law.exponential(0.5), Law.none()),
        grid=(0.2, 0.5), tolerance=ToleranceSpec(abs_tol=0.05),
    )
    text = conditional_cov_experiment(cfg, threads=1).to_json()
    assert conditional_cov_experiment(cfg, threads=2).to_json() == text
    echo = json.loads(text)["config"]
    assert "raw" not in echo
    assert echo["scenario"] == "survival-km" and echo["resample_kind"] == "bootstrap"
    assert echo["sizes"] == [20, 25] and echo["draws"] == 100 and echo["outer_reps"] == 2
    assert echo["seed"] == {"master_seed": 8, "stream_id": 3, "path": []}
    assert echo["group_laws"] == [{"kind": "exponential", "params": [1.0]},
                                  {"kind": "uniform", "params": [0.0, 2.0]}]
    assert echo["censoring_laws"] == [{"kind": "exponential", "params": [0.5]},
                                      {"kind": "none", "params": []}]
    assert echo["grid"] == [0.2, 0.5]
    assert echo["tolerance"] == {"abs_tol": 0.05, "se_multiplier": 4.0}
    assert echo["tau"] is None and echo["tau_quantile"] == 0.8
    assert echo["target"] == "plugin" and echo["exhaustive"] is False


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(threads):
    cfg = ExperimentConfig.from_dict(_base_config())
    with pytest.raises(ContractError, match="threads must be >= 1"):
        conditional_cov_experiment(cfg, threads=threads)


def test_exhaustive_matches_manual_enumeration():
    master = 321
    cfg = ExperimentConfig.from_dict(
        _base_config(
            sizes=[2, 2], draws=24, outer_reps=1, exhaustive=True,
            seed={"master_seed": master},
            group_laws=[
                {"kind": "uniform", "lo": 0, "hi": 1},
                {"kind": "uniform", "lo": 0, "hi": 1},
            ],
        )
    )
    report = conditional_cov_experiment(cfg)

    # independent oracle: same dataset seed path, explicit loop over draws
    rng = SeedSpec(master).child(0).child(0).rng()
    vals = np.concatenate([
        Law.uniform(0, 1).sample(rng, 2), Law.uniform(0, 1).sample(rng, 2)
    ])
    data = MultiSampleData(vals, (2, 2))
    hn = pooled_ecdf(data)
    grid = np.quantile(vals, np.linspace(0.1, 0.9, 9))
    rows = []
    for perm in all_permutations(4):
        draw = ResampleDraw(ResampleKind.PERMUTATION, tuple(perm))
        fns = resampled_group_fns(data, draw)
        rows.append(centered_process(fns, hn, 4, grid).ravel())
    X = np.asarray(rows)
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / X.shape[0]
    assert np.array_equal(report.mc_mean, cov)


def test_bootstrap_offdiagonal_near_zero():
    cfg = ExperimentConfig.from_dict(
        _base_config(resample_kind="bootstrap", sizes=[60, 60], draws=400,
                     outer_reps=20)
    )
    report = conditional_cov_experiment(cfg)
    assert report.aggregates["offdiag_max_abs_dev"] < 0.05


def test_analytic_target_requires_exponential():
    cfg = ExperimentConfig.from_dict(
        _base_config(
            scenario="survival-na",
            group_laws=[
                {"kind": "uniform", "lo": 0, "hi": 1},
                {"kind": "uniform", "lo": 0, "hi": 1},
            ],
            target="analytic",
        )
    )
    with pytest.raises(ContractError, match="exponential"):
        conditional_cov_experiment(cfg)


def test_explicit_grid_beyond_tau_rejected():
    cfg = ExperimentConfig.from_dict(
        _base_config(scenario="survival-na", tau=0.5, grid=[0.1, 2.0])
    )
    with pytest.raises(ContractError, match="beyond tau"):
        conditional_cov_experiment(cfg)


def test_quantile_grid_beyond_tau_rejected():
    # a pooled 0.7 quantile lies far past 0.3
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario="survival-na", tau=0.3, grid={"pooled_quantiles": [0.1, 0.4, 0.7]}
    ))
    with pytest.raises(ContractError, match="beyond tau"):
        conditional_cov_experiment(cfg)


def test_default_survival_grid_below_every_time_rejected():
    # no pooled time lies at or below tau, so none has quantiles to take
    cfg = ExperimentConfig.from_dict(_base_config(scenario="survival-na", tau=1e-6))
    with pytest.raises(ContractError, match="beyond tau"):
        conditional_cov_experiment(cfg)


@pytest.mark.parametrize("horizon", [{"tau_quantile": 0.6}, {"tau": 0.5}],
                         ids=["tau_quantile-0.6", "tau-0.5"])
@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
def test_default_survival_grid_stays_within_tau(monkeypatch, scenario, resample_kind, horizon):
    # the pooled 0.1-0.7 quantiles pass a horizon below the pooled 0.7
    # quantile; the default grid then takes them over the times <= tau
    seen = []

    def watched(config, sample):
        scenario = _survival_scenario(config, sample)
        seen.append((scenario[0], sample[3]))
        return scenario

    monkeypatch.setattr(verify_module, "_survival_scenario", watched)
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario=scenario, resample_kind=resample_kind, sizes=[100, 100], draws=100,
        outer_reps=2, group_laws=[{"kind": "exponential", "rate": 1.0}] * 2,
        censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2, **horizon,
    ))
    report = conditional_cov_experiment(cfg)
    assert report.aggregates["n_cells"] == (2 * 5) ** 2
    assert len(seen) == 2
    assert all(grid.size == 5 and grid.max() <= tau for grid, tau in seen)


@pytest.mark.parametrize("over, finite", [
    # every replicate has the same ranks: SE 0 and dev != 0 in each cell
    (dict(sizes=[2, 2], draws=24, outer_reps=2, exhaustive=True), False),
    # grid point 1.0 sits on an atom shared by every draw: dev == se == 0
    (dict(sizes=[20, 20], outer_reps=3, grid=[1.0, 1.5, 3.0],
          group_laws=[{"kind": "point-masses", "points": [[1, 0.5], [2, 0.5]]}] * 2),
     True),
])
def test_zero_se_cells_serialize(over, finite):
    report = conditional_cov_experiment(ExperimentConfig.from_dict(_base_config(**over)))
    assert (report.se == 0).any()
    aggregates = json.loads(report.to_json())["aggregates"]
    for key in ("max_se_ratio", "offdiag_max_se_ratio"):
        assert (aggregates[key] is not None) == finite


def test_plain_plugin_kernel_is_the_bridge_kernel():
    cfg = ExperimentConfig.from_dict(_base_config(outer_reps=1))
    report = conditional_cov_experiment(cfg)
    rng = cfg.seed.child(0).child(0).rng()
    pooled = np.concatenate(
        [law.sample(rng, n) for law, n in zip(cfg.group_laws, cfg.sizes)]
    )
    grid = np.quantile(pooled, np.linspace(0.1, 0.9, 9))
    H = (pooled[:, None] <= grid[None, :]).mean(axis=0)
    cell = np.minimum(H[:, None], H[None, :]) - H[:, None] * H[None, :]
    coeffs = coeff_matrix(cfg.kernel_kind(), LambdaVector.from_sizes(cfg.sizes))
    assert np.array_equal(report.kernel_mean, np.kron(coeffs, cell))


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
def test_survival_plugin_kernel_matches_count_formula(scenario, resample_kind):
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario=scenario, resample_kind=resample_kind, outer_reps=1,
        censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2,
    ))
    report = conditional_cov_experiment(cfg)
    assert report.aggregates["dataset_retries"] == 0

    # independent oracle: same dataset seed path, kernels from the pooled
    # death and at-risk counts at the event times up to the last grid point
    rng = cfg.seed.child(0).child(0, 0).rng()
    zs, ds = [], []
    for law, cens, n in zip(cfg.group_laws, cfg.censoring_laws, cfg.sizes):
        x, c = law.sample(rng, n), cens.sample(rng, n)
        zs.append(np.minimum(x, c))
        ds.append(x <= c)
    z, delta = np.concatenate(zs), np.concatenate(ds)
    grid = np.quantile(z, np.linspace(0.1, 0.7, 5))
    events = np.unique(z[delta & (z <= grid.max())])
    deaths = np.array([np.sum(delta & (z == u)) for u in events])
    at_risk = np.array([np.sum(z >= u) for u in events])
    dl = deaths / at_risk
    hbar = at_risk / z.size
    pos = np.searchsorted(events, grid, side="right")
    if scenario == "survival-km":
        km_int = np.concatenate([[0.0], np.cumsum(dl / ((1.0 - dl) * hbar))])[pos]
        surv = np.concatenate([[1.0], np.cumprod(1.0 - dl)])[pos]
        cell = surv[:, None] * surv[None, :] * np.minimum(km_int[:, None], km_int[None, :])
    else:
        c_grid = np.concatenate([[0.0], np.cumsum((1.0 - dl) * dl / hbar)])[pos]
        cell = np.minimum(c_grid[:, None], c_grid[None, :])
    coeffs = coeff_matrix(cfg.kernel_kind(), LambdaVector.from_sizes(cfg.sizes))
    assert np.abs(report.kernel_mean - np.kron(coeffs, cell)).max() <= 1e-12


@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
def test_plain_analytic_kernel_is_the_law_mixture_kernel(resample_kind):
    # R = 2 identical kernels average to themselves exactly
    grid = [0.2, 0.7, 1.5]
    cfg = ExperimentConfig.from_dict(_base_config(
        resample_kind=resample_kind, sizes=[30, 20], outer_reps=2, grid=grid, target="analytic",
    ))
    report = conditional_cov_experiment(cfg)
    mix = [(n / sum(cfg.sizes), law) for law, n in zip(cfg.group_laws, cfg.sizes)]
    pop = PlainPopulation(lambda t: sum(w * law.cdf(t) for w, law in mix))
    lambdas = LambdaVector.from_sizes(cfg.sizes)
    expected = assemble_kernel_matrix(cfg.kernel_kind(), pop, lambdas, np.array(grid))
    assert np.array_equal(report.kernel_mean, expected)


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
def test_survival_analytic_kernel_is_the_exponential_kernel(scenario, resample_kind):
    # a fixed tau gives every replicate the same kernel
    grid, tau = [0.2, 0.6, 1.0], 1.2
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario=scenario, resample_kind=resample_kind, sizes=[30, 20], outer_reps=2,
        grid=grid, tau=tau, target="analytic",
        censoring_laws=[{"kind": "exponential", "rate": 0.5}, {"kind": "none"}],
    ))
    report = conditional_cov_experiment(cfg)
    lambdas = LambdaVector.from_sizes(cfg.sizes)
    pop = exponential_survival_population([1.0, 1.5], [0.5, 0.0], lambdas, tau)
    expected = assemble_kernel_matrix(cfg.kernel_kind(), pop, lambdas, np.array(grid))
    assert np.array_equal(report.kernel_mean, expected)


# deaths at time 0 are tied, two of them in group 1, and a time-0
# censoring is still at risk there
_ZERO_DEATHS = multisample((
    ((0.0, 1), (0.0, 1), (0.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)),
    ((0.0, 1), (1.0, 1), (1.0, 0), (2.0, 1), (4.0, 1)),
))


def _zero_death_counts(tau):
    """Event times <= tau, deaths and at-risk counts there, by counting."""
    z, delta = np.array(_ZERO_DEATHS.pooled)
    events = np.unique(z[(delta == 1) & (z <= tau)])
    deaths = np.array([np.sum((delta == 1) & (z == u)) for u in events])
    at_risk = np.array([np.sum(z >= u) for u in events])
    return z, delta, events, deaths, at_risk


def test_plugin_population_counts_deaths_at_time_zero():
    tau = 3.0
    obs = _ZERO_DEATHS.pooled
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau)
    pop = EmpiricalSurvivalPopulation(bundle)
    lam = nelson_aalen(bundle)
    assert lam.base > 0
    # nelson_aalen's jumps: its base at time 0, then one per breakpoint
    jumps = [(0.0, lam.base), *zip(lam.breakpoints, lam.jumps)]
    _z, _delta, events, deaths, at_risk = _zero_death_counts(tau)
    assert [u for u, _dl in jumps] == events.tolist()
    assert [dl for _u, dl in jumps] == pytest.approx(deaths / at_risk, rel=1e-15)
    N = _ZERO_DEATHS.N
    for t in (0.0, 0.5, 1.0, 2.5, 3.0):
        seen = [(dl, at_risk[k] / N) for k, (u, dl) in enumerate(jumps) if u <= t]
        assert pop.C(t) == pytest.approx(sum((1 - dl) * dl / r for dl, r in seen), rel=1e-14)
        assert pop.km_integral(t) == pytest.approx(
            sum(dl / ((1 - dl) * r) for dl, r in seen), rel=1e-14
        )
        assert pop.S(t) == pytest.approx(math.prod(1 - dl for dl, _r in seen), rel=1e-14)


def test_survival_counts_of_deaths_at_time_zero_match_stepfn_path():
    tau = 3.0
    obs = _ZERO_DEATHS.pooled
    z, delta, events, deaths, at_risk = _zero_death_counts(tau)
    got_events, counter = _survival_counter(z, delta, tau)
    d0, r0 = counter.finish(counter.pooled_bins()[None])
    assert got_events.tolist() == events.tolist() and events[0] == 0.0
    assert np.array_equal(d0[0], deaths) and np.array_equal(r0[0], at_risk)
    # the StepFn path: uncensored jumps (time-0 deaths in the base), the
    # at-risk curve, and Nelson-Aalen's hazard jumps
    N = _ZERO_DEATHS.N
    huc = uncensored_subdist(obs)
    assert N * np.array([huc.base, *huc.jumps[:len(events) - 1]]) == pytest.approx(d0[0])
    assert N * np.array(at_risk_process(obs).evaluate(events)) == pytest.approx(r0[0])
    lam = nelson_aalen(HazardBundle(at_risk_process(obs), huc, tau))
    assert [lam.base, *lam.jumps] == pytest.approx(d0[0] / r0[0], rel=1e-15)


# -- blocked replicate against the whole draw matrix ---------------------

def _one_shot_replicate(config, r):
    """Covariance and conditional mean of replicate r from all draws at
    once: every group counted directly on the whole (B, N) draw matrix
    and one (B, m*G) matrix X, the oracle of the blocked ``_replicate``.
    Bins drawn from their law (plain Monte Carlo, two-group survival
    permutation) come from ``draw_counts`` calls of the replicate's block
    size, since numpy's "count" sampler gives other draws for other
    call sizes; they are joined and counted at once."""
    seed = config.seed.child(r)
    plain = config.scenario is Scenario.PLAIN_INDICATOR
    sample = _sample(config, config.sizes, seed, not plain, config.tau)
    _grid, counter, stat, _pop = (_plain_scenario if plain else _survival_scenario)(
        config, sample
    )
    N = sum(config.sizes)
    cum = np.cumsum([0, *config.sizes])
    if counter.by_law and not config.exhaustive:
        pooled_bins = binned(counter, np.arange(N)[None, :], (N,))[0, 0]
        rows = max(2, verify_module._BLOCK_CELLS // counter.nbins)
        rng = seed.child(1).rng()
        bins = np.concatenate([
            draw_counts(config.resample_kind, pooled_bins, config.sizes,
                        min(rows, config.draws - start), rng)
            for start in range(0, config.draws, rows)
        ], axis=1)
        counts = [counter.finish(b) for b in bins]
    else:
        draws = (
            all_permutations(N) if config.exhaustive
            else draw_matrix(config.resample_kind, N, config.draws, seed.child(1).rng())
        )
        counts = [
            counter.finish(binned(counter, draws[:, a:b], (b - a,))[0]) for a, b in zip(cum, cum[1:])
        ]
    pooled = stat(counter.finish(binned(counter, np.arange(N)[None, :], (N,))[0]), N)[0]
    X = math.sqrt(N) * np.concatenate(
        [stat(c, b - a) - pooled[None, :] for c, a, b in zip(counts, cum, cum[1:])],
        axis=1,
    )
    cond_mean = X.mean(axis=0)
    Xc = X - cond_mean[None, :]
    return (Xc.T @ Xc) / X.shape[0], cond_mean


_TIED_DICT = {"kind": "point-masses", "points": [[0.2, 0.3], [0.5, 0.4], [0.9, 0.3]]}
_BLOCK_CASES = [
    (dict(scenario=scenario, resample_kind=kind, sizes=[30, 27, 22][:m],
          group_laws=[{"kind": "exponential", "rate": r} for r in (1.0, 1.5, 0.8)][:m],
          **({} if scenario == "plain-indicator"
             else {"censoring_laws": [{"kind": "exponential", "rate": 0.5}] * m}),
          **grid), f"{scenario}-{kind}-{m}-{name}")
    for scenario in ("plain-indicator", "survival-na", "survival-km")
    for kind in ("permutation", "bootstrap")
    for m in (2, 3)
    for name, grid in (("default", {}), ("explicit", {"grid": [0.5, 0.2, 0.5, 0.1]}))
] + [
    (dict(scenario=scenario, resample_kind=kind, group_laws=[_TIED_DICT] * 2,
          **({} if scenario == "plain-indicator"
             else {"censoring_laws": [_TIED_DICT] * 2, "tau": 0.5, "grid": [0.1, 0.2, 0.5]})),
     f"{scenario}-{kind}-ties")
    for scenario in ("plain-indicator", "survival-na", "survival-km")
    for kind in ("permutation", "bootstrap")
] + [
    (dict(scenario=scenario, sizes=sizes, exhaustive=True,
          group_laws=[{"kind": "uniform", "lo": 0, "hi": 1}] * len(sizes),
          **({} if scenario == "plain-indicator"
             else {"censoring_laws": [{"kind": "exponential", "rate": 0.5}] * len(sizes),
                   "tau_quantile": 0.5, "grid": {"pooled_quantiles": [0.1, 0.4]}})),
     f"{scenario}-exhaustive-{len(sizes)}")
    for scenario in ("plain-indicator", "survival-na")
    for sizes in ([3, 2], [2, 3, 2])
] + [
    # group 1 is the larger one, which numpy's "count" sampler draws as
    # the complement of a partial shuffle
    (dict(scenario=scenario, sizes=[120, 80],
          censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2),
     f"{scenario}-permutation-2-count")
    for scenario in ("survival-na", "survival-km")
]


@pytest.mark.parametrize("cells", [1, 300, 1000])
@pytest.mark.parametrize("over", [c for c, _ in _BLOCK_CASES], ids=[i for _, i in _BLOCK_CASES])
def test_blocked_replicate_equals_whole_matrix(over, cells, monkeypatch):
    # drawn index blocks of 2 rows (cells=1), of 2 to 5 rows (cells=300,
    # where the m groups' bins of most survival cases already need 2) or
    # of 4 to 16 rows (cells=1000), against B = 211 draws, a prime, so
    # the last block is a short one
    monkeypatch.setattr(verify_module, "_BLOCK_CELLS", cells)
    block_rows = []
    blocks = verify_module.draw_blocks

    def spy(kind, N, B, rng, rows):
        block_rows.append(rows)
        return blocks(kind, N, B, rng, rows)

    law_rows, sampler = [], Counter()

    def counts_spy(kind, pooled_bins, sizes, B, rng):
        law_rows.append(B)
        recorder = _RngRecorder(rng)
        out = draw_counts(kind, pooled_bins, sizes, B, recorder)
        sampler.update(recorder.calls)
        return out

    monkeypatch.setattr(verify_module, "draw_blocks", spy)
    monkeypatch.setattr(verify_module, "draw_counts", counts_spy)
    cfg = ExperimentConfig.from_dict(_base_config(**dict(dict(draws=211, outer_reps=2), **over)))
    for r in range(cfg.outer_reps):
        cov, _kernel, cond_mean, _retries = _replicate(cfg, r)
        oracle_cov, oracle_mean = _one_shot_replicate(cfg, r)
        assert np.array_equal(cov, oracle_cov)
        assert np.array_equal(cond_mean, oracle_mean)
    if not cfg.exhaustive:
        assert all(1 < rows < cfg.draws and cfg.draws % rows for rows in block_rows)
        # law draws: per replicate, full blocks and then a short one
        assert sum(law_rows) in (0, cfg.outer_reps * cfg.draws)
        assert all(0 < B < cfg.draws for B in law_rows)
    two_group_survival_permutation = (
        cfg.scenario is not Scenario.PLAIN_INDICATOR and len(cfg.sizes) == 2
        and cfg.resample_kind is ResampleKind.PERMUTATION and not cfg.exhaustive
    )
    if two_group_survival_permutation:
        assert sampler["multivariate_hypergeometric"] == len(law_rows) and not block_rows
    elif cfg.scenario is not Scenario.PLAIN_INDICATOR:
        assert not law_rows


def test_exhaustive_report_counts_the_enumerated_permutations():
    # 4! = 24 permutations, whatever the config's draws
    cfg = ExperimentConfig.from_dict(_base_config(
        sizes=[2, 2], draws=500, outer_reps=1, exhaustive=True,
    ))
    report = conditional_cov_experiment(cfg)
    assert report.aggregates["draws"] == 24 and report.config["draws"] == 500


def test_survival_memory_does_not_grow_with_draws():
    # draws are made and counted in blocks: only the (B, m*G) centred
    # statistic grows with B (80 KB per 1000 draws here)
    import tracemalloc

    def peak(draws):
        cfg = ExperimentConfig.from_dict(_base_config(
            scenario="survival-km", resample_kind="bootstrap", sizes=[300, 300],
            draws=draws, outer_reps=1,
            censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2,
        ))
        tracemalloc.start()
        try:
            conditional_cov_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= peak(1000) + 2 * 2**20


def test_experiment_holds_no_memory_after_it_returns():
    # the (B, m*G) statistic alone is 1.6 MB here; a smaller warm-up run
    # first, so that first-use imports and caches are not counted
    import gc
    import tracemalloc

    def run(draws):
        conditional_cov_experiment(ExperimentConfig.from_dict(_base_config(
            scenario="survival-km", resample_kind="bootstrap", sizes=[300, 300],
            draws=draws, outer_reps=1,
            censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2,
        )))

    run(200)
    tracemalloc.start()
    try:
        run(20000)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 512 * 2**10


# -- reports independent of what ran before ----------------------------

_SURVIVAL_LAWS = dict(censoring_laws=[{"kind": "exponential", "rate": 0.5}] * 2, tau_quantile=0.8)
# plain two-group permutation ("marginals" sampler), survival law draws,
# survival index draws, plain bootstrap, three-group chain: blocks of
# other shapes, sizes and memory orders, several blocks each
_REUSE_CONFIGS = {
    "plain-permutation": _base_config(sizes=[200, 200], draws=700),
    "na-permutation": _base_config(scenario="survival-na", sizes=[300, 300], draws=500,
                                   **_SURVIVAL_LAWS),
    "km-bootstrap": _base_config(scenario="survival-km", resample_kind="bootstrap",
                                 sizes=[300, 300], draws=500, **_SURVIVAL_LAWS),
    "plain-bootstrap": _base_config(resample_kind="bootstrap", sizes=[150, 120], draws=600),
    "plain-3": _base_config(sizes=[60, 50, 40], draws=500, group_laws=[
        {"kind": "exponential", "rate": r} for r in (1.0, 1.5, 0.8)
    ]),
}


def _report(name, threads=1):
    cfg = ExperimentConfig.from_dict(_REUSE_CONFIGS[name])
    return conditional_cov_experiment(cfg, threads=threads).to_json()


def test_reports_do_not_depend_on_reused_buffers():
    # configs of other block shapes run in between, in one thread and
    # one interpreter
    names = list(_REUSE_CONFIGS)
    interleaved = {}
    for name in names + names[::-1]:
        assert interleaved.setdefault(name, _report(name)) == _report(name)
    # index draws at 4 threads
    assert _report("km-bootstrap", threads=4) == interleaved["km-bootstrap"]
    for name, doc in _REUSE_CONFIGS.items():
        proc = _fresh_python("-c", "; ".join([
            "import json, sys",
            "from permboot import ExperimentConfig, conditional_cov_experiment",
            "cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))",
            "sys.stdout.write(conditional_cov_experiment(cfg).to_json())",
        ]), json.dumps(doc))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == interleaved[name], name


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux does")
@pytest.mark.parametrize("scenario, resample_kind", [
    ("survival-na", "permutation"), ("survival-km", "bootstrap"), ("survival-na", "bootstrap"),
])
def test_steady_replicates_fault_in_no_block_memory(scenario, resample_kind):
    # block memory that is freed and allocated again is faulted in again
    # whenever the allocator returned it to the system, as it does with
    # blocks over its mmap threshold; law draws (the two-group
    # permutation) and index draws (the bootstraps) alike
    proc = _fresh_python("-c", "; ".join([
        "import json, resource, sys",
        "from permboot import ExperimentConfig",
        "from permboot.verify import _replicate",
        "cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))",
        "_replicate(cfg, 0)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "[_replicate(cfg, r) for r in range(1, 5)]",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ]), json.dumps(_base_config(
        scenario=scenario, resample_kind=resample_kind, sizes=[300, 300], draws=2000,
        outer_reps=5, **_SURVIVAL_LAWS,
    )))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


@pytest.mark.parametrize("run", ["km-bootstrap", "na-permutation-3", "wilcoxon-rung"])
def test_index_blocks_fit_the_block_budget(run, monkeypatch):
    # an index block's widest array is its (rows, N) pooled indices or
    # its (rows, m * nbins) bin counts; at least two rows are drawn
    # however wide they are
    blocks, widths = [], []
    over_draws, draw_blocks = verify_module._over_draws, verify_module.draw_blocks

    def over_spy(fn, counter, sizes, *args):
        widths.append(max(sum(sizes), len(sizes) * counter.nbins))
        return over_draws(fn, counter, sizes, *args)

    def blocks_spy(*args):
        for idx in draw_blocks(*args):
            blocks.append((idx.shape[0], widths[-1]))
            yield idx

    monkeypatch.setattr(verify_module, "_over_draws", over_spy)
    monkeypatch.setattr(verify_module, "draw_blocks", blocks_spy)
    if run == "wilcoxon-rung":
        cfg = LinearizationConfig(
            scenario="wilcoxon", group_laws=(Law.exponential(1.0), Law.exponential(1.5)),
            ladder=((200, 200),), draws=500, resample_kind=ResampleKind.PERMUTATION,
            seed=SeedSpec(3),
        )
        _ladder_residuals(cfg, (200, 200), cfg.seed.child(0))
    else:
        km = run == "km-bootstrap"
        m = 2 if km else 3
        cfg = ExperimentConfig.from_dict(_base_config(
            scenario="survival-km" if km else "survival-na",
            resample_kind="bootstrap" if km else "permutation",
            sizes=[300] * m, draws=2000, outer_reps=1,
            group_laws=[{"kind": "exponential", "rate": 1.0}] * m,
            censoring_laws=[{"kind": "exponential", "rate": 0.5}] * m,
        ))
        _replicate(cfg, 0)
    assert len(blocks) > 1
    assert all(rows * width <= verify_module._BLOCK_CELLS for rows, width in blocks if rows > 2)


# -- resampled counts against the dense products -----------------------

_COUNT_CASES = [
    (kind, sizes)
    for kind in ("permutation", "bootstrap", "exhaustive")
    for sizes in ((3, 3), (2, 3, 2))
]


def _count_draws(kind, N):
    if kind == "exhaustive":
        return all_permutations(N)
    return draw_matrix(ResampleKind(kind), N, 300, SeedSpec(17).rng())


def _dense_group_counts(draws, sizes):
    """Per group, its assigned pooled indices and their (B, N) float
    multiplicity matrix ``counts``, the dense reference for
    ``counts @ ind``, ``counts @ death`` and ``counts @ at_risk``."""
    B, N = draws.shape
    cum = np.cumsum((0,) + sizes)
    for j in range(len(sizes)):
        idx = draws[:, cum[j]:cum[j + 1]]
        flat = idx + N * np.arange(B)[:, None]
        counts = np.bincount(flat.ravel(), minlength=B * N).reshape(B, N)
        yield idx, counts.astype(float)


@pytest.mark.parametrize("kind, sizes", _COUNT_CASES)
def test_indicator_counts_match_dense_products(kind, sizes):
    N = sum(sizes)
    # tied values; the grid is unsorted, repeats 0.5, has a point below
    # all data and one at the largest value
    pooled = Law.point_masses([(0.2, 0.3), (0.5, 0.4), (0.9, 0.3)]).sample(
        SeedSpec(5).rng(), N
    )
    grid = np.array([0.5, -1.0, pooled.max(), 0.2, 0.5, 0.7])
    ind = (pooled[:, None] <= grid[None, :]).astype(float)
    counts = _indicator_counter(pooled, grid)
    pooled_counts = counts.finish(binned(counts, np.arange(N)[None, :], (N,))[0])[0]
    assert np.array_equal(pooled_counts, ind.sum(axis=0))
    for idx, dense in _dense_group_counts(_count_draws(kind, N), sizes):
        assert np.array_equal(counts.finish(binned(counts, idx, idx.shape[1:])[0]), dense @ ind)


@pytest.mark.parametrize("kind, sizes", _COUNT_CASES)
@pytest.mark.parametrize("last", ["largest-event", "middle"])
def test_survival_counts_match_dense_products(kind, sizes, last):
    N = sum(sizes)
    rng = SeedSpec(6).rng()
    law = Law.point_masses([(0.2, 0.3), (0.5, 0.4), (0.9, 0.3)])
    x, c = law.sample(rng, N), law.sample(rng, N)
    z, delta = np.minimum(x, c), (x <= c).astype(int)
    # a grid point below all data, and the last one at the largest event
    # or between the event times
    top = z[delta == 1].max() if last == "largest-event" else 0.6
    grid = np.array([-1.0, top])
    events, counts = _survival_counter(z, delta, grid.max())
    assert np.array_equal(events, np.unique(z[(delta == 1) & (z <= grid.max())]))
    death = ((z[:, None] == events[None, :]) & (delta[:, None] == 1)).astype(float)
    at_risk = (z[:, None] >= events[None, :]).astype(float)
    d0, r0 = counts.finish(binned(counts, np.arange(N)[None, :], (N,))[0])
    assert np.array_equal(d0[0], death.sum(axis=0))
    assert np.array_equal(r0[0], at_risk.sum(axis=0))
    for idx, dense in _dense_group_counts(_count_draws(kind, N), sizes):
        dj, rj = counts.finish(binned(counts, idx, idx.shape[1:])[0])
        assert np.array_equal(dj, dense @ death)
        assert np.array_equal(rj, dense @ at_risk)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_survival_counts_deaths_within_risk_sets(data):
    # why the covariance experiment needs no empty-risk-set guard: a
    # death at an event time is also at risk there
    N = data.draw(st.integers(1, 10))
    z = np.array(data.draw(st.lists(st.integers(0, 4), min_size=N, max_size=N)), float)
    delta = np.array(data.draw(st.lists(st.integers(0, 1), min_size=N, max_size=N)))
    B = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(st.integers(0, N - 1), min_size=B * n, max_size=B * n))
    t_max = data.draw(st.integers(-1, 5))
    _events, counts = _survival_counter(z, delta, t_max)
    dj, rj = counts.finish(binned(counts, np.array(flat).reshape(B, n), (n,))[0])
    assert np.all(dj >= 0) and np.all(dj <= rj)
    assert np.all(np.diff(rj, axis=1) <= 0)


def _risk_bin_at_event_counter(z, delta, t_max):
    """A broken ``_survival_counter``: a death's risk bin is its event
    index instead of one past it, so a death is counted at its event
    time but left out of that time's risk set."""
    death = (delta == 1) & (z <= t_max)
    events = np.unique(z[death])
    K = events.size
    labels = 2 * (np.searchsorted(events, z, side="right") - death) + death

    def finish(binned):
        per_bin = binned.reshape(-1, K + 1, 2)
        down = per_bin[:, :0:-1, 0] + per_bin[:, :0:-1, 1]
        return per_bin[:, :-1, 1], np.cumsum(down, axis=1)[:, ::-1]

    return events, verify_module._Counter(labels, 2 * (K + 1), finish)


def _blocks_over_risk_sets(monkeypatch, make_counter, **over):
    """Run a tied survival config's replicates in blocks of a few draws
    with counters from ``make_counter``: per counted block, whether it
    has more deaths than times at risk at some event time, and the draws
    of each block whose bins were drawn from their law."""
    monkeypatch.setattr(verify_module, "_BLOCK_CELLS", 300)
    blocks = []

    def watched(z, delta, t_max):
        events, counter = make_counter(z, delta, t_max)

        def finish(binned):
            deaths, at_risk = counter.finish(binned)
            blocks.append(bool(np.any(deaths > at_risk)))
            return deaths, at_risk

        return events, replace(counter, finish=finish)

    law_blocks = []

    def counts_spy(kind, pooled_bins, sizes, B, rng):
        law_blocks.append(B)
        return draw_counts(kind, pooled_bins, sizes, B, rng)

    monkeypatch.setattr(verify_module, "_survival_counter", watched)
    monkeypatch.setattr(verify_module, "draw_counts", counts_spy)
    atoms = {"kind": "point-masses", "points": [[0.2, 0.3], [0.5, 0.4], [0.9, 0.3]]}
    m = len(over["sizes"])
    cfg = ExperimentConfig.from_dict(_base_config(**dict(
        dict(scenario="survival-na", group_laws=[atoms] * m, censoring_laws=[atoms] * m,
             tau=0.5, grid=[0.1, 0.2, 0.5], draws=211, outer_reps=2), **over)))
    for r in range(cfg.outer_reps):
        _replicate(cfg, r)
    return blocks, law_blocks


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
@pytest.mark.parametrize("sizes", [[30, 27], [30, 27, 22]])
def test_no_counted_block_has_deaths_outside_the_risk_set(
    scenario, resample_kind, sizes, monkeypatch
):
    # a death at events[k] has risk bin k + 1, so it is at risk at
    # events[k]: the statistic needs no empty-risk-set check, for index
    # draws and for bins drawn from their law (two-group permutation)
    blocks, law_blocks = _blocks_over_risk_sets(
        monkeypatch, _survival_counter,
        scenario=scenario, resample_kind=resample_kind, sizes=sizes,
    )
    # more than one block per group and replicate
    assert len(blocks) > 2 * (len(sizes) + 1) and not any(blocks)
    assert bool(law_blocks) == (resample_kind == "permutation" and len(sizes) == 2)


@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
def test_risk_set_check_catches_a_death_left_out_of_its_risk_set(resample_kind, monkeypatch):
    blocks, _law = _blocks_over_risk_sets(
        monkeypatch, _risk_bin_at_event_counter, resample_kind=resample_kind, sizes=[30, 27],
    )
    assert any(blocks)


# (K event times, grid positions among them); row 0 has a Kaplan-Meier
# increment of exactly 1 at event 4, inside the segment 3..6 of
# "below-K" and "terminal-inside"
_READER_CASES = {
    "unsorted-repeats": (12, [9, 2, 9, 5, 12, 2]),
    "start": (12, [0, 0]),
    "start-and-K": (12, [12, 0, 12]),
    # reduceat's last segment runs to the end unless the increments past
    # the last position are cut first
    "below-K": (12, [7, 3]),
    "terminal-inside": (12, [3, 7, 12]),
    "no-events": (0, [0, 0, 0]),
}


@pytest.mark.parametrize("case", list(_READER_CASES))
@pytest.mark.parametrize("dyadic", [False, True], ids=["counts", "dyadic"])
@pytest.mark.parametrize("km", [False, True], ids=["na", "km"])
def test_grid_reader_matches_the_full_curve(case, dyadic, km):
    # the one reader at the grid against the full running sum or product
    # over every event time, read at the grid; the two only
    # associate the same increments differently, so they agree exactly
    # where the increments and their sums are dyadic
    K, positions = _READER_CASES[case]
    positions = np.array(positions)
    rng = SeedSpec(31).rng()
    B = 6
    at_risk = rng.choice([0, 1, 2, 4, 8] if dyadic else np.arange(12), size=(B, K))
    deaths = rng.integers(0, at_risk // 2 + 1)
    if K:
        deaths[0, 4] = at_risk[0, 4] = 4
    h = verify_module._hazard(deaths, at_risk)
    running = (np.cumprod if km else np.cumsum)(1.0 - h if km else h, axis=1)
    full = np.hstack([np.full((B, 1), float(km)), running])[:, positions]
    fast = verify_module._survival_curve(deaths, at_risk, km, positions)
    assert fast.shape == (B, positions.size)
    if dyadic:
        assert np.array_equal(fast, full)
    else:
        np.testing.assert_allclose(fast, full, rtol=1e-14, atol=0)
    # one-row blocks read the same bits, so a report does not depend on
    # how its draws are cut into blocks
    rows = [verify_module._survival_curve(deaths[i:i + 1], at_risk[i:i + 1], km, positions)
            for i in range(B)]
    assert np.array_equal(np.concatenate(rows), fast)


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km"])
@pytest.mark.parametrize("resample_kind", ["permutation", "bootstrap"])
@pytest.mark.parametrize("m, grid", [
    pytest.param(m, grid, id=f"{m}{name}")
    for name, grid in (("", [0.1, 0.2, 0.5]), ("-unsorted-repeat", [0.5, 0.2, 0.1, 0.5]))
    for m in (2, 3)
])
def test_survival_statistic_matches_stepfn_functionals(scenario, resample_kind, m, grid):
    # failure and censoring times share three atoms, so deaths and
    # censorings tie; grid points sit below the data and on atoms, in
    # order or not, repeated or not
    atoms = {"kind": "point-masses", "points": [[0.2, 0.3], [0.5, 0.4], [0.9, 0.3]]}
    cfg = ExperimentConfig.from_dict(_base_config(
        scenario=scenario, resample_kind=resample_kind, group_laws=[atoms] * m,
        censoring_laws=[atoms] * m, sizes=[12, 10, 8][:m], tau=0.5, grid=grid,
    ))
    seed = cfg.seed.child(0)
    sample = _sample(cfg, cfg.sizes, seed, True, cfg.tau)
    grid, counter, curve, _pop = _survival_scenario(cfg, sample)
    retries = sample[-1]
    data = simulate_survival_groups(
        cfg.group_laws, cfg.censoring_laws, cfg.sizes, seed.child(0, retries).rng()
    )
    functional = nelson_aalen if scenario == "survival-na" else kaplan_meier
    kind = ResampleKind(resample_kind)
    cum = np.cumsum([0, *cfg.sizes])
    for row in draw_matrix(kind, data.N, 6, SeedSpec(23).rng()):
        groups = resampled_group_fns(data, ResampleDraw(kind, tuple(row)))
        for (at_risk, uncensored), a, b in zip(groups, cum, cum[1:]):
            oracle = functional(HazardBundle(at_risk, uncensored, cfg.tau))
            fast = curve(counter.finish(binned(counter, row[None, a:b], (b - a,))[0]), b - a)[0]
            assert np.abs(fast - [oracle(t) for t in grid]).max() <= 1e-12


# -- linearization -----------------------------------------------------

def test_linearization_evaluation_functional_residual_zero():
    # evaluation at a point is linear, so its linearization is exact
    data = MultiSampleData([0.2, 0.9, 0.4, 0.7], (2, 2))
    hn = pooled_ecdf(data)
    root = math.sqrt(data.N)
    for row in draw_matrix(ResampleKind.PERMUTATION, data.N, 4, SeedSpec(0).rng()):
        fns = resampled_group_fns(data, ResampleDraw(ResampleKind.PERMUTATION, row))
        for f in fns:
            alpha = (f - hn).scale(root)
            for t in (0.3, 0.5, 0.8):
                assert root * (f(t) - hn(t)) - alpha(t) == 0.0


def test_linearization_ladder_shape():
    cfg = LinearizationConfig(
        scenario="wilcoxon",
        group_laws=(Law.exponential(1.0), Law.exponential(1.5)),
        ladder=((20, 20), (80, 80)),
        draws=15,
        resample_kind=ResampleKind.PERMUTATION,
        seed=SeedSpec(8),
    )
    rep = linearization_residual_experiment(cfg)
    meds = [row["median"] for row in rep["ladder"]]
    assert len(meds) == 2 and meds[1] < meds[0]


def test_linearization_rmst_scenario_runs():
    cfg = LinearizationConfig(
        scenario="rmst",
        group_laws=(Law.exponential(1.0), Law.exponential(1.0)),
        censoring_laws=(Law.exponential(0.5), Law.exponential(0.5)),
        ladder=((30, 30),),
        draws=8,
        resample_kind=ResampleKind.POOLED_BOOTSTRAP,
        seed=SeedSpec(12),
    )
    rep = linearization_residual_experiment(cfg)
    assert rep["ladder"][0]["median"] >= 0


def test_linearization_wilcoxon_needs_two_groups():
    cfg = LinearizationConfig(
        scenario="wilcoxon",
        group_laws=(Law.exponential(1.0),) * 3,
        ladder=((10, 10, 10),),
        draws=5,
        resample_kind=ResampleKind.PERMUTATION,
        seed=SeedSpec(1),
    )
    with pytest.raises(ContractError):
        linearization_residual_experiment(cfg)


# -- linearization: the count path against the StepFn oracle -----------

def _stepfn_ladder_residuals(config, sizes, seed):
    """Per draw, the largest linearization residual over its units,
    from every resampled group rebuilt as StepFns by
    ``resampled_group_fns`` and the functionals' own maps and
    derivatives: the oracle of ``_ladder_residuals``."""
    if config.scenario == "wilcoxon":
        data = simulate_plain_groups(config.group_laws, sizes, seed.child(0).rng())
        z, top = np.asarray(data.pooled), 0.9
        hn = pooled_ecdf(data)
        theta_n = (hn, hn)
        phi = wilcoxon_curve
        dphi = lambda alpha, beta: wilcoxon_derivative(hn, hn, alpha, beta)
        units = lambda fns: [fns]
    else:
        data, z, _delta, tau, _retries = _sample(config, sizes, seed, True)
        top = config.tau_quantile - 0.1
        obs = data.pooled
        pooled = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau)
        theta_n = (pooled.at_risk, pooled.uncensored)
        functional, derivative = {
            "survival-na": (nelson_aalen, na_derivative),
            "survival-km": (kaplan_meier, km_derivative),
            "rmst": (
                lambda bundle: rmst(kaplan_meier(bundle), bundle.tau),
                lambda bundle, a, b: rmst(km_derivative(bundle, a, b), bundle.tau),
            ),
        }[config.scenario]
        phi = lambda at_risk, uc: functional(HazardBundle(at_risk, uc, tau))
        dphi = lambda alpha, beta: derivative(pooled, alpha, beta)
        units = lambda fns: fns
    grid = np.quantile(z, np.linspace(0.1, top, verify_module._LADDER_GRID_POINTS))
    root = math.sqrt(data.N)
    base = phi(*theta_n)

    def residual(theta):
        directions = [affine_combine([root, -root], [f, g]) for f, g in zip(theta, theta_n)]
        value, linear = phi(*theta), dphi(*directions)
        if isinstance(value, StepFn):
            return max(abs(root * (value(t) - base(t)) - linear(t)) for t in grid)
        return abs(root * (value - base) - linear)

    kind = config.resample_kind
    return np.array([
        max(residual(theta) for theta in units(
            resampled_group_fns(data, ResampleDraw(kind, tuple(row)))
        ))
        for row in draw_matrix(kind, data.N, config.draws, seed.child(1).rng())
    ])


def _ladder_config(scenario, kind, laws, sizes, **over):
    failure, censoring = laws
    return LinearizationConfig(
        scenario=scenario,
        group_laws=(failure,) * len(sizes),
        censoring_laws=None if scenario == "wilcoxon" else (censoring,) * len(sizes),
        ladder=(sizes,),
        draws=over.pop("draws", 8),
        resample_kind=ResampleKind(kind),
        seed=SeedSpec(over.pop("master_seed", 41)),
        **over,
    )


def _assert_matches_oracle(cfg):
    """The count path agrees with the oracle to 1e-12 (returns None), or
    both raise the same error class (returns the oracle's error)."""
    sizes, seed = cfg.ladder[0], cfg.seed.child(0)
    try:
        oracle = _stepfn_ladder_residuals(cfg, sizes, seed)
    except PermbootError as exc:
        with pytest.raises(PermbootError) as got:
            _ladder_residuals(cfg, sizes, seed)
        assert type(got.value) is type(exc)
        return exc
    fast = _ladder_residuals(cfg, sizes, seed)
    assert fast.shape == oracle.shape == (cfg.draws,)
    assert np.abs(fast - oracle).max() <= 1e-12
    return None


_TIED = Law.point_masses([(0.2, 0.3), (0.5, 0.4), (0.9, 0.3)])
_LADDER_LAWS = {
    "continuous": (Law.exponential(1.0), Law.exponential(0.5)),
    # failure and censoring times share the atoms: deaths and censorings tie
    "ties": (_TIED, _TIED),
    # a fifth of the failures at time 0
    "events-at-0": (
        Law.point_masses([(0.0, 0.2), (0.4, 0.3), (0.7, 0.2), (1.1, 0.1), (1.6, 0.2)]),
        Law.exponential(0.5),
    ),
}
_LADDER_CASES = [
    (scenario, kind, laws, sizes)
    for scenario in ("wilcoxon", "survival-na", "survival-km", "rmst")
    for kind in ("permutation", "bootstrap")
    for laws in _LADDER_LAWS
    for sizes in ((14, 17), (12, 9, 15))
    if scenario != "wilcoxon" or len(sizes) == 2
]


@pytest.mark.parametrize("scenario, kind, laws, sizes", _LADDER_CASES)
def test_ladder_residuals_match_stepfn_oracle(scenario, kind, laws, sizes):
    assert _assert_matches_oracle(
        _ladder_config(scenario, kind, _LADDER_LAWS[laws], sizes)
    ) is None


def test_ladder_oracle_covers_a_group_km_reaching_zero():
    # bootstrap groups of 4 often miss every time past their last death,
    # so their Kaplan-Meier curve reaches 0 inside [0, tau]
    for scenario in ("survival-na", "survival-km", "rmst"):
        cfg = _ladder_config(scenario, "bootstrap", _LADDER_LAWS["continuous"], (4, 30, 4),
                             draws=12)
        assert _assert_matches_oracle(cfg) is None
    data, z, delta, tau, _retries = _sample(cfg, cfg.ladder[0], cfg.seed.child(0), True)
    _events, counts = _survival_counter(z, delta, tau)
    draws = draw_matrix(cfg.resample_kind, data.N, cfg.draws, cfg.seed.child(0).child(1).rng())
    deaths, at_risk = counts.finish(binned(counts, draws[:, :4], (4,))[0])
    assert np.any((deaths == at_risk) & (at_risk > 0))


@pytest.mark.parametrize("scenario, raises", [
    ("survival-na", False), ("survival-km", True), ("rmst", True),
])
def test_ladder_pooled_terminal_jump_raises_like_the_oracle(scenario, raises):
    # no censoring, and tau (the pooled 0.8 quantile) is the larger atom,
    # where every time still at risk is a death: a pooled hazard jump of
    # 1 at tau, where the Kaplan-Meier derivative is undefined
    two_atoms = Law.point_masses([(0.5, 0.5), (1.0, 0.5)])
    cfg = _ladder_config(scenario, "permutation", (two_atoms, Law.none()), (10, 10),
                         master_seed=3)
    _data, _z, _delta, tau, _retries = _sample(cfg, cfg.ladder[0], cfg.seed.child(0), True)
    assert tau == 1.0
    error = _assert_matches_oracle(cfg)
    assert (error is not None) == raises
    if raises:
        assert isinstance(error, DomainError)


@pytest.mark.parametrize("scenario", ["survival-na", "survival-km", "rmst"])
def test_ladder_tau_at_zero_raises_like_the_oracle(scenario):
    # nine tenths of the times are 0, so the pooled 0.8 quantile tau is 0
    at_zero = Law.point_masses([(0.0, 0.9), (1.0, 0.1)])
    cfg = _ladder_config(scenario, "bootstrap", (at_zero, Law.none()), (10, 10))
    assert isinstance(_assert_matches_oracle(cfg), ContractError)


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.sampled_from(["wilcoxon", "survival-na", "survival-km", "rmst"]),
    kind=st.sampled_from(["permutation", "bootstrap"]),
    laws=st.sampled_from(sorted(_LADDER_LAWS)),
    sizes=st.lists(st.integers(5, 25), min_size=2, max_size=3).map(tuple),
    master_seed=st.integers(0, 2**32 - 1),
)
# a pooled hazard jump of exactly 1 at tau that the oracle's floats
# (1 / at-risk fraction times a subdistribution jump) put 2e-16 off -1
@example(scenario="survival-km", kind="permutation", laws="events-at-0", sizes=(5, 5, 14),
         master_seed=104)
def test_ladder_residuals_match_stepfn_oracle_property(scenario, kind, laws, sizes, master_seed):
    if scenario == "wilcoxon":
        sizes = sizes[:2]
    _assert_matches_oracle(_ladder_config(
        scenario, kind, _LADDER_LAWS[laws], sizes, draws=4, master_seed=master_seed
    ))


@pytest.mark.parametrize("scenario, kind", [
    ("wilcoxon", "permutation"), ("survival-na", "bootstrap"),
    ("survival-km", "permutation"), ("rmst", "bootstrap"),
])
def test_ladder_residual_medians_shrink_like_inverse_root_n(scenario, kind):
    # the second-order remainder of these maps is O_p(N^-1/2): the median
    # residual's log-log slope against N should be near -1/2
    cfg = LinearizationConfig(
        scenario=scenario,
        group_laws=(Law.exponential(1.0), Law.exponential(1.5 if scenario == "wilcoxon" else 1.0)),
        censoring_laws=None if scenario == "wilcoxon" else (Law.exponential(0.5),) * 2,
        ladder=((200, 200), (600, 600), (1800, 1800), (5000, 5000)),
        draws=200,
        resample_kind=ResampleKind(kind),
        seed=SeedSpec(20261018),
    )
    rows = linearization_residual_experiment(cfg)["ladder"]
    slope = np.polyfit(np.log([r["N"] for r in rows]), np.log([r["median"] for r in rows]), 1)[0]
    assert -0.65 <= slope <= -0.35, slope


# -- ratio checks and the counterexample -------------------------------

def test_wilcoxon_ratio_deviations_shrink():
    devs = hadamard_ratio_check(lambda th: wilcoxon_curve(*th), *wilcoxon_ratio_sequences())
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_prodint_ratio_deviations_shrink():
    devs = hadamard_ratio_check(product_integral, *prodint_ratio_sequences())
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_ratio_check_callable_scalar_functional():
    # the quantile counterexample via a user-supplied callable
    n_values = (4, 25, 100)
    theta = [counterexample_family(n) for n in n_values]
    t_seq = [Fraction(1, math.isqrt(n)) for n in n_values]
    h_seq = [1] * len(n_values)  # alpha == 1: shift by a constant
    devs = hadamard_ratio_check(
        lambda A: A.solve_level(1), theta, h_seq, t_seq, derivative_ref=-1
    )
    assert all(d == Fraction(1, 2) for d in devs)


@pytest.mark.parametrize("lengths", [(5, 2, 5), (5, 5, 4), (3, 5, 5)])
def test_ratio_check_rejects_sequences_of_other_lengths(lengths):
    theta_seq, h_seq, t_seq, ref = prodint_ratio_sequences()
    seqs = [seq[:n] for seq, n in zip((theta_seq, h_seq, t_seq), lengths)]
    with pytest.raises(ContractError, match="differ in length: %d, %d and %d" % lengths):
        hadamard_ratio_check(product_integral, *seqs, ref)


def test_piecewise_linear_ops():
    f = PiecewiseLinear((0, 1, 2), (0, 2, 2))
    assert f(0.5) == 1 and f(1.5) == 2
    g = f + 1
    assert g(0) == 1
    assert (2 * f)(1) == 4
    assert (f - f)(1.3) == 0
    assert f.solve_level(1) == 0.5
    assert f.solve_level(2) == 1  # flat segment: smallest solution
    with pytest.raises(ContractError):
        f(5)
    with pytest.raises(ContractError):
        f.solve_level(3)
    with pytest.raises(ContractError):
        PiecewiseLinear((0, 0), (1, 2))


def test_counterexample_table_exact():
    rows = inverse_counterexample([1, 4, 25, 100, 10000])
    for row in rows:
        assert row["ratio"] == -0.5
        assert row["derivative"] == -1.0
        assert row["gap"] == 0.5


def test_counterexample_quantile_is_one():
    for n in (1, 4, 25, 10000):
        assert counterexample_family(n).solve_level(1) == 1


def test_increment_probe_values():
    for n in (1, 4, 25, 100, 10000):
        assert increment_condition_probe(counterexample_family, n, 1) == 1.0
        assert increment_condition_probe(lambda n: counterexample_limit(), n, 1) == 0.0
    # sub-unit windows scale linearly; wide windows saturate at 1
    assert increment_condition_probe(counterexample_family, 25, Fraction(1, 2)) == 0.5
    assert increment_condition_probe(counterexample_family, 25, 3) == 1.0
    with pytest.raises(ContractError):
        increment_condition_probe(lambda n: counterexample_limit(), 4, 0)


@pytest.mark.parametrize("n", [0, -4])
def test_counterexample_rejects_n_below_one(n):
    with pytest.raises(ContractError, match="need n >= 1"):
        inverse_counterexample([4, n])
    with pytest.raises(ContractError, match="need n >= 1"):
        counterexample_family(n)


def test_counterexample_limit_is_identity():
    a = counterexample_limit()
    assert a(0.7) == 0.7 and a(2) == 2


# -- Gaussian simulation -----------------------------------------------

def test_gaussian_zero_matrix():
    v = simulate_grid_gaussian(np.zeros((3, 3)), SeedSpec(1))
    assert np.all(v == 0)


def test_gaussian_identity_moments():
    draws = simulate_grid_gaussian(np.eye(2), SeedSpec(2), size=100_000)
    cov = np.cov(draws.T)
    se = math.sqrt(2 / draws.shape[0])
    assert abs(cov[0, 0] - 1) < 3 * se * 1.5
    assert abs(cov[0, 1]) < 3 * se


def test_gaussian_rank_one_correlation():
    mat = np.ones((2, 2))
    draws = simulate_grid_gaussian(mat, SeedSpec(3), size=100)
    assert np.allclose(draws[:, 0], draws[:, 1], atol=1e-10)


def test_gaussian_rejects_non_psd():
    with pytest.raises(ContractError, match="non-PSD"):
        simulate_grid_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), SeedSpec(4))


def test_tolerance_logic_calibrated_on_gaussian_data():
    # self-test of the tester: draw directly from a known kernel and run
    # the same dev / SE decision rule the harness applies
    rng = SeedSpec(31).rng()
    lam = LambdaVector((0.5, 0.5))
    hvals = np.array([0.3, 0.6, 0.8])
    cell = np.minimum.outer(hvals, hvals) - np.outer(hvals, hvals)
    coeffs = np.array([[perm_coeff(lam, i, j) for j in range(2)] for i in range(2)])
    kernel = np.kron(coeffs, cell)
    R, B = 40, 500
    devs = []
    for r in range(R):
        draws = simulate_grid_gaussian(kernel, SeedSpec(31).child(r), size=B)
        devs.append(np.cov(draws.T, bias=True) - kernel)
    devs = np.asarray(devs)
    dev_mean = devs.mean(axis=0)
    se = devs.std(axis=0, ddof=1) / math.sqrt(R)
    tol = ToleranceSpec(abs_tol=0.02, se_multiplier=4.0)
    passed = np.abs(dev_mean) <= np.maximum(tol.abs_tol, tol.se_multiplier * se)
    assert passed.mean() == 1.0
