"""Acceptance suite: one criterion per test, one printed verdict line each.

Heavy Monte Carlo reports are computed once per (config, thread count)
in module-scoped fixtures and shared between the accuracy criteria and
the determinism criterion.
"""

import numpy as np
import pytest

from permboot.empirical import MultiSampleData, pooled_ecdf
from permboot.functionals import (
    HazardBundle,
    kaplan_meier,
    product_integral,
    rmst,
    wilcoxon_curve,
)
from permboot.empirical import at_risk_process, uncensored_subdist
from permboot.resampling import (
    ResampleDraw,
    ResampleKind,
    SeedSpec,
    all_permutations,
    centered_process,
    resampled_group_fns,
)
from permboot.stepfn import StepFn, affine_combine
from permboot.counterexample import (
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
    conditional_cov_experiment,
    linearization_residual_experiment,
)


def _verdict(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


_PERM_CFG = {
    "scenario": "plain-indicator",
    "group_laws": [
        {"kind": "exponential", "rate": 1.0},
        {"kind": "exponential", "rate": 1.5},
    ],
    "sizes": [200, 200],
    "draws": 2000,
    "outer_reps": 100,
    "resample_kind": "permutation",
    "seed": {"master_seed": 20260823},
    "target": "plugin",
    "tolerance": {"abs_tol": 0.02, "se_multiplier": 4.0},
}

_BOOT_CFG = dict(_PERM_CFG, resample_kind="bootstrap")

_NA_CFG = {
    "scenario": "survival-na",
    "group_laws": [
        {"kind": "exponential", "rate": 1.0},
        {"kind": "exponential", "rate": 1.0},
    ],
    "censoring_laws": [
        {"kind": "exponential", "rate": 0.5},
        {"kind": "exponential", "rate": 0.5},
    ],
    "sizes": [300, 300],
    "draws": 2000,
    "outer_reps": 100,
    "resample_kind": "permutation",
    "seed": {"master_seed": 20260824},
    "tau_quantile": 0.8,
    "target": "plugin",
    "tolerance": {"abs_tol": 0.05, "se_multiplier": 4.0},
}

_KM_CFG = dict(_NA_CFG, scenario="survival-km")


def _run(cfg, threads):
    return conditional_cov_experiment(ExperimentConfig.from_dict(cfg), threads=threads)


@pytest.fixture(scope="module")
def perm_reports():
    return _run(_PERM_CFG, 1), _run(_PERM_CFG, 4)


@pytest.fixture(scope="module")
def boot_reports():
    return _run(_BOOT_CFG, 1), _run(_BOOT_CFG, 4)


@pytest.fixture(scope="module")
def na_reports():
    return _run(_NA_CFG, 1), _run(_NA_CFG, 4)


@pytest.fixture(scope="module")
def km_reports():
    return _run(_KM_CFG, 1), _run(_KM_CFG, 4)


def test_criterion_1_permutation_covariance(perm_reports):
    report = perm_reports[0]
    _verdict(
        1,
        report.passed,
        f"permutation indicator covariance: max|dev|={report.aggregates['max_abs_dev']:.4g}"
        f" over {report.aggregates['n_cells']} cells (tol max(0.02, 4*SE))",
    )


def test_criterion_2_bootstrap_covariance(perm_reports, boot_reports):
    report = boot_reports[0]
    offdiag_ok = report.aggregates["offdiag_max_se_ratio"] <= 4.0
    _verdict(
        2,
        report.passed and offdiag_ok,
        f"bootstrap covariance: max|dev|={report.aggregates['max_abs_dev']:.4g}, "
        f"off-diagonal max |dev|/SE={report.aggregates['offdiag_max_se_ratio']:.2f} (<= 4)",
    )


def test_criterion_3_exhaustive_oracle():
    master = 321
    cfg = {
        "scenario": "plain-indicator",
        "group_laws": [{"kind": "uniform", "lo": 0, "hi": 1}] * 2,
        "sizes": [2, 2],
        "draws": 24,
        "outer_reps": 1,
        "resample_kind": "permutation",
        "seed": {"master_seed": master},
        "exhaustive": True,
    }
    report = conditional_cov_experiment(ExperimentConfig.from_dict(cfg))
    mean_zero = report.aggregates["cond_mean_max_abs"] == 0.0

    # independent enumeration oracle on the same dataset
    rng = SeedSpec(master).child(0).child(0).rng()
    law = Law.uniform(0, 1)
    vals = np.concatenate([law.sample(rng, 2), law.sample(rng, 2)])
    distinct = len(set(vals)) == 4
    data = MultiSampleData((tuple(vals[:2]), tuple(vals[2:])))
    hn = pooled_ecdf(data)
    grid = np.quantile(vals, np.linspace(0.1, 0.9, 9))
    rows = [
        centered_process(
            resampled_group_fns(
                data, ResampleDraw(ResampleKind.PERMUTATION, tuple(p))
            ),
            hn,
            4,
            grid,
        ).ravel()
        for p in all_permutations(4)
    ]
    X = np.asarray(rows)
    Xc = X - X.mean(axis=0)
    oracle_cov = (Xc.T @ Xc) / X.shape[0]
    bit_exact = np.array_equal(report.mc_mean, oracle_cov)
    _verdict(
        3,
        mean_zero and bit_exact and distinct,
        "exhaustive N=4: conditional mean exactly 0 "
        f"({report.aggregates['cond_mean_max_abs']}), enumeration matches "
        f"harness bit-exactly ({bit_exact}), 4 distinct points ({distinct})",
    )


def test_criterion_4_nelson_aalen_covariance(na_reports):
    report = na_reports[0]
    _verdict(
        4,
        report.passed,
        f"Nelson-Aalen permutation covariance: max|dev|="
        f"{report.aggregates['max_abs_dev']:.4g} over "
        f"{report.aggregates['n_cells']} cells (tol max(0.05, 4*SE)), "
        f"dataset retries={report.aggregates['dataset_retries']}",
    )


def test_criterion_4_kaplan_meier_covariance(km_reports):
    report = km_reports[0]
    _verdict(
        "4b",
        report.passed,
        f"Kaplan-Meier permutation covariance: max|dev|="
        f"{report.aggregates['max_abs_dev']:.4g} over "
        f"{report.aggregates['n_cells']} cells (tol max(0.05, 4*SE)), "
        f"dataset retries={report.aggregates['dataset_retries']}",
    )


def test_criterion_5_kaplan_meier_exactness():
    obs = [(1, 1), (2, 0), (3, 1)]
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau=3)
    surv = kaplan_meier(bundle)
    errs = [
        abs(surv(1) - 2 / 3),
        abs(surv(2) - 2 / 3),
        abs(surv(3) - 0),
        abs(rmst(surv, 3) - 7 / 3),
    ]
    ok = max(errs) <= 1e-15
    _verdict(
        5,
        ok,
        f"KM=(2/3, 2/3, 0) and RMST(3)=7/3 on z=(1,2,3), d=(1,0,1); "
        f"max error {max(errs):.2e} <= 1e-15",
    )


def test_criterion_6_duhamel_identity():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(1000):
        na = int(rng.integers(1, 21))
        nb = int(rng.integers(1, 21))
        bpa = np.sort(rng.uniform(0.001, 1, size=na))
        bpb = np.sort(rng.uniform(0.001, 1, size=nb))
        A = StepFn(0, tuple(bpa), tuple(rng.uniform(-0.9, 2, na)), lo=0, hi=1)
        B = StepFn(0, tuple(bpb), tuple(rng.uniform(-0.9, 2, nb)), lo=0, hi=1)
        phiA, phiB = product_integral(A), product_integral(B)
        t = 1.0
        diff = affine_combine([1, -1], [B, A])
        rhs = sum(
            phiB.left_limit(u) * j * phiA(t) / phiA(u)
            for u, j in zip(diff.breakpoints, diff.jumps)
        )
        resid = abs((phiB(t) - phiA(t)) - rhs)
        worst = max(worst, resid / max(1.0, abs(phiA(t)), abs(phiB(t))))
    ok = worst <= 1e-12
    _verdict(
        6,
        ok,
        f"Duhamel identity on 1000 random pairs (<=20 jumps in (-0.9,2)): "
        f"max relative residual {worst:.2e} <= 1e-12",
    )


def test_criterion_7_linearization_residual():
    results = {}
    for scen, draws, cens in (
        ("wilcoxon", 40, None),
        ("survival-km", 25, (Law.exponential(0.5), Law.exponential(0.5))),
    ):
        cfg = LinearizationConfig(
            scenario=scen,
            group_laws=(Law.exponential(1.0), Law.exponential(1.0 if cens else 1.5)),
            censoring_laws=cens,
            ladder=((50, 50), (200, 200), (800, 800)),
            draws=draws,
            resample_kind=ResampleKind.PERMUTATION,
            seed=SeedSpec(20260826),
        )
        rep = linearization_residual_experiment(cfg)
        meds = [row["median"] for row in rep["ladder"]]
        results[scen] = meds
    ok = all(
        all(b < a for a, b in zip(m, m[1:])) and m[-1] < 0.5 * m[0]
        for m in results.values()
    )
    detail = "; ".join(
        f"{scen} medians {', '.join(f'{v:.4g}' for v in m)}"
        for scen, m in results.items()
    )
    _verdict(7, ok, f"linearization residuals on N=(100,400,1600): {detail}")


def test_criterion_8_counterexample():
    ns = [1, 4, 25, 100, 10**4]
    rows = inverse_counterexample(ns)
    table_ok = all(
        r["ratio"] == -0.5 and r["derivative"] == -1.0 and r["gap"] == 0.5
        for r in rows
    )
    probe_ok = all(
        increment_condition_probe(counterexample_family, n, 1) == 1.0 for n in ns
    ) and all(increment_condition_probe(lambda n: counterexample_limit(), n, 1) == 0.0
              for n in ns)
    _verdict(
        8,
        table_ok and probe_ok,
        "difference quotient -1/2 exactly, derivative -1, gap 1/2 for all n; "
        "increment probe K=1 returns 1 (counterexample) and 0 (identity)",
    )


def test_criterion_9_hadamard_ratio_convergence():
    n_values = (4, 16, 64, 256, 1024)
    ratios = {}
    for name, fn, seqs in (
        ("wilcoxon", lambda th: wilcoxon_curve(*th), wilcoxon_ratio_sequences(n_values)),
        ("product-integral", product_integral, prodint_ratio_sequences(n_values)),
    ):
        devs = hadamard_ratio_check(fn, *seqs)
        ratios[name] = devs[0] / devs[-1]
    ok = all(r >= 4 for r in ratios.values())
    _verdict(
        9,
        ok,
        "deviation shrink factors n=4 -> n=1024: "
        + ", ".join(f"{k} {v:.1f}x" for k, v in ratios.items())
        + " (>= 4x required)",
    )


def test_criterion_10_determinism(perm_reports, boot_reports, na_reports, km_reports):
    same = [
        a.to_json() == b.to_json()
        for a, b in (perm_reports, boot_reports, na_reports, km_reports)
    ]
    _verdict(
        10,
        all(same),
        f"criteria 1/2/4/4b reports byte-identical across thread counts 1 vs 4: {same}",
    )
