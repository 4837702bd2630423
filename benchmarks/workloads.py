"""The two benchmark workloads and the four parts they are made of.

A part is built from the benchmark seed alone: the seed picks the
master seeds of every library config and of the simulated CSV, and the
library only receives the generated configs and files.  ``run_unit``
does the part's fixed unit of work once, with every thread count the
library takes at 1 or at nproc; ``outputs`` turns what a unit
returned into bytes-comparable text, and ``check`` verifies the unit
outputs.  A workload runs its parts one after the other as one unit
(``Combined``).  Why each workload and part exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from time import perf_counter

import numpy as np

import permboot
from permboot import (
    ContractError,
    DataError,
    ExperimentConfig,
    KernelKind,
    LambdaVector,
    Law,
    LinearizationConfig,
    PlainPopulation,
    ResampleKind,
    SeedSpec,
    SingularityError,
    assemble_kernel_matrix,
    exponential_survival_population,
)
from permboot import cli

# Failures a single operation may raise without stopping the run.
OP_ERRORS = (SingularityError, DataError, ContractError)

def _outcome(fn):
    """(result, failed) for one operation; listed failures are counted."""
    try:
        return fn(), False
    except OP_ERRORS as exc:
        return f"raised {type(exc).__name__}: {exc}", True


class Workload:
    """Default hooks: no per-unit and no end-of-run checks."""

    def check(self, unit):
        return []

    def final_check(self):
        return []


# -- Monte Carlo covariance experiments --------------------------------

_EXP = {"kind": "exponential"}


class MonteCarlo(Workload):
    """``conditional_cov_experiment`` over a fixed list of configs; the
    parallel variant passes ``threads=nproc`` to the library."""

    def __init__(self, config_dicts, nproc):
        self.nproc = nproc
        self.configs = [ExperimentConfig.from_dict(d) for d in config_dicts]
        self.draws_per_unit = sum(c.draws * c.outer_reps for c in self.configs)

    def run_unit(self, parallel):
        threads = self.nproc if parallel else 1
        return [
            _outcome(lambda c=c: permboot.conditional_cov_experiment(c, threads=threads))
            for c in self.configs
        ]

    def outputs(self, unit):
        return [r if failed else r.to_json() for r, failed in unit]

    def stats(self, unit):
        reports = [r for r, failed in unit if not failed]
        return {
            "attempted": len(unit),
            "failed": sum(failed for _r, failed in unit),
            "passed": sum(int(r.cell_pass.sum()) for r in reports),
            "judged": sum(r.aggregates["n_cells"] for r in reports),
            "dataset_retries": sum(r.aggregates["dataset_retries"] for r in reports),
        }


def _mc_plain(seed, nproc, tiny):
    base = {
        "scenario": "plain-indicator",
        "group_laws": [dict(_EXP, rate=1.0), dict(_EXP, rate=1.5)],
        "sizes": [30, 30] if tiny else [200, 200],
        "draws": 200 if tiny else 2000,
        "outer_reps": 2 if tiny else 10,
        "target": "plugin",
        "tolerance": {"abs_tol": 0.02, "se_multiplier": 4.0},
    }
    return MonteCarlo([
        dict(base, resample_kind="permutation", seed={"master_seed": seed, "stream_id": 0}),
        dict(base, resample_kind="bootstrap", seed={"master_seed": seed, "stream_id": 1}),
    ], nproc)


def _mc_survival(seed, nproc, tiny):
    base = {
        "group_laws": [dict(_EXP, rate=1.0), dict(_EXP, rate=1.0)],
        "censoring_laws": [dict(_EXP, rate=0.5), dict(_EXP, rate=0.5)],
        "sizes": [40, 40] if tiny else [300, 300],
        "draws": 200 if tiny else 2000,
        "outer_reps": 2 if tiny else 4,
        "tau_quantile": 0.8,
        "target": "plugin",
        "tolerance": {"abs_tol": 0.05, "se_multiplier": 4.0},
    }
    return MonteCarlo([
        dict(base, scenario="survival-na", resample_kind="permutation",
             seed={"master_seed": seed, "stream_id": 2}),
        dict(base, scenario="survival-km", resample_kind="bootstrap",
             seed={"master_seed": seed, "stream_id": 3}),
    ], nproc)


# -- linearization ladders ----------------------------------------------

class Ladder(Workload):
    """``linearization_residual_experiment`` for three scenarios.  It
    takes no thread count, so the nproc unit is the same serial run."""

    def __init__(self, seed, tiny):
        ladder = ((20, 20), (40, 40)) if tiny else ((100, 100), (400, 400), (1600, 1600))
        draws = 2 if tiny else 5
        cens = (Law.exponential(0.5), Law.exponential(0.5))
        spec = [
            ("survival-km", ResampleKind.PERMUTATION, 1.0, cens),
            ("wilcoxon", ResampleKind.PERMUTATION, 1.5, None),
            ("survival-na", ResampleKind.POOLED_BOOTSTRAP, 1.0, cens),
        ]
        self.configs = [
            LinearizationConfig(
                scenario=scen,
                group_laws=(Law.exponential(1.0), Law.exponential(rate2)),
                censoring_laws=c,
                ladder=ladder,
                draws=draws,
                resample_kind=kind,
                seed=SeedSpec(seed, stream_id=4 + k),
            )
            for k, (scen, kind, rate2, c) in enumerate(spec)
        ]
        self.draws_per_unit = draws * len(ladder) * len(self.configs)

    def run_unit(self, parallel):
        return [
            _outcome(lambda c=c: permboot.linearization_residual_experiment(c))
            for c in self.configs
        ]

    def outputs(self, unit):
        return [r if failed else json.dumps(r, sort_keys=True) for r, failed in unit]

    def stats(self, unit):
        done = [r for r, failed in unit if not failed]
        shrinking = sum(
            all(b["median"] < a["median"] for a, b in zip(r["ladder"], r["ladder"][1:]))
            for r in done
        )
        return {
            "attempted": len(unit),
            "failed": len(unit) - len(done),
            "passed": shrinking,
            "judged": len(unit),
            "dataset_retries": 0,
        }


# -- command line: simulate, analyze, dump-fn, kernel, verify -----------

_KERNEL_RATES = ([1.0, 1.2, 0.8], [0.5, 0.5, 0.5])
_LAMBDAS = [0.3, 0.3, 0.4]


class KernelCli(Workload):
    """In-process ``permboot.cli.main`` over a fixed list of commands.

    Commands are simulate -> analyze -> dump-fn, one ``kernel`` run per
    KernelKind and one exhaustive ``verify``.  Only ``verify`` takes a
    thread count: ``--threads 1`` in the 1-thread unit and
    ``--threads nproc`` in the nproc unit.
    """

    def __init__(self, seed, nproc, tiny, workdir):
        self.workdir = workdir
        self.draws_per_unit = None
        p = lambda name: os.path.join(workdir, name)
        sizes = [50, 50, 50] if tiny else [5000, 5000, 5000]
        grid_points = 3 if tiny else 8
        grid = [round(0.2 * (k + 1), 10) for k in range(grid_points)]
        self._write(p("sim.json"), {
            "mode": "survival",
            "group_laws": [dict(_EXP, rate=r) for r in _KERNEL_RATES[0]],
            "censoring_laws": [dict(_EXP, rate=r) for r in _KERNEL_RATES[1]],
            "sizes": sizes,
        })
        self._write(p("exhaustive.json"), {
            "scenario": "plain-indicator",
            "group_laws": [{"kind": "uniform", "lo": 0, "hi": 1}] * 2,
            "sizes": [2, 2],
            "draws": 24,
            "outer_reps": 1,
            "resample_kind": "permutation",
            "seed": {"master_seed": seed},
            "exhaustive": True,
        })
        self.kernel_configs = {}
        for kind in KernelKind:
            if kind in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
                population = {"plain": dict(_EXP, rate=1.0)}
            else:
                population = {"survival_exponential": {
                    "fail_rates": _KERNEL_RATES[0], "cens_rates": _KERNEL_RATES[1],
                }}
            cfg = {"kind": kind.value, "lambdas": _LAMBDAS, "grid": grid,
                   "tau": 2.0, "population": population}
            self.kernel_configs[kind] = cfg
            self._write(p(f"kernel-{kind.value}.json"), cfg)

        data = ["--input", p("data.csv")]
        chain = [
            (["simulate", "--config", p("sim.json"), "--output", p("data.csv"),
              "--seed", str(seed)], 0),
            (["analyze", *data, "--tau", "1.5", "--output-curves", p("curves.csv"),
              "--output-summary", p("summary.json")], 0),
            (["dump-fn", *data, "--fn", "km", "--group", "1", "--tau", "1.5",
              "--output", p("km1.txt")], 0),
        ]
        kernels = [
            (["kernel", "--config", p(f"kernel-{k.value}.json"),
              "--output-matrix", p(f"K-{k.value}.csv"),
              "--output-meta", p(f"K-{k.value}.json")], 0)
            for k in KernelKind
        ]
        verify = ["verify", "--config", p("exhaustive.json"), "--output",
                  p("report.json"), "--seed", str(seed), "--threads"]
        # the exhaustive N=4 run is compared with the asymptotic kernel, so
        # its finite-N gap fails the tolerance by design: exit code 4
        self.commands = {
            parallel: [*chain, *kernels, (verify + [str(nproc if parallel else 1)], 4)]
            for parallel in (False, True)
        }
        self.files = sorted(
            ["data.csv", "curves.csv", "summary.json", "km1.txt", "report.json"]
            + [f"K-{k.value}.{ext}" for k in KernelKind for ext in ("csv", "json")]
        )

    @staticmethod
    def _write(path, doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def run_unit(self, parallel):
        log = io.StringIO()  # the CLI reports progress on stderr
        with contextlib.redirect_stderr(log):
            codes = [(argv[0], cli.main(argv), expected)
                     for argv, expected in self.commands[parallel]]
        return {"codes": codes, "log": log.getvalue()}

    def outputs(self, unit):
        out = [f"{name} exit {code}" for name, code, _expected in unit["codes"]]
        for name in self.files:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                with open(path) as fh:
                    out.append(fh.read())
            else:
                out.append(f"{name} missing")
        return out

    def _report(self):
        """The verify report, or None when verify wrote none."""
        try:
            with open(os.path.join(self.workdir, "report.json")) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def stats(self, unit):
        codes = unit["codes"]
        report = self._report()
        cells = sum(report["cell_pass"], []) if report else []
        return {
            "attempted": len(codes),
            "failed": sum(code in (2, 3) for _n, code, _e in codes),
            "passed": cells.count(True),
            "judged": len(cells),
            "dataset_retries": report["aggregates"]["dataset_retries"] if report else 0,
        }

    def check(self, unit):
        problems = [
            f"{name} exited {code}, expected {expected}"
            for name, code, expected in unit["codes"]
            if code != expected
        ]
        if problems:
            problems.append("CLI stderr:\n" + unit["log"])
        report = self._report()
        if report is None or report["aggregates"]["cond_mean_max_abs"] != 0:
            problems.append("exhaustive verify: conditional mean is not exactly 0")
        return problems

    def final_check(self):
        """Each kernel CSV must parse back to exactly the in-process
        matrix, and be symmetric.  Kaplan-Meier cells multiply three
        factors in an order that depends on (s, t), so symmetry is
        required to 4 ulp of the entry; every other kind is exact."""
        problems = []
        eps = np.finfo(float).eps
        lambdas = LambdaVector(tuple(_LAMBDAS))
        for kind, cfg in self.kernel_configs.items():
            population = cfg["population"]
            if "plain" in population:
                pop = PlainPopulation(Law.from_dict(population["plain"]).cdf)
            else:
                rates = population["survival_exponential"]
                pop = exponential_survival_population(
                    rates["fail_rates"], rates["cens_rates"], lambdas, cfg["tau"]
                )
            expected = assemble_kernel_matrix(kind, pop, lambdas, cfg["grid"])
            with open(os.path.join(self.workdir, f"K-{kind.value}.csv")) as fh:
                got = np.array(
                    [[float(v) for v in line.split(",")] for line in fh.read().splitlines()]
                )
            if got.shape != expected.shape or not np.array_equal(got, expected):
                problems.append(f"kernel {kind.value}: CSV differs from in-process matrix")
            tol = 4 * eps * np.abs(got) if kind in (KernelKind.PERM_KM, KernelKind.BOOT_KM) else 0
            if not np.all(np.abs(got - got.T) <= tol):
                problems.append(f"kernel {kind.value}: matrix is not symmetric")
        return problems


class Combined(Workload):
    """Named parts run one after the other as one unit; each part's
    time in the last unit is kept in ``part_seconds``."""

    def __init__(self, parts):
        self.parts = parts
        self.draws_per_unit = sum(p.draws_per_unit or 0 for p in parts.values()) or None
        self.part_draws = {name: p.draws_per_unit for name, p in parts.items()}
        self.part_seconds = {}

    def run_unit(self, parallel):
        unit = {}
        for name, part in self.parts.items():
            t0 = perf_counter()
            unit[name] = part.run_unit(parallel)
            self.part_seconds[name] = perf_counter() - t0
        return unit

    def outputs(self, unit):
        return {name: p.outputs(unit[name]) for name, p in self.parts.items()}

    def part_stats(self, unit):
        return {name: p.stats(unit[name]) for name, p in self.parts.items()}

    def stats(self, unit):
        parts = self.part_stats(unit).values()
        return {key: sum(s[key] for s in parts) for key in
                ("attempted", "failed", "passed", "judged", "dataset_retries")}

    def check(self, unit):
        return [f"{name}: {problem}" for name, p in self.parts.items()
                for problem in p.check(unit[name])]

    def final_check(self):
        return [f"{name}: {problem}" for name, p in self.parts.items()
                for problem in p.final_check()]


PARTS = {
    "mc-plain": lambda seed, nproc, tiny, workdir: _mc_plain(seed, nproc, tiny),
    "mc-survival": lambda seed, nproc, tiny, workdir: _mc_survival(seed, nproc, tiny),
    "ladder": lambda seed, nproc, tiny, workdir: Ladder(seed, tiny),
    "kernel-cli": KernelCli,
}
WORKLOADS = {"mc": ("mc-plain", "mc-survival"), "ladder-cli": ("ladder", "kernel-cli")}


def build(name, seed, nproc, tiny, workdir):
    """A workload, or a single part run as a workload of its own."""
    parts = WORKLOADS.get(name, (name,))
    if not set(parts) <= set(PARTS):
        raise ValueError(f"unknown workload {name!r}")
    return Combined({p: PARTS[p](seed, nproc, tiny, workdir) for p in parts})
