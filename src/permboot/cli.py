"""Command-line entry point.

Subcommands are thin adapters over the library: simulate (draw a
multi-sample dataset from configured laws), analyze (survival curves
from CSV), kernel (grid covariance matrix), verify (run the harness),
counterexample (inverse-map difference-quotient table), dump-fn (step
functions in text form).

Exit codes: 0 success, 2 usage error, 3 data error (including an
output that cannot be written), 4 verification failure.  Outputs are
written atomically; progress goes to stderr and stdout stays silent
unless --stdout is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from bisect import bisect_right

import numpy as np

from .config import ExperimentConfig, KernelConfig, SimulateConfig, read_config, with_master_seed
from .counterexample import counterexample_family, increment_condition_probe, inverse_counterexample
from .empirical import Mode, read_csv, write_csv
from .empirical import at_risk_process, ecdf, uncensored_subdist
from .errors import ContractError, DataError, DomainError, SingularityError
from .functionals import HazardBundle, kaplan_meier, km_from_hazard, nelson_aalen, rmst
from .jsonio import canonical_json, write_atomic
from .limits import assemble_kernel_matrix
from .verify import conditional_cov_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY_FAILED = 4


def _progress(msg: str):
    print(msg, file=sys.stderr)


def _threads_from(args) -> int:
    """The thread count from --threads, else the number of CPUs this
    process may run on."""
    if args.threads is not None:
        if args.threads < 1:
            raise ContractError(f"--threads must be >= 1, got {args.threads}")
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# -- simulate ----------------------------------------------------------

def _cmd_simulate(args) -> int:
    doc = with_master_seed(read_config(args.config), args.seed)
    data = SimulateConfig.from_dict(doc).simulate()
    write_csv(args.output, data)
    _progress(f"wrote {sum(data.sizes)} observations to {args.output}")
    return EXIT_OK


# -- analyze -----------------------------------------------------------

def _cmd_analyze(args) -> int:
    data = read_csv(args.input, Mode.SURVIVAL)
    tau = args.tau if args.tau is not None else _largest(data.values)
    curves = ["group,time,na,km\n"]
    summary_groups = []
    for j, g in enumerate(data.groups, start=1):
        at_risk = at_risk_process(g)
        lam = nelson_aalen(HazardBundle(at_risk, uncensored_subdist(g), tau))
        surv = km_from_hazard(lam)
        # the distinct times up to tau
        times = at_risk.breakpoints[:bisect_right(at_risk.breakpoints, tau)]
        cells = np.column_stack((times, lam.evaluate(times), surv.evaluate(times)))
        curves.append(f"{j},%.17g,%.17g,%.17g\n" * len(times) % tuple(cells.ravel().tolist()))
        summary_groups.append(
            {
                "group": j,
                "n": g.times.size,
                "events": int(g.status.sum()),
                "na_at_tau": lam(min(tau, lam.hi)),
                "km_at_tau": surv(min(tau, surv.hi)),
                "rmst": rmst(surv, tau),
            }
        )
    write_atomic(args.output_curves, "".join(curves))
    summary = {"tau": float(tau), "groups": summary_groups}
    text = canonical_json(summary) + "\n"
    write_atomic(args.output_summary, text)
    if args.stdout:
        sys.stdout.write(text)
    _progress(f"analyzed {data.m} groups; curves -> {args.output_curves}")
    return EXIT_OK


def _largest(times) -> float:
    """The first of the largest times, as Python's ``max`` picks it."""
    return times[times.argmax()].item()


# -- kernel ------------------------------------------------------------

def _cmd_kernel(args) -> int:
    config = KernelConfig.from_dict(read_config(args.config))
    matrix = assemble_kernel_matrix(config.kind, config.population, config.lambdas, config.grid)
    lines = [",".join(format(v, ".17g") for v in row) for row in matrix]
    write_atomic(args.output_matrix, "\n".join(lines) + "\n")
    meta = {
        "kind": config.kind.value,
        "lambdas": list(config.lambdas.values),
        "grid": list(config.grid),
        "tau": config.tau,
        "dim": int(matrix.shape[0]),
    }
    text = canonical_json(meta) + "\n"
    write_atomic(args.output_meta, text)
    if args.stdout:
        sys.stdout.write(text)
    _progress(f"kernel matrix {matrix.shape[0]}x{matrix.shape[1]} -> {args.output_matrix}")
    return EXIT_OK


# -- verify ------------------------------------------------------------

def _cmd_verify(args) -> int:
    config = ExperimentConfig.from_dict(with_master_seed(read_config(args.config), args.seed))
    threads = _threads_from(args)
    _progress(
        f"verify: scenario={config.scenario.value} sizes={config.sizes} "
        f"R={config.outer_reps} B={config.draws} threads={threads}"
    )
    report = conditional_cov_experiment(config, threads=threads)
    text = report.to_json()
    write_atomic(args.output, text)
    if args.stdout:
        sys.stdout.write(text)
    agg = report.aggregates
    _progress(
        f"verify: max|dev|={agg['max_abs_dev']:.4g} "
        f"pass={agg['frac_pass']:.3f} -> {args.output}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# -- counterexample ----------------------------------------------------

def _cmd_counterexample(args) -> int:
    try:
        n_values = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError as exc:
        raise DataError(f"--n must be a comma-separated integer list: {exc}") from exc
    if not n_values or any(n < 1 for n in n_values):
        raise DataError("--n needs integers >= 1")
    rows = inverse_counterexample(n_values)
    lines = ["n,t_n,ratio,derivative,gap,increment_probe_K1"]
    for row in rows:
        probe = increment_condition_probe(counterexample_family, row["n"], 1)
        lines.append(
            "{n},{t},{r},{d},{g},{p}".format(
                n=row["n"],
                t=format(row["t_n"], ".17g"),
                r=format(row["ratio"], ".17g"),
                d=format(row["derivative"], ".17g"),
                g=format(row["gap"], ".17g"),
                p=format(probe, ".17g"),
            )
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        write_atomic(args.output, text)
        _progress(f"counterexample table -> {args.output}")
    if args.stdout or not args.output:
        sys.stdout.write(text)
    return EXIT_OK


# -- dump-fn -----------------------------------------------------------

_DUMPABLE = ("ecdf", "at-risk", "uncensored", "na", "km")


def _cmd_dump_fn(args) -> int:
    mode = Mode.PLAIN if args.fn == "ecdf" else Mode.SURVIVAL
    data = read_csv(args.input, mode)
    if not 0 <= args.group <= data.m:
        raise DataError(f"--group must be in 0..{data.m} (0 = pooled), got {args.group}")
    obs = data.pooled if args.group == 0 else data.groups[args.group - 1]
    if args.fn == "ecdf":
        fn = ecdf(obs)
    elif args.fn == "at-risk":
        fn = at_risk_process(obs)
    elif args.fn == "uncensored":
        fn = uncensored_subdist(obs)
    else:
        tau = args.tau if args.tau is not None else _largest(obs.times)
        bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), tau)
        fn = nelson_aalen(bundle) if args.fn == "na" else kaplan_meier(bundle)
    text = fn.to_text()
    if args.output:
        write_atomic(args.output, text)
        _progress(f"{args.fn} -> {args.output}")
    if args.stdout or not args.output:
        sys.stdout.write(text)
    return EXIT_OK


# -- parser ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permboot",
        description="Resampling empirical processes: simulation, survival "
        "curves, limit kernels and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="simulate a multi-sample dataset to CSV")
    p.add_argument("--config", required=True, help="JSON: mode, group_laws, sizes")
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="Nelson-Aalen / Kaplan-Meier / RMST from CSV")
    p.add_argument("--input", required=True, help="survival CSV: group,time,status")
    p.add_argument("--tau", type=float, default=None, help="horizon (default: max time)")
    p.add_argument("--output-curves", default="curves.csv")
    p.add_argument("--output-summary", default="summary.json")
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("kernel", help="emit an assembled limit covariance matrix")
    p.add_argument("--config", required=True, help="JSON: kind, lambdas, grid, population")
    p.add_argument("--output-matrix", default="kernel.csv")
    p.add_argument("--output-meta", default="kernel.json")
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("verify", help="run the conditional covariance harness")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default="report.json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("counterexample", help="inverse-map difference-quotient table")
    p.add_argument("--n", default="1,4,25,100,10000", help="comma-separated n values")
    p.add_argument("--output", default=None)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("dump-fn", help="serialize an empirical step function")
    p.add_argument("--input", required=True)
    p.add_argument("--fn", required=True, choices=_DUMPABLE)
    p.add_argument("--group", type=int, default=0, help="1-based group, 0 = pooled")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(func=_cmd_dump_fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ContractError, DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # e.g. an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
