"""Per-cell reference kernels for ``permboot.limits``, the per-draw
bin counts of pooled indices for ``permboot.verify``'s counters, the
per-observation code that ``permboot.empirical`` replaced with numpy
columns, and ``multisample``, which builds a ``MultiSampleData`` from
per-group tuples for tests that write their data that way.

One covariance entry per call, written straight from the limit
formulas: the group coefficient (1/lambda_i * 1{i=j} - 1 for the
permutation, 1{i=j} / lambda_i for the pooled bootstrap) times the
population cell at (s, t).  ``limits.assemble_kernel_matrix`` and
``limits.coeff_matrix`` are checked against them bit for bit; the
library itself does not use them.
"""

import csv
import math
from collections import Counter

import numpy as np

from permboot.empirical import LambdaVector, MultiSampleData
from permboot.errors import ContractError, DataError
from permboot.limits import KernelKind, PlainPopulation
from permboot.stepfn import LEFT, RIGHT, StepFn

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


# -- tuple and Counter references for permboot.empirical ---------------
#
# One Python object per observation: samples are sequences of values or
# of (z, delta) tuples, curves come from Counters, and the CSV reader
# checks and stores one row at a time.  The column code is checked
# against them bit for bit.

def observations(sample):
    """A plain column as a tuple of values, ``SurvivalColumns`` as a
    tuple of (z, delta) tuples."""
    if isinstance(sample, np.ndarray):
        return tuple(sample.tolist())
    return tuple(zip(sample.times.tolist(), sample.status.tolist()))


def ecdf(sample, lo=-math.inf, hi=math.inf) -> StepFn:
    """Right-continuous ECDF; ties accumulate into a single jump."""
    if len(sample) == 0:
        raise ContractError("empty sample")
    n = len(sample)
    counts = Counter(sample)
    bps = tuple(sorted(counts))
    return StepFn(
        base=0,
        breakpoints=bps,
        jumps=tuple(counts[u] / n for u in bps),
        lo=lo,
        hi=hi,
        convention=RIGHT,
    )


def at_risk_process(sample) -> StepFn:
    """Left-continuous at-risk curve t -> (1/n) sum 1{z_i >= t} on [0, inf]."""
    zs = [z for z, _d in sample]
    if not zs:
        raise ContractError("empty sample")
    if any(z < 0 for z in zs):
        raise ContractError("negative observation time")
    n = len(zs)
    counts = Counter(zs)
    bps = tuple(sorted(counts))
    return StepFn(
        base=1,
        breakpoints=bps,
        jumps=tuple(-counts[u] / n for u in bps),
        lo=0,
        convention=LEFT,
    )


def uncensored_subdist(sample) -> StepFn:
    """Right-continuous subdistribution t -> (1/n) sum delta_i 1{z_i <= t},
    events at time 0 folded into the base value."""
    if not sample:
        raise ContractError("empty sample")
    n = len(sample)
    counts = Counter(z for z, d in sample if d == 1)
    if any(z < 0 for z in counts):
        raise ContractError("negative observation time")
    base = counts.pop(0, 0) / n
    bps = tuple(sorted(counts))
    return StepFn(
        base=base,
        breakpoints=bps,
        jumps=tuple(counts[u] / n for u in bps),
        lo=0,
        convention=RIGHT,
    )


def multisample(groups) -> MultiSampleData:
    """``MultiSampleData`` of per-group sequences of values or of
    (z, delta) tuples, concatenated into its columns; the constructor
    does all the checking."""
    pooled = [x for g in groups for x in g]
    sizes = [len(g) for g in groups]
    if pooled and isinstance(pooled[0], tuple):
        times, status = zip(*pooled)
        return MultiSampleData(times, sizes, status)
    return MultiSampleData(pooled, sizes)


def validation_message(values, sizes, status=None):
    """The ContractError message of the per-observation validation of
    pooled columns (numpy arrays), the first failing check of the first
    bad observation in pooled order, or None when they are valid."""
    if len(sizes) < 2:
        return "need at least two groups"
    if any(n < 1 for n in sizes):
        return "every group must be nonempty"
    if status is None:
        for x in values.tolist():
            if not math.isfinite(x):
                return f"non-finite observation {float(x)}"
        return None
    for z, d in zip(values.tolist(), status.tolist()):
        if z < 0:
            return f"negative observation time {float(z)}"
        if not math.isfinite(z):
            return f"non-finite observation time {float(z)}"
        if d not in (0, 1):
            return f"censoring status must be 0/1, got {d}"
    return None


def read_csv(path, survival: bool) -> MultiSampleData:
    """The row-loop reader: each row checked, parsed and appended to its
    group's tuple of observations as it is read."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            groups = _read_groups(path, csv.reader(fh), survival)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if len(groups) < 2:
        raise DataError(f"{path}: need at least two groups, found {len(groups)}")
    try:
        return multisample(groups.values())
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_groups(path, reader, survival: bool) -> dict:
    want = ["group", "time", "status"] if survival else ["group", "value"]
    groups = {}
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty CSV")
    missing = [c for c in want if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    position = {name: i for i, name in enumerate(header)}
    cols = [position[c] for c in want]
    gi, vi = cols[0], cols[1]
    si = cols[2] if survival else None
    width = max(cols) + 1
    for row in reader:
        if len(row) < width:
            if not row:
                continue
            raise DataError(
                f"{path}:{reader.line_num}: bad row "
                f"(expected at least {width} fields, got {len(row)})"
            )
        try:
            if survival:
                status = int(row[si])
                if status not in (0, 1):
                    raise ValueError(f"status {status}")
            x = float(row[vi])
            if not math.isfinite(x):
                raise ValueError(f"non-finite {want[1]} {row[vi]!r}")
        except ValueError as exc:
            raise DataError(f"{path}:{reader.line_num}: bad row ({exc})") from exc
        groups.setdefault(row[gi], []).append((x, status) if survival else x)
    return groups
