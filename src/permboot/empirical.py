"""Empirical measures and survival subdistribution processes.

Builds the per-group and pooled empirical objects from raw multi-sample
data: ECDFs for plain observations, at-risk and uncensored
subdistribution curves for right-censored pairs (z, delta).
"""

from __future__ import annotations

import csv
import enum
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError, DataError
from .jsonio import write_atomic
from .stepfn import LEFT, RIGHT, StepFn

__all__ = [
    "Mode",
    "MultiSampleData",
    "PooledData",
    "LambdaVector",
    "ecdf",
    "pooled_ecdf",
    "at_risk_process",
    "uncensored_subdist",
    "read_csv",
    "write_csv",
]


class Mode(enum.Enum):
    PLAIN = "plain"
    SURVIVAL = "survival"


def _is_censored_obs(x):
    return isinstance(x, tuple)


@dataclass(frozen=True)
class MultiSampleData:
    """m >= 2 groups of observations, all plain reals or all (z, delta) pairs."""

    groups: tuple

    def __post_init__(self):
        gs = tuple(tuple(g) for g in self.groups)
        object.__setattr__(self, "groups", gs)
        if len(gs) < 2:
            raise ContractError("need at least two groups")
        if any(len(g) == 0 for g in gs):
            raise ContractError("every group must be nonempty")
        censored = _is_censored_obs(gs[0][0])
        for g in gs:
            for x in g:
                if _is_censored_obs(x) != censored:
                    raise ContractError("groups mix plain and censored observations")
                if censored:
                    z, d = x
                    if z < 0:
                        raise ContractError(f"negative observation time {z}")
                    if d not in (0, 1):
                        raise ContractError(f"censoring status must be 0/1, got {d}")

    @property
    def mode(self) -> Mode:
        return Mode.SURVIVAL if _is_censored_obs(self.groups[0][0]) else Mode.PLAIN

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple:
        return tuple(len(g) for g in self.groups)

    def pooled(self) -> "PooledData":
        flat = tuple(x for g in self.groups for x in g)
        return PooledData(pooled=flat, sizes=self.sizes)


@dataclass(frozen=True)
class PooledData:
    """The pooled sample in group-concatenation order."""

    pooled: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "pooled", tuple(self.pooled))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if sum(self.sizes) != len(self.pooled):
            raise ContractError("sizes do not sum to the pooled length")

    @property
    def N(self) -> int:
        return len(self.pooled)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def cumulative(self) -> tuple:
        out = [0]
        for n in self.sizes:
            out.append(out[-1] + n)
        return tuple(out)

    def group_slice(self, j: int) -> slice:
        """Pooled positions assigned to group j (0-based)."""
        cum = self.cumulative
        return slice(cum[j], cum[j + 1])

    def fractions(self) -> tuple:
        return tuple(n / self.N for n in self.sizes)

    @property
    def mode(self) -> Mode:
        return Mode.SURVIVAL if _is_censored_obs(self.pooled[0]) else Mode.PLAIN


@dataclass(frozen=True)
class LambdaVector:
    """Limiting group proportions, each in (0, 1), summing to 1."""

    values: tuple

    def __post_init__(self):
        vs = tuple(self.values)
        object.__setattr__(self, "values", vs)
        if any(not 0 < v < 1 for v in vs):
            raise ContractError("each lambda must lie in (0, 1)")
        if abs(sum(vs) - 1) > 1e-12:
            raise ContractError("lambdas must sum to 1")

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "LambdaVector":
        N = sum(sizes)
        return cls(tuple(n / N for n in sizes))


def ecdf(sample: Sequence[float], lo=-math.inf, hi=math.inf) -> StepFn:
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


def pooled_ecdf(data: PooledData) -> StepFn:
    """ECDF of the concatenated pooled sample.

    Equals the (n_j/N)-weighted mixture of the group ECDFs exactly; the
    agreement of the two constructions is asserted in tests.
    """
    if data.mode is not Mode.PLAIN:
        raise ContractError("pooled_ecdf requires plain observations")
    return ecdf(data.pooled)


def group_ecdfs(data: PooledData) -> list:
    return [ecdf(data.pooled[data.group_slice(j)]) for j in range(data.m)]


def at_risk_process(sample, hi=math.inf) -> StepFn:
    """Left-continuous at-risk curve t -> (1/n) sum 1{z_i >= t} on [0, hi]."""
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
        hi=hi,
        convention=LEFT,
    )


def uncensored_subdist(sample, hi=math.inf) -> StepFn:
    """Right-continuous subdistribution t -> (1/n) sum delta_i 1{z_i <= t}.

    Events at time 0 are folded into the base value (breakpoints live in
    (0, hi]); the [0, .] integral convention picks them up as the jump
    at 0.
    """
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
        hi=hi,
        convention=RIGHT,
    )


# -- CSV interface -----------------------------------------------------

def read_csv(path, mode: Mode) -> MultiSampleData:
    """Load multi-sample data from CSV.

    Plain mode columns: ``group,value``.  Survival mode columns:
    ``group,time,status`` with status in {0, 1}.  Group labels are
    mapped to 1..m in first-appearance order.
    """
    order = []
    groups = {}
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV")
        want = ["group", "value"] if mode is Mode.PLAIN else ["group", "time", "status"]
        missing = [c for c in want if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        for i, row in enumerate(reader, start=2):
            label = row["group"]
            if label not in groups:
                groups[label] = []
                order.append(label)
            try:
                if mode is Mode.PLAIN:
                    obs = float(row["value"])
                else:
                    status = int(row["status"])
                    if status not in (0, 1):
                        raise ValueError(f"status {status}")
                    obs = (float(row["time"]), status)
            except ValueError as exc:
                raise DataError(f"{path}:{i}: bad row ({exc})") from exc
            groups[label].append(obs)
    if len(order) < 2:
        raise DataError(f"{path}: need at least two groups, found {len(order)}")
    try:
        return MultiSampleData(tuple(tuple(groups[g]) for g in order))
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_csv(path, data: MultiSampleData):
    """Write ``data`` as CSV through ``write_atomic``: a failed write
    leaves any previous file at ``path`` untouched."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if data.mode is Mode.PLAIN:
        writer.writerow(["group", "value"])
        for j, g in enumerate(data.groups, start=1):
            for x in g:
                writer.writerow([j, format(x, ".17g")])
    else:
        writer.writerow(["group", "time", "status"])
        for j, g in enumerate(data.groups, start=1):
            for z, d in g:
                writer.writerow([j, format(z, ".17g"), d])
    write_atomic(path, buf.getvalue())
