"""Empirical measures and survival subdistribution processes.

Builds the per-group and pooled empirical objects from raw multi-sample
data: ECDFs for plain observations, at-risk and uncensored
subdistribution curves for right-censored pairs (z, delta).
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import ContractError, DataError
from .jsonio import write_atomic
from .stepfn import LEFT, RIGHT, StepFn

__all__ = [
    "Mode",
    "MultiSampleData",
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
    """m >= 2 groups of observations, all finite reals or all (z, delta) pairs."""

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
                    if not math.isfinite(z):
                        raise ContractError(f"non-finite observation time {z}")
                    if d not in (0, 1):
                        raise ContractError(f"censoring status must be 0/1, got {d}")
                elif not math.isfinite(x):
                    raise ContractError(f"non-finite observation {x}")

    @property
    def mode(self) -> Mode:
        return Mode.SURVIVAL if _is_censored_obs(self.groups[0][0]) else Mode.PLAIN

    @property
    def m(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple:
        return tuple(len(g) for g in self.groups)

    @property
    def N(self) -> int:
        return sum(self.sizes)

    @functools.cached_property
    def pooled(self) -> tuple:
        """Every group's observations in group-concatenation order."""
        return tuple(chain.from_iterable(self.groups))

    def group_slice(self, j: int) -> slice:
        """Pooled positions assigned to group j (0-based)."""
        start = sum(self.sizes[:j])
        return slice(start, start + self.sizes[j])


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


def pooled_ecdf(data: MultiSampleData) -> StepFn:
    """ECDF of the concatenated pooled sample.

    Equals the (n_j/N)-weighted mixture of the group ECDFs exactly; the
    agreement of the two constructions is asserted in tests.
    """
    if data.mode is not Mode.PLAIN:
        raise ContractError("pooled_ecdf requires plain observations")
    return ecdf(data.pooled)


def group_ecdfs(data: MultiSampleData) -> list:
    return [ecdf(g) for g in data.groups]


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
    """Right-continuous subdistribution t -> (1/n) sum delta_i 1{z_i <= t}.

    Events at time 0 are folded into the base value (breakpoints live in
    (0, inf)); the [0, .] integral convention picks them up as the jump
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
        convention=RIGHT,
    )


# -- CSV interface -----------------------------------------------------

def read_csv(path, mode: Mode) -> MultiSampleData:
    """Load multi-sample data from CSV.

    Plain mode columns: ``group,value``.  Survival mode columns:
    ``group,time,status`` with status in {0, 1}.  Columns may come in
    any order and extra columns are ignored; blank lines are skipped.
    Group labels are mapped to 1..m in first-appearance order.  A row
    too short to hold every column, or with an unparsable or non-finite
    number, raises ``DataError`` naming ``path`` and its line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            groups = _read_groups(path, csv.reader(fh), mode is Mode.SURVIVAL)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if len(groups) < 2:
        raise DataError(f"{path}: need at least two groups, found {len(groups)}")
    try:
        return MultiSampleData(tuple(groups.values()))
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_groups(path, reader, survival: bool) -> dict:
    """Each group label's values, or (time, status) pairs, in the order
    of ``reader``'s rows, the first of which is the header; ``path``
    names the file in errors."""
    want = ["group", "time", "status"] if survival else ["group", "value"]
    groups = {}
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty CSV")
    missing = [c for c in want if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    # a repeated column name reads its last copy
    position = {name: i for i, name in enumerate(header)}
    cols = [position[c] for c in want]
    gi, vi = cols[0], cols[1]
    si = cols[2] if survival else None
    width = max(cols) + 1
    isfinite = math.isfinite
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
            if not isfinite(x):
                raise ValueError(f"non-finite {want[1]} {row[vi]!r}")
        except ValueError as exc:
            raise DataError(f"{path}:{reader.line_num}: bad row ({exc})") from exc
        groups.setdefault(row[gi], []).append((x, status) if survival else x)
    return groups


def write_csv(path, data: MultiSampleData):
    """Write ``data`` as CSV through ``write_atomic``: a failed write
    leaves any previous file at ``path`` untouched.  Values are written
    with ``%.17g``, which round-trips every float."""
    plain = data.mode is Mode.PLAIN
    parts = ["group,value\n" if plain else "group,time,status\n"]
    row = "%.17g\n" if plain else "%.17g,%s\n"
    for j, g in enumerate(data.groups, start=1):
        cells = g if plain else tuple(chain.from_iterable(g))
        parts.append((f"{j}," + row) * len(g) % cells)
    write_atomic(path, "".join(parts))
