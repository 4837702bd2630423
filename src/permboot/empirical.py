"""Empirical measures and survival subdistribution processes.

Multi-sample data are numpy columns in pooled group order: the float64
observations (the times in survival mode), a 0/1 int8 censoring status
column in survival mode, and the group sizes.  Declared API change:
``MultiSampleData(values, sizes, status=None)`` takes those columns and
is its only constructor; per-group sequences of values or (z, delta)
tuples are no longer accepted, and the per-group ECDF list is gone
(take ``ecdf`` of each of ``groups``).  A bad observation is reported as its column
holds it, so a time of -1 reads ``-1.0``.  The ``pooled`` and
``groups`` accessors return columns: a value array in plain mode,
``SurvivalColumns`` (times, status) in survival mode.  The ECDF,
at-risk and uncensored subdistribution curves of a sample get their
breakpoints and counts from one ``np.unique``; the survival curves also
take (z, delta) rows.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DataError
from .jsonio import write_atomic
from .stepfn import LEFT, RIGHT, StepFn

__all__ = [
    "Mode",
    "MultiSampleData",
    "SurvivalColumns",
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


class SurvivalColumns(NamedTuple):
    """Right-censored observations as columns: the times z and the
    matching 0/1 statuses delta."""

    times: np.ndarray
    status: np.ndarray


@dataclass(frozen=True, eq=False)
class MultiSampleData:
    """m >= 2 nonempty groups of observations, all finite reals or all
    (z, delta) pairs with z >= 0 finite and delta in {0, 1}, as columns
    in pooled group order.

    ``values`` holds every observation (every time z in survival mode)
    as read-only float64, ``sizes`` the group sizes, and ``status`` the
    matching read-only int8 delta in survival mode (None in plain mode).
    An invalid observation raises ``ContractError`` naming the first one
    in pooled order as its column holds it.
    """

    values: np.ndarray
    sizes: tuple
    status: np.ndarray | None = None

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) < 2:
            raise ContractError("need at least two groups")
        if any(n < 1 for n in sizes):
            raise ContractError("every group must be nonempty")
        values = np.array(self.values, dtype=float)
        status = None if self.status is None else np.array(self.status)
        if values.shape != (sum(sizes),) or (status is not None and status.shape != values.shape):
            raise ContractError(f"need one column of {sum(sizes)} observations for sizes {sizes}")
        _check_observations(values, status)
        values.flags.writeable = False
        if status is not None:
            status = status.astype(np.int8)
            status.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "status", status)

    def __eq__(self, other):
        if not isinstance(other, MultiSampleData):
            return NotImplemented
        return (
            self.sizes == other.sizes
            and np.array_equal(self.values, other.values)
            and (self.status is None) == (other.status is None)
            and (self.status is None or np.array_equal(self.status, other.status))
        )

    __hash__ = None

    @property
    def mode(self) -> Mode:
        return Mode.PLAIN if self.status is None else Mode.SURVIVAL

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def N(self) -> int:
        return self.values.size

    @property
    def pooled(self):
        """Every observation in group order: the values, or
        ``SurvivalColumns``."""
        return self.values if self.status is None else SurvivalColumns(self.values, self.status)

    @property
    def groups(self) -> tuple:
        """Each group's observations as ``pooled`` gives them, views into
        its columns."""
        cuts = np.cumsum(self.sizes[:-1])
        values = np.split(self.values, cuts)
        if self.status is None:
            return tuple(values)
        return tuple(map(SurvivalColumns, values, np.split(self.status, cuts)))

    def group_slice(self, j: int) -> slice:
        """Pooled positions assigned to group j (0-based)."""
        start = sum(self.sizes[:j])
        return slice(start, start + self.sizes[j])


def _check_observations(values, status):
    """Raise the ContractError of the first observation in pooled order
    that fails a check, taking each observation's checks in order."""
    if status is None:
        checks = [(~np.isfinite(values), "non-finite observation {}", values)]
    else:
        checks = [
            (values < 0, "negative observation time {}", values),
            (~np.isfinite(values), "non-finite observation time {}", values),
            ((status != 0) & (status != 1), "censoring status must be 0/1, got {}", status),
        ]
    found = [(int(bad.argmax()), k) for k, (bad, _m, _c) in enumerate(checks) if bad.any()]
    if found:
        pos, k = min(found)
        _bad, message, column = checks[k]
        raise ContractError(message.format(column[pos].item()))


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


def _column(sample) -> np.ndarray:
    x = np.asarray(sample)
    if x.ndim != 1:
        raise ContractError(f"a sample is one column of numbers, got shape {x.shape}")
    if x.size == 0:
        raise ContractError("empty sample")
    return x


def _survival_columns(sample) -> SurvivalColumns:
    """The columns of a survival sample: ``sample`` itself, or its
    (z, delta) rows, (n, 2), split."""
    if isinstance(sample, SurvivalColumns):
        z, delta = _column(sample.times), np.asarray(sample.status)
        if delta.shape != z.shape:
            raise ContractError(f"need one status per time, got {delta.shape} for {z.shape}")
        return SurvivalColumns(z, delta)
    rows = np.asarray(sample)
    if rows.size == 0:
        raise ContractError("empty sample")
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ContractError(f"a survival sample is (z, delta) rows, got shape {rows.shape}")
    return SurvivalColumns(rows[:, 0], rows[:, 1])


def _distinct(x):
    """The distinct entries of x in increasing order, each as its first
    occurrence (so a 0 keeps the sign it was first written with), and
    the count of each."""
    values, _first, counts = np.unique(x, return_index=True, return_counts=True)
    return values, counts


def ecdf(sample, lo=-math.inf, hi=math.inf) -> StepFn:
    """Right-continuous ECDF of a column of values; ties accumulate into
    a single jump."""
    x = _column(sample)
    bps, counts = _distinct(x)
    return StepFn(
        base=0,
        breakpoints=bps.tolist(),
        jumps=(counts / x.size).tolist(),
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
    return ecdf(data.values)


def at_risk_process(sample) -> StepFn:
    """Left-continuous at-risk curve t -> (1/n) sum 1{z_i >= t} on [0, inf]
    of a survival sample: ``SurvivalColumns`` or (z, delta) rows."""
    z = _survival_columns(sample).times
    if (z < 0).any():
        raise ContractError("negative observation time")
    bps, counts = _distinct(z)
    return StepFn(
        base=1,
        breakpoints=bps.tolist(),
        jumps=(-counts / z.size).tolist(),
        lo=0,
        convention=LEFT,
    )


def uncensored_subdist(sample) -> StepFn:
    """Right-continuous subdistribution t -> (1/n) sum delta_i 1{z_i <= t}
    of a survival sample: ``SurvivalColumns`` or (z, delta) rows.

    Events at time 0 are folded into the base value (breakpoints live in
    (0, inf)); the [0, .] integral convention picks them up as the jump
    at 0.
    """
    z, delta = _survival_columns(sample)
    events = z[delta == 1]
    if (events < 0).any():
        raise ContractError("negative observation time")
    bps, counts = _distinct(events)
    at_zero = int(bps.size > 0 and bps[0] == 0)
    return StepFn(
        base=int(counts[0] if at_zero else 0) / z.size,
        breakpoints=bps[at_zero:].tolist(),
        jumps=(counts[at_zero:] / z.size).tolist(),
        lo=0,
        convention=RIGHT,
    )


# -- CSV interface -----------------------------------------------------

# data rows parsed and checked at a time; bounds the rows' text held
_CHUNK_ROWS = 1 << 13


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
            labels, codes, values, status = _read_columns(
                path, csv.reader(fh), mode is Mode.SURVIVAL
            )
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if len(labels) < 2:
        raise DataError(f"{path}: need at least two groups, found {len(labels)}")
    order = np.argsort(codes, kind="stable")
    sizes = np.bincount(codes, minlength=len(labels))
    try:
        return MultiSampleData(values[order], sizes, None if status is None else status[order])
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_columns(path, reader, survival: bool):
    """One pass over ``reader``'s rows, the first of which is the header:
    the group labels in first-appearance order, each row's group code
    (its label's position there), value or time, and status (None in
    plain mode), in row order; ``path`` names the file in errors."""
    want = ["group", "time", "status"] if survival else ["group", "value"]
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty CSV")
    missing = [c for c in want if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    # a repeated column name reads its last copy
    position = {name: i for i, name in enumerate(header)}
    cols = [position[c] for c in want]
    # in plain mode the value is read twice and its second copy unused
    gi, vi, si = cols[0], cols[1], cols[-1]
    width = max(cols) + 1
    index, chunks, short = {}, [], None
    fields = labels, numbers, statuses, lines = [], [], [], []
    for row in reader:
        if len(row) < width:
            if not row:  # a blank line
                continue
            short = (f"{path}:{reader.line_num}: bad row "
                     f"(expected at least {width} fields, got {len(row)})")
            break
        labels.append(row[gi])
        numbers.append(row[vi])
        statuses.append(row[si])
        lines.append(reader.line_num)
        if len(lines) == _CHUNK_ROWS:
            chunks.append(_parse_rows(path, *fields, want[1], survival, index))
            for column in fields:
                column.clear()
    # the rows before a short row are checked first
    chunks.append(_parse_rows(path, *fields, want[1], survival, index))
    if short is not None:
        raise DataError(short)
    codes, values, *status = (np.concatenate(c) for c in zip(*chunks))
    return list(index), codes, values, status[0] if survival else None


def _parse_rows(path, labels, numbers, statuses, lines, name, survival, index):
    """The group codes and numbers of data rows read from ``lines``, and
    their statuses in survival mode; a label seen first here is
    appended to ``index``.  A bad row raises the ``DataError`` of the
    first one."""
    n = len(lines)
    try:
        columns = [np.fromiter(map(float, numbers), float, n)]
        if survival:
            columns.append(np.fromiter(map(int, statuses), np.int8, n))
            if ((columns[1] != 0) & (columns[1] != 1)).any():
                raise ValueError
        if not np.isfinite(columns[0]).all():
            raise ValueError
    except (ValueError, OverflowError):
        _check_rows(path, numbers, statuses if survival else None, lines, name)
        raise
    for label in dict.fromkeys(labels):
        index.setdefault(label, len(index))
    return (np.fromiter(map(index.__getitem__, labels), np.intp, n), *columns)


def _check_rows(path, numbers, statuses, lines, name):
    """Raise the ``DataError`` of the first row, read from the matching
    file line, whose status (unless statuses is None) or number does
    not parse or is out of range."""
    for i, line in enumerate(lines):
        try:
            if statuses is not None:
                status = int(statuses[i])
                if status not in (0, 1):
                    raise ValueError(f"status {status}")
            if not math.isfinite(float(numbers[i])):
                raise ValueError(f"non-finite {name} {numbers[i]!r}")
        except ValueError as exc:
            raise DataError(f"{path}:{line}: bad row ({exc})") from exc


def write_csv(path, data: MultiSampleData):
    """Write ``data`` as CSV through ``write_atomic``: a failed write
    leaves any previous file at ``path`` untouched.  Values are written
    with ``%.17g``, which round-trips every float."""
    if data.status is None:
        header, row, cells = "group,value\n", "%.17g\n", data.values.tolist()
    else:
        header, row = "group,time,status\n", "%.17g,%s\n"
        # each time followed by its status
        cells = [None] * (2 * data.N)
        cells[0::2], cells[1::2] = data.values.tolist(), data.status.tolist()
    rows = "".join((f"{j}," + row) * n for j, n in enumerate(data.sizes, start=1))
    write_atomic(path, header + rows % tuple(cells))
