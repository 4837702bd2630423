"""Permutation and pooled-bootstrap redistributions of the pooled sample.

A draw assigns pooled positions to groups: group j receives assignment
positions N_{j-1}..N_j - 1 (0-based).  Permutation draws are bijections
of the pooled indices (the pool is redistributed, not resampled);
bootstrap draws are N i.i.d. uniform indices into the pool.

A statistic that reads a draw only through each group's counts per bin
of the pooled values can skip the assignment: ``draw_counts`` draws
those counts from their law.  Under permutation, group 1's counts are
multivariate hypergeometric over the pooled bin counts, each later group
is hypergeometric on what is left, and the last group takes the rest;
under the pooled bootstrap, group j's counts are multinomial(n_j,
pooled bins / N).  Those chains cost one numpy call per bin.  With two
groups, group 1 comes instead from numpy's C sampler
(``multivariate_hypergeometric``), and group 2 is the rest: its
"marginals" method (C draws bin by bin) up to N / 16 bins, its "count"
method (a partial shuffle, whose cost grows with N) above.  ``verify``'s
plain-indicator Monte Carlo (K + 1 bins for K grid points) draws counts:
at 200 + 200, K = 9 and B = 2000, drawing and counting a replicate takes
a few ms instead of ~25 ms for permutation and ~10 ms instead of ~14 ms
for the bootstrap (2-vCPU host).  So does a two-group survival
permutation, whose bins (~550 at 300 + 300) the "count" sampler draws in
~15 ms for B = 2000, against ~37 ms to draw and count index draws.
Survival bootstraps and permutations of three or more groups keep index
draws, where a chain over ~550 bins would take ~10x as long, and so do
the linearization ladder and exhaustive enumeration.  Counts from their
law have the law of counted index draws but are other numbers, so
reports agree with those of versions that counted index draws in law,
not in bytes.

Seeding is counter-based: a ``SeedSpec`` plus a child path fully
determines every draw, so experiments parallelize with bit-reproducible
results independent of scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import permutations as _iter_permutations

import numpy as np

from .empirical import (
    Mode,
    MultiSampleData,
    SurvivalColumns,
    at_risk_process,
    ecdf,
    uncensored_subdist,
)
from .errors import ContractError
from .stepfn import StepFn

__all__ = [
    "ResampleKind",
    "ResampleDraw",
    "SeedSpec",
    "all_permutations",
    "permutation_matrix",
    "bootstrap_matrix",
    "draw_matrix",
    "draw_blocks",
    "draw_counts",
    "resampled_group_fns",
    "centered_process",
]


class ResampleKind(enum.Enum):
    PERMUTATION = "permutation"
    POOLED_BOOTSTRAP = "bootstrap"


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seed: (master_seed, stream_id) plus a child path."""

    master_seed: int
    stream_id: int = 0
    path: tuple = ()

    def child(self, *ks) -> "SeedSpec":
        return replace(self, path=self.path + tuple(ks))

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.path)
        )
        return np.random.default_rng(seq)


@dataclass(frozen=True, eq=False)
class ResampleDraw:
    """One draw: the pooled index each position takes, as a read-only
    integer array."""

    kind: ResampleKind
    assignment: np.ndarray

    def __post_init__(self):
        a = np.array(self.assignment, dtype=np.intp)
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        if self.kind is ResampleKind.PERMUTATION:
            if not np.array_equal(np.sort(a), np.arange(a.size)):
                raise ContractError("permutation assignment must be a bijection")
        elif ((a < 0) | (a >= a.size)).any():
            raise ContractError("bootstrap assignment indices out of range")


def all_permutations(N: int) -> np.ndarray:
    """All N! permutations as an (N!, N) int array; N <= 8 only."""
    if N > 8:
        raise ContractError("exhaustive enumeration limited to N <= 8")
    return np.array(list(_iter_permutations(range(N))), dtype=np.intp)


def permutation_matrix(N: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """B independent uniform permutations, one per row."""
    out = np.tile(np.arange(N, dtype=np.intp), (B, 1))
    return rng.permuted(out, axis=1, out=out)


def bootstrap_matrix(N: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """B bootstrap draws, one per row."""
    return rng.integers(0, N, size=(B, N), dtype=np.intp)


def draw_matrix(kind: ResampleKind, N: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """B draws of the given kind, one assignment per row."""
    if kind is ResampleKind.PERMUTATION:
        return permutation_matrix(N, B, rng)
    return bootstrap_matrix(N, B, rng)


def draw_blocks(kind: ResampleKind, N: int, B: int, rng: np.random.Generator, rows: int):
    """The rows of ``draw_matrix(kind, N, B, rng)`` in blocks of at most
    ``rows`` draws, each block drawn from rng only when it is needed."""
    for start in range(0, B, rows):
        yield draw_matrix(kind, N, min(rows, B - start), rng)


def draw_counts(kind: ResampleKind, pooled_bins, sizes, B: int,
                rng: np.random.Generator) -> np.ndarray:
    """B draws of every group's counts per bin, (m, B, nbins), for a
    pooled sample with ``pooled_bins`` values in each bin: the law of
    counting the assigned pooled values of B draws of ``kind`` by bin."""
    pooled_bins = np.asarray(pooled_bins, dtype=np.intp)
    N = int(pooled_bins.sum())
    if sum(sizes) != N:
        raise ContractError(f"group sizes {tuple(sizes)} do not add up to N={N}")
    out = np.empty((len(sizes), B, pooled_bins.size), dtype=np.intp)
    if kind is ResampleKind.POOLED_BOOTSTRAP:
        for j, n in enumerate(sizes):
            out[j] = rng.multinomial(n, pooled_bins / N, size=B)
        return out
    # two groups: numpy's C sampler draws group 1, and group 2 is the
    # rest.  Its "count" method (a partial shuffle of the N pooled values
    # per draw) costs in N, its "marginals" method (one hypergeometric
    # draw per bin and draw) and the chain below (one broadcast
    # hypergeometric call per bin) in the bins.  For B = 2000 on a 2-vCPU
    # host: 10 bins at N = 400 take 2.2-2.6 ms by "marginals", 4.3 ms by
    # the chain and 7-8 ms by "count"; 548 bins at N = 600 take 12-15 ms
    # by "count", 193 ms by "marginals" and 354 ms by the chain.  With
    # group 1 half of N, "marginals" and "count" break even at N / 16
    # bins: 5.3 ms each at N = 400, ~31 ms each at N = 2000.
    if len(sizes) == 2:
        method = "count" if 16 * pooled_bins.size > N else "marginals"
        out[0] = rng.multivariate_hypergeometric(pooled_bins, sizes[0], size=B, method=method)
        np.subtract(pooled_bins, out[0], out=out[1])
        return out
    # per draw, the pooled values not yet assigned in each bin and in all
    # bins after it; each bin takes its hypergeometric share of what the
    # group still needs, and the last bin and the last group the rest
    left = np.tile(pooled_bins, (B, 1))
    for j, n in enumerate(sizes[:-1]):
        need = np.full(B, n, dtype=np.intp)
        after = left.sum(axis=1)
        for k in range(pooled_bins.size - 1):
            after -= left[:, k]
            out[j, :, k] = rng.hypergeometric(left[:, k], after, need)
            need -= out[j, :, k]
        out[j, :, -1] = need
        left -= out[j]
    out[-1] = left
    return out


def resampled_group_fns(data: MultiSampleData, draw: ResampleDraw):
    """Group empirical functions rebuilt from a resampling draw.

    Plain mode returns a list of m ECDF StepFns; survival mode returns a
    list of m (at_risk, uncensored) pairs.  Censored pairs travel as
    atomic units.
    """
    if len(draw.assignment) != data.N:
        raise ContractError(
            f"draw length {len(draw.assignment)} does not match N={data.N}"
        )
    out = []
    for j in range(data.m):
        drawn = draw.assignment[data.group_slice(j)]
        if data.mode is Mode.PLAIN:
            out.append(ecdf(data.values[drawn]))
        else:
            obs = SurvivalColumns(data.values[drawn], data.status[drawn])
            out.append((at_risk_process(obs), uncensored_subdist(obs)))
    return out


def centered_process(group_fns, pooled_fn: StepFn, N: int, grid) -> np.ndarray:
    """Entry (j, k) = sqrt(N) * (group_fns[j](grid[k]) - pooled_fn(grid[k]))."""
    root = math.sqrt(N)
    return np.array(
        [[root * (f(t) - pooled_fn(t)) for t in grid] for f in group_fns],
        dtype=float,
    )
