import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from permboot.empirical import LambdaVector, MultiSampleData, pooled_ecdf
from permboot.errors import ContractError
from permboot.resampling import (
    ResampleDraw,
    ResampleKind,
    SeedSpec,
    all_permutations,
    bootstrap_matrix,
    centered_process,
    draw_blocks,
    draw_counts,
    draw_matrix,
    permutation_matrix,
    resampled_group_fns,
)
from permboot.stepfn import affine_combine
from permboot.verify import _indicator_counter
from oracles import binned


def _plain(groups):
    return MultiSampleData(tuple(tuple(g) for g in groups))


def test_seedspec_determinism():
    s = SeedSpec(123, stream_id=7)
    for kind in ResampleKind:
        assert np.array_equal(draw_matrix(kind, 4, 3, s.rng()), draw_matrix(kind, 4, 3, s.rng()))


def test_seedspec_children_differ():
    a = SeedSpec(1).child(0).rng().integers(0, 1 << 30)
    b = SeedSpec(1).child(1).rng().integers(0, 1 << 30)
    assert a != b


def test_permutation_is_bijection():
    draw = ResampleDraw(ResampleKind.PERMUTATION, permutation_matrix(5, 1, SeedSpec(0).rng())[0])
    assert sorted(draw.assignment) == list(range(5))


def test_bad_draws_rejected():
    with pytest.raises(ContractError):
        ResampleDraw(ResampleKind.PERMUTATION, (0, 0, 1))
    with pytest.raises(ContractError):
        ResampleDraw(ResampleKind.POOLED_BOOTSTRAP, (0, 3, 1))


def test_all_permutations_count():
    mat = all_permutations(4)
    assert mat.shape == (24, 4)
    assert len({tuple(row) for row in mat}) == 24
    with pytest.raises(ContractError):
        all_permutations(9)


def test_identity_permutation_recovers_groups():
    data = _plain([[1.0, 2.0], [5.0]])
    draw = ResampleDraw(ResampleKind.PERMUTATION, (0, 1, 2))
    fns = resampled_group_fns(data, draw)
    assert fns[0](2.0) == 1.0 and fns[0](0.5) == 0.0
    assert fns[1](4.9) == 0.0 and fns[1](5.0) == 1.0


def test_swap_permutation_swaps_ecdfs():
    data = _plain([[1.0], [3.0]])
    swap = ResampleDraw(ResampleKind.PERMUTATION, (1, 0))
    f1, f2 = resampled_group_fns(data, swap)
    assert f1(3.0) == 1.0 and f1(2.9) == 0.0
    assert f2(1.0) == 1.0


def test_degenerate_bootstrap_draw():
    data = _plain([[1.0, 2.0], [3.0, 4.0]])
    draw = ResampleDraw(ResampleKind.POOLED_BOOTSTRAP, (0, 0, 0, 0))
    fns = resampled_group_fns(data, draw)
    for f in fns:
        assert f(1.0) == 1.0 and f(0.9) == 0.0


def test_draw_length_mismatch():
    data = _plain([[1], [2]])
    with pytest.raises(ContractError):
        resampled_group_fns(data, ResampleDraw(ResampleKind.PERMUTATION, (0, 1, 2)))


def test_survival_pairs_travel_atomically():
    data = MultiSampleData((((1.0, 1), (2.0, 0)), ((3.0, 1),)))
    swapish = ResampleDraw(ResampleKind.PERMUTATION, (2, 1, 0))
    pairs = resampled_group_fns(data, swapish)
    hbar, huc = pairs[1]
    # group 2 now holds (1.0, 1): a death at 1
    assert huc(1.0) == 1.0
    assert hbar(1.0) == 1.0 and hbar(1.5) == 0.0


def test_permutation_conservation():
    data = _plain([[0.5, 1.5, 2.5], [0.7, 1.7]])
    hn = pooled_ecdf(data)
    for row in permutation_matrix(data.N, 5, SeedSpec(0).rng()):
        fns = resampled_group_fns(data, ResampleDraw(ResampleKind.PERMUTATION, row))
        mix = affine_combine(LambdaVector.from_sizes(data.sizes).values, fns)
        for t in (0.5, 0.7, 1.5, 1.7, 2.5, 3.0):
            assert mix(t) == pytest.approx(hn(t), abs=1e-12)


def test_centered_process_zero_sum():
    data = _plain([[0.5, 1.5], [0.7, 1.7]])
    hn = pooled_ecdf(data)
    grid = [0.6, 1.0, 2.0]
    row = permutation_matrix(data.N, 1, SeedSpec(9).rng())[0]
    draw = ResampleDraw(ResampleKind.PERMUTATION, row)
    X = centered_process(resampled_group_fns(data, draw), hn, data.N, grid)
    assert X.shape == (2, 3)
    weighted = np.array(LambdaVector.from_sizes(data.sizes).values) @ X
    assert np.allclose(weighted, 0, atol=1e-12)


def test_shuffle_uniformity_chi_square():
    # documented-seed statistical test of the shuffle: position-0 index
    # frequencies over many draws should be uniform on {0..N-1}
    N, B = 6, 12000
    mat = permutation_matrix(N, B, SeedSpec(2024).rng())
    counts = np.bincount(mat[:, 0], minlength=N)
    _chi2, p = stats.chisquare(counts)
    assert p > 1e-4


def test_bootstrap_marginal_uniform():
    N, B = 8, 12000
    mat = bootstrap_matrix(N, B, SeedSpec(2025).rng())
    counts = np.bincount(mat[:, 3], minlength=N)
    _chi2, p = stats.chisquare(counts)
    assert p > 1e-4


def test_matrix_rows_are_permutations():
    mat = permutation_matrix(5, 50, SeedSpec(3).rng())
    for row in mat:
        assert sorted(row) == list(range(5))


@pytest.mark.parametrize("kind", list(ResampleKind))
@pytest.mark.parametrize("rows", [1, 7, 500])
def test_draw_blocks_match_draw_matrix(kind, rows):
    # verify's reports depend on this: blocks drawn one after the other
    # from one generator are the rows of the whole matrix.  B = 101 is
    # not a multiple of 7, 500 rows is one block larger than B, and odd
    # block sizes (7 * 13 indices) split the generator's 64-bit outputs
    N, B = 13, 101
    whole = draw_matrix(kind, N, B, SeedSpec(5).rng())
    blocks = list(draw_blocks(kind, N, B, SeedSpec(5).rng(), rows))
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= rows
    assert np.array_equal(np.concatenate(blocks), whole)


# -- per-group bin counts against their exact law ------------------------

# Indicator bins with empty ones: grid point 0.1 lies below all the data
# (bin 0 empty), 1.0 is repeated (the bin between its copies is empty)
# and 5.0 lies above all the data (the last bin is empty).
_GRID = np.array([1.0, 0.1, 5.0, 1.0, 3.0])
# Larger cases bin on two points: 3 bins, all occupied.
_COARSE_GRID = np.array([1.0, 2.5])
# Two-group permutations have 6 bins for N = 8 values, so they take
# numpy's "count" sampler: group 1 more than half of N (drawn as the
# complement of a partial shuffle), at most half, and a single value.
# With N = 48 = 16 x 3 bins, they take its "marginals" sampler.  Three
# groups take the chain of hypergeometric draws.
_LAW_CASES = [
    (ResampleKind.PERMUTATION, (0.3, 0.7, 0.7, 1.2, 2.0, 2.5, 3.1, 4.0), sizes)
    for sizes in ((5, 3), (3, 5), (1, 7), (3, 3, 2))
] + [
    (ResampleKind.PERMUTATION, (0.5,) * 20 + (1.5,) * 12 + (3.0,) * 16, (6, 42)),
] + [
    (ResampleKind.POOLED_BOOTSTRAP, (0.3, 0.7, 0.7, 2.0, 2.5, 4.0), sizes)
    for sizes in ((4, 2), (2, 2, 2))
]


def _law_id(case):
    kind, _values, sizes = case
    return f"{kind.value}-{'-'.join(map(str, sizes))}"


_LAW_IDS = [_law_id(case) for case in _LAW_CASES]
# the cases small enough to enumerate every draw
_EXHAUSTIVE_LAW_CASES = [case for case in _LAW_CASES if len(case[1]) <= 8]


def _pooled_bins(values):
    grid = _GRID if len(values) <= 8 else _COARSE_GRID
    counter = _indicator_counter(np.array(values), grid)
    return counter, binned(counter, np.arange(len(values))[None, :], (len(values),))[0, 0]


def _law(kind, pooled_bins, sizes, outcome):
    """Exact probability of the per-group bin counts ``outcome`` (a tuple
    of m tuples): sequential multivariate hypergeometric for permutation,
    independent multinomials for the pooled bootstrap."""
    N = int(sum(pooled_bins))
    prob = Fraction(1)
    left = [int(c) for c in pooled_bins]
    for n, x in zip(sizes, outcome):
        if kind is ResampleKind.PERMUTATION:
            if any(k > c for c, k in zip(left, x)):
                return Fraction(0)
            prob *= Fraction(
                math.prod(math.comb(c, k) for c, k in zip(left, x)), math.comb(sum(left), n)
            )
            left = [c - k for c, k in zip(left, x)]
        else:
            ways = math.factorial(n) // math.prod(math.factorial(k) for k in x)
            prob *= ways * math.prod(Fraction(int(c), N) ** k for c, k in zip(pooled_bins, x))
    return prob


def _outcomes(counts):
    """Per draw, its (m, nbins) counts as a tuple of m tuples."""
    return [tuple(map(tuple, draw)) for draw in np.transpose(counts, (1, 0, 2)).tolist()]


@pytest.mark.parametrize(
    "kind, values, sizes", _EXHAUSTIVE_LAW_CASES, ids=[_law_id(c) for c in _EXHAUSTIVE_LAW_CASES]
)
def test_index_draw_bin_counts_have_the_exact_law(kind, values, sizes):
    # every permutation, or every one of the N^N bootstrap assignments,
    # counted by bin: the frequency of each outcome is its exact pmf
    counter, pooled_bins = _pooled_bins(values)
    assert pooled_bins[0] == 0 and pooled_bins[2] == 0 and pooled_bins[-1] == 0
    N = len(values)
    if kind is ResampleKind.PERMUTATION:
        draws = all_permutations(N)
    else:
        draws = np.array(list(itertools.product(range(N), repeat=N)), dtype=np.intp)
    cum = np.cumsum([0, *sizes])
    counts = np.stack([binned(counter, draws[:, a:b], (b - a,))[0] for a, b in zip(cum, cum[1:])])
    tally = Counter(_outcomes(counts))
    total = sum(_law(kind, pooled_bins, sizes, x) for x in tally)
    assert total == 1
    for outcome, freq in tally.items():
        assert Fraction(freq, len(draws)) == _law(kind, pooled_bins, sizes, outcome)


# A correct sampler fails one case at a fresh seed with probability 1e-6;
# at the fixed seeds below the test is deterministic.
_CHI2_ALPHA = 1e-6
_CHI2_DRAWS = 20000


def _misfit(kind, pooled_bins, sizes, counts):
    """Chi-square statistic of drawn counts against their exact law, and
    its 1 - _CHI2_ALPHA quantile; outcomes with expected count below 5
    are pooled into one cell, and an impossible outcome is an infinite
    misfit."""
    tally = Counter(_outcomes(counts))
    if any(_law(kind, pooled_bins, sizes, x) == 0 for x in tally):
        return math.inf, 0.0
    # the support: every split of each group's size over the bins
    nbins = len(pooled_bins)
    splits = [
        [x for x in itertools.product(range(n + 1), repeat=nbins) if sum(x) == n]
        for n in sizes
    ]
    expected = {
        x: float(p) * _CHI2_DRAWS
        for x in itertools.product(*splits)
        if (p := _law(kind, pooled_bins, sizes, x)) > 0
    }
    big = [x for x, e in expected.items() if e >= 5]
    observed = [tally[x] for x in big]
    cells = [expected[x] for x in big]
    if len(big) < len(expected):
        observed.append(_CHI2_DRAWS - sum(observed))
        cells.append(sum(e for x, e in expected.items() if e < 5))
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, cells))
    return chi2, stats.chi2.isf(_CHI2_ALPHA, len(cells) - 1)


class _RngRecorder:
    """A generator that counts the names of the methods called on it and
    lists the ``method`` argument of each call that passes one."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()
        self.methods = []

    def __getattr__(self, name):
        self.calls[name] += 1
        fn = getattr(self.rng, name)

        def call(*args, **kwargs):
            if "method" in kwargs:
                self.methods.append(kwargs["method"])
            return fn(*args, **kwargs)

        return call


def _sampler(kind, sizes):
    if kind is ResampleKind.POOLED_BOOTSTRAP:
        return "multinomial"
    return "multivariate_hypergeometric" if len(sizes) == 2 else "hypergeometric"


@pytest.mark.parametrize("kind, values, sizes", _LAW_CASES, ids=_LAW_IDS)
def test_draw_counts_fit_the_exact_law(kind, values, sizes):
    _counter, pooled_bins = _pooled_bins(values)
    rng = _RngRecorder(SeedSpec(31).rng())
    counts = draw_counts(kind, pooled_bins, sizes, _CHI2_DRAWS, rng)
    assert set(rng.calls) == {_sampler(kind, sizes)}
    assert counts.shape == (len(sizes), _CHI2_DRAWS, len(pooled_bins))
    assert np.array_equal(counts.sum(axis=2), np.repeat(np.array(sizes)[:, None], _CHI2_DRAWS, 1))
    chi2, threshold = _misfit(kind, pooled_bins, sizes, counts)
    assert chi2 <= threshold


def _multinomial_for_permutation(kind, pooled_bins, sizes, B, rng):
    return draw_counts(ResampleKind.POOLED_BOOTSTRAP, pooled_bins, sizes, B, rng)


def _last_group_drawn_afresh(kind, pooled_bins, sizes, B, rng):
    out = draw_counts(kind, pooled_bins, sizes, B, rng)
    rest = sum(sizes) - sizes[-1]
    out[-1] = draw_counts(kind, pooled_bins, (sizes[-1], rest), B, rng)[0]
    return out


def _bins_shifted_by_one(kind, pooled_bins, sizes, B, rng):
    return np.roll(draw_counts(kind, pooled_bins, sizes, B, rng), 1, axis=2)


def _two_bins_swapped(kind, pooled_bins, sizes, B, rng):
    # bins 3 and 4 are both occupied, so every outcome stays possible and
    # only the chi-square statistic can tell
    swapped = pooled_bins[[0, 1, 2, 4, 3, 5]]
    return draw_counts(kind, swapped, sizes, B, rng)


_MUTANT_CASES = [
    (mutant, case, f"{mutant.__name__[1:]}-{case_id}")
    for case, case_id in zip(_LAW_CASES, _LAW_IDS)
    for mutant in (
        [_multinomial_for_permutation, _last_group_drawn_afresh, _bins_shifted_by_one]
        if case[0] is ResampleKind.PERMUTATION
        else [_bins_shifted_by_one, _two_bins_swapped]
    )
]


@pytest.mark.parametrize(
    "mutant, case", [c[:2] for c in _MUTANT_CASES], ids=[c[2] for c in _MUTANT_CASES]
)
def test_law_check_rejects_mutant_samplers(mutant, case):
    kind, values, sizes = case
    _counter, pooled_bins = _pooled_bins(values)
    counts = mutant(kind, pooled_bins, sizes, _CHI2_DRAWS, SeedSpec(31).rng())
    chi2, threshold = _misfit(kind, pooled_bins, sizes, counts)
    assert chi2 > threshold


@pytest.mark.parametrize("nbins, N, method", [
    (10, 400, "marginals"),
    (25, 400, "marginals"),
    (26, 400, "count"),
    (548, 600, "count"),
])
def test_two_group_permutation_sampler_follows_bins_per_value(nbins, N, method):
    # the C "count" sampler's cost grows with N, "marginals" with the
    # bins: the plain indicator's 10 bins at 200 + 200 take "marginals"
    rng = _RngRecorder(SeedSpec(3).rng())
    bins = np.bincount(np.arange(N) % nbins)
    out = draw_counts(ResampleKind.PERMUTATION, bins, (N // 2, N - N // 2), 7, rng)
    assert set(rng.calls) == {"multivariate_hypergeometric"}
    assert rng.methods == [method]
    assert np.array_equal(out.sum(axis=0), np.tile(bins, (7, 1)))
    assert np.array_equal(out.sum(axis=2), np.tile([[N // 2], [N - N // 2]], (1, 7)))


@pytest.mark.parametrize("kind", list(ResampleKind))
def test_draw_counts_deterministic_and_conserving(kind):
    bins = np.array([0, 4, 0, 7, 9, 0])
    a = draw_counts(kind, bins, (6, 5, 9), 50, SeedSpec(8).rng())
    assert np.array_equal(a, draw_counts(kind, bins, (6, 5, 9), 50, SeedSpec(8).rng()))
    assert np.all(a >= 0) and np.all(a[:, :, bins == 0] == 0)
    if kind is ResampleKind.PERMUTATION:
        assert np.array_equal(a.sum(axis=0), np.tile(bins, (50, 1)))
    with pytest.raises(ContractError):
        draw_counts(kind, bins, (6, 5), 50, SeedSpec(8).rng())
