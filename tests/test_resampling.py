import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from permboot.empirical import MultiSampleData, pooled_ecdf
from permboot.errors import ContractError
from permboot.resampling import (
    ResampleDraw,
    ResampleKind,
    SeedSpec,
    all_permutations,
    bootstrap_matrix,
    centered_process,
    draw_blocks,
    draw_matrix,
    permutation_matrix,
    resampled_group_fns,
)
from permboot.stepfn import affine_combine


def _plain(groups):
    return MultiSampleData(tuple(tuple(g) for g in groups)).pooled()


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
    data = MultiSampleData((((1.0, 1), (2.0, 0)), ((3.0, 1),))).pooled()
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
        mix = affine_combine(data.fractions(), fns)
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
    weighted = np.array(data.fractions()) @ X
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
