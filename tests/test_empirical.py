import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from permboot.empirical import (
    LambdaVector,
    Mode,
    MultiSampleData,
    at_risk_process,
    ecdf,
    group_ecdfs,
    pooled_ecdf,
    read_csv,
    uncensored_subdist,
    write_csv,
)
from permboot.errors import ContractError, DataError
from permboot.stepfn import affine_combine


def test_ecdf_basic():
    f = ecdf([1, 2, 3])
    assert f(2) == pytest.approx(2 / 3)
    assert f(0.5) == 0
    assert f(10) == 1


def test_ecdf_ties_accumulate():
    f = ecdf([5, 5])
    assert f.breakpoints == (5,)
    assert f.jumps == (1.0,)


def test_ecdf_single_point():
    f = ecdf([-1])
    assert f(-1.5) == 0 and f(-1) == 1


def test_ecdf_empty_rejected():
    with pytest.raises(ContractError):
        ecdf([])


def test_pooled_ecdf_merge():
    data = MultiSampleData(((1,), (3,)))
    h = pooled_ecdf(data)
    assert h(1) == 0.5 and h(3) == 1.0


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=8),
    st.lists(st.integers(0, 9), min_size=1, max_size=8),
)
def test_pooled_ecdf_two_constructions_agree(g1, g2):
    data = MultiSampleData((tuple(g1), tuple(g2)))
    mixture = affine_combine(LambdaVector.from_sizes(data.sizes).values, group_ecdfs(data))
    direct = pooled_ecdf(data)
    for t in set(g1) | set(g2) | {-1, 100}:
        assert mixture(t) == pytest.approx(direct(t), abs=1e-12)


def test_at_risk_counts():
    s = [(1, 1), (2, 0), (3, 1)]
    hbar = at_risk_process(s)
    assert hbar(0) == 1
    assert hbar(2) == pytest.approx(2 / 3)  # counts {2, 3}
    assert hbar(3.5) == pytest.approx(0, abs=1e-15)


def test_at_risk_is_left_continuous_at_events():
    hbar = at_risk_process([(1, 1), (1, 1)])
    assert hbar(1) == 1  # both still at risk exactly at their event time


def test_at_risk_observation_at_zero():
    hbar = at_risk_process([(0, 1), (2, 1)])
    assert hbar(0) == 1
    assert hbar(1) == 0.5


def test_uncensored_subdist():
    s = [(1, 1), (2, 0), (3, 1)]
    huc = uncensored_subdist(s)
    assert huc(2) == pytest.approx(1 / 3)
    assert huc(3) == pytest.approx(2 / 3)


def test_uncensored_all_censored_is_zero():
    huc = uncensored_subdist([(1, 0), (2, 0)])
    assert huc(5) == 0


def test_uncensored_death_at_zero_in_base():
    huc = uncensored_subdist([(0, 1), (1, 1)])
    assert huc(0) == 0.5
    assert huc.base == 0.5


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=1, max_size=10
    )
)
def test_complementary_counting(sample):
    # at_risk(t) + ECDF(z)(t-) = 1 at every t
    hbar = at_risk_process(sample)
    f = ecdf([z for z, _ in sample])
    for t in range(8):
        left = f.left_limit(t) if t > 0 else 0
        assert hbar(t) + left == pytest.approx(1, abs=1e-12)


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=1, max_size=10
    )
)
def test_uncensored_below_ecdf(sample):
    huc = uncensored_subdist(sample)
    f = ecdf([z for z, _ in sample])
    for t in range(8):
        assert huc(t) <= f(t) + 1e-12


def test_multisample_validation():
    with pytest.raises(ContractError):
        MultiSampleData(((1, 2),))  # one group
    with pytest.raises(ContractError):
        MultiSampleData(((1,), ()))  # empty group
    with pytest.raises(ContractError):
        MultiSampleData(((1,), ((2, 1),)))  # mixed modes
    with pytest.raises(ContractError):
        MultiSampleData((((-1, 1),), ((2, 1),)))  # negative time
    with pytest.raises(ContractError):
        MultiSampleData((((1, 2),), ((2, 1),)))  # bad status
    nan = float("nan")
    for bad in (nan, math.inf, -math.inf):
        with pytest.raises(ContractError):
            MultiSampleData(((bad, 1.0), (2.0,)))  # non-finite value
    for bad in (nan, math.inf):
        with pytest.raises(ContractError):
            MultiSampleData((((bad, 1), (1.0, 1)), ((2.0, 0),)))  # non-finite time


def test_pooled_order_and_slices():
    data = MultiSampleData(((1, 2), (3,), (4, 5, 6)))
    assert data.pooled == (1, 2, 3, 4, 5, 6)
    assert data.pooled[data.group_slice(2)] == (4, 5, 6)


def test_lambda_vector():
    lam = LambdaVector.from_sizes((1, 3))
    assert lam[0] == 0.25 and len(lam) == 2
    with pytest.raises(ContractError):
        LambdaVector((0.5, 0.6))
    with pytest.raises(ContractError):
        LambdaVector((1.0, 0.0))


def test_csv_roundtrip_plain(tmp_path):
    data = MultiSampleData(((1.5, 2.25), (3.0,)))
    p = tmp_path / "plain.csv"
    write_csv(p, data)
    back = read_csv(p, Mode.PLAIN)
    assert back.groups == data.groups


def test_csv_roundtrip_survival(tmp_path):
    data = MultiSampleData((((1.0, 1), (2.0, 0)), ((3.0, 1),)))
    p = tmp_path / "surv.csv"
    write_csv(p, data)
    back = read_csv(p, Mode.SURVIVAL)
    assert back.groups == data.groups


def test_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("group,value\n1,notanumber\n2,3\n")
    with pytest.raises(DataError, match="bad.csv:2"):
        read_csv(p, Mode.PLAIN)
    p.write_text("group,wrong\n")
    with pytest.raises(DataError, match="missing columns"):
        read_csv(p, Mode.PLAIN)
    p.write_text("group,value\n1,2.0\n")
    with pytest.raises(DataError, match="two groups"):
        read_csv(p, Mode.PLAIN)
    with pytest.raises(DataError):
        read_csv(tmp_path / "nope.csv", Mode.PLAIN)


def test_csv_errors_name_the_file_line(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("group,value\n\n1,2.0\n\n\n2,notanumber\n")
    with pytest.raises(DataError, match="blank.csv:6: bad row"):
        read_csv(p, Mode.PLAIN)
    p.write_text("group,value\r\n\r\n1,2.0\r\n2,inf\r\n")
    with pytest.raises(DataError, match=r"blank.csv:4: bad row \(non-finite value 'inf'\)"):
        read_csv(p, Mode.PLAIN)


def test_csv_group_labels_first_appearance(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("group,value\nB,1\nA,2\nB,3\n")
    data = read_csv(p, Mode.PLAIN)
    assert data.groups == ((1.0, 3.0), (2.0,))
