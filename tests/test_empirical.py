import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from permboot.empirical import (
    LambdaVector,
    Mode,
    MultiSampleData,
    SurvivalColumns,
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
    assert data.pooled.tolist() == [1, 2, 3, 4, 5, 6]
    assert data.pooled[data.group_slice(2)].tolist() == [4, 5, 6]


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
    assert back == data


def test_csv_roundtrip_survival(tmp_path):
    data = MultiSampleData((((1.0, 1), (2.0, 0)), ((3.0, 1),)))
    p = tmp_path / "surv.csv"
    write_csv(p, data)
    back = read_csv(p, Mode.SURVIVAL)
    assert back == data


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
    assert [g.tolist() for g in data.groups] == [[1.0, 3.0], [2.0]]


# -- columns against the tuple/Counter references ----------------------

# integer-valued times with ties, and events at time 0 written as 0 and
# as -0
_TIMES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.0, 3.0, 0.5, 7.0])


def _bits(fn):
    """A step function's base, breakpoints and jumps, each number as the
    hex of its float (so 0 and -0 differ), and its text form."""
    def hexes(xs):
        return [float(x).hex() for x in xs]

    return (hexes([fn.base]), hexes(fn.breakpoints), hexes(fn.jumps), fn.to_text())


@given(st.lists(_TIMES, min_size=1, max_size=12))
def test_ecdf_matches_counter_reference(values):
    expected = _bits(oracles.ecdf(tuple(values)))
    assert _bits(ecdf(np.array(values))) == expected
    assert _bits(ecdf(values)) == expected


@given(
    st.lists(st.tuples(_TIMES, st.integers(0, 1)), min_size=1, max_size=12),
    st.sampled_from(["mixed", "all-censored", "all-events"]),
)
def test_survival_builders_match_counter_references(pairs, statuses):
    if statuses != "mixed":
        pairs = [(z, int(statuses == "all-events")) for z, _d in pairs]
    columns = SurvivalColumns(np.array([z for z, _d in pairs]),
                              np.array([d for _z, d in pairs], dtype=np.int8))
    for build in ("at_risk_process", "uncensored_subdist"):
        expected = _bits(getattr(oracles, build)(pairs))
        assert _bits(globals()[build](columns)) == expected
        assert _bits(globals()[build](pairs)) == expected


@given(st.lists(st.lists(st.tuples(_TIMES, st.integers(0, 1)), min_size=1, max_size=5),
                min_size=2, max_size=3))
def test_group_builders_match_counter_references(groups):
    # one-observation groups included; each group's curves from its
    # column views against the curves of its tuples
    data = MultiSampleData(tuple(tuple(g) for g in groups))
    for g, pairs in zip(data.groups, groups):
        assert oracles.observations(g) == tuple(pairs)
        assert _bits(at_risk_process(g)) == _bits(oracles.at_risk_process(pairs))
        assert _bits(uncensored_subdist(g)) == _bits(oracles.uncensored_subdist(pairs))
    times = [z for g in groups for z, _d in g]
    assert _bits(ecdf(data.pooled.times)) == _bits(oracles.ecdf(tuple(times)))


# -- validation messages against the per-observation reference ---------

_BAD_PLAIN = [1.0, -2.0, 3, float("nan"), math.inf, -math.inf]
_BAD_SURVIVAL = [(1.0, 1), (0.0, 0), (2, 1), (-1, 1), (-0.5, 0), (float("nan"), 1), (math.inf, 0),
                 (-math.inf, 1), (1.0, 2), (1.0, 0.5), (1.0, -1), (1.0, True), (1.0, 1.0),
                 (1.0, float("nan"))]


@pytest.mark.parametrize("groups, message", [
    (((1, 2),), "need at least two groups"),
    (((1,), ()), "every group must be nonempty"),
    (((1,), ((2, 1),)), "groups mix plain and censored observations"),
    ((((2, 1),), (1,)), "groups mix plain and censored observations"),
    ((((-1, 1),), ((2, 1),)), "negative observation time -1"),
    ((((-math.inf, 1),), ((2, 1),)), "negative observation time -inf"),
    ((((math.nan, 1),), ((2, 1),)), "non-finite observation time nan"),
    ((((1, 1), (math.inf, 0)), ((2, 1),)), "non-finite observation time inf"),
    ((((1, 2),), ((2, 1),)), "censoring status must be 0/1, got 2"),
    ((((1, 0.5),), ((2, 1),)), "censoring status must be 0/1, got 0.5"),
    (((1.0, math.nan), (2.0,)), "non-finite observation nan"),
    (((1.0,), (2.0, -math.inf)), "non-finite observation -inf"),
    # the first bad observation in group order, whatever its check
    ((((1, 2), (-1, 1)), ((math.nan, 1),)), "censoring status must be 0/1, got 2"),
    (((1.0, math.inf), (2.0, (1, 1))), "non-finite observation inf"),
    (((1.0, (1, 1), math.inf), (2.0,)), "groups mix plain and censored observations"),
])
def test_validation_messages(groups, message):
    assert oracles.validation_message(groups) == message
    with pytest.raises(ContractError) as exc:
        MultiSampleData(groups)
    assert str(exc.value) == message


@given(st.booleans(), st.lists(st.lists(st.integers(0, 13), max_size=4), min_size=1, max_size=3),
       st.lists(st.integers(0, 13), max_size=2))
def test_validation_names_the_first_bad_observation(survival, picks, strays):
    # groups of valid and invalid observations of one kind, with a few
    # of the other kind spliced in
    own, other = (_BAD_SURVIVAL, _BAD_PLAIN) if survival else (_BAD_PLAIN, _BAD_SURVIVAL)
    groups = [[own[k % len(own)] for k in g] for g in picks]
    for k in strays:
        g = groups[k % len(groups)]
        g.insert(k % (len(g) + 1), other[k % len(other)])
    if groups[0]:
        # the first observation fixes the kind
        groups[0][0] = own[0]
    expected = oracles.validation_message(groups)
    if expected is None:
        data = MultiSampleData(groups)
        assert data.sizes == tuple(len(g) for g in groups)
        assert data.mode is (Mode.SURVIVAL if survival else Mode.PLAIN)
    else:
        with pytest.raises(ContractError) as exc:
            MultiSampleData(groups)
        assert str(exc.value) == expected
