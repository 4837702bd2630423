"""The CLI's bulk data path against the per-row and per-point code it
replaced.

``read_csv`` parses in one ``csv.reader`` pass into columns,
``write_csv`` and the curves file of ``analyze`` format a group at a
time, and ``analyze`` evaluates its curves with ``StepFn.evaluate``.
The oracles below are the ``csv.DictReader`` reader, the ``csv.writer``
writer and the per-point ``analyze`` loop they replaced, on tuples of
observations and the tuple/Counter curve builders of ``oracles``.  The
reader oracle also carries the input rules added with the bulk reader (short rows,
non-finite numbers, physical line numbers), each marked where it is
applied, so that its errors can be compared message for message.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from permboot import empirical
from permboot.cli import EXIT_OK, main
from permboot.empirical import Mode, read_csv
from permboot.errors import ContractError, DataError
from permboot.functionals import HazardBundle, kaplan_meier, nelson_aalen, rmst
from permboot.jsonio import canonical_json
import oracles
from oracles import at_risk_process, ecdf, observations, uncensored_subdist


# -- oracles -------------------------------------------------------------

def _oracle_read_csv(path, mode):
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
        width = max(reader.fieldnames.index(c) for c in want) + 1
        for row in reader:
            i = reader.line_num  # rule: the file line, not the data-row count
            if any(row[c] is None for c in want):  # rule: a short row is a DataError
                got = sum(v is not None for k, v in row.items() if k is not None)
                raise DataError(
                    f"{path}:{i}: bad row (expected at least {width} fields, got {got})"
                )
            label = row["group"]
            if label not in groups:
                groups[label] = []
                order.append(label)
            try:
                if mode is Mode.PLAIN:
                    obs = float(row["value"])
                    if not math.isfinite(obs):  # rule: finite numbers only
                        raise ValueError(f"non-finite value {row['value']!r}")
                else:
                    status = int(row["status"])
                    if status not in (0, 1):
                        raise ValueError(f"status {status}")
                    obs = (float(row["time"]), status)
                    if not math.isfinite(obs[0]):  # rule: finite numbers only
                        raise ValueError(f"non-finite time {row['time']!r}")
            except ValueError as exc:
                raise DataError(f"{path}:{i}: bad row ({exc})") from exc
            groups[label].append(obs)
    if len(order) < 2:
        raise DataError(f"{path}: need at least two groups, found {len(order)}")
    try:
        return oracles.multisample([groups[g] for g in order])
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _oracle_write_csv(data):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if data.mode is Mode.PLAIN:
        writer.writerow(["group", "value"])
        for j, g in enumerate(data.groups, start=1):
            for x in observations(g):
                writer.writerow([j, format(x, ".17g")])
    else:
        writer.writerow(["group", "time", "status"])
        for j, g in enumerate(data.groups, start=1):
            for z, d in observations(g):
                writer.writerow([j, format(z, ".17g"), d])
    return buf.getvalue()


def _oracle_analyze(data, tau=None):
    """(curves text, summary text) from one scalar call per point."""
    all_times = [z for z, _d in observations(data.pooled)]
    tau = tau if tau is not None else max(all_times)
    rows = []
    summary_groups = []
    for j, g in enumerate(map(observations, data.groups), start=1):
        bundle = HazardBundle(at_risk_process(g), uncensored_subdist(g), tau)
        lam = nelson_aalen(bundle)
        surv = kaplan_meier(bundle)
        times = sorted({z for z, _d in g if z <= tau})
        for t in times:
            rows.append((j, t, lam(t), surv(t)))
        summary_groups.append(
            {
                "group": j,
                "n": len(g),
                "events": sum(d for _z, d in g),
                "na_at_tau": lam(min(tau, lam.hi)),
                "km_at_tau": surv(min(tau, surv.hi)),
                "rmst": rmst(surv, tau),
            }
        )
    lines = ["group,time,na,km"]
    for j, t, na_v, km_v in rows:
        lines.append(
            f"{j},{format(t, '.17g')},{format(na_v, '.17g')},{format(km_v, '.17g')}"
        )
    summary = {"tau": float(tau), "groups": summary_groups}
    return "\n".join(lines) + "\n", canonical_json(summary) + "\n"


def _oracle_dump(data, fn, group):
    obs = observations(data.pooled if group == 0 else data.groups[group - 1])
    if fn == "ecdf":
        return ecdf(obs).to_text()
    if fn == "at-risk":
        return at_risk_process(obs).to_text()
    if fn == "uncensored":
        return uncensored_subdist(obs).to_text()
    bundle = HazardBundle(at_risk_process(obs), uncensored_subdist(obs), max(z for z, _d in obs))
    return (nelson_aalen(bundle) if fn == "na" else kaplan_meier(bundle)).to_text()


# -- generated CSV texts -------------------------------------------------

_VALUES = ["0", "0.0", "1", "1.0", "1.5", "2", "2.50", "1e-3", " 3.25", "7"]
_BAD_VALUES = ["", "x", "nan", "inf", "-inf", "NaN", "-1", "1,5", "1e999"]
_STATUS = ["0", "1", "1", " 1"]
_BAD_STATUS = ["2", "-1", "1.0", "", "yes"]
_LABELS = ["1", "2", "3", "A", "b c", "x,y", 'q"t', ""]
_EXTRAS = ["note", "id", "w,z", "comment"]


def _field(text, quote):
    if quote or any(ch in text for ch in ',"'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _csv_texts(draw):
    mode = draw(st.sampled_from([Mode.PLAIN, Mode.SURVIVAL]))
    want = ["group", "value"] if mode is Mode.PLAIN else ["group", "time", "status"]
    extras = draw(st.lists(st.sampled_from(_EXTRAS), unique=True, max_size=2))
    header = draw(st.permutations(want + extras))
    labels = draw(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=4, unique=True))
    lines = [",".join(_field(c, draw(st.booleans())) for c in header)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)) == 0:
            lines.append("")
        # 0: short row, 1: bad number, 2: bad status, otherwise a valid row
        kind = draw(st.integers(0, 29))
        cells = {
            "group": draw(st.sampled_from(labels)),
            "value": draw(st.sampled_from(_BAD_VALUES if kind == 1 else _VALUES)),
            "status": draw(st.sampled_from(_BAD_STATUS if kind == 2 else _STATUS)),
        }
        cells["time"] = cells["value"]
        row = [cells[c] if c in cells else draw(st.text("ab ", max_size=3)) for c in header]
        if kind == 0:
            row = row[: draw(st.integers(1, len(header) - 1))]
        row += draw(st.lists(st.sampled_from(["", "z"]), max_size=1))
        lines.append(",".join(_field(c, draw(st.booleans())) for c in row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return mode, text


# fixed cases, each read in both modes
_CORPUS = [
    # quoted group labels that contain commas
    'group,time,status,value\n"a,b",1.5,1,1.5\n"c,d",2,0,2\n"a,b",0,1,0\n',
    # a quoted field spanning two lines before a bad row: the error names
    # the physical line
    'group,time,status,value,note\n1,1,1,1,"two\nlines"\n2,x,1,x,ok\n',
    'group,time,status,value,note\r\n1,1,1,1,"two\r\nlines"\r\n2,1,1,1,ok\r\n1,2\r\n',
    # reordered, extra and repeated columns (a repeated name reads its last copy)
    'status,extra,value,time,group,time,value\n1,z,x,x,A,2.5,3\n0,,x,x,B,1,-4\n',
    # blank lines
    'group,time,status,value\n\n1,1,1,1\n\n\n2,2,0,2\n\n',
    # a status written as " 1"
    'group,time,status,value\n1,1, 1,1\n2,2, 1,2\n',
]


def _corpus_examples(test):
    for text in _CORPUS:
        for mode in Mode:
            test = example((mode, text)).via("corpus")(test)
    return test


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts())
@_corpus_examples
def test_read_csv_matches_dictreader_oracle(tmp_path, case):
    mode, text = case
    path = tmp_path / "gen.csv"
    path.write_bytes(text.encode())
    try:
        expected = _oracle_read_csv(path, mode)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_csv(path, mode)
        assert str(got.value) == str(exc)
    else:
        assert read_csv(path, mode) == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts())
@_corpus_examples
def test_read_csv_matches_row_loop_reader(tmp_path, case):
    # the column reader against the reader it replaced, which checked,
    # parsed and stored one row at a time: the same columns bit for bit,
    # or the same error message
    mode, text = case
    path = tmp_path / "gen.csv"
    path.write_bytes(text.encode())
    try:
        expected = oracles.read_csv(path, mode is Mode.SURVIVAL)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_csv(path, mode)
        assert str(got.value) == str(exc)
    else:
        got = read_csv(path, mode)
        assert got == expected
        assert got.values.tobytes() == expected.values.tobytes()


def _rows_past_a_chunk(bad):
    """A survival CSV of two chunks of rows and a few more, with a blank
    line and a two-line quoted field early on and the rows ``bad`` maps
    from data-row index to text."""
    n = 2 * empirical._CHUNK_ROWS + 5
    rows = [bad.get(i, f"{1 + i % 2},{i % 7}.5,{i % 2},x") for i in range(n)]
    rows[3] += ',"two\nlines"'
    return "group,time,status,note\n\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("bad", [
    {},
    {empirical._CHUNK_ROWS + 3: "2,oops,1,x"},
    # the last row of a chunk is bad and the next row, in the next
    # chunk, is short: the bad row comes first
    {empirical._CHUNK_ROWS - 1: "1,1,2,x", empirical._CHUNK_ROWS: "1,1"},
    {empirical._CHUNK_ROWS: "1,1", 2 * empirical._CHUNK_ROWS + 1: "1,inf,1,x"},
    {2 * empirical._CHUNK_ROWS + 4: "1,-1,1,x"},
], ids=["valid", "bad-number", "bad-then-short", "short-then-bad", "negative-time"])
def test_read_csv_past_the_first_chunk_matches_row_loop_reader(tmp_path, bad):
    path = tmp_path / "long.csv"
    path.write_text(_rows_past_a_chunk(bad))
    try:
        expected = oracles.read_csv(path, True)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read_csv(path, Mode.SURVIVAL)
        assert str(got.value) == str(exc)
    else:
        assert read_csv(path, Mode.SURVIVAL) == expected


# -- CLI outputs on simulated datasets -----------------------------------

_EXP = {"kind": "exponential"}


def _simulate(tmp_path, mode, seed, sizes):
    cfg = {
        "mode": mode,
        "group_laws": [dict(_EXP, rate=1.0 + 0.5 * k) for k in range(len(sizes))],
        "sizes": sizes,
        "seed": {"master_seed": seed},
    }
    if mode == "survival":
        cfg["censoring_laws"] = [dict(_EXP, rate=0.7)] * len(sizes)
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--output", str(out)]) == EXIT_OK
    return out


def _check_dumps(path, data, fns):
    out = path.with_name("fn.txt")
    for fn in fns:
        for group in range(data.m + 1):
            assert main(["dump-fn", "--input", str(path), "--fn", fn, "--group", str(group),
                         "--output", str(out)]) == EXIT_OK
            assert out.read_text() == _oracle_dump(data, fn, group)


def _check_analyze(path, data, taus):
    curves, summary = path.with_name("curves.csv"), path.with_name("summary.json")
    for tau in taus:
        extra = [] if tau is None else ["--tau", repr(tau)]
        assert main(["analyze", "--input", str(path), *extra, "--output-curves", str(curves),
                     "--output-summary", str(summary)]) == EXIT_OK
        assert (curves.read_text(), summary.read_text()) == _oracle_analyze(data, tau)


@pytest.mark.parametrize("seed,sizes", [(1, [30, 25]), (2, [40, 1, 17]), (3, [200, 150])])
def test_simulate_and_dump_fn_match_oracles(tmp_path, seed, sizes):
    for mode in ("plain", "survival"):
        path = _simulate(tmp_path, mode, seed, sizes)
        data = _oracle_read_csv(path, Mode(mode))
        assert path.read_text() == _oracle_write_csv(data)
        _check_dumps(path, data, ["ecdf"] if mode == "plain"
                     else ["at-risk", "uncensored", "na", "km"])


@pytest.mark.parametrize("seed,sizes", [(4, [30, 25]), (5, [40, 2, 17]), (6, [300, 250])])
def test_analyze_matches_pointwise_oracle(tmp_path, seed, sizes):
    path = _simulate(tmp_path, "survival", seed, sizes)
    data = _oracle_read_csv(path, Mode.SURVIVAL)
    times = sorted({z for z, _d in observations(data.pooled)})
    events = sorted({z for z, d in observations(data.pooled) if d == 1})
    mid = len(times) // 2
    # default tau (the largest time), tau between two times, tau at an event
    _check_analyze(path, data, [None, (times[mid - 1] + times[mid]) / 2, events[len(events) // 2]])


def test_ties_and_events_at_zero_match_oracles(tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text(
        "group,time,status\n"
        "1,0,1\n1,0,0\n1,1,1\n1,1,1\n1,1,0\n1,2.5,1\n"
        "2,0,1\n2,1,0\n2,1,1\n2,3,1\n2,3,1\n"
        "3,2.5,0\n3,0,0\n3,2.5,1\n"
    )
    data = _oracle_read_csv(path, Mode.SURVIVAL)
    _check_analyze(path, data, [None, 1.0, 1.75, 2.5])
    _check_dumps(path, data, ["at-risk", "uncensored", "na", "km"])
