import argparse
import csv
import errno
import json
import os
import stat
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permboot.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, _threads_from, main
from permboot.limits import KernelKind
from permboot.stepfn import StepFn


def run(args):
    return main([str(a) for a in args])


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["counterexample", "--bogus"])
    assert exc.value.code == 2


def test_counterexample_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(["counterexample", "--n", "1,4,25", "--output", out]) == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert [r["n"] for r in rows] == ["1", "4", "25"]
    assert all(r["ratio"] == "-0.5" for r in rows)
    assert all(r["derivative"] == "-1" for r in rows)
    assert all(r["increment_probe_K1"] == "1" for r in rows)


def test_counterexample_stdout_default(capsys):
    assert run(["counterexample", "--n", "4"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "-0.5" in captured.out


def test_counterexample_bad_n():
    assert run(["counterexample", "--n", "zero"]) == EXIT_DATA
    assert run(["counterexample", "--n", "0"]) == EXIT_DATA


def _write_survival_csv(path):
    path.write_text(
        "group,time,status\n"
        "1,1,1\n1,2,0\n1,3,1\n"
        "2,1.5,1\n2,2.5,1\n"
    )


def test_analyze_km_values(tmp_path):
    inp = tmp_path / "toy.csv"
    _write_survival_csv(inp)
    curves = tmp_path / "curves.csv"
    summary = tmp_path / "summary.json"
    code = run(
        ["analyze", "--input", inp, "--tau", "30",
         "--output-curves", curves, "--output-summary", summary]
    )
    assert code == EXIT_OK
    rows = [r for r in csv.DictReader(curves.open()) if r["group"] == "1"]
    km = {float(r["time"]): float(r["km"]) for r in rows}
    assert km[1.0] == pytest.approx(2 / 3, abs=1e-15)
    assert km[2.0] == pytest.approx(2 / 3, abs=1e-15)
    assert km[3.0] == pytest.approx(0, abs=1e-15)
    doc = json.loads(summary.read_text())
    assert doc["groups"][0]["events"] == 2


def test_analyze_missing_file(tmp_path):
    assert run(["analyze", "--input", tmp_path / "none.csv"]) == EXIT_DATA


@pytest.mark.parametrize("argv", [["analyze"], ["dump-fn", "--fn", "km", "--group", "1"]])
def test_short_row_is_data_error_naming_the_line(tmp_path, capsys, argv):
    inp = tmp_path / "short.csv"
    inp.write_text("group,time,status\n1,0.5,1\n1,0.7\n2,1.0,1\n")
    curves = tmp_path / "curves.csv"
    code = run([*argv, "--input", inp, *(["--output-curves", curves] if argv == ["analyze"] else [])])
    assert code == EXIT_DATA
    assert "short.csv:3: bad row (expected at least 3 fields, got 2)" in capsys.readouterr().err
    assert not curves.exists()


def test_non_utf8_csv_is_data_error_naming_the_file(tmp_path, capsys):
    inp = tmp_path / "latin1.csv"
    inp.write_bytes(b"group,time,status\n1,0.5,1\ncaf\xe9,1.0,0\n")
    curves = tmp_path / "curves.csv"
    assert run(["analyze", "--input", inp, "--output-curves", curves]) == EXIT_DATA
    assert "latin1.csv: not UTF-8 text" in capsys.readouterr().err
    assert not curves.exists()


def test_non_utf8_byte_late_in_csv_is_data_error(tmp_path, capsys):
    # the file is decoded as it is parsed, so the bad byte comes after
    # rows have been read: 96 KB of them here
    inp = tmp_path / "late.csv"
    inp.write_bytes(b"group,time,status\n" + b"1,0.5,1\n2,1.0,0\n" * 6000 + b"caf\xe9,1.0,0\n")
    curves = tmp_path / "curves.csv"
    assert run(["analyze", "--input", inp, "--output-curves", curves]) == EXIT_DATA
    assert "late.csv: not UTF-8 text" in capsys.readouterr().err
    assert not curves.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_time_is_data_error_naming_the_line(tmp_path, capsys, bad):
    inp = tmp_path / "inf.csv"
    inp.write_text(f"group,time,status\n1,0.5,1\n2,1.0,0\n2,{bad},1\n")
    curves, summary = tmp_path / "curves.csv", tmp_path / "summary.json"
    assert run(["analyze", "--input", inp, "--output-curves", curves,
                "--output-summary", summary]) == EXIT_DATA
    assert f"inf.csv:4: bad row (non-finite time '{bad}')" in capsys.readouterr().err
    assert not curves.exists() and not summary.exists()
    assert run(["dump-fn", "--input", inp, "--fn", "at-risk"]) == EXIT_DATA


@pytest.mark.parametrize("tau, named", [
    ("inf", "tau=inf outside domain"), ("nan", "tau must be positive, got nan"),
])
def test_analyze_non_finite_tau_is_usage_error(tmp_path, capsys, tau, named):
    # an infinite tau would make the RMST infinite, which the summary cannot hold
    inp = tmp_path / "toy.csv"
    _write_survival_csv(inp)
    curves, summary = tmp_path / "curves.csv", tmp_path / "summary.json"
    assert run(["analyze", "--input", inp, "--tau", tau, "--output-curves", curves,
                "--output-summary", summary]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not curves.exists() and not summary.exists()


def test_simulate_then_analyze(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "survival",
        "group_laws": [{"kind": "exponential", "rate": 1.0}] * 2,
        "censoring_laws": [{"kind": "exponential", "rate": 0.5}] * 2,
        "sizes": [20, 20],
        "seed": {"master_seed": 5},
    }))
    data = tmp_path / "d.csv"
    assert run(["simulate", "--config", cfg, "--output", data]) == EXIT_OK
    assert run(["simulate", "--config", cfg, "--output", tmp_path / "d2.csv"]) == EXIT_OK
    assert data.read_text() == (tmp_path / "d2.csv").read_text()  # seeded
    code = run(["analyze", "--input", data,
                "--output-curves", tmp_path / "c.csv",
                "--output-summary", tmp_path / "s.json"])
    assert code == EXIT_OK


@pytest.mark.parametrize("subcommand, doc", [
    ("simulate", {"mode": "plain", "sizes": [5, 5],
                  "group_laws": [{"kind": "exponential", "rate": 1.0}, {"kind": "none"}]}),
    ("verify", {"scenario": "plain-indicator", "sizes": [5, 5], "draws": 100,
                "group_laws": [{"kind": "exponential", "rate": 1.0}, {"kind": "none"}],
                "outer_reps": 1, "resample_kind": "permutation", "seed": {"master_seed": 1}}),
])
def test_infinite_plain_values_rejected(tmp_path, capsys, subcommand, doc):
    # a "none" law draws every value at infinity: plain data must be finite
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run([subcommand, "--config", cfg, "--output", tmp_path / "out"]) == EXIT_USAGE
    assert "non-finite observation inf" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


class _DiskFullFile:
    """File wrapper whose write stores half the text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_simulate_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "plain",
        "group_laws": [{"kind": "exponential", "rate": 1.0}] * 2,
        "sizes": [50, 50],
    }))
    data = tmp_path / "d.csv"
    data.write_text("previous contents\n")
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **k: _DiskFullFile(real_fdopen(*a, **k)))
    assert run(["simulate", "--config", cfg, "--output", data, "--seed", "1"]) == EXIT_DATA
    assert data.read_text() == "previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "sim.json"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes and umask")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_the_umask_leaves(tmp_path, umask, mode):
    # as open() would create it: 0o666 less the umask
    out = tmp_path / "table.csv"
    previous = os.umask(umask)
    try:
        assert run(["counterexample", "--n", "4", "--output", out]) == EXIT_OK
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_kernel_subcommand(tmp_path):
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({
        "kind": "perm-indicator",
        "lambdas": [0.5, 0.5],
        "grid": [0.5, 1.0],
        "population": {"plain": {"kind": "exponential", "rate": 1.0}},
    }))
    mat = tmp_path / "m.csv"
    meta = tmp_path / "m.json"
    assert run(["kernel", "--config", cfg, "--output-matrix", mat,
                "--output-meta", meta]) == EXIT_OK
    lines = mat.read_text().strip().splitlines()
    assert len(lines) == 4 and len(lines[0].split(",")) == 4
    doc = json.loads(meta.read_text())
    assert doc["kind"] == "perm-indicator" and doc["dim"] == 4


def _verify_config(tmp_path, **over):
    d = {
        "scenario": "plain-indicator",
        "group_laws": [
            {"kind": "exponential", "rate": 1.0},
            {"kind": "exponential", "rate": 1.5},
        ],
        "sizes": [30, 30],
        "draws": 200,
        "outer_reps": 4,
        "resample_kind": "permutation",
        "seed": {"master_seed": 77},
    }
    d.update(over)
    p = tmp_path / "verify.json"
    p.write_text(json.dumps(d))
    return p


def test_verify_roundtrip_and_determinism(tmp_path):
    cfg = _verify_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["verify", "--config", cfg, "--output", out1]) == EXIT_OK
    assert run(["verify", "--config", cfg, "--output", out2, "--threads", 3]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["passed"] is True
    assert doc["config"]["draws"] == doc["aggregates"]["draws"] == 200
    assert "runtime_seconds" not in doc


def test_verify_failure_exit_code(tmp_path):
    # exhaustive N=4 against the asymptotic kernel: the finite-N gap is
    # deterministic and far above a tiny abs_tol with R=1 (SE = 0)
    cfg = _verify_config(
        tmp_path, sizes=[2, 2], draws=24, outer_reps=1, exhaustive=True,
        tolerance={"abs_tol": 1e-6, "se_multiplier": 2.0},
    )
    out = tmp_path / "r.json"
    assert run(["verify", "--config", cfg, "--output", out]) == EXIT_VERIFY_FAILED
    assert json.loads(out.read_text())["passed"] is False


def test_verify_flag_overrides(tmp_path):
    cfg = _verify_config(tmp_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--config", cfg, "--output", out_a, "--seed", 1234])
    run(["verify", "--config", cfg, "--output", out_b, "--seed", 4321])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_verify_exhaustive_config_field(tmp_path):
    # the exact finite-N covariance misses the asymptotic kernel: exit 4
    cfg = _verify_config(tmp_path, sizes=[2, 2], draws=24, outer_reps=1, exhaustive=True)
    out = tmp_path / "r.json"
    assert run(["verify", "--config", cfg, "--output", out]) == EXIT_VERIFY_FAILED
    doc = json.loads(out.read_text())
    assert doc["config"]["exhaustive"] is True
    assert doc["aggregates"]["cond_mean_max_abs"] == 0


def test_verify_invalid_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["verify", "--config", p]) == EXIT_DATA
    p.write_text(json.dumps({"scenario": "nope"}))
    assert run(["verify", "--config", p]) == EXIT_DATA


def test_dump_fn_roundtrip(tmp_path, capsys):
    inp = tmp_path / "toy.csv"
    _write_survival_csv(inp)
    out = tmp_path / "km.txt"
    assert run(["dump-fn", "--input", inp, "--fn", "km", "--group", 1,
                "--tau", 3, "--output", out]) == EXIT_OK
    fn = StepFn.from_text(out.read_text())
    assert fn(1) == pytest.approx(2 / 3, abs=1e-15)
    assert fn(3) == pytest.approx(0, abs=1e-15)
    # stdout path
    assert run(["dump-fn", "--input", inp, "--fn", "at-risk"]) == EXIT_OK
    text = capsys.readouterr().out
    assert StepFn.from_text(text)(0) == 1


@pytest.mark.parametrize("group", [3, -1])
def test_dump_fn_group_out_of_range(tmp_path, capsys, group):
    # the toy data have two groups: 0 (pooled), 1 and 2 are valid
    inp = tmp_path / "toy.csv"
    _write_survival_csv(inp)
    assert run(["dump-fn", "--input", inp, "--fn", "km", "--group", group]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "0..2" in err and str(group) in err


_EXHAUSTIVE_NA = dict(
    scenario="survival-na", draws=24, outer_reps=1, exhaustive=True,
    group_laws=[{"kind": "exponential", "rate": 1.0}] * 3,
)


@pytest.mark.parametrize("sizes", [[2, 2], [3, 2, 3]])
def test_verify_unreachable_tau_quantile_is_usage_error(tmp_path, capsys, sizes):
    # tau_quantile 0.8 leaves 1 (N=4) or 2 (N=8) pooled times at or above
    # tau, fewer than the groups that must be at risk there
    cfg = _verify_config(tmp_path, **dict(
        _EXHAUSTIVE_NA, sizes=sizes, group_laws=_EXHAUSTIVE_NA["group_laws"][:len(sizes)]
    ))
    assert run(["verify", "--config", cfg, "--output", tmp_path / "r.json"]) == EXIT_USAGE
    assert "tau_quantile" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_reachable_tau_quantile_runs(tmp_path):
    cfg = _verify_config(tmp_path, **dict(
        _EXHAUSTIVE_NA, sizes=[4, 4], group_laws=_EXHAUSTIVE_NA["group_laws"][:2]
    ))
    out = tmp_path / "r.json"
    # exhaustive enumeration is judged against the N -> oo kernel, which
    # it misses at N=8: a finished run that fails verification
    assert run(["verify", "--config", cfg, "--output", out]) == EXIT_VERIFY_FAILED
    assert json.loads(out.read_text())["aggregates"]["n_cells"] > 0


@pytest.mark.parametrize("threads", [0, -1])
def test_verify_rejects_nonpositive_threads(tmp_path, capsys, threads):
    cfg = _verify_config(tmp_path)
    out = tmp_path / "r.json"
    assert run(["verify", "--config", cfg, "--output", out, "--threads", threads]) == EXIT_USAGE
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_default_threads_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    args = argparse.Namespace(threads=None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert _threads_from(args) == 3
    assert _threads_from(argparse.Namespace(threads=1)) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it
    assert _threads_from(args) == 64


def test_verify_seed_flag_keeps_stream_id(tmp_path):
    outs = {}
    for stream in (0, 5):
        cfg = _verify_config(tmp_path, seed={"master_seed": 77, "stream_id": stream})
        outs[stream] = tmp_path / f"r{stream}.json"
        run(["verify", "--config", cfg, "--output", outs[stream], "--seed", 12])
    docs = {k: json.loads(p.read_text()) for k, p in outs.items()}
    assert docs[5]["config"]["seed"] == {"master_seed": 12, "stream_id": 5}
    assert docs[0]["mc_mean"] != docs[5]["mc_mean"]
    # stream 5 under --seed 12 is the config seeded with master_seed 12
    cfg = _verify_config(tmp_path, seed={"master_seed": 12, "stream_id": 5})
    run(["verify", "--config", cfg, "--output", tmp_path / "r12.json"])
    assert (tmp_path / "r12.json").read_bytes() == outs[5].read_bytes()


_SURVIVAL_KERNEL = {
    "kind": "perm-survival-na",
    "lambdas": [0.5, 0.5],
    "grid": [0.5, 1.0],
    "tau": 2.0,
    "population": {"survival_exponential": {"fail_rates": [1.0, 1.0]}},
}


@pytest.mark.parametrize("subcommand, doc, named", [
    ("verify", [1, 2], "JSON object"),
    ("simulate", {"mode": "plain", "group_laws": [{"kind": "exponential"}] * 2,
                  "sizes": [5, 5]}, "'rate'"),
    ("kernel", {k: v for k, v in _SURVIVAL_KERNEL.items() if k != "tau"}, "'tau'"),
    ("kernel", dict(_SURVIVAL_KERNEL, population={"survival_exponential": {}}),
     "'fail_rates'"),
], ids=["verify-array", "simulate-no-rate", "kernel-no-tau", "kernel-no-fail-rates"])
def test_malformed_config_is_data_error(tmp_path, capsys, subcommand, doc, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    outputs = {
        "verify": ["--output", tmp_path / "r.json", "--seed", 3],
        "simulate": ["--output", tmp_path / "d.csv"],
        "kernel": ["--output-matrix", tmp_path / "m.csv", "--output-meta", tmp_path / "m.json"],
    }[subcommand]
    assert run([subcommand, "--config", cfg, *outputs]) == EXIT_DATA
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


_PLAIN_KERNEL = {
    "kind": "perm-indicator",
    "lambdas": [0.5, 0.5],
    "grid": [0.5, 1.0],
    "population": {"plain": {"kind": "exponential", "rate": 1.0}},
}
_SIMULATE = {
    "mode": "survival",
    "group_laws": [{"kind": "exponential", "rate": 1.0}] * 2,
    "censoring_laws": [{"kind": "exponential", "rate": 0.5}] * 2,
    "sizes": [4, 3],
    "seed": {"master_seed": 2},
}
_OUTPUTS = {
    "simulate": lambda d: ["--output", d / "d.csv"],
    "kernel": lambda d: ["--output-matrix", d / "m.csv", "--output-meta", d / "m.json"],
    "verify": lambda d: ["--output", d / "r.json"],
}


@pytest.mark.parametrize("subcommand, doc, named", [
    ("simulate", dict(_SIMULATE, group_laws=["exponential", "exponential"]), "group_laws"),
    ("kernel", dict(_PLAIN_KERNEL, population={"plain": "exponential"}), "population"),
    ("simulate", dict(_SIMULATE, mode="weird"), "mode"),
    ("simulate", dict(_SIMULATE, sizes=[3, "x"]), "sizes"),
    ("kernel", dict(_PLAIN_KERNEL, grid="abc"), "grid"),
    ("kernel", dict(_PLAIN_KERNEL, lambdas=0.5), "lambdas"),
    ("simulate", {**_SIMULATE, "censoring_law": _SIMULATE["censoring_laws"]}, "censoring_law"),
    ("kernel", dict(_PLAIN_KERNEL, kind="nope"), "kind"),
    ("kernel", dict(_SURVIVAL_KERNEL, population=_PLAIN_KERNEL["population"]), "population"),
], ids=["simulate-law-string", "kernel-law-string", "simulate-mode", "simulate-sizes",
        "kernel-grid", "kernel-lambdas", "simulate-misspelt-key", "kernel-kind",
        "kernel-population-for-kind"])
def test_schema_violation_names_the_field(tmp_path, capsys, subcommand, doc, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "invalid config" in err and named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


_SURVIVAL_VERIFY = {
    "scenario": "survival-na",
    "group_laws": [{"kind": "exponential", "rate": 1.0}] * 2,
    "censoring_laws": [{"kind": "exponential", "rate": 0.5}] * 2,
    "sizes": [20, 20],
    "draws": 100,
    "outer_reps": 1,
    "resample_kind": "permutation",
    "seed": {"master_seed": 4},
}
_NON_FINITE_DOCS = {
    "simulate-rate": ("simulate", lambda x: dict(
        _SIMULATE, group_laws=[{"kind": "exponential", "rate": x}] * 2)),
    "kernel-grid": ("kernel", lambda x: dict(_PLAIN_KERNEL, grid=[0.5, x])),
    "verify-grid": ("verify", lambda x: dict(_SURVIVAL_VERIFY, grid=[0.5, x])),
    "verify-tolerance": ("verify", lambda x: dict(_SURVIVAL_VERIFY, tolerance={"abs_tol": x})),
    "verify-tau": ("verify", lambda x: dict(_SURVIVAL_VERIFY, tau=x)),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("case", _NON_FINITE_DOCS)
def test_non_finite_config_constant_is_data_error(tmp_path, capsys, case, token):
    # Python's json reads NaN and +-Infinity, which JSON does not have
    subcommand, make = _NON_FINITE_DOCS[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(make(float(token))))
    assert token in cfg.read_text()
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    assert f"c.json: invalid JSON ({token} is not a JSON number)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("token", ["1e400", "-1e400"])
@pytest.mark.parametrize("case", _NON_FINITE_DOCS)
def test_overflowing_config_number_is_data_error(tmp_path, capsys, case, token):
    # Python's json reads a number beyond the largest double as +-inf
    subcommand, make = _NON_FINITE_DOCS[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(make(1234.5)).replace("1234.5", token))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    assert f"c.json: invalid JSON ({token} is not a JSON number)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("token, digits", [
    ("1" + "0" * 400, 401), ("-" + "9" * 400, 400), ("9" * 5000, 5000),
], ids=["401-digits", "negative-400-digits", "5000-digits"])
@pytest.mark.parametrize("case", ["simulate-rate", "kernel-grid", "verify-grid"])
def test_oversized_config_integer_is_data_error(tmp_path, capsys, case, token, digits):
    # JSON integers are unbounded, but one beyond the largest double
    # cannot become a rate or a grid point (and int() refuses more than
    # 4300 digits)
    subcommand, make = _NON_FINITE_DOCS[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(make(1234.5)).replace("1234.5", token))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"c.json: invalid JSON (an integer of {digits} digits is too large for a double)" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_seed_bound_is_the_largest_double(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    for seed, code in [(2**128, EXIT_OK), (int(sys.float_info.max), EXIT_OK),
                       (int(sys.float_info.max) + 1, EXIT_DATA)]:
        cfg.write_text(json.dumps(dict(_SIMULATE, seed={"master_seed": seed})))
        assert run(["simulate", "--config", cfg, "--output", tmp_path / "d.csv"]) == code
    assert "an integer of 309 digits is too large for a double" in capsys.readouterr().err


@pytest.mark.parametrize("draws", [1, 50, 99])
def test_too_few_draws_is_data_error(tmp_path, capsys, draws):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_SURVIVAL_VERIFY, draws=draws)))
    assert run(["verify", "--config", cfg, *_OUTPUTS["verify"](tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"invalid config at $.draws: {draws} is less than the minimum of" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("subcommand, doc", [("simulate", _SIMULATE), ("verify", _SURVIVAL_VERIFY)])
@pytest.mark.parametrize("sizes", [[10**20, 3], [2**62, 2**62]], ids=["1e20", "2^63"])
def test_sizes_beyond_an_array_index_are_data_error(tmp_path, capsys, subcommand, doc, sizes):
    # a pooled sample of more than np.iinfo(np.intp).max observations
    # cannot be a numpy array
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(doc, sizes=sizes)))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: sizes total {sum(sizes)} observations, more than the {2**63 - 1}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


_EXP3 = [{"kind": "exponential", "rate": 1.0}] * 3


def _rates(**rates):
    return dict(_SURVIVAL_KERNEL, population={"survival_exponential": rates})


@pytest.mark.parametrize("subcommand, doc, named", [
    ("verify", dict(_SURVIVAL_VERIFY, sizes=[20, 20, 20]),
     "law per group, got 2 group_laws for 3 groups"),
    ("simulate", dict(_SIMULATE, group_laws=_EXP3),
     "law per group, got 3 group_laws for 2 groups"),
    ("kernel", _rates(fail_rates=[1.0, 1.0, 1.0]), "rate per group, got 3 fail_rates for 2 groups"),
    ("verify", dict(_SURVIVAL_VERIFY, group_laws=_EXP3, sizes=[20, 20, 20]),
     "law per group, got 2 censoring_laws for 3 groups"),
    ("simulate", dict(_SIMULATE, group_laws=_EXP3, sizes=[4, 3, 3]),
     "law per group, got 2 censoring_laws for 3 groups"),
    ("kernel", _rates(fail_rates=[1.0, 1.0], cens_rates=[0.5]),
     "rate per group, got 1 cens_rates for 2 groups"),
], ids=["verify-laws", "simulate-laws", "kernel-fail-rates", "verify-censoring-laws",
        "simulate-censoring-laws", "kernel-cens-rates"])
def test_group_count_mismatch_is_data_error(tmp_path, capsys, subcommand, doc, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_DATA
    assert f"need one {named}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("subcommand, doc", [
    ("kernel", dict(_SURVIVAL_KERNEL, grid=[0.5, 3.0])),
    ("verify", dict(_SURVIVAL_VERIFY, grid=[0.5, 3.0], tau=2.0)),
])
def test_survival_grid_beyond_tau_is_usage_error(tmp_path, capsys, subcommand, doc):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp_path)]) == EXIT_USAGE
    assert "grid point 3.0 beyond tau=2.0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_simulate_seed_flag_keeps_stream_id(tmp_path):
    outs = {}
    for stream in (0, 5):
        cfg = tmp_path / f"sim{stream}.json"
        cfg.write_text(json.dumps(dict(_SIMULATE, seed={"master_seed": 2, "stream_id": stream})))
        outs[stream] = tmp_path / f"d{stream}.csv"
        assert run(["simulate", "--config", cfg, "--output", outs[stream], "--seed", 9]) == EXIT_OK
    assert outs[0].read_text() != outs[5].read_text()
    # stream 0 under --seed 9 is the config seeded with master_seed 9
    cfg = tmp_path / "sim9.json"
    cfg.write_text(json.dumps(dict(_SIMULATE, seed={"master_seed": 9})))
    assert run(["simulate", "--config", cfg, "--output", tmp_path / "d9.csv"]) == EXIT_OK
    assert (tmp_path / "d9.csv").read_text() == outs[0].read_text()


def test_simulate_seed_flag_replaces_only_the_master_seed(tmp_path):
    # stream 5 under --seed 9 is the config seeded with master_seed 9 and stream 5
    outs = {}
    for master, flag in ((2, ["--seed", 9]), (9, [])):
        cfg = tmp_path / f"sim{master}.json"
        cfg.write_text(json.dumps(dict(_SIMULATE, seed={"master_seed": master, "stream_id": 5})))
        outs[master] = tmp_path / f"d{master}.csv"
        assert run(["simulate", "--config", cfg, "--output", outs[master], *flag]) == EXIT_OK
    assert outs[2].read_bytes() == outs[9].read_bytes()


@pytest.mark.parametrize("env", [{"PERMBOOT_SEED": "abc"}, {"PERMBOOT_SEED": "7"},
                                 {"PERMBOOT_THREADS": "0"}],
                         ids=["seed-abc", "seed-7", "threads-0"])
@pytest.mark.parametrize("subcommand", ["simulate", "verify"])
def test_environment_sets_no_run_setting(tmp_path, monkeypatch, subcommand, env):
    # the seed comes from the config or --seed, the thread count from --threads
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SIMULATE if subcommand == "simulate" else _SURVIVAL_VERIFY))
    runs = []
    for setting in ({}, env):
        for key, value in setting.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / f"{len(runs)}.out"
        runs.append((run([subcommand, "--config", cfg, "--output", out]), out.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    ["verify", "--draws", 150], ["verify", "--exhaustive"], ["dump-fn", "--fn", "pooled-ecdf"],
], ids=["verify-draws", "verify-exhaustive", "dump-fn-pooled-ecdf"])
def test_inputs_that_repeat_another_are_usage_errors(tmp_path, argv):
    # draws and exhaustive mode are config fields; --fn ecdf --group 0
    # dumps the pooled ECDF
    (tmp_path / "plain.csv").write_text("group,value\n1,0.5\n1,2\n2,1\n")
    inputs = {
        "verify": ["--config", _verify_config(tmp_path)],
        "dump-fn": ["--input", tmp_path / "plain.csv"],
    }[argv[0]]
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run([*argv, *inputs, "--output", tmp_path / "out"])
    assert exc.value.code == EXIT_USAGE
    assert sorted(tmp_path.iterdir()) == before


# -- any one field of a valid simulate or kernel config replaced ---------

_WORDS = st.sampled_from([
    "kind", "rate", "lo", "hi", "points", "exponential", "uniform", "point-masses",
    "none", "plain", "survival", "survival_exponential", "fail_rates", "cens_rates",
    "master_seed", "stream_id", *(k.value for k in KernelKind),
])
_LEAF = st.none() | st.booleans() | st.integers(-3, 50) | _WORDS | st.text(max_size=3)
_NODE = (_LEAF | st.lists(_LEAF, max_size=3)
         | st.dictionaries(_WORDS | st.text(max_size=3), _LEAF, max_size=3))
_JSON = (_WORDS | _NODE | st.lists(_NODE, max_size=3)
         | st.dictionaries(_WORDS | st.text(max_size=3), _NODE, max_size=3))

# (subcommand, valid config, paths of the fields that may be replaced)
_FIELDS = [
    ("simulate", _SIMULATE, [
        ("mode",), ("group_laws",), ("group_laws", 0), ("group_laws", 1, "rate"),
        ("censoring_laws",), ("censoring_laws", 1), ("sizes",), ("sizes", 0),
        ("seed",), ("seed", "master_seed"), ("seed", "stream_id"),
    ]),
    ("kernel", _PLAIN_KERNEL, [
        ("kind",), ("lambdas",), ("lambdas", 1), ("grid",), ("grid", 0), ("tau",),
        ("population",), ("population", "plain"), ("population", "plain", "kind"),
    ]),
    ("kernel", dict(_SURVIVAL_KERNEL, kind="boot-km"), [
        ("kind",), ("lambdas",), ("grid",), ("tau",), ("population",),
        ("population", "survival_exponential"),
        ("population", "survival_exponential", "fail_rates"),
        ("population", "survival_exponential", "cens_rates"),
    ]),
]


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_FIELDS), pick=st.integers(0, 99), value=_JSON)
def test_one_field_replaced_never_raises(case, pick, value):
    subcommand, doc, paths = case
    doc = _replaced(doc, paths[pick % len(paths)], value)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "c.json"
        cfg.write_text(json.dumps(doc))
        assert run([subcommand, "--config", cfg, *_OUTPUTS[subcommand](tmp)]) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA
        )
