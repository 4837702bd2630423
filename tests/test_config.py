import itertools
import json
import random

import jsonschema
import pytest

from permboot import config
from permboot.config import (
    ExperimentConfig,
    KernelConfig,
    Law,
    LinearizationConfig,
    Scenario,
    SimulateConfig,
    ToleranceSpec,
    load_config_schema,
)
from permboot.empirical import LambdaVector, Mode
from permboot.errors import ContractError, DataError
from permboot.limits import KernelKind, PlainPopulation, exponential_survival_population
from permboot.resampling import ResampleKind, SeedSpec


def test_packaged_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(load_config_schema())


def test_law_error_names_the_missing_field():
    with pytest.raises(DataError, match="'rate' is a required property"):
        Law.from_dict({"kind": "exponential"})
    with pytest.raises(DataError, match=r"at \$\.kind"):
        Law.from_dict({"kind": "cauchy"})


def test_schema_read_once_per_process(monkeypatch):
    reads = []
    real = config.load_config_schema

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(config, "load_config_schema", counting)
    config._schema.cache_clear()
    try:
        exp = {"kind": "exponential", "rate": 1.0}
        for _ in range(2):
            ExperimentConfig.from_dict({
                "scenario": "plain-indicator", "group_laws": [exp, exp], "sizes": [5, 5],
                "draws": 100, "outer_reps": 1, "resample_kind": "permutation",
                "seed": {"master_seed": 1},
            })
            SimulateConfig.from_dict({"mode": "plain", "group_laws": [exp, exp], "sizes": [3, 3]})
            KernelConfig.from_dict({"kind": "perm-indicator", "lambdas": [0.5, 0.5],
                                    "grid": [1.0], "population": {"plain": exp}})
            Law.from_dict(exp)
    finally:
        config._schema.cache_clear()
    assert len(reads) == 1


# -- the schema walker against jsonschema --------------------------------

_LAW_DOCS = [
    {"kind": "exponential", "rate": 1.0},
    {"kind": "uniform", "lo": 0, "hi": 2},
    {"kind": "point-masses", "points": [[0.5, 0.25], [1.0, 0.75]]},
    {"kind": "none"},
]
_VALID_DOCS = {
    None: {
        "scenario": "survival-na", "group_laws": _LAW_DOCS[:2], "censoring_laws": _LAW_DOCS[3:],
        "sizes": [5, 5], "draws": 100, "outer_reps": 2, "resample_kind": "permutation",
        "seed": {"master_seed": 1, "stream_id": 0}, "grid": {"pooled_quantiles": [0.2, 0.5]},
        "tolerance": {"abs_tol": 0.05, "se_multiplier": 4}, "tau": None, "tau_quantile": 0.8,
        "target": "plugin", "exhaustive": False,
    },
    "simulate_config": {"mode": "survival", "group_laws": _LAW_DOCS[:2], "censoring_laws": None,
                        "sizes": [3, 4], "seed": {"master_seed": 0}},
    "kernel_config": {
        "kind": "perm-km", "lambdas": [0.5, 0.5], "grid": [0.5, 1.0], "tau": 2.0,
        "population": {"survival_exponential": {"fail_rates": [1.0, 1.5], "cens_rates": [0.5, 0]}},
    },
    "law": _LAW_DOCS[2],
}
# an atom of every JSON type, and values some keyword accepts elsewhere
_ATOMS = [None, True, False, 0, 1, 2, -1, 2.0, 0.5, 1.5, -0.5, 1e9, "", "x", "exponential",
          "pooled-deciles", "perm-indicator", [], [1.0], [[0.5, 1]], _LAW_DOCS[:2], {},
          _LAW_DOCS[3], {"plain": _LAW_DOCS[0]}, {"pooled_quantiles": [0.5]}]


def _containers(doc, path=()):
    if isinstance(doc, (dict, list)):
        yield path, doc
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _containers(value, (*path, key))


def _with(doc, path, new):
    """doc with the container at path replaced by new; the rest is shared."""
    if not path:
        return new
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _with(doc[path[0]], path[1:], new)
    return copy


def _mutate(doc, rng):
    """doc with one value replaced by an atom, one key deleted, one
    misspelt or extra key added, or one item appended."""
    path, node = rng.choice(list(_containers(doc)))
    keys = list(node) if isinstance(node, dict) else range(len(node))
    op = rng.randrange(3)
    if op == 0 and keys:
        new = type(node)(node)
        new[rng.choice(keys)] = rng.choice(_ATOMS)
    elif op == 1 and keys and isinstance(node, dict):
        new = dict(node)
        del new[rng.choice(keys)]
    elif isinstance(node, dict):
        key = rng.choice([*keys, "extra"])
        new = {**node, rng.choice([key + "s", key[:-1], "extra"]): rng.choice(_ATOMS)}
    else:
        new = [*node, rng.choice([*node, *_ATOMS])]
    return _with(doc, path, new)


def test_walker_agrees_with_jsonschema_on_a_mutation_corpus():
    schema = load_config_schema()
    root = jsonschema.Draft202012Validator(schema)
    rng = random.Random(2026)
    checked = accepted = single = 0
    for definition, base in _VALID_DOCS.items():
        sub = schema if definition is None else schema["$defs"][definition]
        oracle = root if definition is None else root.evolve(schema=sub)
        for _ in range(1250):
            doc = base
            for _ in range(rng.randint(1, 2)):
                doc = _mutate(doc, rng)
            errors = list(itertools.islice(oracle.iter_errors(doc), 2))
            first = next(config._errors(doc, sub), None)
            assert (first is None) == (not errors), (definition, doc, first)
            if len(errors) == 1:
                assert first == (tuple(errors[0].path), errors[0].message), (definition, doc)
                single += 1
            checked += 1
            accepted += not errors
    # 359 documents are valid, and 2784 have exactly one error
    assert checked == 5000 and accepted > 250 and single > 2000


def _subschemas(schema):
    yield schema
    for key, value in schema.items() if isinstance(schema, dict) else ():
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from _subschemas(sub)
        elif key in ("allOf", "oneOf"):
            for sub in value:
                yield from _subschemas(sub)
        elif key in ("items", "if", "then"):
            yield from _subschemas(value)


def test_walker_supports_every_keyword_of_the_packaged_schema():
    # the walker raises on a keyword it does not support, whatever the doc
    subschemas = list(_subschemas(load_config_schema()))
    assert len(subschemas) > 50
    for sub in subschemas:
        list(config._errors(None, sub))


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"properties": {"a": {"anyOf": [{"type": "string"}]}}},
    {"additionalProperties": {"type": "string"}},
    {"if": {"const": 1}, "then": True, "else": False},
    {"$ref": "https://example.com/schema"},
], ids=["pattern", "nested-anyOf", "additionalProperties-schema", "else", "remote-ref"])
def test_walker_rejects_unsupported_keywords(schema):
    with pytest.raises(ContractError, match="unsupported schema"):
        list(config._errors({"a": "x"}, schema))


@pytest.mark.parametrize("doc, schema, valid", [
    (2.0, {"type": "integer"}, True),
    (2.5, {"type": "integer"}, False),
    (True, {"type": "integer"}, False),
    (False, {"type": "number"}, False),
    (True, {"enum": [1]}, False),
    (1, {"const": True}, False),
    (1.0, {"const": 1}, True),
    (False, {"const": 0}, False),
    ([1], {"enum": [1]}, False),
    (None, {"type": ["number", "null"]}, True),
    (float("nan"), {"minimum": 0}, True),  # as jsonschema: NaN compares false
    (1, {"oneOf": [{"type": "integer"}, {"type": "number"}]}, False),  # valid under both
    (1.5, {"oneOf": [{"type": "integer"}, {"type": "number"}]}, True),
    ("x", {"if": {"const": "y"}, "then": False}, True),
    ("y", {"if": {"const": "y"}, "then": False}, False),
])
def test_walker_keeps_json_schema_rules(doc, schema, valid):
    assert config._is_valid(doc, schema) is valid
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) is valid


def test_with_master_seed_keeps_stream_id():
    doc = {"seed": {"master_seed": 1, "stream_id": 5}}
    assert config.with_master_seed(doc, 9) == {"seed": {"master_seed": 9, "stream_id": 5}}
    assert config.with_master_seed({}, 9) == {"seed": {"master_seed": 9}}
    assert config.with_master_seed(doc, None) is doc
    assert config.with_master_seed({"seed": 3}, 9) == {"seed": 3}  # left to the schema


def test_simulate_config_defaults_and_cross_checks():
    exp = {"kind": "exponential", "rate": 1.0}
    cfg = SimulateConfig.from_dict({"mode": "survival", "group_laws": [exp, exp], "sizes": [3, 4]})
    assert cfg.censoring_laws == (Law.none(), Law.none())
    assert cfg.seed.master_seed == 0 and cfg.seed.stream_id == 0
    with pytest.raises(DataError, match="one law per group"):
        SimulateConfig.from_dict({"mode": "plain", "group_laws": [exp, exp], "sizes": [3, 3, 3]})
    with pytest.raises(DataError, match="one law per group, got 2 censoring_laws for 3 groups"):
        SimulateConfig.from_dict({"mode": "survival", "group_laws": [exp] * 3, "sizes": [3] * 3,
                                  "censoring_laws": [exp, exp]})
    for none in (None, []):
        cfg = SimulateConfig.from_dict({"mode": "survival", "group_laws": [exp] * 3,
                                        "sizes": [3] * 3, "censoring_laws": none})
        assert cfg.censoring_laws == (Law.none(),) * 3


def test_read_config_needs_a_json_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"a": 1}))
    assert config.read_config(path) == {"a": 1}
    path.write_text("[1]")
    with pytest.raises(DataError, match="JSON object"):
        config.read_config(path)


_EXP = {"kind": "exponential", "rate": 1.0}
_TIED = {"kind": "point-masses", "points": [[0.5, 0.5], [1.0, 0.5]]}


def _survival_config(sizes, **over):
    return {
        "scenario": "survival-na", "group_laws": [_EXP] * len(sizes), "sizes": sizes,
        "draws": 200, "outer_reps": 1, "resample_kind": "bootstrap",
        "seed": {"master_seed": 1}, **over,
    }


@pytest.mark.parametrize("sizes", [[2, 2], [3, 2, 3], [2, 2, 2, 2, 2, 2, 2]])
def test_unreachable_tau_quantile_is_rejected(sizes):
    with pytest.raises(ContractError, match="tau_quantile"):
        ExperimentConfig.from_dict(_survival_config(sizes))


@pytest.mark.parametrize("over", [
    {"sizes": [4, 4]},
    {"sizes": [2, 2], "tau": 1.0},  # an explicit tau is not a quantile
    {"sizes": [2, 2], "tau_quantile": 0.5},  # 2 of 4 times at or above
    {"sizes": [2, 2], "group_laws": [_TIED, _TIED]},  # ties can reach it
    {"sizes": [2, 2], "censoring_laws": [_EXP, _TIED]},
    {"sizes": [2, 2], "scenario": "plain-indicator"},
])
def test_reachable_tau_quantile_is_accepted(over):
    ExperimentConfig.from_dict(_survival_config(**over))


def test_unreachable_tau_quantile_rejected_on_any_ladder_rung():
    law = Law.exponential(1.0)
    rungs = dict(group_laws=(law, law), ladder=((20, 20), (2, 2)), draws=5,
                 resample_kind=ResampleKind.PERMUTATION, seed=SeedSpec(1))
    with pytest.raises(ContractError, match=r"sizes \[2, 2\]"):
        LinearizationConfig(scenario="rmst", **rungs)
    LinearizationConfig(scenario="wilcoxon", **rungs)


_PLAIN = dict(
    scenario=Scenario.PLAIN_INDICATOR, group_laws=(Law.exponential(1.0),) * 2, sizes=(20, 20),
    draws=100, outer_reps=2, resample_kind=ResampleKind.PERMUTATION, seed=SeedSpec(1),
)
_SURVIVAL = dict(_PLAIN, scenario=Scenario.SURVIVAL_NA)
# the schema's "number" admits NaN and infinities in a Python dict
_KERNEL_DOC = {"kind": "perm-indicator", "lambdas": [0.5, 0.5], "grid": [0.5, float("nan")],
               "population": {"plain": {"kind": "exponential", "rate": 1}}}
_KERNEL = dict(kind=KernelKind.PERM_INDICATOR, lambdas=LambdaVector((0.5, 0.5)), grid=(0.5, 1.0),
               population=PlainPopulation(Law.exponential(1.0).cdf))
_SURVIVAL_KERNEL = dict(
    _KERNEL, kind=KernelKind.PERM_SURVIVAL_NA, tau=2.0,
    population=exponential_survival_population([1.0, 1.5], [0.5, 0.5], (0.5, 0.5), 2.0),
)
_SIMULATE = dict(
    mode=Mode.SURVIVAL, group_laws=(Law.exponential(1.0),) * 2, sizes=(10, 10),
    censoring_laws=None, seed=SeedSpec(1),
)
_LADDER = dict(
    scenario="survival-km", group_laws=(Law.exponential(1.0),) * 2, ladder=((20, 20),),
    draws=5, resample_kind=ResampleKind.PERMUTATION, seed=SeedSpec(1),
)


@pytest.mark.parametrize("make, fields", [
    (ExperimentConfig, dict(_PLAIN, outer_reps=0)),
    (ExperimentConfig, dict(_PLAIN, grid=())),
    (ExperimentConfig, dict(_PLAIN, grid={"pooled_quantiles": ()})),
    (ExperimentConfig, dict(_PLAIN, grid={"pooled_quantiles": (0.5, 1.5)})),
    (ExperimentConfig, dict(_PLAIN, grid={"pooled_quantiles": (-0.1,)})),
    # the schema's open interval: pooled quantiles 0 and 1 are rejected
    (ExperimentConfig, dict(_PLAIN, grid={"pooled_quantiles": (0.0, 0.5)})),
    (ExperimentConfig, dict(_PLAIN, grid={"pooled_quantiles": (0.5, 1.0)})),
    (ExperimentConfig, dict(_PLAIN, grid=[0.5, 1.0])),  # a list, not a tuple
    (ExperimentConfig, dict(_PLAIN, grid="deciles")),
    (ExperimentConfig, dict(_PLAIN, grid={"quantiles": (0.5,)})),
    (ExperimentConfig, dict(_SURVIVAL, tau_quantile=0.0)),
    (ExperimentConfig, dict(_SURVIVAL, tau_quantile=-0.5)),
    (ExperimentConfig, dict(_SURVIVAL, tau_quantile=1.0)),
    (LinearizationConfig, dict(_LADDER, draws=0)),
    (LinearizationConfig, dict(_LADDER, tau_quantile=0.1)),
    (LinearizationConfig, dict(_LADDER, tau_quantile=0.05)),
    (LinearizationConfig, dict(_LADDER, tau_quantile=1.2)),
    (LinearizationConfig, dict(_LADDER, ladder=((20, 20), (20, 20, 20)))),
    (ExperimentConfig, dict(_PLAIN, grid=(0.5, float("nan")))),
    (ExperimentConfig, dict(_PLAIN, grid=(0.5, float("inf")))),
    (ExperimentConfig, dict(_SURVIVAL, tau=0.0)),
    (ExperimentConfig, dict(_SURVIVAL, tau=-1.0)),
    (ExperimentConfig, dict(_SURVIVAL, tau=float("nan"))),
    (ExperimentConfig, dict(_SURVIVAL, tau=float("inf"))),
    (Law.exponential, dict(rate=float("nan"))),
    (Law.exponential, dict(rate=float("inf"))),
    (Law.uniform, dict(lo=0.0, hi=float("inf"))),
    (Law.uniform, dict(lo=-float("inf"), hi=0.0)),
    (Law.point_masses, dict(points=[(0.0, float("nan")), (1.0, 1.0)])),
    (ToleranceSpec, dict(abs_tol=float("nan"))),
    (ToleranceSpec, dict(abs_tol=float("inf"))),
    (ToleranceSpec, dict(se_multiplier=float("nan"))),
    (KernelConfig.from_dict, dict(d=_KERNEL_DOC)),
    (KernelConfig.from_dict, dict(d=dict(_KERNEL_DOC, grid=[0.5, float("inf")]))),
    (KernelConfig, dict(_KERNEL, grid=())),
    (KernelConfig, dict(_KERNEL, tau=float("nan"))),
    (KernelConfig, dict(_KERNEL, tau=0.0)),
    (KernelConfig, dict(_KERNEL, tau=float("inf"))),
    (KernelConfig, dict(_SURVIVAL_KERNEL, grid=(0.5, 3.0))),
    (KernelConfig, dict(_SURVIVAL_KERNEL, kind=KernelKind.BOOT_KM, grid=(2.5, 0.5))),
    # built directly, a group-count mismatch stays a ContractError (from a file: DataError)
    (ExperimentConfig, dict(_PLAIN, sizes=(20, 20, 20))),
    (SimulateConfig, dict(_SIMULATE, sizes=(10, 10, 10))),
    (SimulateConfig, dict(_SIMULATE, censoring_laws=(Law.none(),) * 3)),
    (exponential_survival_population, dict(fail_rates=[1.0], cens_rates=[0.5, 0.5],
                                           lambdas=(0.5, 0.5), tau=2.0)),
])
def test_library_configs_reject_bad_values(make, fields):
    # direct construction gets no schema check, so the constructors must
    # reject what would otherwise fail later inside numpy
    with pytest.raises(ContractError):
        make(**fields)


def test_simulate_config_built_directly_checks_itself():
    # as from a file: no censoring laws means no censoring
    cfg = SimulateConfig(**_SIMULATE)
    assert cfg.censoring_laws == (Law.none(),) * 2
    assert cfg.simulate().sizes == (10, 10)


def test_kernel_grid_may_reach_tau():
    KernelConfig(**dict(_SURVIVAL_KERNEL, grid=(2.0, 0.5)))
    KernelConfig(**dict(_KERNEL, grid=(0.5, 3.0), tau=2.0))  # a plain kernel has no tau
