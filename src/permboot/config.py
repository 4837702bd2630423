"""Sampling laws and the configs of ``simulate``, ``kernel`` and ``verify``.

Every config document is checked against the one packaged JSON schema
(the verify config at its root, the simulate and kernel configs and the
shared law and seed definitions under ``$defs``), read once per
process, by a walker of the JSON Schema keywords that schema uses:
``type``, ``enum``, ``const``, ``required``, ``properties``,
``additionalProperties: false``, ``min``/``maxProperties``, ``items``,
``min``/``maxItems``, ``minimum``, ``exclusiveMinimum``/``Maximum``,
local ``$ref``, ``allOf``, ``oneOf``, ``if``/``then`` and boolean
schemas.  Any other keyword is a ``ContractError``.  A schema violation
is a ``DataError`` naming the first offending field found depth first
in schema order, with jsonschema's message, and so is a list without
one law or rate per group; the rest (proportions summing to 1, a
survival grid within tau) is checked when the parsed objects are built.
Built directly, those objects reject with a ``ContractError`` what the
schema rejects (one law per size, pooled quantiles in (0, 1), ...).
"""

from __future__ import annotations

import enum
import functools
import importlib.resources
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .empirical import LambdaVector, Mode, MultiSampleData
from .errors import ContractError, DataError
from .limits import KernelKind, PlainPopulation, exponential_survival_population
from .resampling import ResampleKind, SeedSpec

__all__ = [
    "Law",
    "ToleranceSpec",
    "Scenario",
    "ExperimentConfig",
    "LinearizationConfig",
    "SimulateConfig",
    "KernelConfig",
    "load_config_schema",
    "validate",
    "read_config",
    "with_master_seed",
    "simulate_plain_groups",
    "simulate_survival_groups",
]


# -- schema ------------------------------------------------------------

def load_config_schema() -> dict:
    text = (
        importlib.resources.files("permboot")
        .joinpath("schemas/verify_config.schema.json")
        .read_text()
    )
    return json.loads(text)


@functools.cache
def _schema() -> dict:
    """The packaged schema, read and parsed once per process."""
    return load_config_schema()


_JSON_TYPES = {"null": type(None), "boolean": bool, "number": (int, float), "string": str,
               "array": list, "object": dict}
# size keyword: (the type it applies to, the comparison a violating
# size makes, jsonschema's message, and its message at one bound)
_SIZES = {
    "minItems": (list, operator.lt, "is too short", {1: "should be non-empty"}),
    "maxItems": (list, operator.gt, "is too long", {0: "is expected to be empty"}),
    "minProperties": (dict, operator.lt, "does not have enough properties",
                      {1: "should be non-empty"}),
    "maxProperties": (dict, operator.gt, "has too many properties",
                      {0: "is expected to be empty"}),
}
# bound keyword: (the comparison a violating number makes, the message)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}
# annotations, the definitions $ref reads, and the then that if reads
_SKIPPED = ("$schema", "title", "description", "$defs", "then")


def _is_type(doc, name: str) -> bool:
    """JSON Schema's types: a bool is only a boolean, 2.0 is an integer."""
    if isinstance(doc, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(doc, int) or isinstance(doc, float) and doc.is_integer()
    return isinstance(doc, _JSON_TYPES[name])


def _equal(doc, value) -> bool:
    """JSON equality with a scalar enum or const value: 1 equals 1.0, and
    true equals neither."""
    return isinstance(doc, bool) == isinstance(value, bool) and doc == value


def _resolve(ref: str):
    """The subschema of the packaged schema at a local $ref."""
    if not ref.startswith("#/"):
        raise ContractError(f"unsupported schema $ref {ref!r}")
    node = _schema()
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _errors(doc, schema, path=()):
    """Each violation of schema by doc as (path, message), in the order
    jsonschema's iter_errors finds them: keyword by keyword in schema
    order, depth first, with jsonschema's messages.  A keyword the
    packaged schema does not use is a ContractError."""
    if isinstance(schema, bool):
        if not schema:
            yield path, f"False schema does not allow {doc!r}"
        return
    for key, value in schema.items():
        if key == "type":
            types = value if isinstance(value, list) else [value]
            if not any(_is_type(doc, name) for name in types):
                yield path, f"{doc!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if not any(_equal(doc, each) for each in value):
                yield path, f"{doc!r} is not one of {value!r}"
        elif key == "const":
            if not _equal(doc, value):
                yield path, f"{value!r} was expected"
        elif key == "required":
            for name in value if isinstance(doc, dict) else ():
                if name not in doc:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items() if isinstance(doc, dict) else ():
                if name in doc:
                    yield from _errors(doc[name], sub, (*path, name))
        elif key == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            extras = sorted(k for k in doc if k not in known) if isinstance(doc, dict) else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, (f"Additional properties are not allowed "
                             f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "items":
            for index, item in enumerate(doc) if isinstance(doc, list) else ():
                yield from _errors(item, value, (*path, index))
        elif key in _SIZES:
            kind, violates, message, at_bound = _SIZES[key]
            if isinstance(doc, kind) and violates(len(doc), value):
                yield path, f"{doc!r} {at_bound.get(value, message)}"
        elif key in _BOUNDS:
            violates, message = _BOUNDS[key]
            if _is_type(doc, "number") and violates(doc, value):
                yield path, f"{doc!r} {message} {value!r}"
        elif key == "$ref":
            yield from _errors(doc, _resolve(value), path)
        elif key == "allOf":
            for sub in value:
                yield from _errors(doc, sub, path)
        elif key == "oneOf":
            valid = [sub for sub in value if _is_valid(doc, sub)]
            if not valid:
                yield path, f"{doc!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                each = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{doc!r} is valid under each of {each}"
        elif key == "if":
            if _is_valid(doc, value):
                yield from _errors(doc, schema.get("then", True), path)
        elif key not in _SKIPPED:
            raise ContractError(f"unsupported schema keyword {key!r}: {value!r}")


def _is_valid(doc, schema) -> bool:
    return next(_errors(doc, schema), None) is None


def validate(doc, definition: str | None = None) -> None:
    """Raise a DataError naming the first violation, unless doc is valid
    against the packaged schema (the verify config) or against its
    ``$defs`` entry ``definition``."""
    schema = _schema() if definition is None else _schema()["$defs"][definition]
    for path, message in _errors(doc, schema):
        where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise DataError(f"invalid config{f' at ${where}' if path else ''}: {message}")


def read_config(path) -> dict:
    """The JSON object in the file at path.  ``NaN``, ``Infinity`` and
    ``-Infinity``, which Python's ``json`` reads but JSON does not have,
    are a ``DataError``, and so is a number that overflows to an
    infinity, such as ``1e400``, or an integer beyond the largest double
    (``sys.float_info.max``; seeds too)."""

    def reject(token):
        raise DataError(f"{path}: invalid JSON ({token} is not a JSON number)")

    def finite(token):
        x = float(token)
        return x if math.isfinite(x) else reject(token)

    def bounded(token):
        # past 309 digits (and int()'s limit of 4300) it is beyond a double
        digits = len(token.lstrip("-"))
        if digits > 309 or abs(int(token)) > sys.float_info.max:
            raise DataError(f"{path}: invalid JSON (an integer of {digits} digits is too large "
                            "for a double)")
        return int(token)

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=reject, parse_float=finite, parse_int=bounded)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    return doc


def with_master_seed(doc: dict, master: int | None) -> dict:
    """doc with its seed's master_seed replaced by master and its
    stream_id kept; doc itself when master is None or its seed is not
    an object (which the schema then reports)."""
    seed = doc.get("seed", {})
    if master is None or not isinstance(seed, dict):
        return doc
    return {**doc, "seed": {**seed, "master_seed": master}}


def _check_one_per_group(what: str, doc: dict, keys, m: int) -> None:
    """Raise a DataError unless each list ``doc[key]`` given has m entries."""
    for key in keys:
        if key in doc and len(doc[key]) != m:
            raise DataError(f"need one {what} per group, got {len(doc[key])} {key} for {m} groups")


def _check_one_law_per_group(doc: dict) -> None:
    """One group law and, unless null or [] (no censoring), one censoring law per size."""
    keys = ["group_laws", "censoring_laws"] if doc.get("censoring_laws") else ["group_laws"]
    _check_one_per_group("law", doc, keys, len(doc["sizes"]))


def _check_sizes_fit(doc: dict) -> None:
    """Raise a DataError unless the pooled sample of ``doc["sizes"]``
    has at most as many observations as a numpy array can index."""
    total, limit = sum(doc["sizes"]), np.iinfo(np.intp).max
    if total > limit:
        raise DataError(f"sizes total {total} observations, more than the {limit} "
                        "a numpy array can hold")


def _seed(d: dict) -> SeedSpec:
    return SeedSpec(int(d["master_seed"]), int(d.get("stream_id", 0)))


# -- sampling laws -----------------------------------------------------

@dataclass(frozen=True)
class Law:
    """A univariate sampling law used to simulate group data."""

    kind: str
    params: tuple

    @classmethod
    def exponential(cls, rate):
        if not 0 < rate < math.inf:
            raise ContractError(f"rate must be positive and finite, got {rate}")
        return cls("exponential", (float(rate),))

    @classmethod
    def uniform(cls, lo, hi):
        if not -math.inf < lo < hi < math.inf:
            raise ContractError(f"need finite lo < hi, got {lo}, {hi}")
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def point_masses(cls, points):
        xs = tuple(float(x) for x, _p in points)
        ps = tuple(float(p) for _x, p in points)
        if not abs(sum(ps) - 1) <= 1e-12 or not all(p >= 0 for p in ps):
            raise ContractError("point masses must be a probability vector")
        return cls("point-masses", (xs, ps))

    @classmethod
    def none(cls):
        """No censoring: censoring times at infinity."""
        return cls("none", ())

    @classmethod
    def from_dict(cls, d):
        validate(d, "law")  # the schema's keys are the constructors' parameters
        make = {"exponential": cls.exponential, "uniform": cls.uniform,
                "point-masses": cls.point_masses, "none": cls.none}[d["kind"]]
        return make(**{key: value for key, value in d.items() if key != "kind"})

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.params[0], size=n)
        if self.kind == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size=n)
        if self.kind == "point-masses":
            xs, ps = self.params
            return rng.choice(np.asarray(xs), size=n, p=np.asarray(ps))
        if self.kind == "none":
            return np.full(n, np.inf)
        raise ContractError(f"unknown law kind {self.kind!r}")

    def cdf(self, t):
        if self.kind == "exponential":
            return 0.0 if t < 0 else 1.0 - math.exp(-self.params[0] * t)
        if self.kind == "uniform":
            lo, hi = self.params
            return min(1.0, max(0.0, (t - lo) / (hi - lo)))
        if self.kind == "point-masses":
            xs, ps = self.params
            return sum(p for x, p in zip(xs, ps) if x <= t)
        if self.kind == "none":
            return 0.0
        raise ContractError(f"unknown law kind {self.kind!r}")


def _censoring_or_none(censoring_laws, m: int) -> tuple:
    """The censoring laws of m groups: those given, or no censoring."""
    if not censoring_laws:
        return (Law.none(),) * m
    if len(censoring_laws) != m:
        raise ContractError("need one censoring law per group")
    return tuple(censoring_laws)


def simulate_plain_groups(group_laws, sizes, rng) -> MultiSampleData:
    """Groups of values, each drawn from its law in turn from rng."""
    values = [law.sample(rng, n) for law, n in zip(group_laws, sizes)]
    return MultiSampleData.from_columns(np.concatenate(values), sizes)


def simulate_survival_groups(group_laws, censoring_laws, sizes, rng) -> MultiSampleData:
    """Right-censored groups of (min(X, C), 1{X <= C}) pairs; each group
    draws its failure times X, then its censoring times C, from rng."""
    times, status = [], []
    for law, cens, n in zip(group_laws, censoring_laws, sizes):
        x = law.sample(rng, n)
        c = cens.sample(rng, n)
        times.append(np.minimum(x, c))
        status.append(x <= c)
    return MultiSampleData.from_columns(np.concatenate(times), sizes, np.concatenate(status))


# -- simulate and kernel -----------------------------------------------

@dataclass(frozen=True)
class SimulateConfig:
    """A ``permboot simulate`` config: one law and one size per group,
    and one censoring law per group or none (no censoring)."""

    mode: Mode
    group_laws: tuple
    sizes: tuple
    censoring_laws: tuple | None
    seed: SeedSpec

    def __post_init__(self):
        if len(self.group_laws) != len(self.sizes):
            raise ContractError("need one law per group")
        object.__setattr__(
            self, "censoring_laws", _censoring_or_none(self.censoring_laws, len(self.sizes))
        )

    @classmethod
    def from_dict(cls, d: dict) -> "SimulateConfig":
        validate(d, "simulate_config")
        _check_one_law_per_group(d)
        _check_sizes_fit(d)
        return cls(
            mode=Mode(d["mode"]),
            group_laws=tuple(Law.from_dict(law) for law in d["group_laws"]),
            sizes=tuple(int(n) for n in d["sizes"]),
            censoring_laws=tuple(Law.from_dict(law) for law in d.get("censoring_laws") or ()),
            seed=_seed(d.get("seed", {"master_seed": 0})),
        )

    def simulate(self) -> MultiSampleData:
        """The dataset this config describes, drawn from its seed."""
        rng = self.seed.rng()
        if self.mode is Mode.PLAIN:
            return simulate_plain_groups(self.group_laws, self.sizes, rng)
        return simulate_survival_groups(self.group_laws, self.censoring_laws, self.sizes, rng)


def _check_grid_points(grid) -> None:
    if not grid or not all(math.isfinite(t) for t in grid):
        raise ContractError(f"an explicit grid needs finite points, got {grid}")


def _check_tau(tau) -> None:
    if tau is not None and not 0 < tau < math.inf:
        raise ContractError(f"tau must be None or positive and finite, got {tau}")


def _check_grid_within_tau(grid, tau) -> None:
    if tau is not None and max(grid) > tau:
        raise ContractError(f"grid point {max(grid)} beyond tau={tau}")


@dataclass(frozen=True)
class KernelConfig:
    """A ``permboot kernel`` config: a kernel kind, limiting group
    proportions, a grid and the population of the limit."""

    kind: KernelKind
    lambdas: LambdaVector
    grid: tuple
    population: object
    tau: float | None = None

    def __post_init__(self):
        _check_grid_points(self.grid)
        _check_tau(self.tau)
        if self.kind not in (KernelKind.PERM_INDICATOR, KernelKind.BOOT_INDICATOR):
            _check_grid_within_tau(self.grid, self.tau)

    @classmethod
    def from_dict(cls, d: dict) -> "KernelConfig":
        validate(d, "kernel_config")
        lambdas = LambdaVector(tuple(d["lambdas"]))
        pop = d["population"]
        if "plain" in pop:
            population = PlainPopulation(Law.from_dict(pop["plain"]).cdf)
        else:
            rates = pop["survival_exponential"]
            _check_one_per_group("rate", rates, ["fail_rates", "cens_rates"], len(lambdas))
            population = exponential_survival_population(
                rates["fail_rates"], rates.get("cens_rates", [0.0] * len(lambdas)),
                lambdas, d["tau"],
            )
        return cls(
            kind=KernelKind(d["kind"]),
            lambdas=lambdas,
            grid=tuple(float(t) for t in d["grid"]),
            population=population,
            tau=d.get("tau"),
        )


# -- verify ------------------------------------------------------------

@dataclass(frozen=True)
class ToleranceSpec:
    """Cell passes when |dev| <= max(abs_tol, se_multiplier * SE)."""

    abs_tol: float = 0.02
    se_multiplier: float = 4.0

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ContractError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not 2 <= self.se_multiplier < math.inf:
            raise ContractError(
                f"se_multiplier must be finite and at least 2, got {self.se_multiplier}"
            )


class Scenario(enum.Enum):
    PLAIN_INDICATOR = "plain-indicator"
    SURVIVAL_NA = "survival-na"
    SURVIVAL_KM = "survival-km"


def _check_tau_quantile(q, low=0.0) -> None:
    if not low < q < 1:
        raise ContractError(f"tau_quantile must lie in ({low}, 1), got {q}")


def _check_tau_reachable(config, sizes) -> None:
    """Reject sizes whose groups can never all be at risk at the pooled
    ``tau_quantile`` quantile.

    Without ties only N - ceil((N - 1) q) pooled times lie at or above
    that quantile ((N - 1) q is numpy's linear-interpolation index), and
    every group needs one of them.  Only point masses make ties, so
    configs with a point-masses law are left to the dataset retries.
    """
    laws = (*config.group_laws, *config.censoring_laws)
    if any(law.kind == "point-masses" for law in laws):
        return
    N, m = sum(sizes), len(sizes)
    at_or_above = N - math.ceil((N - 1) * config.tau_quantile)
    if at_or_above < m:
        raise ContractError(
            f"tau_quantile {config.tau_quantile} leaves {at_or_above} of the "
            f"pooled times of sizes {list(sizes)} at or above tau, fewer than "
            f"the {m} groups that must be at risk there"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    group_laws: tuple
    sizes: tuple
    draws: int
    outer_reps: int
    resample_kind: ResampleKind
    seed: SeedSpec
    censoring_laws: tuple | None = None
    grid: object = "pooled-deciles"
    tolerance: ToleranceSpec = ToleranceSpec()
    tau: float | None = None
    tau_quantile: float = 0.8
    target: str = "plugin"
    exhaustive: bool = False
    raw: dict | None = None

    def __post_init__(self):
        if len(self.sizes) != len(self.group_laws):
            raise ContractError("need one law per group")
        if len(self.sizes) < 2 or any(n < 2 for n in self.sizes):
            raise ContractError("need m >= 2 groups of size >= 2")
        if not self.exhaustive and self.draws < 100:
            raise ContractError("draws must be >= 100 unless exhaustive")
        if self.exhaustive and sum(self.sizes) > 8:
            raise ContractError("exhaustive mode limited to N <= 8")
        if self.outer_reps < 1:
            raise ContractError(f"outer_reps must be >= 1, got {self.outer_reps}")
        if isinstance(self.grid, dict) and set(self.grid) == {"pooled_quantiles"}:
            probs = self.grid["pooled_quantiles"]
            if not probs or any(not 0 < q < 1 for q in probs):
                raise ContractError(f"pooled_quantiles must be nonempty and in (0, 1): {probs}")
        elif isinstance(self.grid, tuple):
            _check_grid_points(self.grid)
        elif not (isinstance(self.grid, str) and self.grid == "pooled-deciles"):
            raise ContractError(
                "grid must be a tuple of points, {'pooled_quantiles': ...} or 'pooled-deciles',"
                f" got {self.grid!r}"
            )
        _check_tau_quantile(self.tau_quantile)
        _check_tau(self.tau)
        if self.scenario is not Scenario.PLAIN_INDICATOR:
            object.__setattr__(
                self, "censoring_laws", _censoring_or_none(self.censoring_laws, len(self.sizes))
            )
            if self.tau is None:
                _check_tau_reachable(self, self.sizes)
        if self.target not in ("plugin", "analytic"):
            raise ContractError("target must be 'plugin' or 'analytic'")
        if self.exhaustive and self.resample_kind is not ResampleKind.PERMUTATION:
            raise ContractError("exhaustive mode applies to permutations only")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        validate(d)
        _check_one_law_per_group(d)
        _check_sizes_fit(d)
        cens = d.get("censoring_laws")
        grid = d.get("grid", "pooled-deciles")
        if isinstance(grid, list):
            grid = tuple(sorted(float(g) for g in grid))
        elif isinstance(grid, dict):
            grid = {"pooled_quantiles": tuple(grid["pooled_quantiles"])}
        return cls(
            scenario=Scenario(d["scenario"]),
            group_laws=tuple(Law.from_dict(law) for law in d["group_laws"]),
            sizes=tuple(int(n) for n in d["sizes"]),
            draws=int(d.get("draws", 0)),  # an exhaustive config may leave it out
            outer_reps=int(d["outer_reps"]),
            resample_kind=ResampleKind(d["resample_kind"]),
            seed=_seed(d["seed"]),
            censoring_laws=tuple(Law.from_dict(law) for law in cens) if cens else None,
            grid=grid,
            tolerance=ToleranceSpec(**d.get("tolerance", {})),
            tau=d.get("tau"),
            tau_quantile=d.get("tau_quantile", 0.8),
            target=d.get("target", "plugin"),
            exhaustive=d.get("exhaustive", False),
            raw=dict(d),
        )

    def kernel_kind(self) -> KernelKind:
        perm = self.resample_kind is ResampleKind.PERMUTATION
        if self.scenario is Scenario.PLAIN_INDICATOR:
            return KernelKind.PERM_INDICATOR if perm else KernelKind.BOOT_INDICATOR
        if self.scenario is Scenario.SURVIVAL_NA:
            return KernelKind.PERM_SURVIVAL_NA if perm else KernelKind.BOOT_SURVIVAL_NA
        return KernelKind.PERM_KM if perm else KernelKind.BOOT_KM


@dataclass(frozen=True)
class LinearizationConfig:
    scenario: str  # "wilcoxon" | "survival-na" | "survival-km" | "rmst"
    group_laws: tuple
    ladder: tuple  # sequence of per-group size tuples
    draws: int
    resample_kind: ResampleKind
    seed: SeedSpec
    censoring_laws: tuple | None = None
    tau_quantile: float = 0.8

    def __post_init__(self):
        if self.scenario not in ("wilcoxon", "survival-na", "survival-km", "rmst"):
            raise ContractError(f"unknown linearization scenario {self.scenario!r}")
        if self.draws < 1:
            raise ContractError(f"draws must be >= 1, got {self.draws}")
        if any(len(sizes) != len(self.group_laws) for sizes in self.ladder):
            raise ContractError("every ladder rung needs one size per group law")
        # a survival grid runs over the pooled 0.1 .. tau_quantile - 0.1 quantiles
        _check_tau_quantile(self.tau_quantile, 0.0 if self.scenario == "wilcoxon" else 0.1)
        if self.scenario != "wilcoxon":
            object.__setattr__(
                self, "censoring_laws",
                _censoring_or_none(self.censoring_laws, len(self.group_laws)),
            )
            for sizes in self.ladder:
                _check_tau_reachable(self, sizes)
