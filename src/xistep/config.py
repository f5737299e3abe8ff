"""JSON experiment configuration: parsing with field-level diagnostics,
config hashing, and assembly of model objects."""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .moments import ScalarParams
from .rationals import parse_rational
from .setfun import BaseMeasure, DyadicSet, MutationSpec
from .simplex import SimplexAtom, XiMeasure, build_rate_table
from .simulator import ModelParams


class ConfigError(ValueError):
    """Parse or validation failure, naming the offending field."""

    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _rat(value, field_name):
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise ConfigError(field_name, str(e)) from e


def check_replicas(n):
    if n < 1:
        raise ConfigError("replicas", f"must be at least 1, got {n}")
    return n


_MISSING = object()


def _get(data, key, field_name, default=_MISSING):
    if key in data:
        return data[key]
    if default is _MISSING:
        raise ConfigError(f"{field_name}.{key}" if field_name else key,
                          "missing required field")
    return default


def parse_xi(data, field_name="xi"):
    mass = _rat(_get(data, "kingman_mass", field_name, "0"),
                f"{field_name}.kingman_mass")
    atoms = []
    for i, a in enumerate(_get(data, "atoms", field_name, [])):
        where = f"{field_name}.atoms[{i}]"
        coords = [_rat(c, f"{where}.coords[{j}]")
                  for j, c in enumerate(_get(a, "coords", where))]
        weight = _rat(_get(a, "weight", where), f"{where}.weight")
        try:
            atoms.append(SimplexAtom(tuple(coords), weight))
        except ValueError as e:
            raise ConfigError(where, str(e)) from e
    try:
        return XiMeasure(mass, tuple(atoms))
    except ValueError as e:
        raise ConfigError(field_name, str(e)) from e


def parse_base_measure(data, field_name):
    level = _get(data, "grid_level", field_name, 0)
    dens = [_rat(d, f"{field_name}.densities[{i}]")
            for i, d in enumerate(_get(data, "densities", field_name))]
    atoms = []
    for i, a in enumerate(_get(data, "atoms", field_name, [])):
        where = f"{field_name}.atoms[{i}]"
        atoms.append((_rat(_get(a, "at", where), f"{where}.at"),
                      _rat(_get(a, "mass", where), f"{where}.mass")))
    try:
        return BaseMeasure(level, tuple(dens), tuple(atoms))
    except ValueError as e:
        raise ConfigError(field_name, str(e)) from e


def parse_dyadic_set(data, field_name):
    level = _get(data, "level", field_name)
    cells = _get(data, "cells", field_name)
    try:
        return DyadicSet(int(level), frozenset(int(c) for c in cells))
    except (ValueError, TypeError) as e:
        raise ConfigError(field_name, str(e)) from e


@dataclass(frozen=True)
class ExperimentConfig:
    xi: XiMeasure
    theta: Fraction
    base: BaseMeasure          # mutation target law
    u1: Fraction
    u2: Fraction
    e_star: DyadicSet
    alpha: Fraction            # = base.measure(e_star), validated
    mu1: BaseMeasure
    mu2: BaseMeasure
    replicas: int
    seed: int
    b_max: int
    options: dict = field(default_factory=dict)
    digest: str = ""           # sha256 of the raw config bytes

    def model_params(self):
        table = build_rate_table(self.xi, self.b_max)
        return ModelParams(self.xi, MutationSpec(self.theta, base=self.base),
                           self.u1, self.u2, table)

    def scalar_params(self):
        table = build_rate_table(self.xi, min(self.b_max, 4))
        return ScalarParams.from_rate_table(table, self.theta, self.alpha,
                                            self.u1, self.u2)


def parse_config(data, digest=""):
    xi = parse_xi(_get(data, "xi", ""))
    theta = _rat(_get(data, "theta", ""), "theta")
    mut = _get(data, "mutation", "")
    kind = _get(mut, "kind", "mutation", "uniform")
    if kind != "uniform":
        raise ConfigError("mutation.kind",
                          f"unsupported kind {kind!r} (only 'uniform')")
    base = parse_base_measure(_get(mut, "base", "mutation"), "mutation.base")
    u1 = _rat(_get(data, "u1", ""), "u1")
    u2 = _rat(_get(data, "u2", ""), "u2")
    e_star = parse_dyadic_set(_get(data, "e_star", ""), "e_star")
    alpha = base.measure(e_star)
    if "alpha" in data and _rat(data["alpha"], "alpha") != alpha:
        raise ConfigError(
            "alpha", f"declared {data['alpha']} but the mutation base "
            f"assigns mass {alpha} to e_star")
    mu1 = (parse_base_measure(data["mu1"], "mu1")
           if "mu1" in data else base)
    mu2 = (parse_base_measure(data["mu2"], "mu2")
           if "mu2" in data else base)
    replicas = check_replicas(int(_get(data, "replicas", "", 1000)))
    seed = int(_get(data, "seed", "", 0))
    b_max = int(_get(data, "b_max", "", 8))
    options = _get(data, "options", "", {})
    if not isinstance(options, dict):
        raise ConfigError("options", "must be an object")
    return ExperimentConfig(xi, theta, base, u1, u2, e_star, alpha,
                            mu1, mu2, replicas, seed, b_max, options, digest)


def load_config(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError("(file)", f"invalid JSON: {e}") from e
    return parse_config(data, digest)
