"""JSON experiment configuration: parsing with field-level diagnostics,
config hashing, and assembly of model objects."""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .moments import ScalarParams
from .rationals import parse_rational
from .setfun import BaseMeasure, DyadicSet, MutationSpec
from .simplex import MAX_BLOCKS, SimplexAtom, XiMeasure, build_rate_table


# finest dyadic grid a config may name: a level-L set is built cell by cell
MAX_GRID_LEVEL = 16


class ConfigError(ValueError):
    """Parse or validation failure, naming the offending field."""

    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _rat(value, field_name):
    try:
        return parse_rational(value)
    except ValueError as e:
        raise ConfigError(field_name, str(e)) from e


def _signed(value, field_name, positive=False):
    """A rational input that must be nonnegative, or positive."""
    x = _rat(value, field_name)
    if x < 0 or positive and x == 0:
        sign = "positive" if positive else "nonnegative"
        raise ConfigError(field_name, f"must be {sign}, got {x}")
    return x


def parse_int(value, field_name, low=None, high=None):
    """An integer input (a JSON integer or an integer string) within
    [low, high] where given."""
    try:
        if isinstance(value, (bool, float)):   # int() takes True, cuts 2.5
            raise TypeError
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(field_name,
                          f"must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise ConfigError(field_name, f"must be at least {low}, got {n}")
    if high is not None and n > high:
        raise ConfigError(field_name, f"must be at most {high}, got {n}")
    return n


def _order(value, field_name, b_max):
    """A moment order: at least 1 and covered by the rate table."""
    k = parse_int(value, field_name, low=1)
    if k > b_max:
        raise ConfigError(field_name, f"order {k} exceeds b_max={b_max}")
    return k


_MISSING = object()

def _path(field_name, key):
    return f"{field_name}.{key}" if field_name else key


def _known(data, field_name, keys):
    """Refuse a key of the object `data` at `field_name` that is not
    one of the fields `keys` read there, so that no misspelled field is
    skipped without a word."""
    if isinstance(data, dict):
        for key in data:
            if key not in keys:
                raise ConfigError(_path(field_name, key), "unknown field")


def _get(data, key, field_name, default=_MISSING):
    if not isinstance(data, dict):
        raise ConfigError(field_name or "(config)", "must be an object")
    if key in data:
        return data[key]
    if default is _MISSING:
        raise ConfigError(_path(field_name, key), "missing required field")
    return default


def _items(data, key, field_name, default=_MISSING):
    """(field name, item) for each item of a list field."""
    where = _path(field_name, key)
    value = _get(data, key, field_name, default)
    if not isinstance(value, list):
        raise ConfigError(where, "must be a list")
    return [(f"{where}[{i}]", v) for i, v in enumerate(value)]


def _distinct(entries):
    """The values of (field name, value) list entries, refusing an entry
    that repeats an earlier one: a set, or a dict of rows keyed by it,
    would drop it without a word."""
    first = {}
    for where, v in entries:
        key = tuple(v) if isinstance(v, list) else v
        if key in first:
            raise ConfigError(where, f"repeats {first[key]} ({v})")
        first[key] = where
    return [v for _, v in entries]


def parse_xi(data, field_name="xi"):
    _known(data, field_name, ("kingman_mass", "atoms"))
    mass = _signed(_get(data, "kingman_mass", field_name, "0"),
                   f"{field_name}.kingman_mass")
    atoms = []
    for where, a in _items(data, "atoms", field_name, []):
        _known(a, where, ("coords", "weight"))
        coords = []
        for f, c in _items(a, "coords", where):
            c = _signed(c, f, positive=True)
            if coords and c > coords[-1]:
                raise ConfigError(f, "must be at most the coordinate "
                                  f"before it, {coords[-1]}, got {c}")
            coords.append(c)
        weight = _signed(_get(a, "weight", where), f"{where}.weight",
                         positive=True)
        try:
            atoms.append(SimplexAtom(tuple(coords), weight))
        except ValueError as e:   # no coordinate, or their sum exceeds 1
            raise ConfigError(f"{where}.coords", str(e)) from e
    return XiMeasure(mass, tuple(atoms))


def parse_base_measure(data, field_name):
    _known(data, field_name, ("grid_level", "densities", "atoms"))
    level = parse_int(_get(data, "grid_level", field_name, 0),
                 f"{field_name}.grid_level", 0, MAX_GRID_LEVEL)
    dens = [_signed(d, f) for f, d in _items(data, "densities", field_name)]
    if len(dens) != 1 << level:
        raise ConfigError(f"{field_name}.densities",
                          f"need one density per grid cell, 2^grid_level = "
                          f"{1 << level}, got {len(dens)}")
    atoms = []
    for where, a in _items(data, "atoms", field_name, []):
        _known(a, where, ("at", "mass"))
        at = _rat(_get(a, "at", where), f"{where}.at")
        if not 0 <= at <= 1:
            raise ConfigError(f"{where}.at", f"must lie in [0,1], got {at}")
        atoms.append((at, _signed(_get(a, "mass", where), f"{where}.mass")))
    try:
        return BaseMeasure(level, tuple(dens), tuple(atoms))
    except ValueError as e:   # a total mass other than 1
        raise ConfigError(field_name, str(e)) from e


def parse_dyadic_set(data, field_name):
    _known(data, field_name, ("level", "cells"))
    level = parse_int(_get(data, "level", field_name), f"{field_name}.level",
                 0, MAX_GRID_LEVEL)
    cells = _distinct([(f, parse_int(c, f, 0, (1 << level) - 1))
                       for f, c in _items(data, "cells", field_name)])
    return DyadicSet(level, frozenset(cells))


def _index(value, field_name, b_max):
    """One options.indices entry: a pair [n, m] of total order 1..b_max."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(field_name, "must be a pair [n, m]")
    n, m = (parse_int(v, field_name, low=0) for v in value)
    _order(n + m, field_name, b_max)
    return [n, m]


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

    def model_params(self, blocks=None):
        """Dual-chain params. A run started from `blocks` blocks never holds
        more, so when that count is given the collision rates are tabulated
        only up to min(b_max, blocks)."""
        from .simulator import ModelParams
        b_max = self.b_max if blocks is None else min(self.b_max, blocks)
        return ModelParams(self.xi, MutationSpec(self.theta, base=self.base),
                           self.u1, self.u2, b_max)

    def scalar_params(self, order=4):
        """Exact-engine params whose table covers `order` lineages, capped
        at b_max, and at least the four the named rates need."""
        if self.theta == 0:
            raise ConfigError("theta", "the exact moment engine needs "
                              "theta > 0: at theta = 0 the order-1 system "
                              "is singular")
        table = build_rate_table(self.xi, max(min(order, self.b_max), 4))
        return ScalarParams.from_rate_table(table, self.theta, self.alpha,
                                            self.u1, self.u2)


def parse_config(data, digest=""):
    _known(data, "", ("xi", "theta", "mutation", "u1", "u2", "e_star",
                      "alpha", "mu1", "mu2", "replicas", "seed", "b_max",
                      "options"))
    xi = parse_xi(_get(data, "xi", ""))
    theta = _signed(_get(data, "theta", ""), "theta")
    mut = _get(data, "mutation", "")
    _known(mut, "mutation", ("kind", "base"))
    kind = _get(mut, "kind", "mutation", "uniform")
    if kind != "uniform":
        raise ConfigError("mutation.kind",
                          f"unsupported kind {kind!r} (only 'uniform')")
    base = parse_base_measure(_get(mut, "base", "mutation"), "mutation.base")
    u1 = _signed(_get(data, "u1", ""), "u1", positive=True)
    u2 = _signed(_get(data, "u2", ""), "u2", positive=True)
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
    replicas = parse_int(_get(data, "replicas", "", 1000), "replicas", low=1)
    seed = parse_int(_get(data, "seed", "", 0), "seed")
    b_max = parse_int(_get(data, "b_max", "", 8), "b_max", 1, MAX_BLOCKS)
    options = _get(data, "options", "", {})
    if not isinstance(options, dict):
        raise ConfigError("options", "must be an object")
    _known(options, "options",
           ("order", "indices", "eta", "n", "m", "t", "mode"))
    options = dict(options)
    if "order" in options:
        options["order"] = _order(options["order"], "options.order", b_max)
    if "indices" in options:
        options["indices"] = _distinct(
            [(where, _index(idx, where, b_max))
             for where, idx in _items(options, "indices", "options")])
        if not options["indices"]:
            raise ConfigError("options.indices", "must not be empty")
    if "eta" in options:
        eta = _items(options, "eta", "options")
        if not eta:
            raise ConfigError("options.eta", "must not be empty")
        if len(eta) > b_max:
            raise ConfigError("options.eta",
                              f"{len(eta)} blocks exceed b_max={b_max}")
        options["eta"] = [parse_int(c, where, 1, 2) for where, c in eta]
    for key in ("n", "m"):
        if key in options:
            options[key] = parse_int(options[key], f"options.{key}", low=0)
    if "n" in options or "m" in options:
        _order(options.get("n", 1) + options.get("m", 0), "options.n+m",
               b_max)
    if "t" in options:
        options["t"] = _rat(options["t"], "options.t")
        if options["t"] < 0:
            raise ConfigError("options.t",
                              f"must be at least 0, got {options['t']}")
    if options.get("mode", "exact") not in ("exact", "mc"):
        raise ConfigError("options.mode", "must be 'exact' or 'mc', got "
                          f"{options['mode']!r}")
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
